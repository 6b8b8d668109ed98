"""Reference computations the benchmark checks vistest's outputs against.

Nothing here imports vistest. The random-phase table comes from midpoint
phase quadrature of product Poissons (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Rev. 56 (2014) 385):
for a uniform global phase the interior block of the table is e^{-E}
times a polynomial in cos(phi) of degree k + k', so midpoint nodes on
[0, pi] integrate it exactly once there are more than K of them, and the
tail bucket (a Poisson survival function) converges geometrically.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gammaln, pdtrc

TAIL_BUDGET = 1e-9
# |log-likelihood ratio| at or below this is a tie in exact arithmetic
# (cells (0,0), (0,1) and (1,0) have the same probability at every |V|),
# so the program's decision there rests on rounding and either is allowed.
TIE = 1e-9


@lru_cache(maxsize=8192)
def table(energy, vis, truncation):
    """(K+1) x (K+1) joint count table at |V| = vis under a uniform
    global phase, with the mass at or beyond K folded into the K-th
    row and column."""
    k = truncation
    nodes = 2 * k + 64
    phi = (np.arange(nodes) + 0.5) * math.pi / nodes
    i_plus = energy * (1.0 + vis * np.cos(phi)) / 2.0
    counts = np.arange(k)
    log_fact = gammaln(counts + 1.0)

    def port(intensity):
        cols = np.empty((nodes, k + 1))
        with np.errstate(divide="ignore"):
            log_i = np.log(intensity)[:, None]
        cols[:, :k] = np.exp(counts * log_i - intensity[:, None] - log_fact)
        cols[:, k] = pdtrc(k - 1, intensity)  # P(count >= K)
        return cols

    out = port(i_plus).T @ port(energy - i_plus) / nodes
    out.setflags(write=False)
    return out


def _log_sum_exp(x):
    top = x.max()
    return top + math.log(float(np.exp(x - top).sum()))


def chernoff(p1, p2):
    """(information, alpha_star, sigma) of two tables: minimises
    log sum p1^(1-a) p2^a over a in [0, 1] by bounded Brent search;
    sigma is the standard deviation of the log-likelihood ratio under
    the tilted distribution at alpha_star."""
    a, b = np.ravel(p1), np.ravel(p2)
    mask = (a > 0.0) & (b > 0.0)
    l1, l2 = np.log(a[mask]), np.log(b[mask])
    res = minimize_scalar(lambda x: _log_sum_exp((1.0 - x) * l1 + x * l2),
                          bounds=(0.0, 1.0), method="bounded",
                          options={"xatol": 1e-12})
    alpha = float(res.x)
    w = np.exp((1.0 - alpha) * l1 + alpha * l2 - res.fun)
    w /= w.sum()
    llr = l1 - l2
    mean = float(w @ llr)
    sigma = math.sqrt(float(w @ (llr - mean) ** 2))
    return -float(res.fun), alpha, sigma


def search_truncation(hi, floor=15):
    """Smallest K >= floor whose Poisson tail beyond K at energy hi is
    under TAIL_BUDGET: the resolution an energy search up to hi uses."""
    k = floor
    while pdtrc(k, hi) >= TAIL_BUDGET:
        k += 1
    return k


@lru_cache(maxsize=65536)
def ratio(v1, v2, energy, truncation):
    """Chernoff information per detected photon at one energy."""
    return chernoff(table(energy, v1, truncation),
                    table(energy, v2, truncation))[0] / energy


@lru_cache(maxsize=4096)
def best_ratio(v1, v2, lo, hi, truncation):
    """(energy, ratio) maximising information per photon on [lo, hi]:
    a 120-point log grid, then bounded Brent refinement in log energy
    between the neighbours of its best point."""
    grid = np.geomspace(lo, hi, 120)
    values = [ratio(v1, v2, float(e), truncation) for e in grid]
    i = int(np.argmax(values))
    a = math.log(grid[max(i - 1, 0)])
    b = math.log(grid[min(i + 1, len(grid) - 1)])
    res = minimize_scalar(lambda x: -ratio(v1, v2, math.exp(x), truncation),
                          bounds=(a, b), method="bounded",
                          options={"xatol": 1e-9})
    if -res.fun >= values[i]:
        return math.exp(res.x), -float(res.fun)
    return float(grid[i]), values[i]


def error_brackets(p1, p2, q, n):
    """Exact conditional errors of the likelihood-ratio test between
    tables p1 and p2 (decide V1 when the summed log ratio is > 0) over
    n = 1 or 2 repetitions, enumerating all cells or cell pairs.

    Returns ((lo, hi) of P(decide V2 | p1), (lo, hi) of P(decide V1 | q)):
    the brackets differ only by outcomes whose log ratio is a tie.
    """
    llr = (np.log(p1) - np.log(p2)).ravel()
    p1, q = np.ravel(p1), np.ravel(q)
    if n == 1:
        llr_n, w1, wq = llr, p1, q
    elif n == 2:
        llr_n = (llr[:, None] + llr[None, :]).ravel()
        w1, wq = np.outer(p1, p1).ravel(), np.outer(q, q).ravel()
    else:
        raise ValueError("exact errors are enumerated for n = 1, 2 only")
    e21 = (float(w1[llr_n < -TIE].sum()), float(w1[llr_n <= TIE].sum()))
    e12 = (float(wq[llr_n > TIE].sum()), float(wq[llr_n >= -TIE].sum()))
    return e21, e12


def binary_entropy(x):
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def appended_rate(delta):
    """Appended-bits code rate (1 - D)(1 - h2(D / (1 - D)))."""
    return (1.0 - delta) * (1.0 - binary_entropy(delta / (1.0 - delta)))


def quantum_bits(n, rate, energy, reps):
    """Bits revealed by the phaseless protocol on n-bit inputs:
    reps * energy * log2(2 n / rate)."""
    return reps * energy * math.log2(2.0 * n / rate)


def best_classical_bits(n, eps):
    return 4.0 * math.ceil(0.5 * math.log2(1.0 / eps)) * math.sqrt(n)


def classical_bound_bits(n, eps):
    return (1.0 - 2.0 * math.sqrt(eps)) * (math.sqrt(n / (2.0 * math.log(2.0))) - 1.0)
