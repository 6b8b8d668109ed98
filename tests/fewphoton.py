"""An exact few-photon oracle for the random-phase split laws and their
Chernoff information, on the standard library's fractions (no mpmath).

The rows are exact rationals at a rational |V| (every float is one):
B_V(k | n) = C(n, k) 2^-n E_phi[(1 + V cos phi)^k (1 - V cos phi)^(n - k)],
and E[cos^(2j) phi] = C(2j, j) / 4^j, so each entry is a polynomial in V^2
with rational coefficients. For n = 2 the row is (1/4 + V^2/8, 1/2 - V^2/4,
1/4 + V^2/8), the Hong-Ou-Mandel dip.

C from the rows: sum p1^(1 - a) p2^a = 1 - G(a), where
G(a) = sum_n Pois(n; E) g_n(a) and g_n(a) = sum_k B1 [a expm1(u) - expm1(a u)],
with u = log(B2 / B1) taken from the exact difference B2 - B1. Every term is
>= 0 (weighted AM-GM), and C = max over a of -log1p(-G(a)): no sum near 1 is
formed, so a small C keeps its digits. Rows 0 and 1 carry no |V| (g = 0).

Truncation: only the rows n <= n_max are summed. With n_max = 40 the
Poisson tail P(n > 40; E) is below 2e-15 up to E = 8.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

N_MAX = 40


@lru_cache(maxsize=None)
def _even_coefficients(n_max):
    """Per row n, then k: C(2j, j) [x^2j] (1 + x)^k (1 - x)^(n - k), j = 0..n // 2,
    so that B_V(k | n) = C(n, k) 2^-n sum_j coef_j (V^2 / 4)^j."""
    polynomials, rows = [[1]], [[[1]]]
    for _ in range(n_max):  # (1 - x) times the k = 0 polynomial, (1 + x) times each
        polynomials = ([[a - b for a, b in zip(polynomials[0] + [0], [0] + polynomials[0])]]
                       + [[a + b for a, b in zip(p + [0], [0] + p)] for p in polynomials])
        rows.append([[math.comb(2 * j, j) * c for j, c in enumerate(p[::2])] for p in polynomials])
    return rows


@lru_cache(maxsize=None)
def exact_split_rows(v, n_max=N_MAX):
    """B_V(k | n) as Fractions, rows[n][k] for 0 <= k <= n <= n_max, at |V| =
    Fraction(v) exactly: sum_j coef_j (p^2 / 4q^2)^j for V = p / q, over the
    common denominator (4q^2)^(n // 2)."""
    p, q = Fraction(v).as_integer_ratio()
    top = [p ** (2 * j) for j in range(n_max // 2 + 1)]
    bottom = [(4 * q * q) ** j for j in range(n_max // 2 + 1)]
    return [[Fraction(math.comb(n, k) * sum(c * top[j] * bottom[n // 2 - j]
                                            for j, c in enumerate(coef)), 2 ** n * bottom[n // 2])
             for k, coef in enumerate(row)] for n, row in enumerate(_even_coefficients(n_max))]


@lru_cache(maxsize=None)
def _cells(v1, v2, n_max):
    """n, B1 and u = log(B2 / B1) of each cell of rows 2..n_max, u from the exact
    relative difference."""
    rows1, rows2 = exact_split_rows(v1, n_max), exact_split_rows(v2, n_max)
    cells = [(n, b1, b2) for n in range(2, n_max + 1) for b1, b2 in zip(rows1[n], rows2[n])]
    return (np.array([n for n, _, _ in cells], dtype=float),
            np.array([float(b1) for _, b1, _ in cells]),
            np.log1p([float((b2 - b1) / b1) for _, b1, b2 in cells]))


_POWERS = np.arange(2, 17)  # of u in the series of a cell's gap; the next term is below 1e-31


def series_information(v1, v2, energy, n_max=N_MAX):
    """The Chernoff information C(E) of the random-phase laws at |V| = v1 and
    v2 from the exact rows n <= n_max: alpha* by bisection on the sign of
    G'(alpha) (G is concave, with G'(0) >= 0 >= G'(1)), then -log1p(-G(alpha*)).
    A cell's gap a expm1(u) - expm1(a u) = sum_m (a - a^m) u^m / m! is summed as
    that series where |u| < 0.1, where the closed form's terms cancel."""
    n, b1, u = _cells(v1, v2, n_max)
    weight = b1 * np.exp(n * math.log(energy) - energy - np.array([math.lgamma(m + 1) for m in n]))
    small = np.abs(u) < 0.1
    series = np.array([weight[small] @ u[small] ** m / math.factorial(m) for m in _POWERS])
    w, u = weight[~small], u[~small]

    def gap(a):  # G(a) and G'(a)
        return (w @ (a * np.expm1(u) - np.expm1(a * u)) + (a - a ** _POWERS) @ series,
                w @ (np.expm1(u) - u * np.exp(a * u)) + (1 - _POWERS * a ** (_POWERS - 1)) @ series)

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid)[1] > 0.0 else (lo, mid)
    return -math.log1p(-gap(0.5 * (lo + hi))[0])
