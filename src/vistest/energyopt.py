"""Energy-per-repetition optimization of information per detected photon:
its curves, and the random-phase and coherent visibility maps."""

from dataclasses import dataclass, field

import numpy as np

from . import chernoff, photostat
from .util import DomainError, golden_section

DEFAULT_SEARCH_RANGE = (0.1, 30.0)
DEFAULT_TOL = 0.05
_TAIL_BUDGET = 1e-9
MAX_SEARCH_TRUNCATION = 300  # the rule's K at E = 208
SCAN_POINTS = 60  # log-spaced energies of the scan ahead of the refinement
_COARSE = (*range(0, SCAN_POINTS, 6), SCAN_POINTS - 1)  # the map's shared scan indices


class IndistinguishablePairError(DomainError):
    """Equal visibilities: the hypotheses cannot be told apart."""


@dataclass(frozen=True)
class EnergyScanResult:
    """Scanned energies, the ratio at each, and the refined maximum."""

    energies: np.ndarray = field(repr=False)
    ratios: np.ndarray = field(repr=False)
    optimum_energy: float
    optimum_ratio: float
    at_boundary: bool  # the optimum is an end of the search range


def search_truncation(energy, floor=15):
    """Smallest K >= floor with Poisson tail P(count > K) below 1e-9 at
    this energy: the resolution of info_per_photon's tables. An array of
    energies gets a list of K, one each, from one Poisson-law call. A floor
    below 1, or a K above MAX_SEARCH_TRUNCATION, is refused; the latter
    names the largest energy, and bounds the energy search's range."""
    energies = np.asarray(energy, dtype=float)
    if not np.all(energies > 0.0):
        raise DomainError("energy must be > 0")
    if floor < 1:
        raise DomainError("truncation must be >= 1")
    top = max(floor, MAX_SEARCH_TRUNCATION)
    if np.all(np.isfinite(energies)):
        # P(count > K) for K = 0..top, summed from the far end
        laws = photostat.poisson_counts(energies, top + 1)
        fits = np.cumsum(laws[..., ::-1], axis=-1)[..., -2::-1][..., floor:] < _TAIL_BUDGET
        if np.all(fits.any(axis=-1)):
            return (floor + fits.argmax(axis=-1)).tolist()
    raise DomainError(f"E = {energies.max():g} needs a resolution K above the limit "
                      f"{MAX_SEARCH_TRUNCATION}; energies up to about 208 "
                      f"can be searched")


def info_per_photon(v1_mag, v2_mag, energy, truncation=15):
    """Chernoff information per detected photon, C/energy, of the full
    random-phase statistics at K = search_truncation(energy, truncation)."""
    d1, d2 = photostat.hypothesis_tables(v1_mag, v2_mag, energy,
                                         search_truncation(energy, truncation))
    return chernoff.chernoff_information(d1, d2).information / energy


def _scan_argmax(ratio):
    """np.argmax of the 60 scan ratios, read through ratio(n). When the
    ratios at _COARSE rise strictly to their largest and then fall
    strictly, a unimodal scan peaks between the coarse indices beside it,
    where integer ternary search (Kiefer 1953) finds it; else all are read."""
    coarse = [ratio(n) for n in _COARSE]
    top, steps = int(np.argmax(coarse)), np.diff(coarse)
    if not (np.all(steps[:top] > 0.0) and np.all(steps[top:] < 0.0)):
        return int(np.argmax([ratio(n) for n in range(_COARSE[-1] + 1)]))
    a = _COARSE[top - 1] + 1 if top > 0 else 0
    b = _COARSE[top + 1] - 1 if top < len(_COARSE) - 1 else _COARSE[-1]
    while b - a > 2:
        m1, m2 = a + (b - a) // 3, b - (b - a) // 3
        a, b = (m1 + 1, b) if ratio(m1) < ratio(m2) else (a, m2 - 1)
    return max(range(a, b + 1), key=ratio)


def _scan_pairs(values, pairs, truncation, search_range, tol, optimum_only=False):
    """EnergyScanResult for each (i, j) in pairs, values[i] against
    values[j], from split-law cells (photostat._split_rows) built once per
    distinct value: the ratio at E minimises over the cells up to its
    Poisson cut, and no table is built. Each pair solves what its argmax
    needs (all points, or _scan_argmax's if optimum_only; others stay NaN).
    Newton at scan point n > 0 starts at the alpha* of the _COARSE point
    below n, and in the refinement at the argmax's; point 0 is solved cold.
    So no result depends on the order in which the points are solved."""
    lo, hi = search_range
    if not 0.0 < lo < hi:
        raise DomainError("search range must satisfy 0 < lo < hi")
    if not tol > 0.0:
        raise DomainError("tol must be > 0")
    with np.errstate(invalid="ignore"):  # an infinite hi scans as inf, refused next
        energies = np.geomspace(lo, hi, SCAN_POINTS)
    search_truncation(energies, truncation)  # refuses a top above about 208 first
    if not pairs:
        return []
    last = len(photostat._poisson_rows(hi)) - 1
    distinct, index = np.unique(values, return_inverse=True)
    log_b = np.log(photostat._split_rows(distinct, last))
    rows = np.repeat(np.arange(last + 1), np.arange(1, last + 2))  # n of each cell
    results = []
    for pair in pairs:
        i, j = sorted(index[list(pair)])  # C is symmetric; in sorted order, bit for bit too
        l1, d = log_b[i], log_b[j] - log_b[i]
        ratios, alphas = np.full((2, SCAN_POINTS), np.nan)

        def solve(energy, start):
            log_pois = np.log(photostat._poisson_rows(energy))
            cells = len(log_pois) * (len(log_pois) + 1) // 2
            alpha, log_min, _ = chernoff._minimum(l1[:cells] + log_pois[rows[:cells]],
                                                  d[:cells], start)
            return alpha, max(0.0, -log_min) / energy

        def alpha(n):  # alpha* at scan point n, solving it (and what starts it) first
            if np.isnan(ratios[n]):
                start = alpha(_COARSE[(n - 1) // _COARSE[1]]) if n else None
                alphas[n], ratios[n] = solve(energies[n], start)
            return alphas[n]

        def ratio(n):
            alpha(n)
            return ratios[n]

        best = (_scan_argmax(ratio) if optimum_only
                else int(np.argmax([ratio(n) for n in range(SCAN_POINTS)])))
        opt_e, neg = golden_section(lambda e: -solve(e, alphas[best])[1],
                                    energies[max(0, best - 1)],
                                    energies[min(SCAN_POINTS - 1, best + 1)], tol=tol)
        opt_ratio = -neg
        if ratios[best] > opt_ratio:
            opt_e, opt_ratio = energies[best], ratios[best]
        results.append(EnergyScanResult(energies, ratios, float(opt_e), float(opt_ratio),
                                        opt_e in (energies[0], energies[-1])))
    return results


def optimal_energy(v1_mag, v2_mag, truncation=15,
                   search_range=DEFAULT_SEARCH_RANGE, tol=DEFAULT_TOL):
    """Maximize information per photon over the energy per repetition: a
    60-point log-spaced scan, then golden section around its best point.
    A top whose search_truncation(hi, truncation) exceeds
    MAX_SEARCH_TRUNCATION (hi above about 208) is refused."""
    if v1_mag == v2_mag:
        raise IndistinguishablePairError("equal visibility magnitudes")
    return _scan_pairs((v1_mag, v2_mag), [(0, 1)], truncation, search_range, tol)[0]


def random_phase_map(grid, truncation=15,
                     search_range=DEFAULT_SEARCH_RANGE, tol=DEFAULT_TOL):
    """Per-cell optimum of information per photon over a |V| lattice:
    symmetric (max_ratio, argmax_energy) matrices, NaN on the diagonal.
    Cell (i, j) is optimal_energy(grid[i], grid[j]): both take the same
    scan argmax wherever the pair's scan is unimodal (_scan_argmax)."""
    grid = np.asarray(grid, dtype=float)
    n = len(grid)
    max_ratio, opt_energy = np.full((2, n, n), np.nan)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if grid[i] != grid[j]]
    for (i, j), res in zip(pairs, _scan_pairs(grid, pairs, truncation, search_range, tol,
                                              optimum_only=True)):
        max_ratio[i, j] = max_ratio[j, i] = res.optimum_ratio
        opt_energy[i, j] = opt_energy[j, i] = res.optimum_energy
    return max_ratio, opt_energy


def coherent_map(grid):
    """Per-cell coherent information per photon over a Re(V) lattice;
    the ratio is energy-independent."""
    grid = np.asarray(grid, dtype=float)
    if np.any(np.abs(grid) > 1.0):
        raise DomainError("Re(V) lattice values must lie in [-1, 1]")
    n = len(grid)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            c = chernoff.chernoff_coherent_closed_form(1.0, grid[i], grid[j])
            out[i, j] = out[j, i] = c.information
    return out


def energy_scan_curves(v1_mag, v2_mag, energies, limited_truncation=2, truncation=15):
    """Information-per-photon curves over an energy grid for three
    readouts: full statistics, K-limited resolution, and the
    count-difference marginal. Returns (joint, limited, difference)
    arrays aligned with `energies`. The full and difference curves share
    one table pair per energy, at search_truncation(E, truncation)."""
    joint, limited, difference = np.empty((3, len(energies)))
    for i, (e, k) in enumerate(zip(energies, search_truncation(energies, truncation))):
        d1, d2 = photostat.hypothesis_tables(v1_mag, v2_mag, e, k)
        l1, l2 = photostat.hypothesis_tables(v1_mag, v2_mag, e, limited_truncation)
        joint[i] = chernoff.chernoff_information(d1, d2).information / e
        limited[i] = chernoff.chernoff_information(l1, l2).information / e
        difference[i] = chernoff.chernoff_information(
            photostat.marginal_difference(d1),
            photostat.marginal_difference(d2)).information / e
    return joint, limited, difference
