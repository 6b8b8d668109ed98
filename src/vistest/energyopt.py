"""Energy-per-repetition optimization of information per detected photon.

Produces the information-per-photon curves and the visibility-map data
surfaces for the random-phase and coherent scenarios.
"""

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
    """Scanned energies, the information-per-photon ratio at each, and
    the refined location/value of the maximum."""

    energies: np.ndarray = field(repr=False)
    ratios: np.ndarray = field(repr=False)
    optimum_energy: float
    optimum_ratio: float
    at_boundary: bool  # the optimum is an end of the search range


def search_truncation(energy, floor=15):
    """Smallest K >= floor with Poisson tail P(count > K) below 1e-9 at
    this energy: the resolution of every table the search builds. An
    array of energies gets a list of K, one each, from one Poisson-law
    call. A floor below 1, or a K the rule would raise above
    MAX_SEARCH_TRUNCATION, is refused; the latter names the largest energy."""
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
    values[j]. At each shared scan energy (all, or _COARSE's if optimum_only)
    every value's table is built once for all pairs; each pair then solves
    what its argmax needs, leaving other ratios NaN, and is refined alone."""
    lo, hi = search_range
    if not 0.0 < lo < hi:
        raise DomainError("search range must satisfy 0 < lo < hi")
    if not tol > 0.0:
        raise DomainError("tol must be > 0")
    with np.errstate(invalid="ignore"):  # an infinite hi scans as inf, refused next
        energies = np.geomspace(lo, hi, SCAN_POINTS)
    resolutions = search_truncation(energies, truncation)  # refuses before any table is built
    ratios = np.full((len(pairs), len(energies)), np.nan)
    if not pairs:
        return []
    for n in _COARSE if optimum_only else range(len(energies)):
        params = photostat.DetectionParams(energies[n], 0.0, resolutions[n])
        tables = [photostat.joint_random_phase(params, v) for v in values]
        for row, (i, j) in enumerate(pairs):
            ratios[row, n] = chernoff.chernoff_information(
                tables[i], tables[j]).information / energies[n]

    results = []
    for row, (i, j) in enumerate(pairs):
        def ratio(n):
            if np.isnan(ratios[row, n]):
                d1, d2 = photostat.hypothesis_tables(values[i], values[j],
                                                     energies[n], resolutions[n])
                ratios[row, n] = chernoff.chernoff_information(d1, d2).information / energies[n]
            return ratios[row, n]
        best = _scan_argmax(ratio) if optimum_only else int(np.argmax(ratios[row]))
        opt_e, neg = golden_section(
            lambda e: -info_per_photon(values[i], values[j], e, truncation),
            energies[max(0, best - 1)], energies[min(len(energies) - 1, best + 1)], tol=tol)
        opt_ratio = -neg
        if ratios[row, best] > opt_ratio:
            opt_e, opt_ratio = energies[best], ratios[row, best]
        results.append(EnergyScanResult(energies, ratios[row], float(opt_e),
                                        float(opt_ratio),
                                        opt_e in (energies[0], energies[-1])))
    return results


def optimal_energy(v1_mag, v2_mag, truncation=15,
                   search_range=DEFAULT_SEARCH_RANGE, tol=DEFAULT_TOL):
    """Maximize information per photon over the energy per repetition.

    Coarse log-spaced scan (60 points) followed by golden-section
    refinement around the best grid point. Each energy E is resolved
    at search_truncation(E, truncation); a range whose top needs K above
    MAX_SEARCH_TRUNCATION (hi above about 208) is refused.
    """
    if v1_mag == v2_mag:
        raise IndistinguishablePairError("equal visibility magnitudes")
    return _scan_pairs((v1_mag, v2_mag), [(0, 1)], truncation, search_range, tol)[0]


def random_phase_map(grid, truncation=15,
                     search_range=DEFAULT_SEARCH_RANGE, tol=DEFAULT_TOL):
    """Per-cell optimum of information per photon over a |V| lattice.

    Returns (max_ratio, argmax_energy) matrices, symmetric in the two
    visibilities; diagonal cells are NaN-flagged as indistinguishable.
    Cell (i, j), i < j, is optimal_energy(grid[i], grid[j]): both take the
    same scan argmax wherever the pair's scan is unimodal (_scan_argmax).
    """
    grid = np.asarray(grid, dtype=float)
    n = len(grid)
    max_ratio = np.full((n, n), np.nan)
    opt_energy = np.full((n, n), np.nan)
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
    joint = np.empty(len(energies))
    limited = np.empty(len(energies))
    difference = np.empty(len(energies))
    for i, (e, k) in enumerate(zip(energies, search_truncation(energies, truncation))):
        d1, d2 = photostat.hypothesis_tables(v1_mag, v2_mag, e, k)
        l1, l2 = photostat.hypothesis_tables(v1_mag, v2_mag, e, limited_truncation)
        joint[i] = chernoff.chernoff_information(d1, d2).information / e
        limited[i] = chernoff.chernoff_information(l1, l2).information / e
        difference[i] = chernoff.chernoff_information(
            photostat.marginal_difference(d1),
            photostat.marginal_difference(d2)).information / e
    return joint, limited, difference
