"""Energy-per-repetition optimization of information per detected photon.

Produces the information-per-photon curves and the visibility-map data
surfaces for the random-phase and coherent scenarios.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import pdtrc

from . import chernoff, photostat
from .util import DomainError, golden_section

DEFAULT_SEARCH_RANGE = (0.1, 30.0)
DEFAULT_TOL = 0.05
_TAIL_BUDGET = 1e-9

MODES = ("joint", "truncated", "difference")


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


def adaptive_truncation(energy, floor=15):
    """Resolution K keeping the Poisson tail beyond K under ~1e-9."""
    return max(floor, math.ceil(energy + 8.0 * math.sqrt(energy)))


def _poisson_tail(mean, truncation):
    """P(count > truncation) for a Poisson of the given mean."""
    return float(pdtrc(truncation, mean))


def info_per_photon(v1_mag, v2_mag, energy, truncation=15, mode="joint"):
    """Chernoff information per detected photon, C/energy.

    mode "joint" uses the full random-phase statistics, raising the
    resolution above `truncation` if the energy demands it; "truncated"
    keeps exactly the given resolution (detector-limited readout);
    "difference" tests on the count-difference marginal of the full
    statistics.
    """
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}")
    if energy <= 0.0:
        raise DomainError("energy must be > 0")
    if mode == "truncated":
        k = truncation
    else:
        k = adaptive_truncation(energy, truncation)
    params = photostat.DetectionParams(energy, 0.0, k)
    d1 = photostat.joint_random_phase(params, v1_mag)
    d2 = photostat.joint_random_phase(params, v2_mag)
    if mode == "difference":
        p1 = photostat.marginal_difference(d1).probs
        p2 = photostat.marginal_difference(d2).probs
    else:
        p1 = d1.probs
        p2 = d2.probs
    return chernoff.chernoff_information(p1, p2).information / energy


def _scan_pairs(values, pairs, truncation, search_range, tol):
    """EnergyScanResult for each (i, j) in pairs, values[i] against
    values[j]. At each scan energy every value's table is built once and
    shared by the pairs; each pair is then refined on its own."""
    lo, hi = search_range
    if not 0.0 < lo < hi:
        raise DomainError("search range must satisfy 0 < lo < hi")
    k = truncation
    while _poisson_tail(hi, k) >= _TAIL_BUDGET:
        k += 1

    energies = np.geomspace(lo, hi, 60)
    ratios = np.empty((len(pairs), len(energies)))
    for n, e in enumerate(energies):
        params = photostat.DetectionParams(e, 0.0, k)
        tables = [photostat.joint_random_phase(params, v) for v in values]
        for row, (i, j) in enumerate(pairs):
            ratios[row, n] = chernoff.chernoff_information(
                tables[i], tables[j]).information / e

    results = []
    for row, (i, j) in enumerate(pairs):
        best = int(np.argmax(ratios[row]))
        opt_e, neg = golden_section(
            lambda e: -info_per_photon(values[i], values[j], e, k, "truncated"),
            energies[max(0, best - 1)], energies[min(len(energies) - 1, best + 1)], tol=tol)
        opt_ratio = -neg
        if ratios[row, best] > opt_ratio:
            opt_e, opt_ratio = energies[best], ratios[row, best]
        results.append(EnergyScanResult(energies, ratios[row], float(opt_e),
                                        float(opt_ratio)))
    return results


def optimal_energy(v1_mag, v2_mag, truncation=15,
                   search_range=DEFAULT_SEARCH_RANGE, tol=DEFAULT_TOL):
    """Maximize information per photon over the energy per repetition.

    Coarse log-spaced scan (60 points) followed by golden-section
    refinement around the best grid point. The resolution is raised
    until the Poisson tail at the top of the range is below 1e-9, so
    the whole scan shares one effectively-untruncated K.
    """
    if v1_mag == v2_mag:
        raise IndistinguishablePairError("equal visibility magnitudes")
    return _scan_pairs((v1_mag, v2_mag), [(0, 1)], truncation, search_range, tol)[0]


def random_phase_map(grid, truncation=15,
                     search_range=DEFAULT_SEARCH_RANGE, tol=DEFAULT_TOL):
    """Per-cell optimum of information per photon over a |V| lattice.

    Returns (max_ratio, argmax_energy) matrices, symmetric in the two
    visibilities; diagonal cells are NaN-flagged as indistinguishable.
    Cell (i, j), i < j, is optimal_energy(grid[i], grid[j]) by construction.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(grid < 0.0) or np.any(grid > 1.0):
        raise DomainError("visibility lattice values must lie in [0, 1]")
    n = len(grid)
    max_ratio = np.full((n, n), np.nan)
    opt_energy = np.full((n, n), np.nan)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if grid[i] != grid[j]]
    for (i, j), res in zip(pairs, _scan_pairs(grid, pairs, truncation, search_range, tol)):
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
    """Information-per-photon curves over an energy grid for the three
    readout modes: full statistics, K-limited resolution, and the
    count-difference marginal. Returns (joint, limited, difference)
    arrays aligned with `energies`."""
    joint = np.empty(len(energies))
    limited = np.empty(len(energies))
    difference = np.empty(len(energies))
    for i, e in enumerate(energies):
        joint[i] = info_per_photon(v1_mag, v2_mag, e, truncation, "joint")
        limited[i] = info_per_photon(v1_mag, v2_mag, e, limited_truncation, "truncated")
        difference[i] = info_per_photon(v1_mag, v2_mag, e, truncation, "difference")
    return joint, limited, difference
