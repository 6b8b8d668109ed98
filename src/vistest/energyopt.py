"""Energy-per-repetition optimization of information per detected photon:
its curves, and the random-phase and coherent visibility maps."""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import chernoff, photostat, util
from .util import DomainError, golden_section

_TAIL_BUDGET = 1e-9
MAX_SEARCH_TRUNCATION = 300  # the rule's K at E = 208
SCAN_POINTS = 60  # log-spaced energies of the scan ahead of the refinement
_COARSE = (*range(0, SCAN_POINTS, 6), SCAN_POINTS - 1)  # every pair's shared scan indices
LIMITED_TRUNCATION = 2  # the paper's K-limited readout


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


def _check_top(energy, floor):
    """Refuse a floor below 1, and an energy whose Poisson tail
    P(count > max(floor, MAX_SEARCH_TRUNCATION)) is not below 1e-9 (above
    about 208 for any floor up to 300). No solve reads a K: the floor only
    moves this refusal."""
    if not energy > 0.0:
        raise DomainError("energy must be > 0")
    if floor < 1:
        raise DomainError("truncation must be >= 1")
    k = max(floor, MAX_SEARCH_TRUNCATION)
    if not (np.isfinite(energy) and photostat.poisson_counts(energy, k + 1)[-1] < _TAIL_BUDGET):
        raise DomainError(f"E = {energy:g} needs a resolution K above the limit "
                          f"{MAX_SEARCH_TRUNCATION}; energies up to about 208 "
                          f"can be searched")


def _pair_cells(values, energies, truncation):
    """Every random-phase C here is solved on these cells, with no K:
    photostat.split_cells of values cut at the top energy's Poisson row
    (a top above about 208 is refused by _check_top), log B, and log 2 on
    each cell below the middle, which stands for its mirror. Returns each
    cell's n and k, row(m) (energies[m]'s log Poisson row, made once) and
    pair(i, j) -> (l1, d, solve, point), values[i] against values[j].
    solve(log_pois, energy, start) is (alpha*, C / energy) on the cells
    that log_pois reaches, 0 for equal values; point(n) is solve at
    energies[n], made once, from the alpha* of the _COARSE point below it
    (cold at n = 0), so no result depends on solve order."""
    _check_top(energies.max(), truncation)
    row = functools.cache(lambda m: np.log(photostat._poisson_rows(energies[m])))
    rows, plus, index, blocks = photostat.split_cells(values, len(row(int(energies.argmax()))) - 1)
    log_b = [row for block in blocks for row in np.log(block, out=block)]  # in place, no copy
    twice = np.where(2 * plus < rows, np.log(2.0), 0.0)

    def pair(i, j):
        i, j = sorted(index[[i, j]])  # C is symmetric; in sorted order, bit for bit too
        l1, d = log_b[i] + twice, log_b[j] - log_b[i]
        ratios, alphas = np.full((2, len(energies)), np.nan)

        def solve(log_pois, energy, start=None):
            if i == j:  # equal laws: C = 0, not the rounding of the cells' sum
                return 0.5, 0.0
            cells = np.searchsorted(rows, len(log_pois))
            alpha, log_min, _ = chernoff._minimum(l1[:cells] + log_pois[rows[:cells]],
                                                  d[:cells], start)
            return alpha, max(0.0, -log_min) / energy

        def point(n):
            if np.isnan(ratios[n]):
                start = point((n - 1) // 6 * 6)[0] if n else None
                alphas[n], ratios[n] = solve(row(n), energies[n], start)
            return alphas[n], ratios[n]

        return l1, d, solve, point

    return rows, plus, row, pair


def info_per_photon(v1_mag, v2_mag, energy, truncation=15):
    """Chernoff information per detected photon, C/energy, of the full
    random-phase statistics: energy_scan_curves' joint readout, solved alone."""
    pair = _pair_cells((v1_mag, v2_mag), np.array([energy], dtype=float), truncation)[3]
    return pair(0, 1)[3](0)[1]


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


def _optimum(pair, energies, tol):
    """(energy, ratio) of a _pair_cells pair's maximum of C / E: the scan
    point _scan_argmax picks, refined by golden section between its scan
    neighbours, Newton starting at its alpha*; the scan point if it reads
    higher."""
    _, _, solve, point = pair
    best = _scan_argmax(lambda n: point(n)[1])
    alpha, ratio = point(best)
    opt_e, neg = golden_section(
        lambda e: -solve(np.log(photostat._poisson_rows(e)), e, alpha)[1],
        energies[max(0, best - 1)], energies[min(SCAN_POINTS - 1, best + 1)], tol=tol)
    return (float(energies[best]), float(ratio)) if ratio > -neg else (float(opt_e), float(-neg))


def optimal_energy(v1_mag, v2_mag, truncation=15,
                   search_range=util.DEFAULT_SEARCH_RANGE, tol=util.DEFAULT_TOL):
    """Maximize information per photon over the energy per repetition: a
    60-point log-spaced scan, then golden section around its best point
    (_optimum). A top above about 208 is refused (_check_top), and so are
    two |V| that clamp to the same value."""
    if v1_mag == v2_mag:
        raise IndistinguishablePairError("equal visibility magnitudes")
    lo, hi = search_range
    if not 0.0 < lo < hi:
        raise DomainError("search range must satisfy 0 < lo < hi")
    if not tol > 0.0:
        raise DomainError("tol must be > 0")
    with np.errstate(invalid="ignore"):  # an infinite hi scans as inf, refused next
        energies = np.geomspace(lo, hi, SCAN_POINTS)
    pair = _pair_cells((v1_mag, v2_mag), energies, truncation)[3](0, 1)
    if min(v1_mag, 1.0) == min(v2_mag, 1.0):  # as photostat clamps a checked |V|
        raise IndistinguishablePairError("equal visibility magnitudes")
    opt_e, opt_ratio = _optimum(pair, energies, tol)
    ratios = np.array([pair[3](n)[1] for n in range(SCAN_POINTS)])
    return EnergyScanResult(energies, ratios, opt_e, opt_ratio,
                            opt_e in (energies[0], energies[-1]))


def random_phase_map(grid, truncation=15):
    """Per-cell optimum of information per photon over a |V| lattice:
    symmetric (max_ratio, argmax_energy) matrices, NaN where the two |V|
    clamp to one value, as on the diagonal. Cell (i, j) is _optimum of the
    pair, as optimal_energy(grid[i], grid[j]) reports it."""
    grid = np.asarray(grid, dtype=float)
    n = len(grid)
    max_ratio, opt_energy = np.full((2, n, n), np.nan)
    energies = np.geomspace(*util.DEFAULT_SEARCH_RANGE, SCAN_POINTS)
    pair = _pair_cells(grid, energies, truncation)[3]
    for i in range(n):
        for j in range(i + 1, n):
            if min(grid[i], 1.0) != min(grid[j], 1.0):  # else optimal_energy refuses
                energy, ratio = _optimum(pair(i, j), energies, util.DEFAULT_TOL)
                max_ratio[i, j] = max_ratio[j, i] = ratio
                opt_energy[i, j] = opt_energy[j, i] = energy
    return max_ratio, opt_energy


def coherent_map(grid):
    """Per-cell coherent information per photon over a Re(V) lattice;
    the ratio is energy-independent."""
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.abs(grid) <= 1.0):
        raise DomainError("Re(V) lattice values must lie in [-1, 1]")
    n = len(grid)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            c = chernoff.chernoff_coherent_closed_form(1.0, grid[i], grid[j])
            out[i, j] = out[j, i] = c.information
    return out


def energy_scan_curves(v1_mag, v2_mag, energies, truncation=15):
    """Information-per-photon curves of three readouts, aligned with
    `energies`, from one _pair_cells build: joint (full statistics), limited
    (K = LIMITED_TRUNCATION) and difference. The joint curve is the cells'
    solve, so on the search's scan it is optimal_energy's ratios; the others
    sum the cell laws by (min(k, K), min(k', K)) and by |k' - k|. A cell
    stands for its mirror too: C of a symmetric law is C of this fold."""
    energies = np.asarray(energies, dtype=float)
    if not energies.size:
        raise DomainError("energies must list at least one energy")
    if not np.all(energies > 0.0):
        raise DomainError("energy must be > 0")
    rows, plus, row, pair = _pair_cells((v1_mag, v2_mag), energies, truncation)
    l1, d, _, point = pair(0, 1)
    k = LIMITED_TRUNCATION
    keys = ((k + 1) * np.minimum(plus, k) + np.minimum(rows - plus, k), rows - 2 * plus)
    folds = np.empty((2, len(energies)))
    for i, e in enumerate(energies):
        cells = np.searchsorted(rows, len(row(i)))
        p1 = np.exp(l1[:cells] + row(i)[rows[:cells]])
        folds[:, i] = [chernoff.chernoff_information(*(np.bincount(key[:cells], p) for p in (
            p1, p1 * np.exp(d[:cells])))).information / e for key in keys]
    return np.array([point(n)[1] for n in range(len(energies))]), *folds
