"""Photocount statistics for two-port interference: fixed-phase and
random-phase joint count tables, dark counts, truncation and the
count-difference marginal."""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .util import DomainError, check_budget

TWO_PI = 2.0 * math.pi

# Magnitudes this far above 1 are treated as floating-point noise.
_MAG_SLACK = 1e-9


@dataclass(frozen=True)
class ComplexVisibility:
    """Interference overlap as a magnitude in [0, 1] and a phase in [0, 2pi)."""

    magnitude: float
    phase: float = 0.0

    def __post_init__(self):
        mag = float(self.magnitude)
        phase = float(self.phase)
        if not math.isfinite(mag) or not math.isfinite(phase):
            raise DomainError("visibility must be finite")
        if mag < 0.0:  # fold the sign into the phase
            mag = -mag
            phase += math.pi
        if mag > 1.0:
            if mag > 1.0 + _MAG_SLACK:
                raise DomainError(f"visibility magnitude {mag} exceeds 1")
            mag = 1.0
        object.__setattr__(self, "magnitude", mag)
        object.__setattr__(self, "phase", phase % TWO_PI)


@dataclass(frozen=True)
class DetectionParams:
    """Per realization: the mean detected photon number, the mean dark
    counts per detector, and the highest resolvable count K (the K-th
    bucket absorbs the tail)."""

    mean_detected_energy: float
    dark_mean: float = 0.0
    truncation: int = 15

    def __post_init__(self):
        if not (math.isfinite(self.mean_detected_energy) and self.mean_detected_energy >= 0.0):
            raise DomainError("mean_detected_energy must be finite and >= 0")
        if not (math.isfinite(self.dark_mean) and self.dark_mean >= 0.0):
            raise DomainError("dark_mean must be finite and >= 0")
        if self.truncation < 1:
            raise DomainError("truncation must be >= 1")


def checked_probabilities(probs, shape):
    """A read-only float copy of probs, refused unless it has the given
    shape, every entry is finite and >= 0, and the entries sum to 1 within
    1e-9 (NaN fails). Every photostat table passes it once, when built."""
    probs = np.array(probs, dtype=float)
    if probs.shape != shape:
        raise DomainError(f"probability table shape {probs.shape} != {shape}")
    if not np.all((probs >= 0.0) & (probs < math.inf)):
        raise DomainError("probability entries must be finite and >= 0")
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise DomainError(f"probability table sums to {total!r}, not 1")
    probs.setflags(write=False)
    return probs


@dataclass(frozen=True)
class JointPhotocountDistribution:
    """(K+1) x (K+1) probability table over detector count pairs (k, k')."""

    truncation: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        k = self.truncation
        object.__setattr__(self, "probs", checked_probabilities(self.probs, (k + 1, k + 1)))


@dataclass(frozen=True)
class CountDifferenceDistribution:
    """Probabilities over the count difference dk = k' - k in {-K, ..., K}."""

    truncation: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        k = self.truncation
        object.__setattr__(self, "probs", checked_probabilities(self.probs, (2 * k + 1,)))


def port_intensities(energy, vis):
    """Mean counts (I_plus, I_minus) at the two output ports at the
    visibility's phase; they sum to energy."""
    if not (math.isfinite(energy) and energy >= 0.0):
        raise DomainError("energy must be finite and >= 0")
    i_plus = energy * (1.0 + vis.magnitude * math.cos(vis.phase)) / 2.0
    return i_plus, energy - i_plus


def effective_params(params, vis):
    """Fold Poissonian dark counts into a dark-free model: the energy rises
    by 2*dark_mean and |V| scales by energy/(energy + 2*dark_mean)."""
    if params.dark_mean == 0.0:
        return params, vis
    energy = params.mean_detected_energy + 2.0 * params.dark_mean
    if energy == math.inf:
        raise DomainError(f"E + 2*dark_mean overflows at dark_mean = {params.dark_mean!r}")
    scale = params.mean_detected_energy / energy
    eff = DetectionParams(energy, 0.0, params.truncation)
    return eff, ComplexVisibility(vis.magnitude * scale, vis.phase)


@functools.lru_cache(maxsize=None)
def _log_law_terms(size):
    """Read-only rows (c, -log c!, -1) for counts c = 0..size-1: log P(c)
    at rate I is this row times (log I, 1, I)."""
    out = np.array([(c, -math.lgamma(c + 1.0), -1.0) for c in range(size)])
    out.setflags(write=False)
    return out


def _port_counts(intensities, truncation):
    """Per intensity, the law exp(k log I - I - log k!) for k < K (0 log 0 =
    0) and the tail P(count >= K): one minus the law at I >= K, else the
    series from P(K), whose terms fall by K / (K + j) or faster, so that
    10 sqrt(K) + 40 more of them leave < 1e-18 of it."""
    k = truncation
    rate_terms = np.ones((3, len(intensities)))  # (log I, 1, I) per intensity
    rate_terms[0] = -1e300  # log 0 as a finite stand-in, so 0 log 0 = 0
    np.log(intensities, out=rate_terms[0], where=intensities > 0.0)
    rate_terms[2] = intensities
    laws = np.exp(_log_law_terms(k + 41 + 10 * math.isqrt(k)) @ rate_terms)
    laws[k] = np.where(intensities < k, laws[k:].sum(axis=0), 1.0 - laws[:k].sum(axis=0))
    return laws[:k + 1].T


def poisson_counts(intensity, truncation):
    """Poisson count probabilities 0..K-1 at the intensity, and the tail
    in entry K; one such row per intensity when given an array of them."""
    if truncation < 1:
        raise DomainError("truncation must be >= 1")
    intensity = np.asarray(intensity, dtype=float)
    if not np.all(np.isfinite(intensity) & (intensity >= 0.0)):
        raise DomainError("intensity must be finite and >= 0")
    return _port_counts(intensity.ravel(), truncation).reshape(intensity.shape + (truncation + 1,))


def joint_fixed_phase(params, vis):
    """Joint count distribution for a fixed (phase-locked) visibility, dark
    counts folded in; the port intensities are set by Re(V)."""
    k = params.truncation
    check_budget(8 * (k + 1) ** 2, f"--truncation {k}")
    params, vis = effective_params(params, vis)
    i_plus, i_minus = port_intensities(params.mean_detected_energy, vis)
    probs = np.outer(poisson_counts(i_plus, k), poisson_counts(i_minus, k))
    return JointPhotocountDistribution(k, probs)


def _fold_tail(table, truncation):
    """Fold mass at or beyond the truncation index into the K-th bucket."""
    k = truncation
    folded = np.empty((k + 1, k + 1))
    folded[:k, :k] = table[:k, :k]
    folded[:k, k] = table[:k, k:].sum(axis=1)
    folded[k, :k] = table[k:, :k].sum(axis=0)
    folded[k, k] = table[k:, k:].sum()
    return folded


MAX_SPLIT_ROW = 1000  # past it 2^-n, the least split-law entry, leaves the double range
_TAIL_CUT = 1e-17


def _poisson_rows(energy, floor=0):
    """Pois(n; E) for n = 0..last, run out from the mode by the ratios
    E / n and scaled to sum to 1 (no large log-space term to cost digits).
    last >= floor is the first row past which P(count > n) is at most 1e-17
    of the law at row max(floor, mode); past MAX_SPLIT_ROW it is refused."""
    last = max(floor, energy)  # the rows run at least this far
    if last <= MAX_SPLIT_ROW:  # so nothing of a refused size is built
        n = np.arange(int(last + 12.0 * math.sqrt(last) + 60.0) + 1.0)
        mode = int(min(energy, n[-1]))
        pois = np.ones(len(n))
        pois[mode + 1:] = np.cumprod(energy / n[mode + 1:])
        pois[:mode] = np.cumprod(n[mode:0:-1] / energy)[::-1]
        pois /= pois.sum()
        tail = np.cumsum(pois[::-1])[::-1]  # P(count >= n)
        last = max(floor, int(np.argmax(tail <= _TAIL_CUT * pois[max(floor, mode)])) - 1)
        if last <= MAX_SPLIT_ROW:
            return pois[:last + 1]
    raise DomainError(f"split-law rows to n = {last:g} at E = {energy:g} pass {MAX_SPLIT_ROW}")


def _split_rows(values, last):
    """B_V(k | n) for each |V| in values, one row each, on the cells
    0 <= k <= n <= last ordered by n, then k: the chance that k of n photons,
    Poisson(E) in number at any |V| under a random phase, leave by the +
    port. Row `last` is the phase average of a binomial law in p = (1 + |V|
    cos phi) / 2 on 2 (last // 4 + 1) midpoints of [0, pi], exact for its
    degree in cos phi (Trefethen & Weideman, SIAM Rev. 56 (2014) 385). Each
    row below loses a photon at random, a sum of positive terms. Rows are
    exactly symmetric and sum to 1: rows 0 and 1 are 1 and (1/2, 1/2)."""
    v = np.array(values, dtype=float)
    half = last // 4 + 1
    mixed = np.multiply.outer(np.minimum(v, 1.0),
                              np.cos((np.arange(half) + 0.5) * math.pi / (2 * half)))
    k = np.arange(last + 1)
    t = np.multiply.outer(np.log1p(mixed), k)  # log of (2p)^k (2q)^(n-k), node by node
    t += np.multiply.outer(np.log1p(-mixed), last - k)
    ends = np.exp(t, out=t).sum(axis=1)
    # C(n, k) / 2^n for k <= n / 2 by its ratios, then mirrored
    coef = np.cumprod(np.r_[0.5 ** last, (last - k[:last // 2]) / (k[:last // 2] + 1.0)])
    out = np.empty((len(v), (last + 1) * (last + 2) // 2))
    row = out[:, -(last + 1):]
    np.multiply(ends + ends[:, ::-1], np.r_[coef, coef[:(last + 1) // 2][::-1]], out=row)
    for n in range(last, -1, -1):  # n B(k | n - 1) = (n - k) B(k | n) + (k + 1) B(k + 1 | n)
        row /= row.sum(axis=1, keepdims=True)
        above, row = row, out[:, (n - 1) * n // 2:n * (n + 1) // 2]
        np.multiply(above[:, :-1], k[n:0:-1], out=row)
        row += above[:, 1:] * k[1:n + 1]
    return out


def _checked_magnitude(vis_magnitude):  # a random-phase |V| has no sign to fold into a phase
    if not 0.0 <= vis_magnitude <= 1.0 + _MAG_SLACK:
        raise DomainError(f"random-phase |V| = {vis_magnitude} must lie in [0, 1]")
    return vis_magnitude


# The split-row triangles built at once, unless one value's is larger: the
# map's 50 rows to n = 90 take one pass, and rows to n = 600 one value each.
_ROW_BYTES = 2 ** 21


def split_cells(values, last):
    """Split-law cells k <= n / 2 of rows 0..last, by n, then k: their n and
    k, each value's row among the distinct |V| (each refused outside [0, 1])
    and B_V(k | n) per distinct |V|, as blocks of rows made one at a time:
    each block's triangles take at most _ROW_BYTES, or hold one value.
    phi -> pi - phi swaps a random phase's ports, so B_V(n - k | n) =
    B_V(k | n) bit for bit; mirrors need no cell."""
    distinct = sorted({_checked_magnitude(v) for v in values})  # np.unique maps in 0.3 MB of code
    index = np.array([distinct.index(v) for v in values], dtype=int)
    n = np.repeat(np.arange(last + 1), np.arange(last + 1) // 2 + 1)
    k = np.arange(len(n)) - n - (n - 1) * (n - 1) // 4  # row n starts at sum(m // 2 + 1, m < n)
    step = max(1, _ROW_BYTES // (4 * (last + 1) * (last + 2)))  # 8 bytes a triangle cell
    return n, k, index, (_split_rows(distinct[i:i + step], last)[:, n * (n + 1) // 2 + k]
                         for i in range(0, len(distinct), step))


def random_phase_tables(params, values):
    """Joint count distributions averaged over a uniform global phase, one
    per |V| in values (refused outside [0, 1], not folded into a phase),
    dark counts folded in first. One Poisson row and one split_cells call
    serve all, each block of split rows folded before the next is made:
    cells (k, n - k) and (n - k, k) hold Pois(n; E) B_V(k | n) up to n past
    2K; k >= K or k' >= K folds into row or column K. Repeats share a table."""
    params, unit = effective_params(params, ComplexVisibility(1.0))  # |V| = 1 folds to the scale
    values = [ComplexVisibility(_checked_magnitude(v)).magnitude * unit.magnitude for v in values]
    k = params.truncation
    pois = _poisson_rows(params.mean_detected_energy, 2 * k)
    n, plus, index, blocks = split_cells(values, len(pois) - 1)

    def fold(block):  # one scatter table per block, gone before the next block is made
        table = np.zeros((len(pois), len(pois)))
        for split in block:  # every |V| writes the same cells
            table[plus, n - plus] = table[n - plus, plus] = split * pois[n]
            yield JointPhotocountDistribution(k, _fold_tail(table, k))

    tables = [table for block in blocks for table in fold(block)]
    return [tables[i] for i in index]


def joint_random_phase(params, vis_magnitude):
    """random_phase_tables' table for one |V|."""
    return random_phase_tables(params, [vis_magnitude])[0]


def retruncate(dist, truncation):
    """Reduce a distribution's count resolution by folding into a smaller K;
    the same K returns the table itself, and a larger one is refused."""
    if not 1 <= truncation <= dist.truncation:
        raise DomainError(f"cannot retruncate a K = {dist.truncation} table to K = "
                          f"{truncation}: K must lie in [1, {dist.truncation}]")
    if truncation == dist.truncation:
        return dist
    return JointPhotocountDistribution(truncation, _fold_tail(dist.probs, truncation))


def marginal_difference(dist):
    """Marginal over the count difference dk = k' - k."""
    k = dist.truncation
    probs = np.array([np.trace(dist.probs, offset=dk) for dk in range(-k, k + 1)])
    return CountDifferenceDistribution(k, probs)

