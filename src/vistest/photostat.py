"""Photocount statistics for two-port interference: fixed-phase and
random-phase joint count tables, dark counts, truncation, the
count-difference marginal, and the waveplate visibility map."""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .util import DomainError

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

    @classmethod
    def from_complex(cls, value):
        return cls(abs(value), math.atan2(value.imag, value.real))

    @property
    def value(self):
        """The visibility as a complex number."""
        return self.magnitude * complex(math.cos(self.phase), math.sin(self.phase))

    @property
    def real(self):
        return self.magnitude * math.cos(self.phase)


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

    def probability(self, dk):
        return self.probs[dk + self.truncation]


def port_intensities(energy, vis, phase_offset=0.0):
    """Mean counts (I_plus, I_minus) at the two output ports, with a global
    phase_offset on top of the visibility's phase; they sum to energy."""
    if not (math.isfinite(energy) and energy >= 0.0):
        raise DomainError("energy must be finite and >= 0")
    i_plus = energy * (1.0 + vis.magnitude * math.cos(vis.phase + phase_offset)) / 2.0
    return i_plus, energy - i_plus


def effective_params(params, vis):
    """Fold Poissonian dark counts into a dark-free model: the energy rises
    by 2*dark_mean and |V| scales by energy/(energy + 2*dark_mean)."""
    if params.dark_mean == 0.0:
        return params, vis
    energy = params.mean_detected_energy + 2.0 * params.dark_mean
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
    params, vis = effective_params(params, vis)
    i_plus, i_minus = port_intensities(params.mean_detected_energy, vis)
    k = params.truncation
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
    0 <= k <= n <= last ordered by n, then k: the chance that k of n
    photons, Poisson(E) in number at any |V| under a random phase, leave by
    the + port. Row `last` is the phase average of a binomial law in p =
    (1 + |V| cos phi) / 2 on 2 (last // 4 + 1) midpoints of [0, pi] (node
    pi - phi swaps the ports), exact for its degree in cos phi (Trefethen &
    Weideman, SIAM Rev. 56 (2014) 385). Each row below loses a photon at
    random, a sum of positive terms. Rows are exactly symmetric in k <->
    n - k and sum to 1, so rows 0 and 1 are exactly 1 and (1/2, 1/2)."""
    v = np.array(values, dtype=float)
    if not np.all((v >= 0.0) & (v <= 1.0 + _MAG_SLACK)):
        raise DomainError(f"random-phase |V| in {values} must lie in [0, 1]")
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


def joint_random_phase(params, vis_magnitude):
    """Joint count distribution averaged over a uniform global phase; |V|
    outside [0, 1] is refused, not folded into a phase, and dark counts
    are folded in first. Cell (k, k') is Pois(k + k'; E) B_V(k | k + k')
    (_split_rows over _poisson_rows' rows, which run past 2K), folded into
    the K-th row and column at k >= K or k' >= K."""
    if not 0.0 <= vis_magnitude <= 1.0 + _MAG_SLACK:
        raise DomainError(f"random-phase |V| = {vis_magnitude} must lie in [0, 1]")
    params, vis = effective_params(params, ComplexVisibility(vis_magnitude))
    pois = _poisson_rows(params.mean_detected_energy, 2 * params.truncation)
    n = np.repeat(np.arange(len(pois)), np.arange(1, len(pois) + 1))
    plus = np.arange(len(n)) - n * (n + 1) // 2  # k of each cell
    table = np.zeros((len(pois), len(pois)))
    table[plus, n - plus] = _split_rows([vis.magnitude], len(pois) - 1)[0] * pois[n]
    return JointPhotocountDistribution(params.truncation, _fold_tail(table, params.truncation))


def hypothesis_tables(v1_mag, v2_mag, energy, truncation):
    """Random-phase tables of the two hypotheses at one (energy, K)."""
    params = DetectionParams(energy, 0.0, truncation)
    return joint_random_phase(params, v1_mag), joint_random_phase(params, v2_mag)


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


def waveplate_visibility(theta, phi):
    """Visibility realized by quarter- and half-wave plates at angles
    theta and phi: V = exp(i(4 phi - 2 theta)) cos(2 theta)."""
    return ComplexVisibility(math.cos(2.0 * theta), 4.0 * phi - 2.0 * theta)


def visibility_from_amplitudes(amp_a, amp_b, modal_overlap=1.0):
    """Visibility of two signals with complex amplitudes amp_a, amp_b and
    a given modal overlap: V = 2 a conj(b) / (|a|^2 + |b|^2) * overlap."""
    amp_a = complex(amp_a)
    amp_b = complex(amp_b)
    norm = abs(amp_a) ** 2 + abs(amp_b) ** 2
    if norm == 0.0:
        raise DomainError("both amplitudes are zero")
    if abs(modal_overlap) > 1.0 + _MAG_SLACK:
        raise DomainError("modal overlap magnitude exceeds 1")
    return ComplexVisibility.from_complex(2.0 * amp_a * amp_b.conjugate() / norm * modal_overlap)
