"""Photocount statistics for two-port interference.

Covers the fixed-phase (product Poisson) and random-global-phase joint
count distributions, dark-count folding, detector truncation, the
count-difference marginal, and the waveplate mapping used to dial in an
arbitrary complex visibility on the bench.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .util import DomainError

TWO_PI = 2.0 * math.pi

# Magnitudes this far above 1 are treated as floating-point noise.
_MAG_SLACK = 1e-9


def _normalize_phase(phase):
    phase = math.fmod(phase, TWO_PI)
    if phase < 0.0:
        phase += TWO_PI
    return phase


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
        if mag < 0.0:
            # fold the sign into the phase
            mag = -mag
            phase += math.pi
        if mag > 1.0:
            if mag > 1.0 + _MAG_SLACK:
                raise DomainError(f"visibility magnitude {mag} exceeds 1")
            mag = 1.0
        object.__setattr__(self, "magnitude", mag)
        object.__setattr__(self, "phase", _normalize_phase(phase))

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
    """Per-realization detection parameters.

    mean_detected_energy is the mean detected photon number per
    realization; dark_mean is the mean dark counts per detector per
    realization; truncation is the highest resolvable count K (the K-th
    bucket absorbs the tail).
    """

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
    """Mean counts (I_plus, I_minus) at the two output ports.

    phase_offset is the instantaneous global phase added on top of the
    visibility's own phase. The two intensities sum to energy exactly.
    """
    if not (math.isfinite(energy) and energy >= 0.0):
        raise DomainError("energy must be finite and >= 0")
    i_plus = energy * (1.0 + vis.magnitude * math.cos(vis.phase + phase_offset)) / 2.0
    return i_plus, energy - i_plus


def effective_params(params, vis):
    """Fold Poissonian dark counts into an equivalent dark-free model.

    Dark counts raise the energy by 2*dark_mean and scale the visibility
    magnitude down by energy/(energy + 2*dark_mean); the phase is
    untouched.
    """
    if params.dark_mean == 0.0:
        return params, vis
    energy = params.mean_detected_energy + 2.0 * params.dark_mean
    scale = params.mean_detected_energy / energy
    eff = DetectionParams(energy, 0.0, params.truncation)
    return eff, ComplexVisibility(vis.magnitude * scale, vis.phase)


@functools.lru_cache(maxsize=None)
def _log_law_terms(size):
    """Read-only rows (c, -log c!, -1) for counts c = 0..size-1: log P(c)
    at rate I is this row times (log I, 1, I). Callers ask for powers
    of two, so a process computes few of them."""
    out = np.array([(c, -math.lgamma(c + 1.0), -1.0) for c in range(size)])
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _series_stops(k):
    """For j = 1, 2, ...: the largest log(rate) at which the tail series
    P(K) + P(K + 1) + ... may stop after P(K + j). Past P(K + j) each
    term is at most rate / (K + j + 1) < K / (K + j + 1) times the one
    before, so the rest is at most P(K + j) (K + j + 1) / (j + 1); a stop
    keeps that below 1e-18 of P(K). The j range suffices for any rate < K,
    and the entries increase with j."""
    j = np.arange(1.0, 20 * math.isqrt(k) + 60)
    stops = (math.log(1e-18) + np.cumsum(np.log(k + j))
             - np.log((k + j + 1) / (j + 1))) / j
    stops.setflags(write=False)
    return stops


def _port_counts(intensities, truncation):
    """Rows of Poisson count probabilities, one per intensity: columns
    0..K-1 hold the Poisson law and column K the tail P(count >= K).

    The law is exp(k log I - I - log k!) with 0 log 0 = 0. Below I = K
    the tail is summed term by term from P(K) until the rest is below
    1e-18 of it; at I >= K it is one minus the law."""
    k = truncation
    rate_terms = np.ones((3, len(intensities)))  # (log I, 1, I) per intensity
    # log 0 as a finite stand-in, so 0 log 0 = 0 and P(c >= 1) at rate 0 is 0
    rate_terms[0] = -1e300
    np.log(intensities, out=rate_terms[0], where=intensities > 0.0)
    rate_terms[2] = intensities
    # rates at or above K take the complement, so K bounds the span
    span = int(np.searchsorted(_series_stops(k), min(rate_terms[0].max(), math.log(k)),
                               side="right")) + 1
    counts = k + 1 + span
    laws = _log_law_terms(1 << (counts - 1).bit_length())[:counts] @ rate_terms
    np.exp(laws, out=laws)  # one column per intensity
    laws[k] = np.where(intensities < k, laws[k:].sum(axis=0), 1.0 - laws[:k].sum(axis=0))
    return laws[:k + 1].T


def poisson_counts(intensity, truncation):
    """Truncated Poisson count probabilities of length truncation + 1,
    one such row per intensity when given an array of them.

    Entries 0..K-1 follow the Poisson law at the given intensity; the
    K-th entry absorbs the tail so the sequence sums to 1.
    """
    if truncation < 1:
        raise DomainError("truncation must be >= 1")
    intensity = np.asarray(intensity, dtype=float)
    if not np.all(np.isfinite(intensity) & (intensity >= 0.0)):
        raise DomainError("intensity must be finite and >= 0")
    return _port_counts(intensity.ravel(), truncation).reshape(intensity.shape + (truncation + 1,))


def joint_fixed_phase(params, vis):
    """Joint count distribution for a fixed (phase-locked) visibility.

    Dark counts in params are folded in via effective_params; the global
    phase offset is 0, so the port intensities are set by Re(V).
    """
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


def joint_random_phase(params, vis_magnitude):
    """Joint count distribution averaged over a uniform global phase.

    Only |V| matters after averaging, so |V| outside [0, 1] is refused,
    not folded into a phase. Dark counts are folded in first.
    Midpoint rule with M = 2K + 64 nodes on [0, pi], exact below K where
    the integrand is e^{-E} times a polynomial in cos(phi) of degree
    <= 2K - 2 (Trefethen & Weideman, SIAM Rev. 56 (2014) 385); the tail
    bucket converges geometrically. Node rows sum to 1, so no rescaling.
    Node pi - phi swaps the ports of node phi, so P = (S + S^T) / M with
    S summed over half the nodes.
    """
    if not 0.0 <= vis_magnitude <= 1.0 + _MAG_SLACK:
        raise DomainError(f"random-phase |V| = {vis_magnitude} must lie in [0, 1]")
    params, vis = effective_params(params, ComplexVisibility(vis_magnitude))
    energy = params.mean_detected_energy
    k = params.truncation
    nodes = 2 * k + 64
    phi = (np.arange(nodes) + 0.5) * math.pi / nodes
    rows = _port_counts(energy * (1.0 + vis.magnitude * np.cos(phi)) / 2.0, k)
    s = rows[:nodes // 2].T @ rows[nodes // 2:][::-1]
    return JointPhotocountDistribution(k, (s + s.T) / nodes)


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
