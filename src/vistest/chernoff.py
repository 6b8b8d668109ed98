"""Error exponents and bounds for binary hypothesis testing: the
Chernoff information over finite outcome distributions, the
coherent-signal closed form, the standard exp(-NC)/2 bound and the
refined (second-order) bound.

Convention: alpha_star is the exponent on the second hypothesis in the
minimized objective sum(p1^(1-a) p2^a), so the tilted distribution
p1^(1-a) p2^a at a = alpha_star is equidistant (in relative entropy)
from both hypotheses. Swapping the hypotheses maps alpha_star to
1 - alpha_star. All logarithms are natural.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import photostat
from .util import DomainError

_ALPHA_TOL = 1e-10
_ALPHA_STEP = 1e-13
_MAX_PASSES = 100


class DegeneratePairError(DomainError):
    """The refined bound is undefined for this distribution pair."""


@dataclass(frozen=True)
class ChernoffResult:
    """Chernoff information in nats with the optimizing exponent and the
    standard deviation of the log-likelihood ratio under the tilted
    distribution. infinite marks perfectly distinguishable pairs; the
    information field then holds math.inf."""

    information: float
    alpha_star: float
    sigma: float
    infinite: bool = False


def _as_table(p):
    # a photostat table was checked when built; a raw array is checked here
    if isinstance(p, (photostat.JointPhotocountDistribution,
                      photostat.CountDifferenceDistribution)):
        return p.probs.ravel()
    return photostat.checked_probabilities(p, np.shape(p)).ravel()


def _tilted_moments(l1, d, alpha):
    """(f, w, f', f'') at alpha: f = log sum exp(l1 + alpha d), w the
    tilted weights, and f', f'' the mean and variance of d under w."""
    w = np.multiply(d, alpha)  # in place, but operation for operation as
    w += l1  # exp(l1 + alpha d - top) / total, so every result keeps its bits
    top = w.max()
    np.exp(np.subtract(w, top, out=w), out=w)
    total = w.sum()
    w /= total
    mean = float(w @ d)
    spread = d - mean
    return top + math.log(total), w, mean, float(w @ np.square(spread, out=spread))


def _minimum(l1, d, start=None):
    """(alpha, f, w) at the minimum of f over [0, 1]: on a boundary when
    f'(0) >= 0 or f'(1) <= 0, else at the root of f'. Newton from a start
    skips those slopes, unless a step leaves a bracket still ending at 0 or 1."""
    lo, hi, alpha = 0.0, 1.0, start
    if start is None:
        f_lo, w_lo, slope_lo, _ = _tilted_moments(l1, d, 0.0)
        if slope_lo >= 0.0:
            return 0.0, f_lo, w_lo
        f_hi, w_hi, slope_hi, _ = _tilted_moments(l1, d, 1.0)
        if slope_hi <= 0.0:
            return 1.0, f_hi, w_hi
        alpha = slope_lo / (slope_lo - slope_hi)  # secant root of f'
    for _ in range(_MAX_PASSES):
        log_min, tilted, slope, curvature = _tilted_moments(l1, d, alpha)
        point = alpha, log_min, tilted
        lo, hi = (lo, alpha) if slope > 0.0 else (alpha, hi)
        step = -slope / curvature if curvature > 0.0 else math.nan
        inside = lo < alpha + step < hi
        if start is not None and (lo == 0.0 or hi == 1.0) and not (
                inside or abs(step) <= _ALPHA_STEP and 0.0 < alpha + step < 1.0):
            return _minimum(l1, d)
        if not (abs(step) <= _ALPHA_STEP or inside):
            step = 0.5 * (lo + hi) - alpha
        if abs(step) <= _ALPHA_STEP:
            break
        alpha += step
    return point


def chernoff_information(p1, p2):
    """Chernoff information of two photostat tables, or two checked
    probability arrays, on a common outcome set. Minimizes the convex
    f(a) = log sum(p1^(1-a) p2^a) over a in [0, 1] by Newton steps on f'
    (the tilted mean of the log-likelihood ratio, whose variance is f'';
    Cover & Thomas, section 11.9), kept inside a bracket on the sign of f'
    by bisection, to a step of 1e-13. Identical inputs report alpha_star =
    0.5 by convention; disjoint supports yield the infinite sentinel."""
    a, b = _as_table(p1), _as_table(p2)
    if a.shape != b.shape:
        raise DomainError(f"distribution shapes differ: {a.shape} vs {b.shape}")
    if np.abs(a - b).max() <= 1e-15:
        return ChernoffResult(0.0, 0.5, 0.0)
    mask = (a > 0.0) & (b > 0.0)
    if not np.any(mask):
        return ChernoffResult(math.inf, 0.5, 0.0, infinite=True)
    l1 = np.log(a[mask])
    d = np.log(b[mask]) - l1
    alpha, log_min, tilted = _minimum(l1, d)
    info = max(0.0, -log_min)
    sigma = math.sqrt(float(tilted @ d**2))
    return ChernoffResult(info, alpha, sigma)


def chernoff_coherent_closed_form(energy, re_v1, re_v2):
    """Closed-form Chernoff information for phase-locked signals with
    full photon-number resolution; proportional to the detected energy."""
    if not (math.isfinite(energy) and energy >= 0.0):
        raise DomainError("energy must be finite and >= 0")
    if abs(re_v1) > 1.0 or abs(re_v2) > 1.0:
        raise DomainError("Re(V) must lie in [-1, 1]")
    if re_v1 == re_v2:
        return ChernoffResult(0.0, 0.5, 0.0)
    # the objective is sum(p1^(1-a) p2^a) over the two-outcome laws
    # ((1 + Re V)/2, (1 - Re V)/2), so the generic solve gives its minimum
    two_port = chernoff_information(*(np.array([1.0 + v, 1.0 - v]) / 2.0
                                      for v in (re_v1, re_v2)))
    alpha_star = two_port.alpha_star
    info = energy if two_port.infinite else -energy * math.expm1(-two_port.information)

    # Tilted product-Poisson statistics: per-port intensities interpolate
    # geometrically, and the log-likelihood ratio is linear in the counts.
    sigma2 = 0.0
    mean = 0.0
    degenerate = False
    for sign in (1.0, -1.0):
        i1 = energy * (1.0 + sign * re_v1) / 2.0
        i2 = energy * (1.0 + sign * re_v2) / 2.0
        if i1 == 0.0 and i2 == 0.0:
            continue
        if i1 == 0.0 or i2 == 0.0:
            degenerate = True
            continue
        d = math.log(i1 / i2)
        tilted = i1 ** (1.0 - alpha_star) * i2**alpha_star
        sigma2 += tilted * d * d
        mean += tilted * d - (i1 - i2)
    sigma = math.nan if degenerate else math.sqrt(sigma2 + mean * mean)
    return ChernoffResult(info, alpha_star, sigma)


def chernoff_bound(information, repetitions):
    """Standard bound exp(-N C)/2 on the average error probability."""
    if repetitions < 1:
        raise DomainError("repetitions must be >= 1")
    if isinstance(information, ChernoffResult):
        information = information.information  # math.inf when infinite
    if math.isinf(information):
        return 0.0
    return math.exp(-repetitions * information) / 2.0


def refined_bound(result, repetitions):
    """Second-order refinement of the Chernoff bound, from a solved
    ChernoffResult: exp(-NC) / (sqrt(2 pi N) * 2 * alpha*(1-alpha*) * sigma)."""
    if repetitions < 1:
        raise DomainError("repetitions must be >= 1")
    if result.infinite or result.information == 0.0:
        raise DegeneratePairError("refined bound needs 0 < C < inf")
    a = result.alpha_star
    if result.sigma == 0.0 or a <= _ALPHA_TOL or a >= 1.0 - _ALPHA_TOL:
        raise DegeneratePairError("refined bound undefined: boundary optimum")
    n = repetitions
    return math.exp(-n * result.information) / (
        math.sqrt(2.0 * math.pi * n) * 2.0 * a * (1.0 - a) * result.sigma)
