"""Quantum-fingerprinting resource planner.

Maps visibilities to relative Hamming distances and code rates
(Gilbert-Varshamov and the appended-bits modification for phaseless
operation), evaluates the classical benchmarks, and solves for the
input lengths where the phaseless protocol overtakes them.

Revealed-information accounting: the information leaked to the referee
by N repetitions of an m-pulse BPSK signal pair with mean photon number
nbar per repetition is taken as N * nbar * log2(2m) (a 2m-mode channel
at its asymptotic capacity, counted once per repetition). This
convention reproduces both published crossover lengths with a single
repetition count, which is the consistency evidence it rests on.
"""

import math
from dataclasses import dataclass

from . import chernoff, energyopt
from .util import DomainError

_BISECT_ITERS = 60
_CROSSOVER_RANGE = (10.0, 1e12)


class CrossoverNotFoundError(DomainError):
    """No quantum/classical crossover inside the searched length range."""


@dataclass(frozen=True)
class CodeSpec:
    """Fingerprinting code parameters: minimum relative Hamming distance
    and the achievable rate; modified marks the appended-bits
    construction used for random-phase operation."""

    delta_min: float
    rate: float
    modified: bool


@dataclass(frozen=True)
class CrossoverResult:
    """Input lengths where the phaseless protocol beats the classical
    benchmarks, with the repetition count and total photon budget used."""

    n_vs_best_classical: float
    n_vs_classical_limit: float
    repetitions: int
    total_energy: float


def binary_entropy(x):
    """Binary entropy in bits, with h2(0) = h2(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise DomainError("binary entropy argument must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def gv_rate(delta_min):
    """Gilbert-Varshamov rate r = 1 - h2(delta_min)."""
    if not 0.0 <= delta_min < 0.5:
        raise DomainError("delta_min must lie in [0, 0.5)")
    return 1.0 - binary_entropy(delta_min)


def modified_rate_appended(appended_delta_min):
    """Rate of the appended-bits code, parameterized by its own minimum
    relative distance: R = (1 - D) [1 - h2(D / (1 - D))]."""
    d = appended_delta_min
    if d < 0.0:
        raise DomainError("appended delta_min must be >= 0")
    if d >= 1.0 / 3.0:
        raise DomainError("appended delta_min >= 1/3 leaves no code rate")
    if d == 0.0:
        return 1.0
    return (1.0 - d) * (1.0 - binary_entropy(d / (1.0 - d)))


def modified_rate(delta_min):
    """Rate of the appended-bits code built from an original code of
    minimum relative distance delta_min (appended distance becomes
    delta_min / (1 + delta_min))."""
    if not 0.0 <= delta_min < 0.5:
        raise DomainError("delta_min must lie in [0, 0.5)")
    return modified_rate_appended(delta_min / (1.0 + delta_min))


def code_spec(delta_min, modified=False):
    """CodeSpec at the given minimum relative distance; the modified
    flag selects the appended-bits construction (delta_min is then the
    appended code's own distance)."""
    rate = modified_rate_appended(delta_min) if modified else gv_rate(delta_min)
    return CodeSpec(delta_min, rate, modified)


def delta_from_visibilities(v1, v2):
    """Minimum relative Hamming distance implied by the promise
    v2 = v1 (1 - 2 delta) with shared imperfections."""
    if not 0.0 < v2 < v1 <= 1.0:
        raise DomainError("require 0 < v2 < v1 <= 1")
    return (1.0 - v2 / v1) / 2.0


def visibility_from_hamming(delta):
    """Signed visibility 1 - 2 delta of BPSK signals at relative Hamming
    distance delta (random-phase use takes the absolute value)."""
    return 1.0 - 2.0 * delta


def bpsk_overlap(phases_a, phases_b):
    """Overlap of two equal-length BPSK phase patterns (bit sequences):
    the mean of (-1)^(a XOR b)."""
    a = list(phases_a)
    b = list(phases_b)
    if len(a) != len(b):
        raise DomainError("phase patterns differ in length")
    if not a:
        raise DomainError("phase patterns must be non-empty")
    agree = sum(1 for x, y in zip(a, b) if bool(x) == bool(y))
    return (2 * agree - len(a)) / len(a)


def classical_lower_bound(n, eps):
    """Bits any classical protocol must reveal:
    (1 - 2 sqrt(eps)) (sqrt(n / (2 ln 2)) - 1)."""
    _check_benchmark_args(n, eps)
    return (1.0 - 2.0 * math.sqrt(eps)) * (math.sqrt(n / (2.0 * math.log(2.0))) - 1.0)


def best_classical(n, eps):
    """Bits revealed by the best known classical protocol:
    4 ceil(log2(1/eps) / 2) sqrt(n)."""
    _check_benchmark_args(n, eps)
    return 4.0 * math.ceil(0.5 * math.log2(1.0 / eps)) * math.sqrt(n)


def _check_benchmark_args(n, eps):
    if n < 1:
        raise DomainError("input length must be >= 1")
    if not 0.0 < eps < 0.25:
        raise DomainError("error probability must lie in (0, 0.25)")


def repetitions_needed(chernoff_info, eps):
    """Repetitions making the Chernoff bound exp(-NC)/2 reach eps."""
    if isinstance(chernoff_info, chernoff.ChernoffResult):
        chernoff_info = chernoff_info.information
    if chernoff_info <= 0.0:
        raise DomainError("Chernoff information must be > 0")
    if math.isinf(chernoff_info):
        return 1
    return max(1, math.ceil(math.log(1.0 / (2.0 * eps)) / chernoff_info))


def quantum_revealed(n, rate, energy_per_rep, repetitions):
    """Bits revealed by the interferometric protocol on n-bit inputs:
    repetitions * energy_per_rep * log2(2m) with m = n / rate pulses."""
    if not 0.0 < rate <= 1.0:
        raise DomainError("rate must lie in (0, 1]")
    if repetitions < 0:
        raise DomainError("repetitions must be >= 0")
    m = n / rate
    if m < 2.0:
        raise DomainError("pulse count n/rate must be >= 2")
    return repetitions * energy_per_rep * math.log2(2.0 * m)


def _bisect_log_n(f, lo, hi):
    """Root of f on [lo, hi] by bisection in log n; f(lo) and f(hi) must
    differ in sign."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise CrossoverNotFoundError("no sign change over the length range")
    a, b = math.log(lo), math.log(hi)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (a + b)
        if (f(math.exp(mid)) > 0.0) == (flo > 0.0):
            a = mid
        else:
            b = mid
    return math.exp(0.5 * (a + b))


def _phaseless_plan(v1, v2, eps, truncation):
    """(code rate, optimal energy per repetition, repetitions) of the phaseless protocol."""
    rate = modified_rate_appended(delta_from_visibilities(v1, v2))
    scan = energyopt.optimal_energy(v1, v2, truncation)
    reps = repetitions_needed(scan.optimum_ratio * scan.optimum_energy, eps)
    return rate, scan.optimum_energy, reps


def crossover(v1, v2, eps, truncation=15):
    """Quantum-advantage thresholds for the phaseless protocol.

    Derives the appended-code rate from the visibility pair, picks the
    energy per repetition maximizing Chernoff information per photon,
    sizes the repetition count from the Chernoff bound, and solves
    quantum_revealed(n) = benchmark(n) for both classical benchmarks.
    """
    return _crossover(*_phaseless_plan(v1, v2, eps, truncation), eps)


def _crossover(rate, energy, reps, eps):
    n_best = _bisect_log_n(
        lambda n: quantum_revealed(n, rate, energy, reps) - best_classical(n, eps),
        *_CROSSOVER_RANGE)
    n_limit = _bisect_log_n(
        lambda n: quantum_revealed(n, rate, energy, reps) - classical_lower_bound(n, eps),
        *_CROSSOVER_RANGE)
    return CrossoverResult(n_best, n_limit, reps, reps * energy)


def revealed_curves(n_values, v1, v2, eps, coherent_energy=None, truncation=15):
    """Revealed-information curves versus input length.

    Returns a dict of arrays keyed by 'quantum_incoherent',
    'quantum_coherent', 'classical_best', and 'classical_bound'. The
    coherent curve needs an explicit per-repetition photon number and is
    None when coherent_energy is not supplied (its budget is a free
    choice, never defaulted). Entries where a curve is undefined
    (pulse count below 2) are NaN.
    """
    return _revealed_curves(n_values, *_phaseless_plan(v1, v2, eps, truncation),
                            v1, v2, eps, coherent_energy)


def _revealed_curves(n_values, rate_inc, energy_inc, reps_inc, v1, v2, eps, coherent_energy):
    def curve(f):
        out = []
        for n in n_values:
            try:
                out.append(f(n))
            except DomainError:
                out.append(math.nan)
        return out

    result = {
        "quantum_incoherent": curve(
            lambda n: quantum_revealed(n, rate_inc, energy_inc, reps_inc)),
        "classical_best": curve(lambda n: best_classical(n, eps)),
        "classical_bound": curve(lambda n: classical_lower_bound(n, eps)),
        "quantum_coherent": None,
    }
    if coherent_energy is not None:
        rate_coh = gv_rate(delta_from_visibilities(v1, v2))
        info_coh = chernoff.chernoff_coherent_closed_form(coherent_energy, v1, v2)
        reps_coh = repetitions_needed(info_coh, eps)
        result["quantum_coherent"] = curve(
            lambda n: quantum_revealed(n, rate_coh, coherent_energy, reps_coh))
    return result
