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
    relative distance: R = (1 - D) [1 - h2(D / (1 - D))]. Built from an
    original code of distance delta_min, D = delta_min / (1 + delta_min)."""
    d = appended_delta_min
    if d < 0.0:
        raise DomainError("appended delta_min must be >= 0")
    if d >= 1.0 / 3.0:
        raise DomainError("appended delta_min >= 1/3 leaves no code rate")
    if d == 0.0:
        return 1.0
    return (1.0 - d) * (1.0 - binary_entropy(d / (1.0 - d)))


def delta_from_visibilities(v1, v2):
    """Minimum relative Hamming distance implied by the promise
    v2 = v1 (1 - 2 delta) with shared imperfections."""
    if not 0.0 < v2 < v1 <= 1.0:
        raise DomainError("require 0 < v2 < v1 <= 1")
    return (1.0 - v2 / v1) / 2.0


def classical_lower_bound(n, eps):
    """Bits any classical protocol must reveal:
    (1 - 2 sqrt(eps)) (sqrt(n / (2 ln 2)) - 1)."""
    _check_benchmark_args(eps, n)
    return (1.0 - 2.0 * math.sqrt(eps)) * (math.sqrt(n / (2.0 * math.log(2.0))) - 1.0)


def best_classical(n, eps):
    """Bits revealed by the best known classical protocol:
    4 ceil(log2(1/eps) / 2) sqrt(n)."""
    _check_benchmark_args(eps, n)
    return 4.0 * math.ceil(0.5 * math.log2(1.0 / eps)) * math.sqrt(n)


def _check_benchmark_args(eps, n=1):
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
    if not eps > 0.0:
        raise DomainError("error probability must be > 0")
    if math.isinf(chernoff_info):
        return 1
    reps = math.log(1.0 / (2.0 * eps)) / chernoff_info
    if math.isinf(reps):
        raise DomainError(f"log(1/2eps)/C overflows at Chernoff information C = "
                          f"{chernoff_info!r}, eps = {eps!r}")
    return max(1, math.ceil(reps))


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


def _bisect_log_n(f, lo, hi, what="f"):
    """Root of f on [lo, hi] by bisection in log n; f(lo) and f(hi) must
    differ in sign, or the refusal names `what` and the range."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise CrossoverNotFoundError(f"{what} keeps one sign for n in [{lo:g}, {hi:g}]")
    a, b = math.log(lo), math.log(hi)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (a + b)
        if (f(math.exp(mid)) > 0.0) == (flo > 0.0):
            a = mid
        else:
            b = mid
    return math.exp(0.5 * (a + b))


@dataclass(frozen=True)
class FingerprintPlan:
    """Resources of the phaseless protocol for one visibility pair: the
    promised minimum distance, the appended-code rate, the photons per
    repetition that maximise Chernoff information per photon, and the
    repetitions that bring the Chernoff bound down to eps."""

    v1: float
    v2: float
    eps: float
    delta_min: float
    rate: float
    energy: float
    at_boundary: bool  # the energy is an end of the search range
    repetitions: int


def plan(v1, v2, eps, truncation=15):
    """FingerprintPlan of the phaseless protocol: the appended-code rate
    from the visibility pair, the energy per repetition from one energy
    search, and the repetitions from the Chernoff bound; eps is checked first."""
    _check_benchmark_args(eps)
    delta = delta_from_visibilities(v1, v2)
    scan = energyopt.optimal_energy(v1, v2, truncation)
    return FingerprintPlan(v1, v2, eps, delta, modified_rate_appended(delta),
                           scan.optimum_energy, scan.at_boundary,
                           repetitions_needed(scan.optimum_ratio * scan.optimum_energy, eps))


def crossover(plan):
    """CrossoverResult of a FingerprintPlan: the lengths n where
    quantum_revealed(n) meets each classical benchmark."""
    def meet(benchmark):
        return _bisect_log_n(
            lambda n: quantum_revealed(n, plan.rate, plan.energy, plan.repetitions)
            - benchmark(n, plan.eps), *_CROSSOVER_RANGE,
            f"quantum minus {benchmark.__name__} revealed bits at eps = {plan.eps:g}")

    return CrossoverResult(meet(best_classical), meet(classical_lower_bound),
                           plan.repetitions, plan.repetitions * plan.energy)


def revealed_curves(plan, n_values, coherent_energy=None):
    """Revealed-information curves of a FingerprintPlan versus input length.

    Returns a dict of lists keyed by 'quantum_incoherent',
    'quantum_coherent', 'classical_best', and 'classical_bound'. The
    coherent curve needs an explicit per-repetition photon number and
    is None when coherent_energy is not supplied (its budget is a free
    choice, never defaulted). Entries where a curve is undefined
    (pulse count below 2) are NaN.
    """
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
            lambda n: quantum_revealed(n, plan.rate, plan.energy, plan.repetitions)),
        "classical_best": curve(lambda n: best_classical(n, plan.eps)),
        "classical_bound": curve(lambda n: classical_lower_bound(n, plan.eps)),
        "quantum_coherent": None,
    }
    if coherent_energy is not None:
        rate_coh = gv_rate(plan.delta_min)
        info_coh = chernoff.chernoff_coherent_closed_form(coherent_energy, plan.v1, plan.v2)
        reps_coh = repetitions_needed(info_coh, plan.eps)
        result["quantum_coherent"] = curve(
            lambda n: quantum_revealed(n, rate_coh, coherent_energy, reps_coh))
    return result
