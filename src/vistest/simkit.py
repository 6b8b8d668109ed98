"""Monte Carlo simulation of random-phase trials and decision testing.

Samples (k, k') outcomes from the random-phase model, applies the
likelihood-ratio (Neyman-Pearson) rule to whole ensembles (V1 on a
strictly positive summed log-likelihood ratio, V2 on a tie or below),
estimates conditional and average error rates, and sweeps the V2 truth
over several tables for the worst-case error band. `exact_error`
brackets the same average error without sampling.

Trials are drawn by inverse CDF from the folded joint table. The curve
functions sample from and test with the tables they are given:
`estimate_error(p1, p2, n_values, ensemble_size, seed)` and
`worst_case_sweep(p1, p2, sources, n_values, ensemble_size, seed)`.
Each conditional run reads one stream, keyed by (seed, hypothesis,
source index): p1 on (1, 0), the j-th V2 source on (2, j). A stream is
read trial-major: trial t of all M datasets, then trial t + 1. The
error after N trials is read from the first N trials of every dataset,
so one pass serves every N of a curve, a single-N run reads a prefix of
the curve's stream, and the points of one curve are correlated.

The streams are SplitMix64 counters (`CounterStream`), so sampling needs
nothing from numpy.random.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import photostat
from .util import DomainError

# Floor applied to table cells inside log-likelihoods: keeps zero-
# probability outcomes decisively ordered without producing NaNs.
_LOG_FLOOR = 1e-300

# Uniforms drawn per chunk of trials; memory is O(max(M, this)).
_CHUNK_DRAWS = 1 << 16

# Largest FFT length exact_error accepts (64 MB per real array).
_MAX_LATTICE = 1 << 23

# SplitMix64: the counter step (the odd integer nearest 2**64 / phi) and
# the Mix13 finalizer's shifts and multipliers.
_GAMMA = 0x9E3779B97F4A7C15
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_LAST_SHIFT = 31
_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class ErrorEstimate:
    error_mean: float
    error_std: float
    conditional_v1_given_v2: float
    conditional_v2_given_v1: float


@dataclass(frozen=True)
class WorstCaseBand:
    """Error estimates per V2 source table, tested against a fixed
    design pair, with the min/max envelope of the average error."""

    estimates: tuple
    band_lo: float
    band_hi: float


def _mix(z):
    """SplitMix64's finalizer of a Python int below 2**64."""
    for shift, factor in _MIX:
        z = (z ^ z >> shift) * factor & _MASK
    return z ^ z >> _LAST_SHIFT


class CounterStream:
    """Uniform doubles in [0, 1) from a counter: draw i >= 1 of the stream
    with 64-bit key k is SplitMix64's output _mix(k + i * _GAMMA) (Steele,
    Lea & Flood, OOPSLA 2014), a pure function of (k, i) as in Salmon et
    al., SC'11. Streams whose keys differ by j * _GAMMA overlap after |j|
    draws, a chance of about draws / 2**64 for hashed keys."""

    def __init__(self, key):
        self.key = key
        self.drawn = 0

    def words(self, count):
        """The next `count` 64-bit outputs, as a uint64 array."""
        z = np.arange(self.drawn + 1, self.drawn + count + 1, dtype=np.uint64)
        self.drawn += count
        z *= np.uint64(_GAMMA)  # uint64 operands: the products wrap mod 2**64
        z += np.uint64(self.key)
        spare = np.empty_like(z)
        for shift, factor in _MIX:
            z ^= np.right_shift(z, np.uint64(shift), out=spare)
            z *= np.uint64(factor)
        z ^= np.right_shift(z, np.uint64(_LAST_SHIFT), out=spare)
        return z

    def random(self, size):
        """Doubles of the given size (an int or a shape) from the top 53
        bits of the next words, as numpy's Generator.random makes them."""
        z = self.words(int(np.prod(size)))
        z >>= np.uint64(11)
        u = z.view(np.float64)  # in place: the words are not kept
        np.multiply(z, 2.0 ** -53, out=u)
        return u.reshape(size)


def dataset_rng(seed, *key):
    """The stream of one run seed >= 0 and integer key path (hypothesis
    index, source index, ...). Its key folds (the seed's number of 64-bit
    words, those words from low to high, len(key), *key) through _mix, so
    seeds that differ above bit 63 and paths of different lengths get
    different streams."""
    seed = operator.index(seed)
    if seed < 0:
        raise DomainError("seed must be >= 0")
    if not all(0 <= k <= _MASK for k in key):
        raise DomainError("key entries must lie in [0, 2**64)")
    words = [seed >> shift & _MASK for shift in range(0, max(seed.bit_length(), 1), 64)]
    folded = 0
    for value in (len(words), *words, len(key), *key):
        folded = _mix((folded + _GAMMA + value) & _MASK)
    return CounterStream(folded)


def _cell_sampler(table):
    """Map uniforms in [0, 1) to flat cell indices of a joint table, by
    inverse CDF. A uniform past the rounded total lands on the last cell
    with positive mass."""
    probs = np.asarray(table.probs).ravel()
    cdf = np.cumsum(probs)
    last = np.flatnonzero(probs)[-1]
    return lambda u: np.minimum(np.searchsorted(cdf, u, side="right"), last)


def sample_dataset(rng, energy, vis_magnitude, truncation, size):
    """Draw `size` independent random-phase trials, with counts above
    the truncation folded into it. Returns an (size, 2) integer array of
    (k_plus, k_minus) rows."""
    table = photostat.joint_random_phase(
        photostat.DetectionParams(energy, 0.0, truncation), vis_magnitude)
    cells = _cell_sampler(table)(rng.random(size))
    return np.column_stack(np.divmod(cells, truncation + 1))


def _log_ratio_table(p1, p2):
    return np.log(np.maximum(p1.probs, _LOG_FLOOR)) - np.log(np.maximum(p2.probs, _LOG_FLOOR))


def _conditional_curve(source, llr, v1_true, rng, n_values, m):
    """Fraction of the m datasets drawn from the table `source` through
    `rng` that are misdecided after their first N trials, for each N in
    n_values, using the log-ratio table `llr` (favoring V1 when > 0)."""
    draw = _cell_sampler(source)
    llr = llr.ravel()
    n_max = max(n_values, default=0)
    chunk = max(1, _CHUNK_DRAWS // m)
    total = np.zeros(m)
    wrong = {}
    for start in range(0, n_max, chunk):
        # sequential running sums, so the result does not depend on chunk
        sums = llr[draw(rng.random((min(chunk, n_max - start), m)))]
        sums[0] += total
        np.cumsum(sums, axis=0, out=sums)
        for row, n in enumerate(range(start + 1, start + len(sums) + 1)):
            if n in n_values:
                wrong[n] = int(np.count_nonzero((sums[row] > 0.0) != v1_true))
        total = sums[-1].copy()
    return [wrong[n] / m for n in n_values]


def _paired(eps_v2_given_v1, eps_v1_given_v2, m):
    """ErrorEstimates of one V1 and one V2 conditional curve."""
    out = []
    for e21, e12 in zip(eps_v2_given_v1, eps_v1_given_v2):
        mean = (e12 + e21) / 2.0
        out.append(ErrorEstimate(mean, math.sqrt(mean * (1.0 - mean) / m), e12, e21))
    return out


def estimate_error(p1, p2, n_values, ensemble_size, seed):
    """Monte Carlo estimate of the average error probability at each N.

    Draws M = ensemble_size datasets from p1 on stream (1, 0) and from
    p2 on stream (2, 0), applies the Neyman-Pearson rule of the (p1, p2)
    pair after the first n trials of every dataset, for each n in
    n_values, and returns one ErrorEstimate per n: the two conditional
    error fractions, their average, and sqrt(eps(1-eps)/M). As x(1-x) is
    concave, that last figure is at least sqrt(2) times the standard error
    of the two-conditional average, exactly sqrt(2) when the two are equal.
    """
    return [b.estimates[0] for b in worst_case_sweep(p1, p2, [p2], n_values,
                                                     ensemble_size, seed)]


def worst_case_sweep(p1, p2, sources, n_values, ensemble_size, seed):
    """Error band at each N in n_values of the test of p1 against p2
    when the V2 truth is each table of `sources` in turn. Returns one
    WorstCaseBand per N.

    The V1 conditional reads p1 on stream (1, 0) once and is shared by
    every source; source j is read on stream (2, j). All tables must
    share one truncation, since the log-ratio table is indexed by cell.
    """
    if len({t.truncation for t in (p1, p2, *sources)}) != 1:
        raise DomainError("the tables must share one truncation")
    if any(n < 1 for n in n_values):
        raise DomainError("every N must be >= 1")
    if ensemble_size < 1:
        raise DomainError("ensemble_size must be >= 1")
    llr = _log_ratio_table(p1, p2)
    eps_v2_given_v1 = _conditional_curve(p1, llr, True, dataset_rng(seed, 1, 0),
                                         n_values, ensemble_size)
    per_v2 = [_paired(eps_v2_given_v1, _conditional_curve(
                  source, llr, False, dataset_rng(seed, 2, j), n_values, ensemble_size),
                  ensemble_size)
              for j, source in enumerate(sources)]
    bands = []
    for estimates in zip(*per_v2):
        means = [e.error_mean for e in estimates]
        bands.append(WorstCaseBand(estimates, min(means), max(means)))
    return bands


def _lattice_law(probs, llr, rounding, step):
    """Law of one trial's LLR rounded onto the lattice step * Z: the
    lowest lattice index and the probabilities from there up."""
    keep = probs > 0.0
    index = rounding(llr[keep] / step)
    base = int(index.min())
    if index.max() - base >= _MAX_LATTICE:
        raise DomainError("LLR lattice too fine for this table; use a larger step")
    return base, np.bincount(index.astype(np.int64) - base, weights=probs[keep])


def _at_most_zero(law, n):
    """P(sum of n lattice draws <= 0), by one real FFT."""
    base, pmf = law
    size = n * (len(pmf) - 1) + 1
    if size > _MAX_LATTICE:
        raise DomainError(f"lattice of {size} points at N = {n} exceeds {_MAX_LATTICE}; "
                          "use a larger step")
    nfft = 1 << (size - 1).bit_length()
    total = np.fft.irfft(np.fft.rfft(pmf, nfft) ** n, nfft)[:size]
    return min(1.0, max(0.0, float(total[:max(0, 1 - n * base)].sum())))


def exact_error(p1, p2, n_values, step=1e-3):
    """Certified bracket (lo, hi) on the average error of the
    likelihood-ratio test after each N in n_values, without sampling.

    eps_N = [P1(S_N <= 0) + P2(S_N > 0)] / 2, with S_N the sum of N
    per-trial LLRs. Rounding every cell's LLR down (S-) or up (S+) to
    the lattice step * Z bounds S_N on every path, so
    lo = [P1(S+ <= 0) + P2(S- > 0)] / 2 <= eps_N <= hi = [P1(S- <= 0)
    + P2(S+ > 0)] / 2, up to FFT round-off of about 1e-13. The width
    shrinks about linearly in `step`.
    """
    if p1.truncation != p2.truncation:
        raise DomainError("hypothesis tables have different truncation")
    if not step > 0.0:
        raise DomainError("step must be > 0")
    llr = _log_ratio_table(p1, p2).ravel()
    laws = [_lattice_law(p.probs.ravel(), llr, rounding, step)
            for p in (p1, p2) for rounding in (np.floor, np.ceil)]
    out = []
    for n in n_values:
        if n < 1:
            raise DomainError("N must be >= 1")
        p1_down, p1_up, p2_down, p2_up = (_at_most_zero(law, n) for law in laws)
        out.append(((p1_up + 1.0 - p2_down) / 2.0, (p1_down + 1.0 - p2_up) / 2.0))
    return out
