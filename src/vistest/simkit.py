"""Monte Carlo simulation of random-phase trials and decision testing.

Samples (k, k') outcomes from the random-phase model, applies the
likelihood-ratio (Neyman-Pearson) decision rule, estimates conditional
and average error rates over dataset ensembles, and sweeps the true
visibility below the design point for the worst-case error band.
`exact_error` brackets the same average error without sampling.

Trials are drawn by inverse CDF from the folded joint table. Each
conditional run reads one stream, keyed by (seed, hypothesis, band
index), trial-major: trial t of all M datasets, then trial t + 1. The
error after N trials is read from the first N trials of every dataset,
so one pass serves every N of a curve, a single-N run reads a prefix of
the curve's stream, and the points of one curve are correlated.
"""

import enum
import math
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


class Decision(enum.Enum):
    V1 = 1
    V2 = 2


@dataclass(frozen=True)
class ExperimentConfig:
    """One conditional Monte Carlo run: M datasets of N trials each,
    sampled at the true visibility."""

    true_visibility: float
    energy: float
    truncation: int
    repetitions_per_test: int
    ensemble_size: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.true_visibility <= 1.0:
            raise DomainError("true_visibility must lie in [0, 1]")
        if self.repetitions_per_test < 1 or self.ensemble_size < 1:
            raise DomainError("repetitions_per_test and ensemble_size must be >= 1")


@dataclass(frozen=True)
class ErrorEstimate:
    error_mean: float
    error_std: float
    conditional_v1_given_v2: float
    conditional_v2_given_v1: float


@dataclass(frozen=True)
class WorstCaseBand:
    """Error estimates per true visibility, tested against a fixed
    design pair, with the min/max envelope of the average error."""

    v2_values: np.ndarray
    estimates: tuple
    band_lo: float
    band_hi: float


def dataset_rng(seed, *key):
    """Independent generator for one stream, derived from the run seed
    and an integer key path (hypothesis index, band index, ...)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _cell_sampler(table):
    """Map uniforms in [0, 1) to flat cell indices of a joint table, by
    inverse CDF. A uniform past the rounded total lands on the last cell
    with positive mass."""
    probs = np.asarray(table.probs).ravel()
    cdf = np.cumsum(probs)
    last = np.flatnonzero(probs)[-1]
    return lambda u: np.minimum(np.searchsorted(cdf, u, side="right"), last)


def _random_phase_table(energy, vis_magnitude, truncation):
    return photostat.joint_random_phase(
        photostat.DetectionParams(energy, 0.0, truncation), vis_magnitude)


def sample_dataset(rng, energy, vis_magnitude, truncation, size):
    """Draw `size` independent random-phase trials, with counts above
    the truncation folded into it. Returns an (size, 2) integer array of
    (k_plus, k_minus) rows."""
    table = _random_phase_table(energy, vis_magnitude, truncation)
    cells = _cell_sampler(table)(rng.random(size))
    return np.column_stack(np.divmod(cells, truncation + 1))


def _as_outcome_array(dataset, truncation):
    data = np.asarray(dataset, dtype=np.int64)
    if data.size == 0:
        return data.reshape(0, 2)
    if data.ndim != 2 or data.shape[1] != 2:
        raise DomainError("dataset must be a sequence of (k_plus, k_minus) pairs")
    if np.any(data < 0) or np.any(data > truncation):
        raise DomainError("outcome outside the distribution table range")
    return data


def _log_ratio_table(p1, p2):
    t1 = np.log(np.maximum(np.asarray(p1.probs, dtype=float), _LOG_FLOOR))
    t2 = np.log(np.maximum(np.asarray(p2.probs, dtype=float), _LOG_FLOOR))
    return t1 - t2


def log_likelihood_ratio(dataset, p1, p2):
    """Sum over the dataset of log p1(outcome) - log p2(outcome)."""
    if p1.truncation != p2.truncation:
        raise DomainError("hypothesis tables have different truncation")
    data = _as_outcome_array(dataset, p1.truncation)
    if len(data) == 0:
        return 0.0
    table = _log_ratio_table(p1, p2)
    return float(table[data[:, 0], data[:, 1]].sum())


def neyman_pearson(dataset, p1, p2):
    """Decide V1 on a strictly positive log-likelihood ratio, V2 on a
    tie or negative ratio."""
    return Decision.V1 if log_likelihood_ratio(dataset, p1, p2) > 0.0 else Decision.V2


def _conditional_curve(config, source, llr, truth, key, n_values):
    """Fraction of the M datasets drawn from the table `source` on stream
    `key` that are misdecided after their first N trials, for each N in
    n_values, using the log-ratio table `llr` (favoring V1 when > 0)."""
    if any(not 1 <= n <= config.repetitions_per_test for n in n_values):
        raise DomainError(f"every N must lie in [1, {config.repetitions_per_test}]")
    m = config.ensemble_size
    draw = _cell_sampler(source)
    llr = llr.ravel()
    rng = dataset_rng(config.seed, *key)
    n_max = max(n_values, default=0)
    chunk = max(1, _CHUNK_DRAWS // m)
    v1_true = truth is Decision.V1
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


def error_curve(config_v1, config_v2, p1, p2, n_values):
    """Monte Carlo estimate of the average error probability at each N.

    Draws M datasets of the configs' N trials under each true
    hypothesis, applies the Neyman-Pearson rule with the fixed (p1, p2)
    pair after the first n trials of every dataset, for each n in
    n_values (each within [1, N]), and returns one ErrorEstimate per n:
    the two conditional error fractions, their average, and
    sqrt(eps(1-eps)/M). That last figure overstates the standard error
    of the two-conditional average by up to sqrt(2).
    """
    if (config_v1.repetitions_per_test != config_v2.repetitions_per_test
            or config_v1.ensemble_size != config_v2.ensemble_size):
        raise DomainError("the two conditional runs must share N and M")
    if p1.truncation != p2.truncation:
        raise DomainError("hypothesis tables have different truncation")
    if not config_v1.truncation == config_v2.truncation == p1.truncation:
        raise DomainError("the configs' truncation differs from the tables'")
    llr = _log_ratio_table(p1, p2)
    sources = [_random_phase_table(c.energy, c.true_visibility, c.truncation)
               for c in (config_v1, config_v2)]
    return _paired(
        _conditional_curve(config_v1, sources[0], llr, Decision.V1, (1, 0), n_values),
        _conditional_curve(config_v2, sources[1], llr, Decision.V2, (2, 0), n_values),
        config_v1.ensemble_size)


def estimate_error(config_v1, config_v2, p1, p2):
    """error_curve at the configs' own N."""
    return error_curve(config_v1, config_v2, p1, p2, [config_v1.repetitions_per_test])[0]


def worst_case_curve(v1, v2_grid, designed_v2, config, n_values):
    """Error band at each N in n_values when the true second visibility
    ranges below the design point while the test stays fixed at
    (p(v1), p(designed_v2)). Returns one WorstCaseBand per N.

    `config` supplies energy, truncation, N, M, and the seed; its
    true_visibility field is ignored. One table per distinct visibility
    of v1 and the grid serves both to sample and, at v1 and at the grid
    maximum, as the test pair. The V1 conditional reads stream (1, 0)
    once and is shared by every grid point; grid point j reads (2, j).
    """
    v2_grid = np.asarray(v2_grid, dtype=float)
    if len(v2_grid) == 0:
        raise DomainError("empty visibility grid")
    if not np.all((0.0 <= v2_grid) & (v2_grid <= 1.0)) or not 0.0 <= v1 <= 1.0:
        raise DomainError("every true visibility must lie in [0, 1]")
    if not math.isclose(float(v2_grid.max()), designed_v2, rel_tol=0.0, abs_tol=1e-12):
        raise DomainError("designed_v2 must equal the maximum of the grid")
    tables = {v: _random_phase_table(config.energy, v, config.truncation)
              for v in dict.fromkeys([v1, *v2_grid.tolist()])}
    llr = _log_ratio_table(tables[v1], tables[float(v2_grid.max())])
    eps_v2_given_v1 = _conditional_curve(config, tables[v1], llr, Decision.V1, (1, 0), n_values)
    per_v2 = [_paired(eps_v2_given_v1, _conditional_curve(
                  config, tables[v2], llr, Decision.V2, (2, j), n_values),
                  config.ensemble_size)
              for j, v2 in enumerate(v2_grid.tolist())]
    bands = []
    for estimates in zip(*per_v2):
        means = [e.error_mean for e in estimates]
        bands.append(WorstCaseBand(v2_grid, estimates, min(means), max(means)))
    return bands


def worst_case_sweep(v1, v2_grid, designed_v2, config):
    """worst_case_curve at the config's own N."""
    return worst_case_curve(v1, v2_grid, designed_v2, config,
                            [config.repetitions_per_test])[0]


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
    laws = [_lattice_law(np.asarray(p.probs, dtype=float).ravel(), llr, rounding, step)
            for p in (p1, p2) for rounding in (np.floor, np.ceil)]
    out = []
    for n in n_values:
        if n < 1:
            raise DomainError("N must be >= 1")
        p1_down, p1_up, p2_down, p2_up = (_at_most_zero(law, n) for law in laws)
        out.append(((p1_up + 1.0 - p2_down) / 2.0, (p1_down + 1.0 - p2_up) / 2.0))
    return out
