import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom, chi2

from vistest import chernoff as ch
from vistest import photostat as ps
from vistest import simkit as sk
from vistest.util import DomainError


N_LIST = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 20, 30, 40, 50)


def table(v, energy=6.3, truncation=15):
    return ps.joint_random_phase(ps.DetectionParams(energy, 0.0, truncation), v)


def tables(v1=0.98, v2=0.56, energy=6.3, truncation=15):
    return table(v1, energy, truncation), table(v2, energy, truncation)


class TestDatasetRng:
    def test_keyed_streams_are_independent_of_order(self):
        a_first = sk.dataset_rng(7, 1, 0).random(3)
        b = sk.dataset_rng(7, 1, 1).random(3)
        a_again = sk.dataset_rng(7, 1, 0).random(3)
        assert np.array_equal(a_first, a_again)
        assert not np.array_equal(a_first, b)

    def test_distinct_hypothesis_keys_differ(self):
        assert not np.array_equal(sk.dataset_rng(7, 1, 0).random(3),
                                  sk.dataset_rng(7, 2, 0).random(3))

    def test_seed_above_bit_63_and_longer_path_differ(self):
        base = sk.dataset_rng(1, 1, 0).random(3)
        for other in (sk.dataset_rng(1 + 2**64, 1, 0), sk.dataset_rng(1, 1, 0, 0)):
            assert not np.array_equal(base, other.random(3))

    @pytest.mark.parametrize("seed,key", [(-1, ()), (1, (-1,)), (1, (0, 2**64))])
    def test_negative_or_wide_entries_refused(self, seed, key):
        with pytest.raises(DomainError):
            sk.dataset_rng(seed, *key)


_MASK = (1 << 64) - 1


def reference_mix(z):
    """SplitMix64's Mix13 finalizer, in Python ints."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def reference_draws(seed, key, start, count):
    """Draws start + 1 .. start + count of the stream of (seed, key), one
    Python int at a time: the folded key, the counter, the top 53 bits."""
    gamma = 0x9E3779B97F4A7C15
    words = []
    while True:
        words.append(seed & _MASK)
        seed >>= 64
        if not seed:
            break
    folded = 0
    for value in [len(words), *words, len(key), *key]:
        folded = reference_mix((folded + gamma + value) & _MASK)
    return [(reference_mix((folded + i * gamma) & _MASK) >> 11) / 2.0**53
            for i in range(start + 1, start + count + 1)]


class TestCounterStream:
    def test_key_0_gives_splitmix64_seed_0_outputs(self):
        # the first outputs of SplitMix64 seeded with 0 (Steele, Lea & Flood 2014)
        words = sk.CounterStream(0).words(3)
        assert words.dtype == np.uint64
        assert [int(w) for w in words] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                           0x06C45D188009454F]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**130), key=st.lists(st.integers(0, 2**64 - 1), max_size=3),
           offset=st.integers(0, 300), size=st.integers(0, 40))
    def test_matches_the_python_int_reference(self, seed, key, offset, size):
        rng = sk.dataset_rng(seed, *key)
        rng.random(offset)
        assert rng.random(size).tolist() == reference_draws(seed, key, offset, size)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 70), m=st.integers(0, 70), rows=st.integers(1, 3))
    def test_reads_continue_the_stream(self, n, m, rows):
        whole = sk.dataset_rng(5, 2, 1).random(rows * n + m)
        rng = sk.dataset_rng(5, 2, 1)
        first, second = rng.random((rows, n)), rng.random(m)
        assert first.shape == (rows, n) and second.shape == (m,)
        assert np.array_equal(np.concatenate([first.ravel(), second]), whole)

    def test_uniform_over_64_bins(self):
        # chi-square at a false-alarm rate of 1e-6, whatever the stream
        u = sk.dataset_rng(2017, 1, 0).random(10**6)
        assert 0.0 <= u.min() and u.max() < 1.0
        counts = np.bincount((u * 64).astype(np.int64), minlength=64)
        expected = len(u) / 64
        stat = float(((counts - expected) ** 2).sum() / expected)
        assert stat < chi2.isf(1e-6, 63)

    # figure 4c is simulate's band run
    @pytest.mark.parametrize("argv", [["simulate", "--ensemble", "100"],
                                      ["figures", "--id", "4c", "--ensemble", "100"]], ids=" ".join)
    def test_simulate_loads_no_numpy_random(self, argv):
        src = Path(sk.__file__).resolve().parents[1]
        code = ("import sys, io, contextlib\n"
                "from vistest import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = cli.main({argv!r})\n"
                "print(code, 'numpy.random' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "False"]


class TestSampleDataset:
    def test_shape_and_range(self):
        rng = sk.dataset_rng(0, 0)
        data = sk.sample_dataset(rng, 6.3, 0.56, 15, 500)
        assert data.shape == (500, 2)
        assert data.min() >= 0
        assert data.max() <= 15

    def test_clamped_at_truncation(self):
        rng = sk.dataset_rng(0, 0)
        data = sk.sample_dataset(rng, 30.0, 0.0, 3, 200)
        assert data.max() == 3

    def test_zero_energy_all_vacuum(self):
        rng = sk.dataset_rng(0, 0)
        data = sk.sample_dataset(rng, 0.0, 0.5, 5, 50)
        assert not data.any()

    def test_sample_mean_matches_model(self):
        rng = sk.dataset_rng(42, 0)
        data = sk.sample_dataset(rng, 6.3, 0.56, 40, 200_000)
        # with effectively no clamping the total mean is the energy
        assert data.sum(axis=1).mean() == pytest.approx(6.3, abs=0.03)

    def test_empirical_distribution_matches_table(self):
        rng = sk.dataset_rng(3, 0)
        k = 8
        data = sk.sample_dataset(rng, 2.0, 0.9, k, 400_000)
        table = ps.joint_random_phase(ps.DetectionParams(2.0, 0.0, k), 0.9).probs
        freq = np.bincount(data[:, 0] * (k + 1) + data[:, 1],
                           minlength=(k + 1) ** 2).reshape(k + 1, k + 1) / len(data)
        tv = 0.5 * np.abs(freq - table).sum()
        assert tv < 0.005

    def test_negative_energy_rejected(self):
        with pytest.raises(DomainError):
            sk.sample_dataset(sk.dataset_rng(0, 0), -1.0, 0.5, 5, 10)


def phase_poisson_sample(rng, energy, vis_magnitude, truncation, size):
    """The direct model, kept as an oracle for the table sampler: a
    uniform global phase per trial, then Poisson counts at the two port
    intensities, clamped at the truncation."""
    phases = rng.uniform(0.0, 2.0 * math.pi, size)
    i_plus = energy * (1.0 + vis_magnitude * np.cos(phases)) / 2.0
    counts = np.column_stack([rng.poisson(i_plus), rng.poisson(energy - i_plus)])
    return np.minimum(counts, truncation)


class TestTableSampler:
    @pytest.mark.parametrize("energy,vis,k", [(2.0, 0.9, 8), (6.3, 0.56, 15)])
    def test_g_test_against_phase_then_poisson(self, energy, vis, k):
        # two-sample G-test of homogeneity on 2e5 trials each; cells whose
        # expected count under the table is below 5 are pooled into one.
        # False-alarm rate 5e-7 per case, 1e-6 over both.
        n = 200_000
        table = ps.joint_random_phase(ps.DetectionParams(energy, 0.0, k), vis).probs
        samples = [sk.sample_dataset(sk.dataset_rng(11, 0), energy, vis, k, n),
                   phase_poisson_sample(np.random.default_rng(12), energy, vis, k, n)]
        small = (n * table < 5.0).ravel()
        observed = []
        for data in samples:
            counts = np.bincount(data[:, 0] * (k + 1) + data[:, 1], minlength=(k + 1) ** 2)
            observed.append(np.append(counts[~small], counts[small].sum()))
        observed = np.array(observed, dtype=float)
        expected = observed.sum(axis=0) / 2.0
        keep = expected > 0.0
        observed, expected = observed[:, keep], expected[keep]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(observed > 0.0, observed * np.log(observed / expected), 0.0)
        g = 2.0 * terms.sum()
        p_value = chi2.sf(g, df=observed.shape[1] - 1)
        assert p_value > 5e-7, f"G = {g:.1f} on {observed.shape[1] - 1} df"

    def test_uniform_past_rounded_total_lands_on_positive_cell(self):
        # the cumulative sum may stop just short of 1; the largest uniform
        # must still map to a cell the table can produce
        dist = ps.joint_random_phase(ps.DetectionParams(6.3, 0.0, 15), 0.56)
        table = dist.probs.ravel()
        cells = sk._cell_sampler(dist)(np.array([0.0, np.nextafter(1.0, 0.0), 1.0]))
        assert cells.max() <= 255
        assert np.all(table[cells] > 0.0)


class TestNeymanPearson:
    def test_decides_for_likelier_hypothesis(self):
        # point-mass V2 sources: near-equal counts favor low visibility,
        # lopsided counts favor high, on every dataset and at every N
        p1, p2 = tables()
        sources = []
        for cell in ((3, 3), (6, 0)):
            probs = np.zeros((16, 16))
            probs[cell] = 1.0
            sources.append(ps.JointPhotocountDistribution(15, probs))
        for band in sk.worst_case_sweep(p1, p2, sources, [1, 5], 50, 3):
            assert [e.conditional_v1_given_v2 for e in band.estimates] == [0.0, 1.0]

    def test_tie_goes_to_v2(self):
        # p1 = p2 makes every summed log-likelihood ratio exactly 0, whatever
        # the source, so every dataset of every curve is decided V2
        p1, p2 = tables()
        for band in sk.worst_case_sweep(p1, p1, [table(0.0), p2, p1], [1, 5, 20], 200, 4):
            assert [e.conditional_v1_given_v2 for e in band.estimates] == [0.0, 0.0, 0.0]
            assert band.estimates[-1].conditional_v2_given_v1 == 1.0


class TestEstimateError:
    def test_reproducible(self):
        p1, p2 = tables()
        first = sk.estimate_error(p1, p2, [5], 300, 11)[0]
        second = sk.estimate_error(p1, p2, [5], 300, 11)[0]
        assert first == second

    def test_mean_is_average_of_conditionals(self):
        p1, p2 = tables()
        est = sk.estimate_error(p1, p2, [3], 400, 5)[0]
        assert est.error_mean == pytest.approx(
            (est.conditional_v1_given_v2 + est.conditional_v2_given_v1) / 2.0)
        assert est.error_std == pytest.approx(
            math.sqrt(est.error_mean * (1.0 - est.error_mean) / 400.0))

    def test_error_decreases_with_repetitions(self):
        p1, p2 = tables()
        means = [sk.estimate_error(p1, p2, [n], 2000, 77)[0].error_mean for n in (1, 5, 20)]
        assert means[0] > means[1] > means[2]

    def test_identical_hypotheses_coin_flip(self):
        p1, _ = tables()
        est = sk.estimate_error(p1, p1, [4], 4000, 9)[0]
        se = math.sqrt(0.25 / 4000.0)
        assert abs(est.error_mean - 0.5) <= 3.0 * se
        # every log-likelihood ratio is 0, and a tie goes to V2
        assert est.conditional_v2_given_v1 == 1.0
        assert est.conditional_v1_given_v2 == 0.0


class TestWorstCaseSweep:
    def test_single_point_grid_matches_estimate(self):
        p1, p2 = tables()
        band = sk.worst_case_sweep(p1, p2, [p2], [4], 500, 13)[0]
        direct = sk.estimate_error(p1, p2, [4], 500, 13)[0]
        assert band.estimates[0] == direct
        assert band.band_lo == band.band_hi == direct.error_mean

    def test_band_envelope(self):
        p1, p2 = tables()
        band = sk.worst_case_sweep(p1, p2, [table(0.0), table(0.28), p2], [4], 400, 21)[0]
        means = [e.error_mean for e in band.estimates]
        assert band.band_lo == min(means)
        assert band.band_hi == max(means)
        assert len(band.estimates) == 3

    def test_lower_true_visibility_is_easier(self):
        # the designed test separates better when the truth is farther away
        p1, p2 = tables()
        band = sk.worst_case_sweep(p1, p2, [table(0.0), p2], [10], 2000, 31)[0]
        assert (band.estimates[0].conditional_v1_given_v2
                <= band.estimates[1].conditional_v1_given_v2)

    def test_given_tables_are_used_not_rebuilt(self, monkeypatch):
        p1, p2 = tables()
        sources = [table(0.28), p2]
        builds = []
        build = ps.random_phase_tables
        monkeypatch.setattr(ps, "random_phase_tables", lambda *a: builds.append(a) or build(*a))
        sk.estimate_error(p1, p2, [1, 4], 300, 5)
        sk.worst_case_sweep(p1, p2, sources, [1, 4], 300, 5)
        assert builds == []

    # cells of a K-table read through a 16 x 16 log-ratio table score as other (k, k')
    @pytest.mark.parametrize("truncation", [10, 20])
    def test_given_tables_at_another_truncation_rejected(self, truncation):
        p1, p2 = tables()
        with pytest.raises(DomainError, match="one truncation"):
            sk.worst_case_sweep(p1, p2, [table(0.28, truncation=truncation), p2], [1], 50, 1)


class TestErrorCurve:
    def test_single_n_reads_a_prefix_of_the_curve(self):
        p1, p2 = tables()
        curve = sk.estimate_error(p1, p2, N_LIST, 300, 19)
        for n in (1, 4, 10, 50):
            assert sk.estimate_error(p1, p2, [n], 300, 19) == [curve[N_LIST.index(n)]]

    def test_independent_of_chunk_size(self, monkeypatch):
        p1, p2 = tables()
        default = sk.estimate_error(p1, p2, N_LIST, 300, 23)
        for draws in (1, 3 * 300, 7 * 300 + 5):
            monkeypatch.setattr(sk, "_CHUNK_DRAWS", draws)
            assert sk.estimate_error(p1, p2, N_LIST, 300, 23) == default

    def test_n_outside_config_rejected(self):
        p1, p2 = tables()
        for n_values in ([0, 5], [-1]):
            with pytest.raises(DomainError, match="every N must be >= 1"):
                sk.estimate_error(p1, p2, n_values, 50, 1)

    def test_empty_n_list_rejected(self):
        # an empty list would return an empty curve, and simulate a CSV of no rows
        p1, p2 = tables()
        for sweep in (lambda n: sk.estimate_error(p1, p2, n, 50, 1),
                      lambda n: sk.worst_case_sweep(p1, p2, [p2], n, 50, 1)):
            with pytest.raises(DomainError, match="the N list is empty"):
                sweep([])

    @pytest.mark.parametrize("m,seed,message", [
        (0, 1, "ensemble_size must be >= 1"),
        (50, -1, "seed must be >= 0"),
    ], ids=["ensemble", "seed"])
    def test_ensemble_and_seed_refused(self, m, seed, message):
        p1, p2 = tables()
        with pytest.raises(DomainError, match=message):
            sk.estimate_error(p1, p2, [1], m, seed)

    @pytest.mark.parametrize("truncation", [10, 20])
    def test_config_truncation_must_match_tables(self, truncation):
        # sampling at one resolution and testing at another misreads cells
        p1, _ = tables()
        with pytest.raises(DomainError):
            sk.estimate_error(p1, table(0.56, truncation=truncation), [5], 50, 1)

    def test_worst_case_curve_rows_equal_sweeps(self):
        p1, p2 = tables()
        sources = [table(0.0), table(0.28), p2]
        curve = sk.worst_case_sweep(p1, p2, sources, [3, 20], 200, 29)
        for n, band in zip((3, 20), curve):
            sweep = sk.worst_case_sweep(p1, p2, sources, [n], 200, 29)[0]
            assert sweep.estimates == band.estimates
            assert (sweep.band_lo, sweep.band_hi) == (band.band_lo, band.band_hi)

    @pytest.mark.parametrize("seed", [1, 2024, 31337, 271828, 987654321])
    def test_within_exact_bracket_for_any_seed(self, seed):
        # The 2M misdecisions are a sum of independent Bernoullis whose mean
        # probability lies in the exact bracket; by Hoeffding (1956, Thm 4)
        # binomial quantiles at the bracket's ends bound them. Two sides,
        # 15 N and 5 seeds share an overall false-alarm rate of 1e-6.
        alpha = 1e-6 / (2 * len(N_LIST) * 5)
        m = 2000
        p1, p2 = tables()
        curve = sk.estimate_error(p1, p2, N_LIST, m, seed)
        for n, est, (lo, hi) in zip(N_LIST, curve, sk.exact_error(p1, p2, N_LIST)):
            wrong = round(est.error_mean * 2 * m)
            low = int(binom.ppf(alpha, 2 * m, lo))
            high = int(binom.isf(alpha, 2 * m, hi))
            assert low == 0 or low <= 2 * m * lo - 1  # Hoeffding's condition
            assert low <= wrong <= high, f"N={n}: {wrong} errors, [{low}, {high}]"
            # the SE of the two-conditional mean is at most eps_std / sqrt(2)
            a, b = est.conditional_v1_given_v2, est.conditional_v2_given_v1
            se = math.sqrt((a * (1 - a) + b * (1 - b)) / (4 * m))
            assert se <= est.error_std / math.sqrt(2.0) + 1e-15


def enumerated_error(p1, p2, n):
    """Exact average error after n <= 2 trials by listing every path."""
    llr = sk._log_ratio_table(p1, p2).ravel()
    q1, q2 = p1.probs.ravel(), p2.probs.ravel()
    if n == 2:
        llr = np.add.outer(llr, llr).ravel()
        q1, q2 = np.outer(q1, q1).ravel(), np.outer(q2, q2).ravel()
    return 0.5 * (q1[llr <= 0.0].sum() + q2[llr > 0.0].sum())


class TestExactError:
    def test_closes_on_enumeration_at_small_n(self):
        p1, p2 = tables()
        for step in (1e-3, 1e-4):
            for n, (lo, hi) in zip((1, 2), sk.exact_error(p1, p2, (1, 2), step)):
                exact = enumerated_error(p1, p2, n)
                assert lo - 1e-13 <= exact <= hi + 1e-13
                if step == 1e-4:
                    assert hi - lo < 1e-13
        assert enumerated_error(p1, p2, 1) == pytest.approx(0.349236, abs=1e-6)
        assert enumerated_error(p1, p2, 2) == pytest.approx(0.291021, abs=1e-6)

    def test_width_shrinks_linearly_in_step(self):
        p1, p2 = tables()
        n_values = (5, 10, 20, 50)
        coarse = sk.exact_error(p1, p2, n_values, 2e-3)
        fine = sk.exact_error(p1, p2, n_values, 1e-3)
        for (clo, chi), (flo, fhi) in zip(coarse, fine):
            # a 2h lattice rounds coarser than an h lattice, so brackets nest
            assert clo - 1e-13 <= flo <= fhi <= chi + 1e-13
            assert 1.5 <= (chi - clo) / (fhi - flo) <= 2.5
            assert fhi - flo < 1e-3

    def test_under_chernoff_bound(self):
        p1, p2 = tables()
        info = ch.chernoff_information(p1.probs, p2.probs)
        for n, (lo, hi) in zip(N_LIST, sk.exact_error(p1, p2, N_LIST)):
            assert 0.0 < lo <= hi <= ch.chernoff_bound(info, n)

    def test_ratio_to_refined_bound(self):
        # the Bahadur-Rao refinement approaches the exact error from above
        p1, p2 = tables()
        info = ch.chernoff_information(p1, p2)
        for n, expected in ((30, 0.85), (40, 0.88), (50, 0.90)):
            lo, hi = sk.exact_error(p1, p2, [n])[0]
            refined = ch.refined_bound(info, n)
            assert lo / refined == pytest.approx(expected, abs=0.02)
            assert lo / refined <= hi / refined < 0.92

    def test_identical_tables_give_one_half(self):
        p1, _ = tables()
        assert sk.exact_error(p1, p1, [1, 7]) == [(0.5, 0.5), (0.5, 0.5)]

    def test_too_fine_lattice_rejected_before_allocating(self):
        p1, p2 = tables()
        with pytest.raises(DomainError):
            sk.exact_error(p1, p2, [1], 1e-8)
        with pytest.raises(DomainError):
            sk.exact_error(p1, p2, [50], 1e-5)
        with pytest.raises(DomainError):
            sk.exact_error(p1, p2, [1], 0.0)
