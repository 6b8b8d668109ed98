import math

import numpy as np
import pytest
from scipy.stats import binom, chi2

from vistest import chernoff as ch
from vistest import photostat as ps
from vistest import simkit as sk
from vistest.util import DomainError


N_LIST = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 20, 30, 40, 50)


def tables(v1=0.98, v2=0.56, energy=6.3, truncation=15):
    params = ps.DetectionParams(energy, 0.0, truncation)
    return (ps.joint_random_phase(params, v1),
            ps.joint_random_phase(params, v2))


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


class TestLogLikelihoodRatio:
    def test_empty_dataset_is_zero(self):
        p1, p2 = tables()
        assert sk.log_likelihood_ratio([], p1, p2) == 0.0

    def test_additive_over_trials(self):
        p1, p2 = tables()
        single = sk.log_likelihood_ratio([(2, 3)], p1, p2)
        double = sk.log_likelihood_ratio([(2, 3), (2, 3)], p1, p2)
        assert double == pytest.approx(2.0 * single)

    def test_matches_direct_table_lookup(self):
        p1, p2 = tables()
        value = sk.log_likelihood_ratio([(0, 0), (5, 1)], p1, p2)
        expected = (math.log(p1.probs[0, 0]) - math.log(p2.probs[0, 0])
                    + math.log(p1.probs[5, 1]) - math.log(p2.probs[5, 1]))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_out_of_range_outcome_rejected(self):
        p1, p2 = tables(truncation=4)
        with pytest.raises(DomainError):
            sk.log_likelihood_ratio([(5, 0)], p1, p2)

    def test_truncation_mismatch_rejected(self):
        p1, _ = tables(truncation=15)
        _, p2 = tables(truncation=8)
        with pytest.raises(DomainError):
            sk.log_likelihood_ratio([(0, 0)], p1, p2)


class TestNeymanPearson:
    def test_decides_for_likelier_hypothesis(self):
        p1, p2 = tables()
        # near-equal counts favor low visibility; lopsided counts favor high
        assert sk.neyman_pearson([(3, 3)], p1, p2) is sk.Decision.V2
        assert sk.neyman_pearson([(6, 0)], p1, p2) is sk.Decision.V1

    def test_tie_goes_to_v2(self):
        p1, p2 = tables()
        assert sk.neyman_pearson([], p1, p2) is sk.Decision.V2


class TestEstimateError:
    def test_reproducible(self):
        p1, p2 = tables()
        cfg1 = sk.ExperimentConfig(0.98, 6.3, 15, 5, 300, 11)
        cfg2 = sk.ExperimentConfig(0.56, 6.3, 15, 5, 300, 11)
        first = sk.estimate_error(cfg1, cfg2, p1, p2)
        second = sk.estimate_error(cfg1, cfg2, p1, p2)
        assert first == second

    def test_mean_is_average_of_conditionals(self):
        p1, p2 = tables()
        cfg1 = sk.ExperimentConfig(0.98, 6.3, 15, 3, 400, 5)
        cfg2 = sk.ExperimentConfig(0.56, 6.3, 15, 3, 400, 5)
        est = sk.estimate_error(cfg1, cfg2, p1, p2)
        assert est.error_mean == pytest.approx(
            (est.conditional_v1_given_v2 + est.conditional_v2_given_v1) / 2.0)
        assert est.error_std == pytest.approx(
            math.sqrt(est.error_mean * (1.0 - est.error_mean) / 400.0))

    def test_error_decreases_with_repetitions(self):
        p1, p2 = tables()
        means = []
        for n in (1, 5, 20):
            cfg1 = sk.ExperimentConfig(0.98, 6.3, 15, n, 2000, 77)
            cfg2 = sk.ExperimentConfig(0.56, 6.3, 15, n, 2000, 77)
            means.append(sk.estimate_error(cfg1, cfg2, p1, p2).error_mean)
        assert means[0] > means[1] > means[2]

    def test_identical_hypotheses_coin_flip(self):
        p1, _ = tables()
        cfg = sk.ExperimentConfig(0.98, 6.3, 15, 4, 4000, 9)
        est = sk.estimate_error(cfg, cfg, p1, p1)
        se = math.sqrt(0.25 / 4000.0)
        assert abs(est.error_mean - 0.5) <= 3.0 * se

    def test_mismatched_configs_rejected(self):
        p1, p2 = tables()
        cfg1 = sk.ExperimentConfig(0.98, 6.3, 15, 5, 300, 1)
        cfg2 = sk.ExperimentConfig(0.56, 6.3, 15, 6, 300, 1)
        with pytest.raises(DomainError):
            sk.estimate_error(cfg1, cfg2, p1, p2)


class TestWorstCaseSweep:
    def test_single_point_grid_matches_estimate(self):
        p1, p2 = tables()
        cfg = sk.ExperimentConfig(0.56, 6.3, 15, 4, 500, 13)
        band = sk.worst_case_sweep(0.98, [0.56], 0.56, cfg)
        cfg1 = sk.ExperimentConfig(0.98, 6.3, 15, 4, 500, 13)
        direct = sk.estimate_error(cfg1, cfg, p1, p2)
        assert band.estimates[0] == direct
        assert band.band_lo == band.band_hi == direct.error_mean

    def test_band_envelope(self):
        cfg = sk.ExperimentConfig(0.0, 6.3, 15, 4, 400, 21)
        band = sk.worst_case_sweep(0.98, [0.0, 0.28, 0.56], 0.56, cfg)
        means = [e.error_mean for e in band.estimates]
        assert band.band_lo == min(means)
        assert band.band_hi == max(means)
        assert len(band.estimates) == 3

    def test_lower_true_visibility_is_easier(self):
        # the designed test separates better when the truth is farther away
        cfg = sk.ExperimentConfig(0.0, 6.3, 15, 10, 2000, 31)
        band = sk.worst_case_sweep(0.98, [0.0, 0.56], 0.56, cfg)
        assert (band.estimates[0].conditional_v1_given_v2
                <= band.estimates[1].conditional_v1_given_v2)

    # a negative magnitude would otherwise pass as a phase of pi
    @pytest.mark.parametrize("v1,grid", [(0.98, [-0.2, 0.56]), (-0.1, [0.56])])
    def test_visibilities_outside_unit_interval_rejected(self, v1, grid):
        cfg = sk.ExperimentConfig(0.0, 6.3, 15, 2, 50, 1)
        with pytest.raises(DomainError):
            sk.worst_case_sweep(v1, grid, 0.56, cfg)

    def test_designed_point_must_be_grid_maximum(self):
        cfg = sk.ExperimentConfig(0.0, 6.3, 15, 2, 50, 1)
        with pytest.raises(DomainError):
            sk.worst_case_sweep(0.98, [0.0, 0.28], 0.56, cfg)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            sk.ExperimentConfig(1.5, 6.3, 15, 1, 1, 0)
        with pytest.raises(DomainError):
            sk.ExperimentConfig(0.5, 6.3, 15, 0, 1, 0)


def configs(n, m, seed, v1=0.98, v2=0.56):
    return (sk.ExperimentConfig(v1, 6.3, 15, n, m, seed),
            sk.ExperimentConfig(v2, 6.3, 15, n, m, seed))


class TestErrorCurve:
    def test_single_n_reads_a_prefix_of_the_curve(self):
        p1, p2 = tables()
        curve = sk.error_curve(*configs(50, 300, 19), p1, p2, N_LIST)
        for n in (1, 4, 10, 50):
            assert sk.estimate_error(*configs(n, 300, 19), p1, p2) == curve[N_LIST.index(n)]

    def test_independent_of_chunk_size(self, monkeypatch):
        p1, p2 = tables()
        cfg = configs(50, 300, 23)
        default = sk.error_curve(*cfg, p1, p2, N_LIST)
        for draws in (1, 3 * 300, 7 * 300 + 5):
            monkeypatch.setattr(sk, "_CHUNK_DRAWS", draws)
            assert sk.error_curve(*cfg, p1, p2, N_LIST) == default

    def test_n_outside_config_rejected(self):
        p1, p2 = tables()
        with pytest.raises(DomainError):
            sk.error_curve(*configs(10, 50, 1), p1, p2, [5, 11])
        with pytest.raises(DomainError):
            sk.error_curve(*configs(10, 50, 1), p1, p2, [0, 5])

    @pytest.mark.parametrize("truncation", [10, 20])
    def test_config_truncation_must_match_tables(self, truncation):
        # sampling at one resolution and testing at another misreads cells
        p1, p2 = tables()
        cfg1 = sk.ExperimentConfig(0.98, 6.3, truncation, 5, 50, 1)
        cfg2 = sk.ExperimentConfig(0.56, 6.3, truncation, 5, 50, 1)
        with pytest.raises(DomainError):
            sk.error_curve(cfg1, cfg2, p1, p2, [5])

    def test_worst_case_curve_rows_equal_sweeps(self):
        grid = [0.0, 0.28, 0.56]
        cfg = sk.ExperimentConfig(0.56, 6.3, 15, 20, 200, 29)
        curve = sk.worst_case_curve(0.98, grid, 0.56, cfg, [3, 20])
        for n, band in zip((3, 20), curve):
            single = sk.ExperimentConfig(0.56, 6.3, 15, n, 200, 29)
            sweep = sk.worst_case_sweep(0.98, grid, 0.56, single)
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
        curve = sk.error_curve(*configs(50, m, seed), p1, p2, N_LIST)
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
        for n, expected in ((30, 0.85), (40, 0.88), (50, 0.90)):
            lo, hi = sk.exact_error(p1, p2, [n])[0]
            refined = ch.refined_bound(p1.probs, p2.probs, n)
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
