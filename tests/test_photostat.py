import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gammaln
from scipy.stats import binom, poisson

from vistest import photostat as ps
from vistest.util import DomainError


def quadrature_random_phase(energy, vis_magnitude, truncation, tol=1e-13):
    """Independent oracle: uniform-grid trapezoid average of the
    product-Poisson integrand over the global phase, node count doubling
    until successive tables agree below tol."""
    nodes = 512
    previous = None
    while True:
        phi = np.linspace(0.0, 2.0 * math.pi, nodes, endpoint=False)
        i_plus = energy * (1.0 + vis_magnitude * np.cos(phi)) / 2.0
        tp = np.stack([ps.poisson_counts(x, truncation) for x in i_plus])
        tm = np.stack([ps.poisson_counts(energy - x, truncation) for x in i_plus])
        table = np.einsum("nk,nl->kl", tp, tm) / nodes
        if previous is not None and np.abs(table - previous).max() < tol:
            return table
        previous = table
        nodes *= 2


def port_quadrature_random_phase(energy, vis_magnitude, truncation):
    """Independent oracle: the midpoint phase average, on 2K + 64 nodes on
    [0, pi], of the product of the two ports' Poisson rows, whose tail
    buckets are Poisson survival functions. Exact below K, where the
    integrand is e^-E times a polynomial of degree <= 2K - 2 in cos(phi);
    the tail buckets converge geometrically in the node count."""
    nodes = 2 * truncation + 64
    phi = (np.arange(nodes) + 0.5) * math.pi / nodes
    rows = ps._port_counts(energy * (1.0 + vis_magnitude * np.cos(phi)) / 2.0, truncation)
    s = rows[:nodes // 2].T @ rows[nodes // 2:][::-1]
    return (s + s.T) / nodes


def binomial_random_phase(energy, vis_magnitude, truncation):
    """Reference: the closed-form double binomial sum over cosine moments,
    summed to ~1e-16 of the total-count mass and folded at the
    truncation. Its alternating terms cancel as the energy grows, so it
    is only trusted for energies up to about 12."""
    size = max(truncation + 1, int(math.ceil(energy + 20.0 * math.sqrt(energy) + 30.0)))
    idx = np.arange(size)
    m = idx[np.newaxis, :]
    k = idx[:, np.newaxis]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a = m * math.log(vis_magnitude) - gammaln(m + 1) - gammaln(k - m + 1)
    tri = np.where(m <= k, np.exp(np.where(m <= k, log_a, -np.inf)), 0.0)
    j = np.arange(2 * size - 1)
    log_c = gammaln(j + 1) - 2.0 * gammaln(j // 2 + 1) - j * math.log(2.0)
    c = np.where(j % 2 == 0, np.exp(log_c), 0.0)
    s = tri @ c[k + m] @ (tri * np.where(m % 2 == 0, 1.0, -1.0)).T
    with np.errstate(divide="ignore"):
        table = np.exp(-energy + (k + m) * math.log(energy / 2.0) + np.log(np.maximum(s, 0.0)))
    return ps._fold_tail(table, truncation)


def phase_average_reference(energy, vis_magnitude, truncation, nodes):
    """Midpoint phase average on [0, pi] built from scipy.stats.poisson."""
    phi = (np.arange(nodes) + 0.5) * math.pi / nodes
    i_plus = energy * (1.0 + vis_magnitude * np.cos(phi)) / 2.0
    counts = np.arange(truncation)

    def port(intensity):
        rows = poisson.pmf(counts, intensity[:, None])
        return np.hstack([rows, poisson.sf(truncation - 1, intensity)[:, None]])

    return port(i_plus).T @ port(energy - i_plus) / nodes


class TestComplexVisibility:
    def test_phase_normalized(self):
        v = ps.ComplexVisibility(0.5, -math.pi)
        assert 0.0 <= v.phase < 2.0 * math.pi
        assert v.phase == pytest.approx(math.pi)

    def test_negative_magnitude_folds_into_phase(self):
        v = ps.ComplexVisibility(-0.7, 0.0)
        assert v.magnitude == 0.7
        assert v.phase == pytest.approx(math.pi)
        assert v.real == pytest.approx(-0.7)

    def test_magnitude_above_one_rejected(self):
        with pytest.raises(DomainError):
            ps.ComplexVisibility(1.1)

    def test_tiny_overshoot_clamped(self):
        assert ps.ComplexVisibility(1.0 + 1e-12).magnitude == 1.0

    def test_from_complex_roundtrip(self):
        v = ps.ComplexVisibility.from_complex(0.3 - 0.4j)
        assert v.magnitude == pytest.approx(0.5)
        assert v.value == pytest.approx(0.3 - 0.4j)


class TestPortIntensities:
    def test_full_visibility(self):
        assert ps.port_intensities(2.0, ps.ComplexVisibility(1.0)) == (2.0, 0.0)

    def test_zero_visibility(self):
        assert ps.port_intensities(2.0, ps.ComplexVisibility(0.0), 1.2) == (1.0, 1.0)

    def test_quarter_phase_offset(self):
        i_plus, i_minus = ps.port_intensities(
            6.3, ps.ComplexVisibility(0.56), math.pi / 2.0)
        assert i_plus == pytest.approx(3.15)
        assert i_minus == pytest.approx(3.15)

    def test_negative_energy_rejected(self):
        with pytest.raises(DomainError):
            ps.port_intensities(-1.0, ps.ComplexVisibility(0.5))

    @given(st.floats(0.0, 50.0), st.floats(0.0, 1.0),
           st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    def test_energy_conserved(self, energy, mag, phase, offset):
        i_plus, i_minus = ps.port_intensities(
            energy, ps.ComplexVisibility(mag, phase), offset)
        assert i_plus + i_minus == pytest.approx(energy, rel=1e-15)
        assert i_plus >= 0.0 and i_minus >= 0.0


class TestEffectiveParams:
    def test_no_dark_counts_unchanged(self):
        params = ps.DetectionParams(2.0, 0.0, 8)
        vis = ps.ComplexVisibility(0.9)
        assert ps.effective_params(params, vis) == (params, vis)

    def test_dark_counts_substitution(self):
        params, vis = ps.effective_params(
            ps.DetectionParams(2.0, 1.0, 8), ps.ComplexVisibility(1.0))
        assert params.mean_detected_energy == pytest.approx(4.0)
        assert params.dark_mean == 0.0
        assert vis.magnitude == pytest.approx(0.5)

    def test_all_dark_limit(self):
        params, vis = ps.effective_params(
            ps.DetectionParams(0.0, 1.0, 8), ps.ComplexVisibility(1.0))
        assert params.mean_detected_energy == pytest.approx(2.0)
        assert vis.magnitude == 0.0


class TestPoissonCounts:
    def test_zero_intensity(self):
        assert ps.poisson_counts(0.0, 3).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_poisson_law(self):
        probs = ps.poisson_counts(1.0, 3)
        e = math.exp(-1.0)
        assert probs[:3] == pytest.approx([e, e, e / 2.0])
        assert probs.sum() == pytest.approx(1.0)

    def test_tail_bucket(self):
        probs = ps.poisson_counts(10.0, 2)
        assert probs[2] == pytest.approx(1.0 - math.exp(-10.0) * 11.0)

    def test_truncation_below_one_rejected(self):
        with pytest.raises(DomainError):
            ps.poisson_counts(1.0, 0)

    def test_one_row_per_intensity(self):
        rates = [[0.0, 0.5], [6.3, 40.0]]
        rows = ps.poisson_counts(rates, 20)
        assert rows.shape == (2, 2, 21)
        for i in range(2):
            for j in range(2):
                assert rows[i, j] == pytest.approx(ps.poisson_counts(rates[i][j], 20),
                                                   rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.25])
    def test_bad_entry_in_array_rejected(self, bad):
        with pytest.raises(DomainError):
            ps.poisson_counts([1.0, bad], 5)


class TestPoissonKernel:
    """The numpy kernel against scipy.stats.poisson, a test-only oracle."""

    @pytest.mark.parametrize("below_k_only", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 15, 63, 135, 300])
    def test_rows_match_scipy(self, k, below_k_only):
        # below K the tail is a series whose length the call's largest
        # rate sets; at or above K it is the complement
        rates = np.concatenate([[0.0, 1e-300, 1e-12],
                                np.linspace(0.0, 2 * k + 5, 301),
                                np.linspace(0.0, 400.0, 301)])
        if below_k_only:
            rates = rates[rates < k]
        rows = ps._port_counts(rates, k)
        reference = np.hstack([poisson.pmf(np.arange(k), rates[:, None]),
                               poisson.sf(k - 1, rates)[:, None]])
        # atol only covers entries near or below the smallest normal double
        np.testing.assert_allclose(rows, reference, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("k", [1, 15, 300])
    def test_rate_zero_is_exact(self, k):
        row = ps._port_counts(np.array([0.0]), k)[0]
        assert row[0] == 1.0 and not row[1:].any()


class TestJointFixedPhase:
    def test_dark_port_at_unit_visibility(self):
        dist = ps.joint_fixed_phase(
            ps.DetectionParams(2.0, 0.0, 4), ps.ComplexVisibility(1.0))
        assert dist.probs[:, 1:].sum() == 0.0
        assert dist.probs[:, 0] == pytest.approx(ps.poisson_counts(2.0, 4))

    def test_factorizes_at_zero_visibility(self):
        dist = ps.joint_fixed_phase(
            ps.DetectionParams(2.0, 0.0, 4), ps.ComplexVisibility(0.0))
        p = ps.poisson_counts(1.0, 4)
        assert dist.probs == pytest.approx(np.outer(p, p))

    def test_entry_against_direct_product(self):
        # direct Poisson-product evaluation as oracle
        dist = ps.joint_fixed_phase(
            ps.DetectionParams(6.3, 0.0, 15), ps.ComplexVisibility(0.56))
        i_plus = 6.3 * 1.56 / 2.0
        i_minus = 6.3 - i_plus
        expected = (math.exp(-i_plus) * i_plus**2 / 2.0
                    * math.exp(-i_minus) * i_minus**3 / 6.0)
        assert dist.probs[2, 3] == pytest.approx(expected, rel=1e-12)


class TestTableContract:
    # each bad entry leaves the rest of the table summing to 1 or NaN
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.25])
    def test_bad_entry_refused_by_both_table_types(self, bad):
        with pytest.raises(DomainError):
            ps.JointPhotocountDistribution(1, [[1.0, bad], [0.25, 0.0]])
        with pytest.raises(DomainError):
            ps.CountDifferenceDistribution(1, [1.0, bad, 0.25])

    def test_unnormalized_difference_table_refused(self):
        with pytest.raises(DomainError):
            ps.CountDifferenceDistribution(1, [0.5, 0.25, 0.0])

    def test_wrong_shape_refused(self):
        with pytest.raises(DomainError):
            ps.JointPhotocountDistribution(2, np.full((2, 2), 0.25))
        with pytest.raises(DomainError):
            ps.CountDifferenceDistribution(2, [0.5, 0.5])

    def test_table_read_only(self):
        dist = ps.CountDifferenceDistribution(1, [0.25, 0.5, 0.25])
        assert not dist.probs.flags.writeable


class TestJointRandomPhase:
    # random-phase averaging keeps only |V|, so no sign can be folded
    @pytest.mark.parametrize("v", [-0.5, -1e-12, 1.0 + 1e-6, 1.5, math.nan])
    def test_magnitude_outside_unit_interval_refused(self, v):
        with pytest.raises(DomainError):
            ps.joint_random_phase(ps.DetectionParams(2.0, 0.0, 4), v)

    def test_float_noise_above_one_is_one(self):
        params = ps.DetectionParams(2.0, 0.0, 4)
        assert np.array_equal(ps.joint_random_phase(params, 1.0 + 1e-12).probs,
                              ps.joint_random_phase(params, 1.0).probs)

    def test_p00_is_exp_minus_energy(self):
        for energy in (0.5, 2.0, 6.3):
            for v in (0.0, 0.56, 1.0):
                dist = ps.joint_random_phase(ps.DetectionParams(energy, 0.0, 8), v)
                assert dist.probs[0, 0] == pytest.approx(math.exp(-energy), rel=1e-12)

    def test_zero_visibility_equals_fixed_phase(self):
        params = ps.DetectionParams(2.0, 0.0, 6)
        rnd = ps.joint_random_phase(params, 0.0)
        fixed = ps.joint_fixed_phase(params, ps.ComplexVisibility(0.0))
        assert rnd.probs == pytest.approx(fixed.probs, abs=1e-14)

    def test_matches_quadrature_oracle(self):
        dist = ps.joint_random_phase(ps.DetectionParams(6.3, 0.0, 15), 0.56)
        oracle = quadrature_random_phase(6.3, 0.56, 15)
        assert np.abs(dist.probs - oracle).max() < 1e-10

    def test_symmetric_table(self):
        dist = ps.joint_random_phase(ps.DetectionParams(6.3, 0.0, 12), 0.98)
        assert np.abs(dist.probs - dist.probs.T).max() < 1e-14

    def test_normalized(self):
        for energy in (0.5, 6.3, 25.0):
            dist = ps.joint_random_phase(ps.DetectionParams(energy, 0.0, 15), 0.98)
            assert abs(dist.probs.sum() - 1.0) < 1e-12

    def test_dark_counts_fold_in(self):
        with_dark = ps.joint_random_phase(ps.DetectionParams(2.0, 1.0, 10), 1.0)
        substituted = ps.joint_random_phase(ps.DetectionParams(4.0, 0.0, 10), 0.5)
        assert with_dark.probs == pytest.approx(substituted.probs, abs=1e-15)

    def test_matches_high_node_reference(self):
        worst = worst_sum = 0.0
        for energy in (0.0, 0.5, 6.3, 12.0, 30.0, 53.3, 80.0):
            for v in (0.0, 0.56, 0.98, 1.0):
                for k in (2, 15, 63, 135):
                    dist = ps.joint_random_phase(ps.DetectionParams(energy, 0.0, k), v)
                    reference = phase_average_reference(energy, v, k, 8 * k + 512)
                    worst = max(worst, np.abs(dist.probs - reference).max())
                    worst_sum = max(worst_sum, abs(dist.probs.sum() - 1.0))
        assert worst < 1e-13
        assert worst_sum < 1e-14

    def test_antidiagonals_are_total_count_poisson(self):
        # k + k' is Poisson(E) at every phase, so for n < K the table's
        # n-th anti-diagonal sums to Pois(n; E) whatever |V| is
        k = 100
        n = np.arange(k)
        for energy in (0.5, 6.3, 30.0, 53.3, 80.0):
            for v in (0.0, 0.56, 0.98, 1.0):
                table = ps.joint_random_phase(ps.DetectionParams(energy, 0.0, k), v).probs
                flipped = table[:k, :k][:, ::-1]
                sums = np.array([np.trace(flipped, offset=k - 1 - i) for i in n])
                assert sums == pytest.approx(poisson.pmf(n, energy), rel=1e-12, abs=0.0)

    def test_folds_like_the_port_quadrature(self):
        # every cell, tail buckets included, from E = 1e-4 to the search's
        # top energy and K up to the search's largest resolution
        worst_abs = worst_rel = 0.0
        for energy in (1e-4, 0.03, 1.0, 6.3, 25.0, 80.0, 208.0):
            for v in (0.0, 0.37, 0.98, 1.0):
                for k in (1, 7, 40, 300):
                    table = ps.joint_random_phase(ps.DetectionParams(energy, 0.0, k), v).probs
                    oracle = port_quadrature_random_phase(energy, v, k)
                    worst_abs = max(worst_abs, np.abs(table - oracle).max())
                    kept = oracle > 1e-250
                    worst_rel = max(worst_rel, (np.abs(table - oracle)[kept] / oracle[kept]).max())
        assert worst_abs < 2e-14
        assert worst_rel < 5e-12

    def test_more_rows_than_the_limit_refused(self):
        # a table folds rows to n >= 2K: K = 490 fits, K = 501 passes n = 1000
        ps.joint_random_phase(ps.DetectionParams(6.3, 0.0, 490), 0.56)
        with pytest.raises(DomainError, match=f"pass {ps.MAX_SPLIT_ROW}"):
            ps.joint_random_phase(ps.DetectionParams(6.3, 0.0, 501), 0.56)

    def test_matches_binomial_form_at_low_energy(self):
        worst = 0.0
        for energy in (0.5, 2.0, 6.3, 12.0):
            for v in (0.3, 0.56, 0.98, 1.0):
                for k in (2, 8, 15):
                    dist = ps.joint_random_phase(ps.DetectionParams(energy, 0.0, k), v)
                    worst = max(worst, np.abs(
                        dist.probs - binomial_random_phase(energy, v, k)).max())
        assert worst < 1e-11

    def test_high_energy_matches_quadrature_oracle(self):
        dist = ps.joint_random_phase(ps.DetectionParams(30.0, 0.0, 15), 1.0)
        oracle = quadrature_random_phase(30.0, 1.0, 15)
        assert np.abs(dist.probs - oracle).max() < 1e-12

    def test_truncation_consistency(self):
        coarse = ps.joint_random_phase(ps.DetectionParams(6.3, 0.0, 5), 0.56)
        fine = ps.joint_random_phase(ps.DetectionParams(6.3, 0.0, 15), 0.56)
        assert coarse.probs[:5, :5] == pytest.approx(fine.probs[:5, :5], abs=1e-13)
        assert abs(coarse.probs.sum() - 1.0) < 1e-12


class TestSplitRows:
    """B_V(k | n), the split of n random-phase photons between the ports."""

    VALUES = (0.0, 0.37, 0.56, 0.98, 1.0)

    @staticmethod
    def row(rows, n):
        return rows[:, n * (n + 1) // 2:(n + 1) * (n + 2) // 2]

    def test_rows_match_the_binomial_phase_average(self):
        # scipy's binomial law on n + 2 midpoint nodes, more than exactness needs
        last = len(ps._poisson_rows(208.0)) - 1
        rows = ps._split_rows(self.VALUES, last)
        worst = 0.0
        for n in [*range(0, last, 7), last - 1, last]:
            nodes = n + 2
            cos = np.cos((np.arange(nodes) + 0.5) * math.pi / nodes)
            for v, got in zip(self.VALUES, self.row(rows, n)):
                oracle = binom.pmf(np.arange(n + 1)[:, None], n, (1.0 + v * cos) / 2.0).mean(axis=1)
                worst = max(worst, np.max(np.abs(got - oracle) / oracle))
        assert worst < 1e-12

    @given(st.floats(0.0, 1.0), st.integers(1, 60))
    def test_rows_are_laws_symmetric_in_the_ports(self, v, last):
        rows = ps._split_rows([v, 0.5], last)
        assert rows[:, :3].tolist() == [[1.0, 0.5, 0.5]] * 2  # B(. | 0) = 1, B(. | 1) = (1/2, 1/2)
        for n in range(last + 1):
            row = self.row(rows, n)
            assert np.array_equal(row, row[:, ::-1])
            assert row.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_rows_hold_no_nodes_by_cells_array(self):
        # the rows at E = 208 keep about (n + 1) x nodes x |values| floats at
        # once; an array of nodes x cells would be about n / 2 times that
        last = len(ps._poisson_rows(208.0)) - 1
        nodes = 2 * (last // 4 + 1)
        tracemalloc.start()
        try:
            ps._split_rows((0.98, 0.56), last)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (last + 1) * nodes * 2 * 8

    @pytest.mark.parametrize("values", [[0.5, -0.1], [1.5], [math.nan]])
    def test_magnitude_outside_unit_interval_refused(self, values):
        with pytest.raises(DomainError, match="must lie in"):
            ps._split_rows(values, 5)


class TestRetruncate:
    def test_matches_directly_built_table(self):
        fine = ps.joint_random_phase(ps.DetectionParams(6.3, 0.0, 15), 0.56)
        coarse = ps.joint_random_phase(ps.DetectionParams(6.3, 0.0, 2), 0.56)
        assert ps.retruncate(fine, 2).probs == pytest.approx(coarse.probs, abs=1e-12)

    def test_noop_at_same_truncation(self):
        dist = ps.joint_random_phase(ps.DetectionParams(2.0, 0.0, 4), 0.3)
        assert ps.retruncate(dist, 4) is dist

    @pytest.mark.parametrize("k", [5, 40, 0])
    def test_k_outside_one_to_the_table_refused(self, k):
        # folding cannot add resolution: a larger K used to return the table unchanged
        dist = ps.joint_random_phase(ps.DetectionParams(2.0, 0.0, 4), 0.3)
        with pytest.raises(DomainError, match=f"K = 4 table to K = {k}"):
            ps.retruncate(dist, k)


class TestMarginalDifference:
    def test_random_phase_symmetric(self):
        dist = ps.joint_random_phase(ps.DetectionParams(6.3, 0.0, 10), 0.56)
        diff = ps.marginal_difference(dist)
        assert diff.probs == pytest.approx(diff.probs[::-1])
        assert diff.probs.sum() == pytest.approx(1.0)

    def test_dark_port_reduces_to_poisson(self):
        dist = ps.joint_fixed_phase(
            ps.DetectionParams(2.0, 0.0, 8), ps.ComplexVisibility(1.0))
        diff = ps.marginal_difference(dist)
        counts = ps.poisson_counts(2.0, 8)
        for dk in range(1, 9):
            assert diff.probability(dk) == 0.0
        for dk in range(0, 9):
            assert diff.probability(-dk) == pytest.approx(counts[dk])

    def test_central_value_from_table_diagonal(self):
        dist = ps.joint_random_phase(ps.DetectionParams(6.3, 0.0, 15), 0.56)
        diff = ps.marginal_difference(dist)
        assert diff.probability(0) == pytest.approx(float(np.trace(dist.probs)))


class TestWaveplateVisibility:
    def test_aligned_plates(self):
        v = ps.waveplate_visibility(0.0, 0.0)
        assert v.magnitude == 1.0
        assert v.phase == 0.0

    def test_null_at_quarter_turn(self):
        assert ps.waveplate_visibility(math.pi / 4.0, 0.3).magnitude == pytest.approx(
            0.0, abs=1e-15)

    def test_negative_cosine_folds_into_phase(self):
        # cos(2 theta) < 0 with zero net phase flips the visibility sign
        v = ps.waveplate_visibility(math.pi / 2.0, math.pi / 4.0)
        assert v.magnitude == pytest.approx(1.0)
        assert v.real == pytest.approx(-1.0)

    def test_half_wave_plate_sweep_covers_phases(self):
        # 50 half-wave plate angles over one visibility-phase period
        theta = 0.1
        phis = [math.pi / 2.0 * i / 50.0 for i in range(50)]
        phases = sorted(ps.waveplate_visibility(theta, p).phase for p in phis)
        gaps = np.diff(phases)
        assert phases[0] < 2.0 * math.pi / 50.0
        assert gaps.max() == pytest.approx(2.0 * math.pi / 50.0, rel=1e-9)


class TestVisibilityFromAmplitudes:
    def test_equal_amplitudes_perfect_overlap(self):
        v = ps.visibility_from_amplitudes(1.0, 1.0, 1.0)
        assert v.magnitude == pytest.approx(1.0)

    def test_single_arm(self):
        assert ps.visibility_from_amplitudes(1.0, 0.0, 1.0).magnitude == 0.0

    def test_overlap_sets_magnitude(self):
        v = ps.visibility_from_amplitudes(1.0, 1.0, 0.56)
        assert v.magnitude == pytest.approx(0.56)

    def test_zero_amplitudes_rejected(self):
        with pytest.raises(DomainError):
            ps.visibility_from_amplitudes(0.0, 0.0)

