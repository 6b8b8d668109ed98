import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gammaln
from scipy.stats import poisson

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


class TestJointRandomPhase:
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


class TestRetruncate:
    def test_matches_directly_built_table(self):
        fine = ps.joint_random_phase(ps.DetectionParams(6.3, 0.0, 15), 0.56)
        coarse = ps.joint_random_phase(ps.DetectionParams(6.3, 0.0, 2), 0.56)
        assert ps.retruncate(fine, 2).probs == pytest.approx(coarse.probs, abs=1e-12)

    def test_noop_at_same_truncation(self):
        dist = ps.joint_random_phase(ps.DetectionParams(2.0, 0.0, 4), 0.3)
        assert ps.retruncate(dist, 4) is dist


class TestCosineMoment:
    def test_values(self):
        assert ps.cosine_moment(0) == 1.0
        assert ps.cosine_moment(1) == 0.0
        assert ps.cosine_moment(2) == 0.5
        assert ps.cosine_moment(4) == pytest.approx(3.0 / 8.0)

    @given(st.integers(0, 200))
    def test_matches_quadrature(self, j):
        phi = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        assert ps.cosine_moment(j) == pytest.approx(
            float(np.mean(np.cos(phi) ** j)), abs=1e-12)


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


class TestCsvExport:
    def test_format(self):
        dist = ps.joint_random_phase(ps.DetectionParams(1.0, 0.0, 1), 0.5)
        text = ps.distribution_to_csv(dist)
        lines = text.strip().split("\n")
        assert lines[0] == "k,kprime,prob"
        assert len(lines) == 5
        k, kp, prob = lines[1].split(",")
        assert (k, kp) == ("0", "0")
        assert float(prob) == dist.probs[0, 0]
        assert len(prob.replace(".", "").replace("-", "").lstrip("0")) >= 15
