import math

import pytest

from vistest import energyopt as eo
from vistest import fingerprint as fp
from vistest.util import DomainError


class TestBinaryEntropy:
    def test_endpoints(self):
        assert fp.binary_entropy(0.0) == 0.0
        assert fp.binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert fp.binary_entropy(0.5) == pytest.approx(1.0)

    def test_known_value(self):
        assert fp.binary_entropy(0.25) == pytest.approx(
            0.25 * 2.0 + 0.75 * math.log2(4.0 / 3.0))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            fp.binary_entropy(-0.1)


class TestRates:
    def test_gv_rate_endpoints(self):
        assert fp.gv_rate(0.0) == 1.0
        assert fp.gv_rate(0.11) == pytest.approx(1.0 - fp.binary_entropy(0.11))

    def test_gv_rate_reference_distance(self):
        assert fp.gv_rate(0.2143) == pytest.approx(0.2505, abs=0.005)

    def test_modified_rate_reference_distance(self):
        assert fp.modified_rate_appended(0.2143) == pytest.approx(0.1215, abs=0.005)

    def test_modified_never_beats_unmodified(self):
        for d in (0.05, 0.15, 0.25, 0.3):
            assert fp.modified_rate_appended(d) < fp.gv_rate(d)

    def test_modified_rate_parameterizations_agree(self):
        # appended distance D relates to the original delta by D = d/(1+d)
        d = 0.18
        assert fp.modified_rate(d) == pytest.approx(
            fp.modified_rate_appended(d / (1.0 + d)))

    def test_appended_distance_domain(self):
        with pytest.raises(DomainError):
            fp.modified_rate_appended(1.0 / 3.0)


class TestVisibilityMaps:
    def test_delta_from_visibilities(self):
        assert fp.delta_from_visibilities(0.98, 0.56) == pytest.approx(
            (1.0 - 0.56 / 0.98) / 2.0)

    def test_delta_roundtrip(self):
        delta = 0.21
        v = fp.visibility_from_hamming(delta)
        assert fp.delta_from_visibilities(1.0, v) == pytest.approx(delta)

    def test_invalid_ordering_rejected(self):
        with pytest.raises(DomainError):
            fp.delta_from_visibilities(0.56, 0.98)

    def test_bpsk_overlap(self):
        assert fp.bpsk_overlap([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
        assert fp.bpsk_overlap([0, 0, 0, 0], [1, 1, 1, 1]) == -1.0
        assert fp.bpsk_overlap([0, 1, 0, 1], [0, 1, 1, 0]) == 0.0

    def test_bpsk_overlap_matches_hamming_map(self):
        a = [0, 1, 1, 0, 1, 0, 0, 0, 1, 1]
        b = [0, 1, 0, 0, 1, 1, 0, 0, 1, 0]
        delta = sum(x != y for x, y in zip(a, b)) / len(a)
        assert fp.bpsk_overlap(a, b) == pytest.approx(
            fp.visibility_from_hamming(delta))

    def test_bpsk_length_mismatch(self):
        with pytest.raises(DomainError):
            fp.bpsk_overlap([0], [0, 1])


class TestClassicalBenchmarks:
    def test_best_classical_scaling(self):
        assert fp.best_classical(4.0e6, 1e-4) == pytest.approx(4.0 * 7.0 * 2000.0)

    def test_lower_bound_below_best(self):
        for n in (1e4, 1e6, 1e9):
            assert fp.classical_lower_bound(n, 1e-4) < fp.best_classical(n, 1e-4)

    def test_lower_bound_value(self):
        n, eps = 1e6, 1e-4
        expected = (1.0 - 0.02) * (math.sqrt(n / (2.0 * math.log(2.0))) - 1.0)
        assert fp.classical_lower_bound(n, eps) == pytest.approx(expected)

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            fp.best_classical(100, 0.3)


class TestRepetitionsNeeded:
    def test_inverts_chernoff_bound(self):
        c, eps = 0.0737, 1e-4
        n = fp.repetitions_needed(c, eps)
        assert math.exp(-n * c) / 2.0 <= eps
        assert math.exp(-(n - 1) * c) / 2.0 > eps

    def test_infinite_information(self):
        assert fp.repetitions_needed(math.inf, 1e-4) == 1

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            fp.repetitions_needed(0.0, 1e-4)

    @pytest.mark.parametrize("c,eps", [(7.8e-312, 1e-4), (5e-322, 1e-4), (0.0737, 1e-320)])
    def test_overflowing_repetitions_refused(self, c, eps):
        # a subnormal C or eps makes log(1/2eps)/C infinite, which has no ceiling
        with pytest.raises(DomainError, match=f"overflows at Chernoff information C = {c!r}"):
            fp.repetitions_needed(c, eps)


class TestQuantumRevealed:
    def test_formula(self):
        assert fp.quantum_revealed(100.0, 0.5, 6.3, 10) == pytest.approx(
            10 * 6.3 * math.log2(400.0))

    def test_logarithmic_in_length(self):
        r1 = fp.quantum_revealed(1e6, 0.12, 6.6, 100)
        r2 = fp.quantum_revealed(1e12, 0.12, 6.6, 100)
        assert r2 / r1 == pytest.approx(
            math.log2(2e12 / 0.12) / math.log2(2e6 / 0.12))

    def test_tiny_pulse_count_rejected(self):
        with pytest.raises(DomainError):
            fp.quantum_revealed(1.0, 1.0, 1.0, 1)


@pytest.fixture(scope="module")
def plan():
    return fp.plan(0.98, 0.56, 1e-4)


@pytest.fixture(scope="module")
def result(plan):
    return fp.crossover(plan)


class TestCrossover:
    def test_reference_thresholds(self, result):
        assert 2.3e5 / 2.0 <= result.n_vs_best_classical <= 2.3e5 * 2.0
        assert 6.3e8 / 2.0 <= result.n_vs_classical_limit <= 6.3e8 * 2.0
        assert result.n_vs_best_classical < result.n_vs_classical_limit

    def test_repetitions_and_budget(self, result):
        assert result.repetitions >= 1
        assert result.total_energy == pytest.approx(
            result.repetitions * 6.6, rel=0.05)

    def test_crossover_points_are_roots(self, result):
        delta = fp.delta_from_visibilities(0.98, 0.56)
        rate = fp.modified_rate_appended(delta)
        energy = result.total_energy / result.repetitions
        n = result.n_vs_best_classical
        assert fp.quantum_revealed(n, rate, energy, result.repetitions) == (
            pytest.approx(fp.best_classical(n, 1e-4), rel=1e-9))
        n = result.n_vs_classical_limit
        assert fp.quantum_revealed(n, rate, energy, result.repetitions) == (
            pytest.approx(fp.classical_lower_bound(n, 1e-4), rel=1e-9))

    def test_no_crossover_raises(self):
        # with a huge photon budget the protocol never beats the bound
        with pytest.raises(fp.CrossoverNotFoundError):
            fp._bisect_log_n(lambda n: 1.0, 10.0, 1e12)

    def test_refusal_names_eps_and_the_length_range(self):
        # at eps = 1e-100 the repetitions keep the quantum bits above the bound
        tiny = fp.plan(0.98, 0.56, 1e-100)
        with pytest.raises(fp.CrossoverNotFoundError,
                           match=r"eps = 1e-100 keeps one sign for n in \[10, 1e\+12\]"):
            fp.crossover(tiny)


class TestPlan:
    def test_fields(self, plan):
        delta = fp.delta_from_visibilities(0.98, 0.56)
        scan = eo.optimal_energy(0.98, 0.56)
        assert (plan.v1, plan.v2, plan.eps, plan.delta_min) == (0.98, 0.56, 1e-4, delta)
        assert plan.rate == fp.modified_rate_appended(delta)
        assert plan.energy == scan.optimum_energy
        assert plan.repetitions == fp.repetitions_needed(
            scan.optimum_ratio * scan.optimum_energy, 1e-4)

    def test_at_boundary_flags_an_energy_at_the_search_edge(self, plan):
        # (1.0, 0.94) still gains information per photon at E = 30
        edge = fp.plan(1.0, 0.94, 1e-4)
        assert (edge.energy, edge.at_boundary) == (30.0, True)
        assert plan.at_boundary is False

    @pytest.mark.parametrize("eps", [0.3, 0.25, 0.0, -1.0, math.nan])
    def test_eps_refused_before_the_search(self, monkeypatch, eps):
        def search(*args, **kwargs):
            raise AssertionError("energy search ran")

        monkeypatch.setattr(eo, "optimal_energy", search)
        with pytest.raises(DomainError, match=r"error probability must lie in \(0, 0.25\)"):
            fp.plan(0.98, 0.56, eps)

    def test_is_frozen(self, plan):
        with pytest.raises(AttributeError):
            plan.repetitions = 1


class TestRevealedCurves:
    def test_curve_keys_and_shapes(self, plan):
        n_values = [1e4, 1e6, 1e8]
        curves = fp.revealed_curves(plan, n_values)
        assert curves["quantum_coherent"] is None
        for key in ("quantum_incoherent", "classical_best", "classical_bound"):
            assert len(curves[key]) == 3

    def test_coherent_curve_when_budget_given(self, plan):
        curves = fp.revealed_curves(plan, [1e6], coherent_energy=3.0)
        coh = curves["quantum_coherent"][0]
        assert math.isfinite(coh) and coh > 0.0
        # phase-locked operation needs fewer photons overall
        assert coh < curves["quantum_incoherent"][0]

    def test_advantage_region_exists(self, plan):
        curves = fp.revealed_curves(plan, [1e8])
        assert curves["quantum_incoherent"][0] < curves["classical_best"][0]
