import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from vistest import chernoff as ch
from vistest import photostat as ps
from vistest.util import DomainError


def product_poisson_pair(energy, re_v1, re_v2, truncation=60):
    p1 = ps.joint_fixed_phase(
        ps.DetectionParams(energy, 0.0, truncation), ps.ComplexVisibility(re_v1))
    p2 = ps.joint_fixed_phase(
        ps.DetectionParams(energy, 0.0, truncation), ps.ComplexVisibility(re_v2))
    return p1.probs, p2.probs


def checked(p):
    return ps.checked_probabilities(p, np.shape(p)).ravel()


def tilted_distribution(p1, p2, alpha):
    """Normalized geometric interpolation p1^(1-alpha) p2^alpha, the
    oracle for the equidistance of alpha*. alpha = 0 and alpha = 1 return
    p1 and p2 exactly (0**0 is taken as 1 so off-support entries survive
    at the endpoints)."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [0, 1]")
    weights = checked(p1) ** (1.0 - alpha) * checked(p2) ** alpha
    total = weights.sum()
    if total == 0.0:
        raise DomainError("tilted distribution has zero mass (disjoint supports)")
    return weights / total


def relative_entropy(p, q):
    """Relative entropy D(p||q) in nats, the oracle for C <= D; +inf when
    p puts mass where q has none."""
    a, b = checked(p), checked(q)
    support = a > 0.0
    if np.any(b[support] == 0.0):
        return math.inf
    return float(np.sum(a[support] * (np.log(a[support]) - np.log(b[support]))))


class TestChernoffInformation:
    def test_identical_distributions(self):
        p = np.array([0.3, 0.7])
        result = ch.chernoff_information(p, p)
        assert result.information == 0.0
        assert result.alpha_star == 0.5
        assert result.sigma == 0.0
        assert not result.infinite

    def test_disjoint_supports(self):
        result = ch.chernoff_information([1.0, 0.0], [0.0, 1.0])
        assert result.infinite
        assert math.isinf(result.information)

    def test_two_point_closed_form(self):
        # Bernoulli(p) vs Bernoulli(q): oracle via dense alpha grid
        p, q = 0.2, 0.7
        alphas = np.linspace(0.0, 1.0, 200001)
        obj = ((1 - p) ** (1 - alphas) * (1 - q) ** alphas
               + p ** (1 - alphas) * q ** alphas)
        expected = -math.log(obj.min())
        result = ch.chernoff_information([1 - p, p], [1 - q, q])
        assert result.information == pytest.approx(expected, abs=1e-10)
        assert result.alpha_star == pytest.approx(alphas[obj.argmin()], abs=1e-5)

    def test_symmetry_under_swap(self):
        p1, p2 = product_poisson_pair(5.0, 0.9, 0.2, truncation=30)
        fwd = ch.chernoff_information(p1, p2)
        rev = ch.chernoff_information(p2, p1)
        assert rev.information == pytest.approx(fwd.information, abs=1e-12)
        assert rev.alpha_star == pytest.approx(1.0 - fwd.alpha_star, abs=1e-7)
        assert rev.sigma == pytest.approx(fwd.sigma, abs=1e-7)

    def test_bounded_by_relative_entropies(self):
        p1, p2 = product_poisson_pair(3.0, 0.8, 0.1, truncation=25)
        c = ch.chernoff_information(p1, p2).information
        assert 0.0 < c <= relative_entropy(p1, p2) + 1e-12
        assert c <= relative_entropy(p2, p1) + 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            ch.chernoff_information([1.0], [0.5, 0.5])

    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            ch.chernoff_information([0.5, 0.6], [0.5, 0.5])

    def test_accepts_distribution_objects(self):
        d1 = ps.joint_random_phase(ps.DetectionParams(2.0, 0.0, 8), 0.9)
        d2 = ps.joint_random_phase(ps.DetectionParams(2.0, 0.0, 8), 0.3)
        via_obj = ch.chernoff_information(d1, d2)
        via_arr = ch.chernoff_information(d1.probs, d2.probs)
        assert via_obj == via_arr

    # each bad entry leaves the rest of the array summing to 1 or NaN
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.25])
    def test_bad_entry_in_raw_array_rejected(self, bad):
        with pytest.raises(DomainError):
            ch.chernoff_information([1.0, bad, 0.25], [0.25, 0.5, 0.25])
        with pytest.raises(DomainError):
            ch.chernoff_information([0.25, 0.5, 0.25], [1.0, bad, 0.25])

    @pytest.mark.parametrize("gap,identical", [(2.0**-54, True), (1e-14, False)])
    def test_identical_within_1e_15(self, gap, identical):
        result = ch.chernoff_information([0.25, 0.75], [0.25 + gap, 0.75 - gap])
        assert (result == ch.ChernoffResult(0.0, 0.5, 0.0)) == identical

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.1, 30.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.integers(1, 40))
    def test_tables_and_their_arrays_agree_bit_for_bit(self, energy, v1, v2, k):
        params = ps.DetectionParams(energy, 0.0, k)
        d1 = ps.joint_random_phase(params, v1)
        d2 = ps.joint_random_phase(params, v2)
        via_obj = ch.chernoff_information(d1, d2)
        via_arr = ch.chernoff_information(d1.probs, d2.probs)
        assert repr(via_obj) == repr(via_arr)

    def test_tables_are_not_checked_again(self, monkeypatch):
        d1 = ps.joint_random_phase(ps.DetectionParams(2.0, 0.0, 8), 0.9)
        d2 = ps.joint_random_phase(ps.DetectionParams(2.0, 0.0, 8), 0.3)
        m1, m2 = ps.marginal_difference(d1), ps.marginal_difference(d2)

        def refuse(*args):
            raise AssertionError("table checked again")

        monkeypatch.setattr(ps, "checked_probabilities", refuse)
        ch.chernoff_information(d1, d2)
        ch.chernoff_information(m1, m2)
        ch.refined_bound(ch.chernoff_information(d1, d2), 10)
        with pytest.raises(AssertionError):
            ch.chernoff_information(d1.probs, d2.probs)


@pytest.fixture
def solver_passes(monkeypatch):
    """Objective passes per chernoff_information call: a test appends a
    0 before each call and the solver's passes count into it."""
    passes = []
    moments = ch._tilted_moments

    def counted(*args):
        passes[-1] += 1
        return moments(*args)

    monkeypatch.setattr(ch, "_tilted_moments", counted)
    return passes


class TestNewtonSolve:
    @staticmethod
    def dense_grid_optimum(p1, p2):
        mask = (p1 > 0.0) & (p2 > 0.0)
        alphas = np.linspace(0.0, 1.0, 100001)
        logs = ((1.0 - alphas)[:, None] * np.log(p1[mask])
                + alphas[:, None] * np.log(p2[mask]))
        objective = np.log(np.exp(logs).sum(axis=1))
        best = int(np.argmin(objective))
        return -objective[best], alphas[best]

    def test_matches_dense_alpha_grid(self, solver_passes):
        rng = np.random.default_rng(2017)
        kinds = set()
        for trial in range(60):
            p1, p2 = rng.dirichlet(np.ones(12)), rng.dirichlet(np.ones(12))
            if trial % 2:
                # partial supports put some optima on the boundary
                p1[rng.random(12) < 0.3] = 0.0
                p2[rng.random(12) < 0.3] = 0.0
                p1, p2 = p1 / p1.sum(), p2 / p2.sum()
            solver_passes.append(0)
            result = ch.chernoff_information(p1, p2)
            if result.infinite:
                continue
            info, alpha = self.dense_grid_optimum(p1, p2)
            assert result.information == pytest.approx(info, abs=1e-9)
            assert result.alpha_star == pytest.approx(alpha, abs=1e-4)
            kinds.add(result.alpha_star if result.alpha_star in (0.0, 1.0) else "interior")
        assert kinds == {0.0, 1.0, "interior"}
        assert max(solver_passes) <= 20
        assert np.mean(solver_passes) <= 12

    def test_random_phase_tables_need_few_passes(self, solver_passes):
        grid = (0.0, 0.5, 0.56, 0.94, 0.98, 1.0)
        for energy in (0.1, 6.3, 30.0):
            params = ps.DetectionParams(energy, 0.0, 60)
            tables = [ps.joint_random_phase(params, v) for v in grid]
            for i in range(len(grid)):
                for j in range(len(grid)):
                    if i != j:
                        solver_passes.append(0)
                        ch.chernoff_information(tables[i], tables[j])
        assert max(solver_passes) <= 20
        assert np.mean(solver_passes) <= 12


class TestWarmStart:
    """A start skips the boundary slopes; the answer must not change."""

    @staticmethod
    def search_cells(v1, v2, energy):
        """(l1, d) of one pair at one energy, as the energy search builds them."""
        pois = ps._poisson_rows(energy)
        last = len(pois) - 1
        log_b = np.log(ps._split_rows([v1, v2], last))
        n = np.repeat(np.arange(last + 1), np.arange(1, last + 2))
        return log_b[0] + np.log(pois)[n], log_b[1] - log_b[0]

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(1e-3, 208.0),
           st.floats(0.0, 1.0))
    def test_equals_the_cold_solve(self, v1, v2, energy, start):
        # closer laws differ by little more than rounding, which leaves alpha* undefined
        assume(abs(v1 - v2) >= 0.01)
        l1, d = self.search_cells(v1, v2, energy)
        cold, warm = ch._minimum(l1, d), ch._minimum(l1, d, start)
        assert (warm[0] in (0.0, 1.0)) == (cold[0] in (0.0, 1.0))
        assert warm[0] == pytest.approx(cold[0], rel=1e-12)
        # C = -f; where C itself is below about 1e-3, f's rounding near 0
        # (about 1e-16) is what the two solves can differ by
        assert warm[1] == pytest.approx(cold[1], rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("edge,p1,p2", [
        # on the common support p2 / p1 > 1 everywhere: f rises, alpha* = 0
        (0.0, [0.1, 0.2, 0.7], [0.4, 0.6, 0.0]),
        (1.0, [0.4, 0.6, 0.0], [0.1, 0.2, 0.7]),
    ])
    @pytest.mark.parametrize("start", [0.0, 0.3, 0.5, 0.999, 1.0])
    def test_boundary_minimum_is_exact(self, edge, p1, p2, start):
        p1, p2 = np.array(p1), np.array(p2)
        both = (p1 > 0.0) & (p2 > 0.0)
        l1 = np.log(p1[both])
        d = np.log(p2[both]) - l1
        cold, warm = ch._minimum(l1, d), ch._minimum(l1, d, start)
        assert cold[:2] == warm[:2] == (edge, cold[1])


class TestCoherentClosedForm:
    def test_antipodal_signals_give_energy(self):
        for energy in (0.5, 3.0, 10.0):
            result = ch.chernoff_coherent_closed_form(energy, 1.0, -1.0)
            assert result.information == pytest.approx(energy, abs=1e-9)

    def test_equal_visibility_gives_zero(self):
        result = ch.chernoff_coherent_closed_form(7.0, 0.4, 0.4)
        assert result.information == 0.0
        assert result.alpha_star == 0.5

    def test_proportional_to_energy(self):
        base = ch.chernoff_coherent_closed_form(1.0, 0.98, 0.56)
        scaled = ch.chernoff_coherent_closed_form(7.3, 0.98, 0.56)
        assert scaled.information == pytest.approx(7.3 * base.information, rel=1e-9)
        assert scaled.alpha_star == pytest.approx(base.alpha_star, abs=1e-7)

    def test_matches_generic_on_product_poisson(self):
        p1, p2 = product_poisson_pair(10.0, 0.98, 0.56)
        generic = ch.chernoff_information(p1, p2)
        closed = ch.chernoff_coherent_closed_form(10.0, 0.98, 0.56)
        assert closed.information == pytest.approx(generic.information, abs=1e-6)
        assert closed.alpha_star == pytest.approx(generic.alpha_star, abs=1e-6)
        assert closed.sigma == pytest.approx(generic.sigma, abs=1e-6)

    @pytest.mark.parametrize("re_v1,re_v2", [(0.999, 0.998), (0.98, 0.56), (-0.5, 0.9),
                                             (0.3, -0.7)])
    def test_alpha_star_is_root_of_tilted_mean(self, re_v1, re_v2):
        # f'(a) is the mean of log(p2/p1) under the two-outcome law tilted
        # by a; the objective is flat near equal visibilities, so only the
        # root of f' pins alpha* there
        l1 = np.log([1.0 + re_v1, 1.0 - re_v1])
        d = np.log([1.0 + re_v2, 1.0 - re_v2]) - l1

        def tilted_mean(a):
            w = np.exp(l1 + a * d)
            return float(w @ d / w.sum())

        root = brentq(tilted_mean, 0.0, 1.0, xtol=1e-15)
        result = ch.chernoff_coherent_closed_form(3.0, re_v1, re_v2)
        assert abs(result.alpha_star - root) <= 1e-12

    def test_degenerate_port_sigma_nan(self):
        result = ch.chernoff_coherent_closed_form(4.0, 1.0, 0.5)
        assert math.isnan(result.sigma)
        assert result.information > 0.0

    def test_out_of_range_visibility_rejected(self):
        # a NaN passes a "> 1" test, and would be refused later as a bad probability
        for re_v in [(1.2, 0.0), (math.nan, 0.0), (0.0, math.nan)]:
            with pytest.raises(DomainError, match=r"Re\(V\)"):
                ch.chernoff_coherent_closed_form(1.0, *re_v)


class TestChernoffBound:
    def test_values(self):
        assert ch.chernoff_bound(0.0, 5) == 0.5
        assert ch.chernoff_bound(1.0, 3) == pytest.approx(math.exp(-3.0) / 2.0)
        assert ch.chernoff_bound(math.inf, 2) == 0.0

    def test_accepts_result_object(self):
        result = ch.ChernoffResult(0.5, 0.5, 1.0)
        assert ch.chernoff_bound(result, 4) == pytest.approx(math.exp(-2.0) / 2.0)

    def test_bad_repetitions(self):
        with pytest.raises(DomainError):
            ch.chernoff_bound(1.0, 0)


class TestTiltedDistribution:
    def test_endpoints_exact(self):
        p1 = np.array([0.5, 0.5, 0.0])
        p2 = np.array([0.0, 0.5, 0.5])
        assert tilted_distribution(p1, p2, 0.0) == pytest.approx(p1)
        assert tilted_distribution(p1, p2, 1.0) == pytest.approx(p2)

    def test_normalized(self):
        p1, p2 = product_poisson_pair(2.0, 0.8, 0.2, truncation=12)
        tilted = tilted_distribution(p1, p2, 0.37)
        assert tilted.sum() == pytest.approx(1.0)
        assert np.all(tilted >= 0.0)

    def test_equidistant_at_optimum(self):
        p1, p2 = product_poisson_pair(4.0, 0.9, 0.3, truncation=30)
        result = ch.chernoff_information(p1, p2)
        tilted = tilted_distribution(p1, p2, result.alpha_star)
        d1 = relative_entropy(tilted, p1.ravel())
        d2 = relative_entropy(tilted, p2.ravel())
        assert d1 == pytest.approx(d2, abs=1e-7)
        assert d1 == pytest.approx(result.information, abs=1e-7)

    def test_alpha_outside_range_rejected(self):
        with pytest.raises(DomainError):
            tilted_distribution([1.0], [1.0], 1.5)

    def test_disjoint_interior_rejected(self):
        with pytest.raises(DomainError):
            tilted_distribution([1.0, 0.0], [0.0, 1.0], 0.5)


class TestRelativeEntropy:
    def test_self_distance_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert relative_entropy(p, p) == 0.0

    def test_known_value(self):
        d = relative_entropy([0.5, 0.5], [0.25, 0.75])
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert d == pytest.approx(expected)

    def test_support_mismatch_infinite(self):
        assert math.isinf(relative_entropy([0.5, 0.5], [1.0, 0.0]))

    def test_zero_mass_in_p_ignored(self):
        assert relative_entropy([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            math.log(2.0))

    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            relative_entropy([0.5, 0.6], [0.5, 0.5])


class TestRefinedBound:
    def test_tighter_than_standard_bound(self):
        p1, p2 = product_poisson_pair(6.3, 0.98, 0.56, truncation=30)
        result = ch.chernoff_information(p1, p2)
        for n in (10, 50, 200):
            refined = ch.refined_bound(result, n)
            assert 0.0 < refined < ch.chernoff_bound(result, n)

    def test_sqrt_n_prefactor_scaling(self):
        p1, p2 = product_poisson_pair(6.3, 0.98, 0.56, truncation=30)
        result = ch.chernoff_information(p1, p2)
        r100 = ch.refined_bound(result, 100)
        r400 = ch.refined_bound(result, 400)
        assert r400 / r100 == pytest.approx(math.exp(-300.0 * result.information) / 2.0,
                                            rel=1e-9)

    def test_bad_repetitions(self):
        p1, p2 = product_poisson_pair(6.3, 0.98, 0.56, truncation=30)
        with pytest.raises(DomainError):
            ch.refined_bound(ch.chernoff_information(p1, p2), 0)

    def test_degenerate_pairs_rejected(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(ch.DegeneratePairError):
            ch.refined_bound(ch.chernoff_information(p, p), 10)
        with pytest.raises(ch.DegeneratePairError):
            ch.refined_bound(ch.chernoff_information([1.0, 0.0], [0.0, 1.0]), 10)
