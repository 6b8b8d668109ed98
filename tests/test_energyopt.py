import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import pdtrc

from vistest import chernoff as ch
from vistest import energyopt as eo
from vistest import photostat as ps
from vistest.util import DomainError


class TestSearchTruncation:
    def test_floor_honoured_below_budget(self):
        assert eo.search_truncation(0.5) == 15
        assert eo.search_truncation(0.5, floor=10) == 10
        # a floor above the cap is the caller's own resolution, kept as is
        assert eo.search_truncation(6.3, floor=400) == 400
        # resolution requirement wins when the floor is tiny
        assert eo.search_truncation(0.5, floor=4) > 4

    @pytest.mark.parametrize("energy", [0.5, 1.7, 6.3, 30.0, 80.0, 200.0])
    def test_minimal_above_floor(self, energy):
        k = eo.search_truncation(energy, floor=1)
        assert pdtrc(k - 1, energy) >= 1e-9 > pdtrc(k, energy)
        assert eo.search_truncation(energy) == max(15, k)

    @pytest.mark.parametrize("floor", [1, 2, 15, 50, 299, 300, 301, 400])
    def test_equals_the_pdtrc_rule(self, floor):
        # the rule as first written: step K up from the floor until
        # pdtrc(K, E) < 1e-9, refusing a K stepped past the cap
        def pdtrc_rule(energy):
            if not energy > 0.0:
                return None
            ks = np.arange(floor, max(floor, eo.MAX_SEARCH_TRUNCATION) + 1)
            fits = np.flatnonzero(pdtrc(ks, energy) < 1e-9)
            return int(ks[fits[0]]) if len(fits) else None

        def rule(energy):
            try:
                return eo.search_truncation(energy, floor)
            except DomainError:
                return None

        energies = np.concatenate([np.geomspace(1e-6, 1e4, 4000),
                                   np.linspace(207.9, 209.0, 12), [math.inf, math.nan]])
        assert [rule(e) for e in energies] == [pdtrc_rule(e) for e in energies]

    def test_cap_names_the_limit(self):
        assert eo.search_truncation(208.0) <= eo.MAX_SEARCH_TRUNCATION
        with pytest.raises(DomainError, match=str(eo.MAX_SEARCH_TRUNCATION)):
            eo.search_truncation(209.0)

    @pytest.mark.parametrize("floor", [1, 2, 15, 50, 299, 300, 400])
    def test_one_call_over_an_array_equals_one_call_per_energy(self, floor):
        ranges = [np.geomspace(lo, hi, 60) for lo, hi in [
            (0.1, 30.0), (1e-6, 1e-3), (0.5, 80.0), (1.0, 208.0), (30.0, 208.0),
            (0.1, 200.0), (150.0, 208.0)]]
        if floor == 15:
            ranges.append(np.geomspace(1e-6, 208.0, 4000))
        for energies in ranges:
            assert eo.search_truncation(energies, floor) == [
                eo.search_truncation(e, floor) for e in energies]

    def test_array_refusal_names_the_largest_energy(self):
        with pytest.raises(DomainError, match="E = 250 needs"):
            eo.search_truncation([1.0, 250.0, 209.0, 6.3])
        with pytest.raises(DomainError, match="energy must be > 0"):
            eo.search_truncation([1.0, 0.0])

    @pytest.mark.parametrize("floor", [0, -7])
    def test_floor_below_one_refused(self, floor):
        with pytest.raises(DomainError, match="truncation must be >= 1"):
            eo.search_truncation(0.5, floor)

    def test_scan_resolves_every_energy_in_one_call(self, monkeypatch):
        calls = []
        resolve = eo.search_truncation
        monkeypatch.setattr(eo, "search_truncation",
                            lambda *a: calls.append(np.ndim(a[0])) or resolve(*a))

        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(ps, "joint_random_phase", refuse)
        with pytest.raises(DomainError, match="E = 209 needs"):
            eo.optimal_energy(0.98, 0.56, search_range=(0.1, 209.0))
        eo.optimal_energy(0.98, 0.56)
        eo.random_phase_map([0.0, 0.5, 1.0])
        # one array call per search, which only refuses a top above about 208:
        # the search solves on split-law cells and resolves no energy to a K
        assert calls == [1, 1, 1]


class TestInfoPerPhoton:
    def test_mode_consistency_at_high_resolution(self):
        # the tail budget already resolves E = 6.3: raising K to 50 moves nothing
        exact = eo.info_per_photon(0.98, 0.56, 6.3, 50)
        assert eo.info_per_photon(0.98, 0.56, 6.3) == pytest.approx(exact, rel=1e-9)

    def test_truncated_uses_exact_resolution(self):
        # a floor above the rule's K is used as given
        assert eo.search_truncation(6.3) < 50
        params = ps.DetectionParams(6.3, 0.0, 50)
        expected = ch.chernoff_information(
            ps.joint_random_phase(params, 0.98),
            ps.joint_random_phase(params, 0.56)).information / 6.3
        assert eo.info_per_photon(0.98, 0.56, 6.3, 50) == expected

    def test_difference_mode_loses_information(self):
        _, _, diff = eo.energy_scan_curves(0.98, 0.56, [6.3])
        assert 0.0 < diff[0] < eo.info_per_photon(0.98, 0.56, 6.3)

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(DomainError):
            eo.info_per_photon(0.9, 0.1, 0.0)

    def test_high_energy_ratio(self):
        # phase-quadrature value; the cancelling binomial kernel gave 9.32e-5
        assert eo.info_per_photon(1.0, 0.98, 30.0) == pytest.approx(8.95e-5, rel=1e-3)

    def test_quadratic_low_energy_scaling(self):
        lo = eo.info_per_photon(0.98, 0.56, 1e-3)
        hi = eo.info_per_photon(0.98, 0.56, 1e-2)
        # C ~ E^2 means C/E ~ E: one decade in energy, one decade in ratio
        slope = 1.0 + math.log10(hi / lo)
        assert slope == pytest.approx(2.0, abs=0.05)


class TestSplitCellSearch:
    def test_scan_ratios_match_the_tables(self):
        # the search's split-law cells against table pairs at search_truncation(E)
        scan = eo.optimal_energy(0.98, 0.56)
        tables = [eo.info_per_photon(0.98, 0.56, e) for e in scan.energies]
        assert scan.ratios == pytest.approx(tables, rel=1e-10)

    def test_low_energy_limit(self):
        # only n = 2 photons can split differently as E -> 0, so C -> P(n = 2)
        # (1 - e^-C2) with C2 the Chernoff information of the two n = 2 split
        # laws: B(1 | 2) = (1 - |V|^2 / 2) / 2 and B(0 | 2) = B(2 | 2)
        laws = []
        for v in (0.98, 0.56):
            middle = (1.0 - v * v / 2.0) / 2.0
            laws.append(np.array([(1.0 - middle) / 2.0, middle, (1.0 - middle) / 2.0]))
        c2 = ch.chernoff_information(*laws).information
        assert (1.0 - math.exp(-c2)) / 2.0 == pytest.approx(7.3564e-3, abs=1e-7)
        scan = eo.optimal_energy(0.98, 0.56, search_range=(1e-3, 30.0))
        assert scan.ratios[0] / 1e-3 == pytest.approx((1.0 - math.exp(-c2)) / 2.0, rel=1e-3)

    def test_a_top_past_the_row_limit_is_refused(self):
        # --hi 200 stays below the limit; a floor above 300 lets a top past it through
        assert len(ps._poisson_rows(200.0)) - 1 < ps.MAX_SPLIT_ROW
        with pytest.raises(DomainError, match=f"pass {ps.MAX_SPLIT_ROW}"):
            eo.optimal_energy(0.98, 0.56, truncation=1500, search_range=(0.1, 1200.0))


class TestOptimalEnergy:
    def test_reference_pair_optimum(self):
        scan = eo.optimal_energy(0.98, 0.56)
        assert scan.optimum_energy == pytest.approx(6.6, abs=0.2)
        assert scan.optimum_ratio == pytest.approx(0.0112, abs=0.0005)
        assert scan.ratios.max() <= scan.optimum_ratio + 1e-12

    def test_wide_search_range_keeps_low_energy_optimum(self):
        scan = eo.optimal_energy(0.98, 0.56, search_range=(0.1, 80.0))
        assert scan.optimum_energy == pytest.approx(6.6, abs=0.2)
        assert scan.optimum_ratio == pytest.approx(0.0112, abs=0.0005)

    def test_scan_grid_shape(self):
        scan = eo.optimal_energy(0.9, 0.1)
        assert scan.energies.shape == scan.ratios.shape == (60,)
        assert scan.energies[0] == pytest.approx(0.1)
        assert scan.energies[-1] == pytest.approx(30.0)

    def test_search_ending_on_its_bound_is_flagged(self):
        # the ratio is still rising at the top of the default range
        edge = eo.optimal_energy(1.0, 0.98)
        assert edge.at_boundary
        assert edge.optimum_energy == 30.0
        assert not eo.optimal_energy(0.98, 0.56).at_boundary

    def test_equal_visibilities_rejected(self):
        with pytest.raises(eo.IndistinguishablePairError):
            eo.optimal_energy(0.5, 0.5)

    def test_bad_search_range_rejected(self):
        with pytest.raises(DomainError):
            eo.optimal_energy(0.9, 0.1, search_range=(2.0, 1.0))

    @pytest.mark.parametrize("hi", [1e4, math.inf])
    def test_unresolvable_range_rejected_before_any_table(self, hi, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(ps, "joint_random_phase", refuse)
        with pytest.raises(DomainError, match=str(eo.MAX_SEARCH_TRUNCATION)):
            eo.optimal_energy(0.98, 0.56, search_range=(0.1, hi))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_bad_tol_rejected_before_any_table(self, tol, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(ps, "joint_random_phase", refuse)
        with pytest.raises(DomainError, match="tol"):
            eo.optimal_energy(0.98, 0.56, tol=tol)

    def test_range_below_the_cap_is_searched(self):
        scan = eo.optimal_energy(0.98, 0.56, search_range=(0.1, 200.0))
        assert scan.optimum_energy == pytest.approx(6.6, abs=0.2)
        assert not scan.at_boundary


class TestRandomPhaseMap:
    def test_symmetry_and_diagonal(self):
        grid = np.array([0.0, 0.5, 1.0])
        ratio, energy = eo.random_phase_map(grid, tol=0.2)
        assert np.isnan(np.diag(ratio)).all()
        assert np.isnan(np.diag(energy)).all()
        off = ~np.eye(3, dtype=bool)
        assert ratio[off] == pytest.approx(ratio.T[off])
        assert energy[off] == pytest.approx(energy.T[off])
        assert np.all(ratio[off] > 0.0)

    @pytest.mark.parametrize("floor", [1, 15])
    @pytest.mark.parametrize("size", [3, 5])
    def test_cells_equal_per_pair_optimum(self, size, floor):
        grid = np.linspace(0.0, 1.0, size)
        ratio, energy = eo.random_phase_map(grid, floor)
        for i in range(size):
            for j in range(size):
                if i != j:
                    scan = eo.optimal_energy(grid[i], grid[j], floor)
                    assert (ratio[i, j], energy[i, j]) == (scan.optimum_ratio,
                                                           scan.optimum_energy)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 60),
           st.floats(0.05, 80.0, exclude_min=True), st.floats(0.05, 80.0, exclude_min=True))
    def test_optimum_only_scan_keeps_the_full_scan_argmax(self, v1, v2, floor, a, b):
        assume(v1 != v2 and a != b)
        search_range = (min(a, b), max(a, b))
        full, = eo._scan_pairs((v1, v2), [(0, 1)], floor, search_range, eo.DEFAULT_TOL)
        lazy, = eo._scan_pairs((v1, v2), [(0, 1)], floor, search_range, eo.DEFAULT_TOL,
                               optimum_only=True)
        # the points the lazy path solved carry the full scan's bits, so its
        # search reads what the search below reads
        solved = ~np.isnan(lazy.ratios)
        assert np.array_equal(lazy.ratios[solved], full.ratios[solved])
        assert eo._scan_argmax(full.ratios.__getitem__) == np.argmax(full.ratios)
        assert (lazy.optimum_energy, lazy.optimum_ratio) == (full.optimum_energy,
                                                             full.optimum_ratio)

    def test_scan_argmax_of_a_unimodal_scan(self):
        # a flat top of two points keeps np.argmax's first index
        index = np.arange(60.0)
        for peak in range(60):
            scan = np.where(index <= peak, index - peak, 1.3 * (peak + 1 - index))
            read = []
            assert eo._scan_argmax(lambda n: read.append(n) or scan[n]) == np.argmax(scan)
            assert len(set(read)) <= 11 + 8

    def test_scan_argmax_reads_a_non_unimodal_scan_in_full(self):
        # coarse samples that fall and rise again: the peak may lie anywhere
        scan = np.cos(np.arange(60) / 4.0) + np.arange(60) / 200.0
        read = []
        assert eo._scan_argmax(lambda n: read.append(n) or scan[n]) == np.argmax(scan)
        assert set(read) == set(range(60))

    def test_lattice_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            eo.random_phase_map([0.0, 1.5])


class TestCoherentMap:
    def test_symmetric_with_zero_diagonal(self):
        grid = np.array([-1.0, 0.0, 0.56, 1.0])
        table = eo.coherent_map(grid)
        assert np.diag(table) == pytest.approx(np.zeros(4))
        assert table == pytest.approx(table.T)

    def test_antipodal_cell_is_unity(self):
        table = eo.coherent_map([-1.0, 1.0])
        assert table[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            eo.coherent_map([-2.0, 0.0])


class TestEnergyScanCurves:
    def test_ordering_at_reference_energy(self):
        joint, limited, diff = eo.energy_scan_curves(0.98, 0.56, [6.3])
        assert joint[0] > limited[0] * 1.01
        assert limited[0] > diff[0] * 1.01

    def test_aligned_with_energy_grid(self):
        energies = np.array([0.5, 2.0, 6.3])
        joint, limited, diff = eo.energy_scan_curves(0.98, 0.56, energies)
        assert joint.shape == limited.shape == diff.shape == energies.shape
        assert np.all(joint >= diff - 1e-15)

    def test_equals_info_per_photon_per_mode(self):
        energies = [0.3, 6.3, 25.0]
        joint, limited, diff = eo.energy_scan_curves(0.98, 0.56, energies)
        for i, e in enumerate(energies):
            assert joint[i] == eo.info_per_photon(0.98, 0.56, e)
            d1, d2 = ps.hypothesis_tables(0.98, 0.56, e, 2)
            assert limited[i] == ch.chernoff_information(d1, d2).information / e
            d1, d2 = ps.hypothesis_tables(0.98, 0.56, e, eo.search_truncation(e))
            assert diff[i] == ch.chernoff_information(
                ps.marginal_difference(d1).probs,
                ps.marginal_difference(d2).probs).information / e

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(DomainError):
            eo.energy_scan_curves(0.98, 0.56, [1.0, 0.0])
