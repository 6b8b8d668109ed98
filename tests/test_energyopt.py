import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import pdtrc

from vistest import chernoff as ch
from vistest import energyopt as eo
from vistest import photostat as ps
from vistest.util import DomainError


def pdtrc_truncation(energy, floor=15):
    """The resolution rule as first written: step K up from the floor until
    pdtrc(K, E) < 1e-9; None when no K <= max(floor, 300) fits."""
    if not energy > 0.0:
        return None
    ks = np.arange(floor, max(floor, eo.MAX_SEARCH_TRUNCATION) + 1)
    fits = np.flatnonzero(pdtrc(ks, energy) < 1e-9)
    return int(ks[fits[0]]) if len(fits) else None


def table_information(energy, v1=0.98, v2=0.56):
    """C of the K-table oracle at this energy: the full tables at K =
    pdtrc_truncation(E), the K = 2 tables, and the full tables' count
    differences."""
    full = ps.random_phase_tables(ps.DetectionParams(energy, 0.0, pdtrc_truncation(energy)),
                                  [v1, v2])
    limited = ps.random_phase_tables(ps.DetectionParams(energy, 0.0, 2), [v1, v2])
    return [ch.chernoff_information(*pair).information for pair in (
        full, limited, [ps.marginal_difference(t).probs for t in full])]


def table_tolerance(energy):
    """Bound on |C - C_table| for a table folded at K = pdtrc_truncation(E).
    The fold merges cells of mass at most P(count >= K) in one bucket, which
    moves sum(p1^(1-a) p2^a), so C, by at most about that mass; the 1e-14
    allows the rounding of C near its minimum (both sides' table and cell
    sums differ by a few 1e-16). A K = 2 table folds its cells exactly as the
    cells' sum by (min(k, 2), min(k', 2)) does, so it is held to 1e-14 alone."""
    return pdtrc(pdtrc_truncation(energy) - 1, energy) + 1e-14


class TestSearchTruncation:
    @pytest.mark.parametrize("floor", [1, 2, 15, 50, 299, 300, 301, 400])
    def test_equals_the_pdtrc_rule(self, floor):
        # the check refuses exactly the inputs for which the rule finds no K
        def refused(energy):
            try:
                eo._check_top(energy, floor)
            except DomainError:
                return True
            return False

        energies = np.concatenate([np.geomspace(1e-6, 1e4, 4000),
                                   np.linspace(207.9, 209.0, 12), [math.inf, math.nan]])
        assert [refused(e) for e in energies] == [pdtrc_truncation(e, floor) is None
                                                  for e in energies]

    def test_cap_names_the_limit(self):
        eo._check_top(208.0, 15)
        with pytest.raises(DomainError, match=str(eo.MAX_SEARCH_TRUNCATION)):
            eo._check_top(209.0, 15)

    @pytest.mark.parametrize("floor", [0, -7])
    def test_floor_below_one_refused(self, floor):
        with pytest.raises(DomainError, match="truncation must be >= 1"):
            eo._check_top(0.5, floor)

    def test_scan_resolves_every_energy_in_one_call(self, monkeypatch):
        calls = []
        check = eo._check_top
        monkeypatch.setattr(eo, "_check_top",
                            lambda *a: calls.append(float(a[0])) or check(*a))

        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(ps, "random_phase_tables", refuse)
        with pytest.raises(DomainError, match="E = 209 needs"):
            eo.optimal_energy(0.98, 0.56, search_range=(0.1, 209.0))
        eo.optimal_energy(0.98, 0.56)
        eo.random_phase_map([0.0, 0.5, 1.0])
        eo.info_per_photon(0.98, 0.56, 6.3)
        eo.energy_scan_curves(0.98, 0.56, [0.5, 25.0, 2.0])
        # one call per solve path, on its top energy, which only refuses a top
        # above about 208: every C is solved on split-law cells, with no K
        assert calls == [209.0, 30.0, 30.0, 6.3, 25.0]


class TestInfoPerPhoton:
    def test_mode_consistency_at_high_resolution(self):
        # the tail budget already resolves E = 6.3: raising K to 50 moves nothing
        exact = eo.info_per_photon(0.98, 0.56, 6.3, 50)
        assert eo.info_per_photon(0.98, 0.56, 6.3) == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("energy", [1e-3, 6.3, 30.0])
    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
    def test_identical_inputs_are_exactly_zero(self, v, energy):
        # a plain solve on d = 0 reads the rounding of the cells' sum (2.6e-13
        # at E = 1e-3), where the tables' short-cut gave 0
        assert eo.info_per_photon(v, v, energy) == 0.0
        assert [c.tolist() for c in eo.energy_scan_curves(v, v, [energy])] == [[0.0]] * 3

    @pytest.mark.parametrize("v1,v2,energy", [(0.98, 0.56, 6.3), (0.3, 0.3001, 1e-3),
                                              (1.0, 0.0, 30.0), (0.5, 0.5, 2.0)])
    def test_solves_only_the_joint_readout(self, monkeypatch, v1, v2, energy):
        # the K = 2 and difference readouts are chernoff_information solves
        expected = eo.energy_scan_curves(v1, v2, [energy])[0][0]

        def refuse(*args):
            raise AssertionError("a readout other than the joint one was solved")

        monkeypatch.setattr(ch, "chernoff_information", refuse)
        assert eo.info_per_photon(v1, v2, energy) == expected

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
        # the search's split-law cells against table pairs at pdtrc_truncation(E)
        scan = eo.optimal_energy(0.98, 0.56)
        for e, ratio in zip(scan.energies, scan.ratios):
            assert ratio * e == pytest.approx(table_information(e)[0], rel=0,
                                              abs=table_tolerance(e))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(0.98, 0.56)
    @example(0.3, 0.3001)  # C near 1e-12 at E = 0.1, where a cold solve moves it by 7e-6
    def test_scan_curves_joint_is_the_search_scan(self, v1, v2):
        # both solve on the same cells with the same warm starts, so they agree
        # bit for bit (tables at pdtrc_truncation(E) moved it by 1.15e-11)
        assume(v1 != v2)
        scan = eo.optimal_energy(v1, v2)
        joint, _, _ = eo.energy_scan_curves(v1, v2, scan.energies)
        assert joint.tolist() == scan.ratios.tolist()

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

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(1e-3, 200.0))
    @example(0.0, 0.05, 4.0)  # off by 1e-11 on split rows cut at E, not at the top energy
    def test_folded_solve_equals_the_full_cells(self, v1, v2, energy):
        # the search solves on the cells k <= n / 2 only; its first solve, cold
        # at scan point 0, against the minimum over every cell (k, n)
        assume(abs(v1 - v2) >= 0.01)
        solves, minimum = [], ch._minimum
        with mock.patch.object(ch, "_minimum",
                               lambda *a: solves.append((a, minimum(*a))) or solves[-1][1]):
            eo.optimal_energy(v1, v2, 15, (energy, 1.04 * energy))
        (_, folded_d, start), (alpha, log_min, _) = solves[0]
        pois = ps._poisson_rows(energy)
        last = len(pois) - 1
        # the search's split rows: in its order, cut at its top energy 1.04 E (rows
        # cut at E differ by rounding, which near C = 1e-6 moves alpha* by 1e-11)
        n = np.repeat(np.arange(last + 1), np.arange(1, last + 2))
        top = len(ps._poisson_rows(1.04 * energy)) - 1
        log_b = np.log(ps._split_rows(sorted((v1, v2)), top))[:, :len(n)]
        full = ch._minimum(log_b[0] + np.log(pois)[n], log_b[1] - log_b[0])
        assert start is None and len(folded_d) == sum(m // 2 + 1 for m in range(last + 1))
        assert (alpha in (0.0, 1.0)) == (full[0] in (0.0, 1.0))
        # where C itself is small, f's rounding near 0 (a few 1e-16) is what two
        # orders of summation differ by; below C = 1e-6 f is also flat enough
        # in alpha for that rounding to move alpha* past 1e-12
        assert log_min == pytest.approx(full[1], rel=1e-12, abs=4e-15)
        if full[1] < -1e-6:
            assert alpha == pytest.approx(full[0], rel=1e-12)

    def test_each_scan_row_is_made_once(self, monkeypatch):
        # the map's pairs share the scan energies' Poisson rows
        calls, rows = Counter(), ps._poisson_rows
        monkeypatch.setattr(ps, "_poisson_rows",
                            lambda e, *a: calls.update([e]) or rows(e, *a))
        eo.random_phase_map(np.linspace(0.0, 1.0, 5))
        scan = np.geomspace(*eo.DEFAULT_SEARCH_RANGE, eo.SCAN_POINTS)
        assert calls[scan[-1]] == 1
        assert max(calls[e] for e in scan) == 1

    def test_no_search_resolves_more_than_one_energy(self, monkeypatch):
        # only the top energy is resolved to a K, and only to refuse it
        sizes, counts = [], ps.poisson_counts
        monkeypatch.setattr(ps, "poisson_counts",
                            lambda i, k: sizes.append(np.size(i)) or counts(i, k))
        eo.optimal_energy(0.98, 0.56)
        eo.optimal_energy(0.98, 0.56, search_range=(0.1, 80.0))
        eo.random_phase_map(np.linspace(0.0, 1.0, 4))
        with pytest.raises(DomainError, match="E = 209 needs"):
            eo.optimal_energy(0.98, 0.56, search_range=(0.1, 209.0))
        assert sizes == [1] * 4

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

        monkeypatch.setattr(ps, "random_phase_tables", refuse)
        with pytest.raises(DomainError, match=str(eo.MAX_SEARCH_TRUNCATION)):
            eo.optimal_energy(0.98, 0.56, search_range=(0.1, hi))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_bad_tol_rejected_before_any_table(self, tol, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(ps, "random_phase_tables", refuse)
        with pytest.raises(DomainError, match="tol"):
            eo.optimal_energy(0.98, 0.56, tol=tol)

    def test_range_below_the_cap_is_searched(self):
        scan = eo.optimal_energy(0.98, 0.56, search_range=(0.1, 200.0))
        assert scan.optimum_energy == pytest.approx(6.6, abs=0.2)
        assert not scan.at_boundary


class TestRandomPhaseMap:
    def test_symmetry_and_diagonal(self):
        grid = np.array([0.0, 0.5, 1.0])
        ratio, energy = eo.random_phase_map(grid)
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

    def test_holds_one_pair_result_at_a_time(self, monkeypatch):
        # each pair's (energy, ratio) goes straight into the two matrices, with
        # no EnergyScanResult; one kept per pair took 1.4 kB, 6 GB at grid 3000
        made = []
        monkeypatch.setattr(eo, "EnergyScanResult", lambda *a: made.append(a))
        ratio, _ = eo.random_phase_map(np.linspace(0.0, 1.0, 6))
        assert made == []
        monkeypatch.undo()
        assert ratio[0, 5] == eo.optimal_energy(0.0, 1.0).optimum_ratio

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 60),
           st.floats(0.05, 80.0, exclude_min=True), st.floats(0.05, 80.0, exclude_min=True))
    def test_search_argmax_is_the_printed_scan_argmax(self, v1, v2, floor, a, b):
        # the search reads only the points _scan_argmax needs; the rows it
        # prints peak where it looked, and none reads above its optimum
        assume(v1 != v2 and a != b)
        scan = eo.optimal_energy(v1, v2, floor, (min(a, b), max(a, b)))
        assert eo._scan_argmax(scan.ratios.__getitem__) == np.argmax(scan.ratios)
        assert scan.ratios.max() <= scan.optimum_ratio

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

    def test_values_that_clamp_to_one_are_one_value(self):
        # optimal_energy refuses such a pair, so its cell is NaN, not rounding
        ratio, energy = eo.random_phase_map([1.0, 1.0 + 1e-10, 0.5])
        assert np.isnan(ratio[:2, :2]).all() and np.isnan(energy[:2, :2]).all()
        assert ratio[1, 2] == ratio[0, 2] == eo.optimal_energy(1.0, 0.5).optimum_ratio

    def test_lattice_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            eo.random_phase_map([0.0, 1.5])

    def test_lattice_without_a_pair_is_checked_too(self):
        # one value has no pair to solve, but its cells are still built and checked
        with pytest.raises(DomainError, match=r"random-phase \|V\| = 1.5 must lie"):
            eo.random_phase_map([1.5])


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
        for grid in [[-2.0, 0.0], [0.0, math.nan]]:
            with pytest.raises(DomainError, match=r"Re\(V\)"):
                eo.coherent_map(grid)


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
        energies = np.geomspace(*eo.DEFAULT_SEARCH_RANGE, eo.SCAN_POINTS)[::3]
        curves = eo.energy_scan_curves(0.98, 0.56, energies)
        for i, e in enumerate(energies):
            assert curves[0][i] == pytest.approx(eo.info_per_photon(0.98, 0.56, e), rel=1e-12)
            tables = table_information(e)
            for curve, c, folded in zip(curves, tables, (True, False, True)):
                assert curve[i] * e == pytest.approx(
                    c, rel=0, abs=table_tolerance(e) if folded else 1e-14)

    @pytest.mark.parametrize("floor", [1, 40])
    def test_truncation_only_floors_the_refusal(self, floor):
        energies = np.geomspace(*eo.DEFAULT_SEARCH_RANGE, eo.SCAN_POINTS)
        assert np.array_equal(eo.energy_scan_curves(0.98, 0.56, energies, floor),
                              eo.energy_scan_curves(0.98, 0.56, energies))
        with pytest.raises(DomainError, match="truncation must be >= 1"):
            eo.energy_scan_curves(0.98, 0.56, energies, 0)

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(DomainError):
            eo.energy_scan_curves(0.98, 0.56, [1.0, 0.0])

    def test_empty_energy_list_rejected(self):
        # with no energy, the cells would be built to the maximum of an empty list
        with pytest.raises(DomainError, match="energies must list at least one energy"):
            eo.energy_scan_curves(0.98, 0.56, [])
