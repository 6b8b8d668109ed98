import math

import numpy as np
import pytest

from vistest import chernoff as ch
from vistest import energyopt as eo
from vistest import photostat as ps
from vistest.util import DomainError


class TestAdaptiveTruncation:
    def test_floor_dominates_low_energy(self):
        assert eo.adaptive_truncation(0.5) == 15
        assert eo.adaptive_truncation(0.5, floor=10) == 10
        # resolution requirement wins when the floor is tiny
        assert eo.adaptive_truncation(0.5, floor=4) == 7

    def test_scales_with_energy(self):
        k = eo.adaptive_truncation(30.0)
        assert k >= 30 + 8 * math.sqrt(30.0) - 1
        assert eo._poisson_tail(30.0, k) < 1e-9


class TestInfoPerPhoton:
    def test_mode_consistency_at_high_resolution(self):
        # joint with floor 15 already exceeds what 6.3 needs beyond K=50
        joint = eo.info_per_photon(0.98, 0.56, 6.3, 50, "truncated")
        adaptive = eo.info_per_photon(0.98, 0.56, 6.3, 15, "joint")
        assert adaptive == pytest.approx(joint, rel=1e-6)

    def test_truncated_uses_exact_resolution(self):
        limited = eo.info_per_photon(0.98, 0.56, 6.3, 2, "truncated")
        params = ps.DetectionParams(6.3, 0.0, 2)
        expected = ch.chernoff_information(
            ps.joint_random_phase(params, 0.98).probs,
            ps.joint_random_phase(params, 0.56).probs).information / 6.3
        assert limited == pytest.approx(expected, rel=1e-12)

    def test_difference_mode_loses_information(self):
        joint = eo.info_per_photon(0.98, 0.56, 6.3)
        diff = eo.info_per_photon(0.98, 0.56, 6.3, mode="difference")
        assert 0.0 < diff < joint

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            eo.info_per_photon(0.9, 0.1, 1.0, mode="bogus")

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

    def test_equal_visibilities_rejected(self):
        with pytest.raises(eo.IndistinguishablePairError):
            eo.optimal_energy(0.5, 0.5)

    def test_bad_search_range_rejected(self):
        with pytest.raises(DomainError):
            eo.optimal_energy(0.9, 0.1, search_range=(2.0, 1.0))


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

    def test_cells_equal_per_pair_optimum(self):
        grid = np.array([0.0, 0.5, 1.0])
        ratio, energy = eo.random_phase_map(grid, tol=0.2)
        for i in range(3):
            for j in range(3):
                if i != j:
                    scan = eo.optimal_energy(grid[i], grid[j], tol=0.2)
                    assert ratio[i, j] == pytest.approx(scan.optimum_ratio, rel=1e-12)
                    assert energy[i, j] == pytest.approx(scan.optimum_energy, rel=1e-12)

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
