import math

import pytest

from vistest import photostat, tagio
from vistest.util import DomainError, check_budget, format_float, golden_section


class TestGoldenSection:
    def test_quadratic_minimum(self):
        x, fx = golden_section(lambda t: (t - 0.3) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-9)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_boundary_minimum(self):
        x, _ = golden_section(lambda t: t, 0.0, 1.0)
        assert x == pytest.approx(0.0, abs=1e-9)

    def test_nonconvex_still_brackets_a_minimum(self):
        x, fx = golden_section(math.cos, 0.0, 2.0 * math.pi)
        assert x == pytest.approx(math.pi, abs=1e-6)
        assert fx == pytest.approx(-1.0)

    def test_reversed_bracket_is_swapped(self):
        x, _ = golden_section(lambda t: (t - 0.3) ** 2, 1.0, 0.0)
        assert x == pytest.approx(0.3, abs=1e-9)

    def test_degenerate_bracket(self):
        x, fx = golden_section(lambda t: (t - 0.3) ** 2, 0.5, 0.5)
        assert (x, fx) == (0.5, pytest.approx(0.04))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_non_positive_tol_rejected(self, tol):
        with pytest.raises(DomainError):
            golden_section(lambda t: t * t, 0.0, 1.0, tol=tol)


class TestFormatFloat:
    def test_round_trips_doubles(self):
        for value in (0.1, 1.0 / 3.0, 6.3, 1e-300, math.pi):
            assert float(format_float(value)) == value

    def test_integers_compact(self):
        assert format_float(2.0) == "2"


class TestCheckBudget:
    def test_a_table_fits_up_to_k_11584(self):
        # 8 (K+1)^2 bytes: 1,073,697,800 at K = 11584, 1,073,883,168 at 11585
        check_budget(8 * 11585 ** 2, "--truncation 11584")
        with pytest.raises(DomainError, match=r"^--truncation 11585 needs 1.00013 GiB, "
                                              r"past the budget of 1 GiB$"):
            check_budget(8 * 11586 ** 2, "--truncation 11585")

    def test_tables_sized_by_the_truncation_are_checked_before_they_are_made(self, monkeypatch):
        # the 1 GiB table itself is never asked for: np.outer would raise first
        monkeypatch.setattr(photostat.np, "outer", lambda *a: pytest.fail("table built"))
        assert tagio.BinningConfig(truncation=11584).truncation == 11584
        params, vis = photostat.DetectionParams(6.3, 0.0, 11585), photostat.ComplexVisibility(0.5)
        for build in (lambda: tagio.BinningConfig(truncation=11585),
                      lambda: photostat.joint_fixed_phase(params, vis)):
            with pytest.raises(DomainError, match="--truncation 11585 needs"):
                build()
