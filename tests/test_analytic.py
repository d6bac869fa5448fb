import numpy as np
import pytest

import ovalbound as ob
from ovalbound.analytic import (CHORD_SLOPE, b2_on_level_explicit,
                                g_inverse_chord_bound, h_rational, h_tangent,
                                minorant, secant_term, secant_term_tangent)
from ovalbound.bounds import g_factor
from ovalbound.errors import DomainError

HALF_PI = 0.5 * np.pi


class TestDeltaMin:
    def test_rounded_value(self):
        assert ob.level_set_delta_min() == pytest.approx(1.196, abs=1e-3)

    def test_defining_identities(self):
        dmin = ob.level_set_delta_min()
        assert np.tan(dmin / 4.0) * (3.0 * np.sqrt(2.0) - 1.0) == \
            pytest.approx(1.0, abs=1e-12)
        assert g_factor(dmin) == pytest.approx(1.0 / 18.0, abs=1e-12)

    def test_exceeds_third_pi(self):
        assert ob.level_set_delta_min() > np.pi / 3.0


class TestLevelSet:
    def test_endpoint_values(self):
        dmin = ob.level_set_delta_min()
        # 1/(18 G) rounds to just above 1 there, and is clipped
        assert ob.level_set_nu(dmin) == 1.0
        expected = (6.0 + 4.0 * np.sqrt(2.0)) / 18.0
        assert ob.level_set_nu(HALF_PI - 1e-9) == pytest.approx(expected, abs=1e-8)

    def test_below_delta_min_rejected(self):
        below = np.nextafter(ob.level_set_delta_min(), 0.0)
        for delta in (1.0, below, np.array([below, 1.3])):
            with pytest.raises(DomainError, match="delta_min"):
                ob.level_set_nu(delta)

    def test_strictly_decreasing(self):
        grid = np.linspace(ob.level_set_delta_min(), HALF_PI - 1e-9, 3000)
        nu = ob.level_set_nu(grid)
        assert np.min(nu[:-1] - nu[1:]) > 0.0


class TestB2OnLevel:
    def test_dual_algebraic_forms(self, rng):
        dmin = ob.level_set_delta_min()
        for delta in rng.uniform(dmin, HALF_PI - 1e-9, 3):
            assert ob.b2_on_level(delta) == \
                pytest.approx(b2_on_level_explicit(delta), abs=1e-13)

    def test_level_values_exceed_target(self):
        grid = np.linspace(ob.level_set_delta_min(), HALF_PI - 1e-9, 5000)
        values = ob.b2_on_level(grid)
        assert np.min(values) >= 0.8166 - 1e-3
        assert np.all(values > 0.81)


class TestTangentMajorants:
    def test_report_is_nonnegative(self):
        for check in ob.tangent_majorant_checks():
            assert check.min_slack >= -1e-12

    def test_tangency_points_exact(self):
        # secant-term tangent touches at pi/3
        assert secant_term_tangent(np.pi / 3) - secant_term(np.pi / 3) == \
            pytest.approx(0.0, abs=1e-12)
        # rational-term tangent touches at k/3
        tangency = CHORD_SLOPE / 3.0
        assert h_tangent(tangency) - h_rational(tangency) == \
            pytest.approx(0.0, abs=1e-12)

    def test_chord_bound_touches_at_half_pi(self):
        slack = 1.0 / g_factor(HALF_PI - 1e-12) - g_inverse_chord_bound(HALF_PI - 1e-12)
        assert 0.0 <= slack < 1e-8


class TestCardano:
    def test_pipeline_values(self):
        pipe = ob.cardano_minimum()
        assert pipe.delta0 == pytest.approx(1.386, abs=1e-3)
        assert pipe.final_value == pytest.approx(0.8166, abs=5e-4)
        assert pipe.final_value > 0.81
        assert pipe.residual == abs(pipe.d0**3 + pipe.p * pipe.d0 + pipe.q) < 1e-9
        assert pipe.discriminant == -4.0 * pipe.p**3 - 27.0 * pipe.q**2 < 0.0
        assert pipe.delta_min <= pipe.delta0 < HALF_PI

    def test_against_dense_grid_minimization(self):
        pipe = ob.cardano_minimum()
        grid = np.linspace(pipe.delta_min, HALF_PI, 1_000_000, endpoint=False)
        values = minorant(grid)
        i = int(np.argmin(values))
        assert abs(grid[i] - pipe.delta0) < 1e-5
        assert values[i] == pytest.approx(pipe.final_value, abs=1e-9)

