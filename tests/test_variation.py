import numpy as np
import pytest

import ovalbound as ob
from ovalbound.errors import DomainError, SingularSystem
from ovalbound.variation import _pwl_first_harmonics

SQRT2 = np.sqrt(2.0)
HALF_PI = 0.5 * np.pi


class TestSolveBalance:
    def test_back_substitution(self):
        tau1, tau2, m, delta = 0.4, 1.0, 0.7, 0.05
        beta, gamma = ob.solve_balance(tau1, tau2, m, delta)
        assert beta > 0.0 and gamma > 0.0
        r1 = beta * (np.cos(tau1) - np.cos(m)) + gamma * (np.cos(tau2) - np.cos(m)) + delta
        r2 = beta * (np.sin(m) - np.sin(tau1)) - gamma * (np.sin(tau2) - np.sin(m)) - delta
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12

    def test_vanishing_pivot_rejected(self):
        with pytest.raises(SingularSystem):
            ob.solve_balance(0.4, 1.0, 0.4 + 1e-14, 0.05)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            ob.solve_balance(0.4, 1.0, 1.2, 0.05)
        with pytest.raises(DomainError):
            ob.solve_balance(0.4, 1.0, 0.7, -0.05)
        with pytest.raises(DomainError):
            ob.solve_balance(1.0, 0.4, 0.7, 0.05)


class TestStepFunction:
    def test_anti_periodicity_and_peak(self):
        spec = ob.make_step_spec(0.4, 1.0, 0.7, 0.05, nu=0.03)
        t = np.linspace(0.01, np.pi - 0.01, 301)
        vals = ob.step_values(spec, t)
        shifted = ob.step_values(spec, t + np.pi)
        assert np.max(np.abs(vals + shifted)) == 0.0
        assert ob.step_values(spec, np.array([HALF_PI]))[0] == \
            pytest.approx(spec.delta + spec.nu)
        assert ob.step_values(spec, np.array([HALF_PI + 0.01]))[0] == \
            pytest.approx(spec.delta)


class TestPlateauSum:
    def test_matches_balance_solve(self):
        tau1, tau2, m, delta = 0.4, 1.0, 0.7, 0.05
        beta, gamma = ob.solve_balance(tau1, tau2, m, delta)
        assert ob.plateau_sum(tau1, tau2, m, delta) == \
            pytest.approx(beta + gamma, abs=1e-11)

    def test_midpoint_minimizes_on_dense_grid(self):
        tau1, tau2, delta = 0.4, 1.0, 0.05
        m_grid = np.linspace(tau1, tau2, 100_003)[1:-1]
        s_vals = ob.plateau_sum(tau1, tau2, m_grid, delta)
        i = int(np.argmin(s_vals))
        step = m_grid[1] - m_grid[0]
        assert abs(m_grid[i] - 0.5 * (tau1 + tau2)) <= step
        assert s_vals[i] == pytest.approx(
            ob.plateau_sum_minimum(tau1, tau2, delta), abs=1e-9)

    def test_singular_endpoints(self):
        with pytest.raises(DomainError):
            ob.plateau_sum(0.4, 1.0, 0.4, 0.05)


class TestMinTotalVariation:
    def test_quarter_sum_closed_form(self):
        # tau1 + tau2 = pi/2 puts the angle sum at pi/2: the sine is one
        tau1, tau2, delta = 0.5, HALF_PI - 0.5, 0.04
        vb = ob.min_total_variation(tau1, tau2, delta, nu=0.0)
        expected = 4.0 * delta + 2.0 * SQRT2 * delta / np.sin((tau2 - tau1) / 4.0) ** 2
        assert vb.exact == pytest.approx(expected, abs=1e-12)

    def test_relaxed_never_exceeds_exact(self, rng):
        for _ in range(300):
            tau1 = rng.uniform(0.05, 0.9)
            tau2 = tau1 + rng.uniform(0.05, HALF_PI - tau1 - 0.01)
            vb = ob.min_total_variation(tau1, tau2, rng.uniform(0.01, 0.5),
                                        rng.uniform(0.0, 0.5))
            assert vb.relaxed <= vb.exact

    def test_relaxation_gap_identity(self, rng):
        # sin((t1+t2)/2 + pi/4) - sin((t2-t1)/2 + pi/4) factors as
        # 2*cos(t2/2 + pi/4)*sin(t1/2); both factors stay positive here
        for _ in range(100):
            tau1 = rng.uniform(0.05, 0.9)
            tau2 = tau1 + rng.uniform(0.05, HALF_PI - tau1 - 0.01)
            gap = np.sin(0.5 * (tau1 + tau2) + 0.25 * np.pi) \
                - np.sin(0.5 * (tau2 - tau1) + 0.25 * np.pi)
            factored = 2.0 * np.cos(0.5 * tau2 + 0.25 * np.pi) * np.sin(0.5 * tau1)
            assert gap == pytest.approx(factored, abs=1e-14)
            assert gap >= 0.0
            # the swapped-index expression is positive on the range as well
            assert 2.0 * np.cos(0.5 * tau1 + 0.25 * np.pi) * np.sin(0.5 * tau2) >= 0.0

    def test_step_function_attains_bound_at_midpoint(self):
        tau1, tau2, delta, nu = 0.4, 1.0, 0.05, 0.02
        spec = ob.make_step_spec(tau1, tau2, 0.5 * (tau1 + tau2), delta, nu)
        vb = ob.min_total_variation(tau1, tau2, delta, nu)
        # the total variation of a step function is the sum of its jumps
        jumps = 4.0 * (spec.delta + spec.nu + spec.beta + spec.gamma)
        assert jumps == pytest.approx(vb.exact, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            ob.min_total_variation(0.4, 1.0, -0.01)
        with pytest.raises(DomainError):
            ob.min_total_variation(0.4, 1.0, 0.05, nu=-0.1)


@pytest.mark.parametrize("call", [
    lambda: ob.min_total_variation(0.4, 1.0, np.nan),
    lambda: ob.min_total_variation(0.4, 1.0, 0.05, nu=np.nan),
    lambda: ob.solve_balance(0.4, 1.0, 0.7, np.nan),
    lambda: ob.plateau_sum(0.4, 1.0, 0.7, np.nan),
    lambda: ob.plateau_sum(0.4, 1.0, np.array([0.7, np.nan]), 0.05),
    lambda: ob.plateau_sum_minimum(0.4, 1.0, np.nan),
    lambda: ob.plateau_sum_minimum(0.4, 1.0, -0.05),
    lambda: ob.make_step_spec(0.4, 1.0, 0.7, 0.05, nu=np.nan),
], ids=["tv-delta-nan", "tv-nu-nan", "balance-delta-nan", "sum-delta-nan",
        "sum-m-nan", "minimum-delta-nan", "minimum-delta-negative", "spec-nu-nan"])
def test_nan_and_negative_inputs_rejected(call):
    with pytest.raises(DomainError):
        call()


class TestSampler:
    def test_accepted_sample_properties(self, rng):
        for _ in range(50):
            sample = ob.sample_admissible(rng)
            # half-period integrals: the full period's are twice these, within 1e-10
            rs, rc = _pwl_first_harmonics(sample.knots, sample.values)
            assert abs(rs) < 5e-11 and abs(rc) < 5e-11
            # knot-wise sign pattern
            for kt, v in zip(sample.knots, sample.values):
                if kt < sample.tau1:
                    assert v < 0.0
                elif kt in (sample.tau1, sample.tau2):
                    assert v == 0.0
                elif kt > sample.tau2:
                    assert v > 0.0
            assert sample.delta > 0.0 and sample.nu >= 0.0
            assert ob.sample_variation(sample) <= 2.0 * np.pi

    def test_deterministic_for_seed(self):
        s1 = ob.sample_admissible(np.random.default_rng(99))
        s2 = ob.sample_admissible(np.random.default_rng(99))
        assert np.array_equal(s1.knots, s2.knots)
        assert np.array_equal(s1.values, s2.values)


class TestPiecewiseLinearHarmonics:
    def test_against_quadrature(self, rng):
        # dense trapezoid as the independent oracle for the exact segment sums
        knots = np.array([0.0, 0.4, 0.9, 1.4, HALF_PI, 2.2, np.pi])
        values = np.array([-0.3, 0.0, 0.5, -0.2, 0.1, 0.25, 0.3])
        t = np.linspace(0.0, np.pi, 2_000_001)
        f = np.interp(t, knots, values)
        rs, rc = _pwl_first_harmonics(knots, values)
        assert rs == pytest.approx(np.trapezoid(f * np.sin(t), t), abs=1e-9)
        assert rc == pytest.approx(np.trapezoid(f * np.cos(t), t), abs=1e-9)
