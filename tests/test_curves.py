import numpy as np
import pytest

import ovalbound as ob
from ovalbound.curves import TWO_PI, trig_coefficients, trig_series
from ovalbound.errors import (DegenerateProfile, DomainError, ExhaustedRejection,
                              NonMonotone, RejectedCurve)

SQRT2 = np.sqrt(2.0)


class TestTrigSeries:
    @staticmethod
    def decaying(rng, n_harmonics):
        k = np.arange(n_harmonics + 1)
        return [rng.standard_normal(n_harmonics + 1) / (1.0 + k) ** 3 for _ in range(2)]

    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("deriv", [0, 1, 2])
    def test_grid_matches_direct_sum(self, rng, n, deriv):
        cos, sin = self.decaying(rng, 20)
        points = TWO_PI * np.arange(n) / n
        assert np.max(np.abs(trig_series(cos, sin, n, deriv)
                             - trig_series(cos, sin, points, deriv))) < 1e-13

    @pytest.mark.parametrize("n", [64, 65])
    def test_analyse_then_evaluate_reproduces_samples(self, rng, n):
        u = rng.standard_normal(n)
        assert np.max(np.abs(trig_series(*trig_coefficients(u), n) - u)) < 1e-13

    def test_high_harmonics_fold_onto_coarse_grid(self, rng):
        # a 256-mode series on a 64-point grid: harmonics >= 32 alias exactly
        cos, sin = self.decaying(rng, 256)
        k = np.arange(257)
        points = TWO_PI * np.arange(64) / 64
        arg = np.outer(points, k)
        direct = np.cos(arg) @ cos + np.sin(arg) @ sin
        second = -(np.cos(arg) @ (k**2 * cos) + np.sin(arg) @ (k**2 * sin))
        assert np.max(np.abs(trig_series(cos, sin, 64) - direct)) < 1e-13
        assert np.max(np.abs(trig_series(cos, sin, points) - direct)) < 1e-13
        assert np.max(np.abs(trig_series(cos, sin, 64, deriv=2) - second)) < 1e-13


class TestConstruction:
    def test_rejects_constant_and_first_harmonic(self):
        with pytest.raises(ValueError):
            ob.FourierCurve(a={1: 0.1})
        with pytest.raises(ValueError):
            ob.FourierCurve(b={0: 0.5})

    def test_offset_fixes_phi_of_zero(self):
        curve = ob.FourierCurve(a={2: 0.3, 5: -0.02}, b={3: 0.1, 4: -0.05})
        assert abs(float(curve.phi_inv(0.0))) < 1e-15

    def test_rejects_non_finite_coefficients(self):
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError):
                ob.FourierCurve(a={3: value})

    def test_random_curve_exhausts_rejection_budget(self, rng):
        with pytest.raises(ExhaustedRejection):
            ob.random_curve(rng, rho=50, max_tries=3)

    def test_max_index_covers_coefficients(self):
        curve = ob.FourierCurve(a={7: 0.01}, max_index=2)
        assert curve.max_index == 7


class TestValidation:
    def test_circle_passes_with_unit_minimum(self):
        report = ob.validate_curve(ob.FourierCurve())
        assert report.passed
        assert report.min_value == pytest.approx(1.0, abs=1e-15)

    def test_large_second_harmonic_rejected(self):
        # min of 1 + 2*0.6*cos(2t) is -0.2, attained where cos(2t) = -1
        with pytest.raises(RejectedCurve) as info:
            ob.validate_curve(ob.FourierCurve(a={2: 0.6}))
        err = info.value
        assert err.min_value == pytest.approx(-0.2, abs=1e-9)
        assert min(abs(err.argmin_t - np.pi / 2), abs(err.argmin_t - 3 * np.pi / 2)) < 1e-6

    def test_third_harmonic_margin(self):
        report = ob.validate_curve(ob.FourierCurve(a={3: 0.1}))
        assert report.min_value == pytest.approx(0.7, abs=1e-9)


class TestDecomposition:
    def test_zero_curve(self):
        prof = ob.decompose(ob.FourierCurve())
        assert not prof.f_coeffs and not prof.g_coeffs
        assert np.all(prof.f_values == 0.0) and np.all(prof.g_values == 0.0)

    def test_single_cosine_harmonic(self):
        prof = ob.decompose(ob.FourierCurve(b={3: 0.2}))
        t = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        assert np.allclose(prof.f(t), 0.2 * np.cos(3 * t), atol=1e-15)
        assert np.all(prof.g(t) == 0.0)
        assert abs(float(prof.f(np.pi / 2))) < 1e-15

    def test_parity_split(self):
        prof = ob.decompose(ob.FourierCurve(a={2: 0.1, 3: 0.05}))
        t = np.linspace(0.0, TWO_PI, 128, endpoint=False)
        assert np.allclose(prof.g(t), 0.1 * np.sin(2 * t), atol=1e-15)
        assert np.allclose(prof.f(t), 0.05 * np.sin(3 * t), atol=1e-15)
        assert np.max(np.abs(prof.f(t + np.pi) + prof.f(t))) < 1e-12

    def test_reconstructs_phi_inv(self, rng):
        curve = ob.random_curve(rng)
        prof = ob.decompose(curve)
        t = prof.t_grid
        recon = curve.c_offset + t + prof.f(t) + prof.g(t)
        assert np.max(np.abs(recon - curve.phi_inv(t))) < 1e-12


class TestInversion:
    def test_circle_identity(self):
        sampled = ob.invert_phi(ob.FourierCurve(), 1024)
        assert np.max(np.abs(sampled.phi - sampled.s_grid)) < 1e-12
        assert np.max(np.abs(sampled.kappa - 1.0)) < 1e-15

    def test_closure_against_dense_quadrature(self):
        # oracle: plain trapezoid on a million-point inversion
        curve = ob.FourierCurve(a={2: 0.1})
        dense = ob.invert_phi(curve, 1_000_000)
        for res in ob.closure_residuals(dense):
            assert res < 1e-8
        sampled = ob.invert_phi(curve, 2048)
        for res in ob.closure_residuals(sampled):
            assert res < 1e-8
        assert abs(ob.winding_integral(sampled) - TWO_PI) < 1e-8

    def test_curvature_positive_and_winding(self, rng):
        for _ in range(5):
            sampled = ob.invert_phi(ob.random_curve(rng), 2048)
            assert sampled.kappa.min() > 0.0
            assert abs(ob.winding_integral(sampled) - TWO_PI) < 1e-8
            for res in ob.closure_residuals(sampled):
                assert res < 1e-8

    def test_invalid_curve_raises_non_monotone(self):
        with pytest.raises(NonMonotone):
            ob.invert_phi(ob.FourierCurve(a={2: 0.6}), 512)

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_empty_grid_rejected(self, n_points):
        with pytest.raises(DomainError):
            ob.invert_phi(ob.FourierCurve(), n_points)


class TestTotalVariation:
    def test_zero_profile(self):
        assert ob.total_variation(ob.decompose(ob.FourierCurve())) == 0.0
        # even harmonics only: f vanishes identically
        assert ob.total_variation(ob.decompose(ob.FourierCurve(a={2: 0.2}))) == 0.0

    def test_single_harmonic_closed_form(self):
        # A*sin(nt) rises and falls 2n times by 2A over the period: V = 4*A*n
        prof = ob.decompose(ob.FourierCurve(a={3: 0.1}))
        assert ob.total_variation(prof) == pytest.approx(1.2, abs=1e-12)
        prof = ob.decompose(ob.FourierCurve(b={5: 0.02}))
        assert ob.total_variation(prof) == pytest.approx(0.4, abs=1e-12)

    def test_upper_bound_on_random_curves(self, rng):
        worst = 0.0
        for _ in range(50):
            v = ob.total_variation(ob.decompose(ob.random_curve(rng)))
            worst = max(worst, v)
        assert worst <= TWO_PI + 1e-9


class TestCriticalAngles:
    def test_sine_harmonic_zeros(self):
        zeros = ob.critical_angles(ob.decompose(ob.FourierCurve(a={3: 0.1})))
        assert zeros.size == 6
        assert np.allclose(zeros, np.arange(6) * np.pi / 3, atol=1e-10)

    def test_cosine_harmonic_zeros(self):
        zeros = ob.critical_angles(ob.decompose(ob.FourierCurve(b={3: 0.1})))
        assert zeros.size == 6
        assert np.allclose(zeros, np.pi / 6 + np.arange(6) * np.pi / 3, atol=1e-10)

    def test_degenerate_profile(self):
        with pytest.raises(DegenerateProfile):
            ob.critical_angles(ob.decompose(ob.FourierCurve(a={2: 0.2})))

    def test_random_curves_structure(self, rng):
        for _ in range(20):
            curve = ob.random_curve(rng)
            prof = ob.decompose(curve)
            if not prof.f_coeffs:
                continue
            zeros = ob.critical_angles(prof)
            assert zeros.size >= 6
            # zeros come in antipodal pairs
            shifted = np.sort((zeros + np.pi) % TWO_PI)
            assert np.max(np.abs(shifted - zeros)) < 1e-8
            # every half-open half-period holds at least three
            for t0 in (0.0, 0.35, 1.1, 2.7):
                inside = ((zeros - t0) % TWO_PI) < np.pi
                assert int(np.sum(inside)) >= 3


class TestProfileInvariants:
    def test_parity_and_first_harmonics(self, rng):
        t = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
        for _ in range(20):
            prof = ob.decompose(ob.random_curve(rng))
            f, g = prof.f(t), prof.g(t)
            half = len(t) // 2
            assert np.max(np.abs(f + np.roll(f, -half))) < 1e-12
            assert np.max(np.abs(g - np.roll(g, -half))) < 1e-12
            assert abs(np.mean(f * np.sin(t))) * TWO_PI < 1e-10
            assert abs(np.mean(f * np.cos(t))) * TWO_PI < 1e-10

    def test_f_prime_dominated_by_g_prime(self, rng):
        # |f'| <= 1 + g' pointwise for every valid curve
        t = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
        for _ in range(20):
            prof = ob.decompose(ob.random_curve(rng))
            assert np.max(np.abs(prof.f(t, deriv=1)) - 1.0 - prof.g(t, deriv=1)) < 1e-10
