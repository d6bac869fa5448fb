import numpy as np
import pytest

import ovalbound as ob
from ovalbound.checks import _random_triple as random_triple
from ovalbound.curves import TWO_PI
from ovalbound.errors import DegenerateAngles, DomainError
from ovalbound.projection import N_VECTOR, ConstantProjection, ProjectionData, \
    TwoExtremaPairs, direction_vector


class TestBuildProjection:
    def test_circle_constant_unit_projection(self, circle_state):
        curve, sol = circle_state
        data = ob.build_projection(curve, sol.psi)
        assert np.max(np.abs(data.I_values - 1.0)) < 1e-10
        assert isinstance(ob.classify_energy_projection(data), ConstantProjection)

    def test_axis_projection_matches_direct_integrals(self, mixed_state):
        from ovalbound.spectral import spectral_derivative
        curve, sol, data = mixed_state
        # V_0 = (0, 0, 1): the t = 0 slot is the plain y-projection, whose
        # integrals over s are taken in t with ds = rho dt and d/ds = d/dt / rho
        t = TWO_PI * np.arange(len(sol.psi)) / len(sol.psi)
        rho = curve.phi_inv(t, deriv=1)
        y = sol.psi * np.sin(t)
        assert float(direction_vector(0.0) @ data.X) == \
            pytest.approx(np.mean(rho * y**2) * TWO_PI, abs=1e-12)
        dy = spectral_derivative(y)
        assert data.I_at(0.0) == pytest.approx(
            np.mean(dy**2 / rho) / np.mean(rho * y**2), rel=1e-12)

    def test_pi_periodicity(self, mixed_state):
        *_, data = mixed_state
        half = len(data.t_grid) // 2
        assert np.max(np.abs(data.I_values - np.roll(data.I_values, -half))) < 1e-10

    def test_energy_equals_rayleigh_quotient(self, mixed_state):
        curve, sol, data = mixed_state
        t = TWO_PI * np.arange(2048) / 2048
        assert data.energy == pytest.approx(
            ob.rayleigh_quotient(curve, sol.psi_at(t)), abs=1e-10)
        assert data.energy == pytest.approx(sol.lam, abs=1e-9)

    def test_scalar_product_form_matches_direct_quadrature(self, mixed_state, rng):
        from ovalbound.spectral import spectral_derivative
        curve, sol, data = mixed_state
        # independent route: build each shadow h_t and integrate it directly,
        # weighted with rho = ds/dt
        t = TWO_PI * np.arange(len(sol.psi)) / len(sol.psi)
        rho = curve.phi_inv(t, deriv=1)
        x, y = sol.psi * np.cos(t), sol.psi * np.sin(t)
        for t0 in rng.uniform(0.0, TWO_PI, 5):
            h = x * np.sin(t0) - y * np.cos(t0)
            dh = spectral_derivative(h)
            direct = np.mean(dh**2 / rho) / np.mean(rho * h**2)
            assert data.I_at(float(t0)) == pytest.approx(direct, rel=1e-12)

    def test_lower_envelope_from_profile(self, mixed_state, rng):
        curve, sol, data = mixed_state
        prof = ob.decompose(curve)
        envelope = (1.0 + 2.0 * np.abs(prof.f(data.t_grid)) / np.pi) ** -2.0
        assert np.min(data.I_values - envelope) > 0.0

    def test_positive_psi_required(self, mixed_state):
        curve, sol, _ = mixed_state
        with pytest.raises(DomainError, match="positive"):
            ob.build_projection(curve, sol.psi - sol.psi.min() - 1e-6)

    def test_nan_psi_refused(self, mixed_state):
        # psi.min() is NaN, and NaN <= 0 is false; an inf entry passes
        # psi.min() > 0: energy once came out NaN for each
        curve, sol, _ = mixed_state
        for psi in (np.full(64, np.nan), np.where(np.arange(len(sol.psi)) == 5, np.nan, sol.psi),
                    np.where(np.arange(len(sol.psi)) == 5, np.inf, sol.psi)):
            with pytest.raises(DomainError, match="positive and finite"):
                ob.build_projection(curve, psi)


class TestThreeAngles:
    def test_right_angle_pair_weights(self):
        w = ob.three_angle_weights(0.7, 0.7 + np.pi / 2, 2.9)
        assert w.a == pytest.approx(1.0, abs=1e-12)
        assert w.b == pytest.approx(1.0, abs=1e-12)
        assert abs(w.c) < 1e-12

    def test_reconstruction_identity_explicit(self):
        w = ob.three_angle_weights(0.0, np.pi / 3, 2 * np.pi / 3)
        recon = w.a * direction_vector(0.0) + w.b * direction_vector(np.pi / 3) \
            + w.c * direction_vector(2 * np.pi / 3)
        assert np.max(np.abs(recon - N_VECTOR)) < 1e-14

    def test_degenerate_angles_rejected(self):
        with pytest.raises(DegenerateAngles):
            ob.three_angle_weights(0.3, 0.3 + np.pi + 1e-9, 1.0)

    @pytest.mark.parametrize("angles", [(0.1, np.nan, 2.0), (np.nan, np.nan, np.nan),
                                        (0.1, 1.0, np.nan), (np.nan, 1.0, 2.0)])
    def test_nan_angles_rejected(self, angles):
        with pytest.raises(DegenerateAngles):
            ob.three_angle_weights(*angles)

    def test_energy_reconstruction_circle(self, circle_state):
        curve, sol = circle_state
        data = ob.build_projection(curve, sol.psi)
        w = ob.three_angle_weights(0.2, 1.3, 2.6)
        assert ob.three_angle_energy(data, w) == pytest.approx(1.0, abs=1e-10)

    def test_energy_reconstruction_random(self, mixed_state, rng):
        *_, data = mixed_state
        for _ in range(50):
            w = ob.three_angle_weights(*random_triple(rng))
            assert ob.three_angle_energy(data, w) == \
                pytest.approx(data.energy, abs=1e-8)

    def test_energy_between_right_angle_pair(self, mixed_state, rng):
        *_, data = mixed_state
        e = data.energy
        for alpha in rng.uniform(0.0, TWO_PI, 50):
            lo = min(data.I_at(alpha), data.I_at(alpha + np.pi / 2))
            hi = max(data.I_at(alpha), data.I_at(alpha + np.pi / 2))
            assert lo - 1e-12 <= e <= hi + 1e-12


class TestClassification:
    def test_three_fold_symmetric_curve_is_constant(self):
        # a single n = 3 harmonic gives a curve with three-fold rotational
        # symmetry, which forces isotropic moment tensors and a constant
        # projection equal to the eigenvalue
        curve = ob.FourierCurve(b={3: 0.1})
        sol = ob.ground_state(curve, n_modes=96, check_convergence=False)
        data = ob.build_projection(curve, sol.psi)
        shape = ob.classify_energy_projection(data)
        assert isinstance(shape, ConstantProjection)
        assert shape.value == pytest.approx(sol.lam, abs=1e-10)
        # critical angles still see a projection no smaller than one
        zeros = ob.critical_angles(ob.decompose(curve))
        assert min(data.I_at(z) for z in zeros) >= 1.0 - 1e-8

    def test_mixed_curve_two_extrema(self, mixed_state):
        *_, data = mixed_state
        shape = ob.classify_energy_projection(data)
        assert isinstance(shape, TwoExtremaPairs)
        # dense-scan oracle: the cyclic finite difference changes sign twice
        half = data.I_values[:len(data.t_grid) // 2]
        d = np.diff(half, append=half[0])
        signs = np.sign(d)
        signs = signs[signs != 0]
        assert int(np.sum(signs != np.roll(signs, -1))) == 2
        # refined locations reproduce the grid extrema
        assert data.I_at(shape.t_max) >= half.max() - 1e-9
        assert data.I_at(shape.t_min) <= half.min() + 1e-9

    @pytest.mark.parametrize("fixture", ["mixed_state", "designed_projection"])
    def test_closed_forms_are_exact(self, fixture, request):
        data = request.getfixturevalue(fixture)[-1]
        shape = ob.classify_energy_projection(data)
        dense = data.I_at(np.linspace(0.0, np.pi, 100_000, endpoint=False))
        assert data.I_at(shape.t_max) >= dense.max() - 1e-14
        assert data.I_at(shape.t_min) <= dense.min() + 1e-14
        t_lam = ob.lambda_equal_point(data)
        assert abs(data.I_at(t_lam) - data.I_at(t_lam + np.pi / 2)) < 1e-12

    def test_exact_circle_moments_are_constant(self):
        # q = r = 0 in both moment vectors makes R = 0 exactly
        X = np.array([np.pi, 0.0, np.pi])
        data = ProjectionData(X, X, np.zeros(1), np.ones(1))
        assert ob.classify_energy_projection(data) == ConstantProjection(1.0)
        assert ob.lambda_equal_point(data) == 0.0

    def test_random_curves_classify_cleanly(self, rng):
        for _ in range(10):
            curve = ob.random_curve(rng)
            sol = ob.ground_state(curve, n_modes=96, check_convergence=False)
            data = ob.build_projection(curve, sol.psi)
            shape = ob.classify_energy_projection(data)
            assert isinstance(shape, (ConstantProjection, TwoExtremaPairs))


class TestDesignedProjection:
    def test_dips_below_one(self, designed_projection):
        *_, data = designed_projection
        assert data.I_values.min() < 1.0 < data.I_values.max()

    def test_exactly_four_unit_crossings(self, designed_projection):
        *_, data = designed_projection
        z = data.I_values - 1.0
        crossings = np.where(np.sign(z) != np.sign(np.roll(z, -1)))[0]
        assert crossings.size == 4
        # crossings pair up at distance pi
        t = data.t_grid[crossings]
        first, second = t[:2], t[2:]
        assert np.allclose(second - first, np.pi, atol=2 * TWO_PI / len(data.t_grid))

    def test_still_single_extrema_pair(self, designed_projection):
        *_, data = designed_projection
        assert isinstance(ob.classify_energy_projection(data), TwoExtremaPairs)

    def test_critical_angles_keep_unit_floor(self, designed_projection):
        # zeros of the odd profile guarantee I >= 1 for any positive psi
        curve, *_ , data = designed_projection
        zeros = ob.critical_angles(ob.decompose(curve))
        assert min(data.I_at(z) for z in zeros) >= 1.0 - 1e-8

    def test_envelope_holds_for_arbitrary_psi(self, designed_projection):
        curve, *_, data = designed_projection
        prof = ob.decompose(curve)
        envelope = (1.0 + 2.0 * np.abs(prof.f(data.t_grid)) / np.pi) ** -2.0
        assert np.min(data.I_values - envelope) > -1e-9


class TestEqualPoint:
    def test_mixed_curve_matches_eigenvalue(self, mixed_state):
        _, sol, data = mixed_state
        t_lam = ob.lambda_equal_point(data)
        assert 0.0 <= t_lam < np.pi / 2
        assert abs(data.I_at(t_lam) - sol.lam) < 1e-6

    def test_reflection_symmetric_curve_balances_at_quarter(self):
        # sine-only coefficients give a curve with a mirror symmetry, making
        # the projection an even function of t; the equal-split angle is then
        # pi/4 exactly
        curve = ob.FourierCurve(a={2: 0.1, 3: 0.05})
        sol = ob.ground_state(curve, n_modes=96, check_convergence=False)
        data = ob.build_projection(curve, sol.psi)
        t_lam = ob.lambda_equal_point(data)
        assert abs(t_lam - np.pi / 4) < 1e-9

    def test_circle_returns_zero(self, circle_state):
        curve, sol = circle_state
        data = ob.build_projection(curve, sol.psi)
        assert ob.lambda_equal_point(data) == 0.0

    def test_designed_projection_consistent(self, designed_projection):
        *_, data = designed_projection
        t_lam = ob.lambda_equal_point(data)
        assert abs(data.I_at(t_lam) - data.I_at(t_lam + np.pi / 2)) < 1e-9
        assert abs(data.I_at(t_lam) - data.energy) < 1e-6
