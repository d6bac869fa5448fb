import numpy as np
import pytest

import ovalbound as ob
from ovalbound import curves
from ovalbound.cli import parse_curve_json
from ovalbound.curves import (TWO_PI, spectral_derivative, trig_coefficients, trig_roots,
                              trig_series)
from ovalbound.errors import (DegenerateProfile, ExhaustedRejection, NonMonotone,
                              OvalboundError, RejectedCurve)


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

    def test_analyse_then_evaluate_between_samples(self):
        # the interpolant of samples of a polynomial the grid resolves is that polynomial
        s = TWO_PI * np.arange(256) / 256
        u = 0.3 + np.cos(2 * s) - 0.2 * np.sin(5 * s)
        probe = np.array([0.1, 1.7, 4.4, s[7]])
        expected = 0.3 + np.cos(2 * probe) - 0.2 * np.sin(5 * probe)
        assert np.allclose(trig_series(*trig_coefficients(u), probe), expected, atol=1e-12)

    @pytest.mark.parametrize("x", [64, "off-grid", "few-points"])
    def test_orders_in_one_pass_match_single_orders(self, rng, x):
        cos, sin = self.decaying(rng, 20)
        x = {"off-grid": rng.uniform(0.0, TWO_PI, 300),
             "few-points": rng.uniform(0.0, TWO_PI, 5)}.get(x, x)
        single = np.stack([trig_series(cos, sin, x, deriv) for deriv in (0, 1, 2)])
        assert np.array_equal(trig_series(cos, sin, x, (0, 1, 2)), single)

    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("top", ["below", "half", "above", "past-n"])
    def test_grid_around_half_the_grid(self, rng, n, top):
        # the top harmonic below n/2 (every harmonic its own bin), at n//2 (for
        # even n the Nyquist cosine), just above n/2 and past n (both summed at
        # the grid's points)
        top = {"below": n // 2 - 1, "half": n // 2, "above": n // 2 + 1, "past-n": 3 * n + 2}[top]
        cos, sin = self.decaying(rng, top)
        k = np.arange(top + 1)
        arg = np.outer(TWO_PI * np.arange(n) / n, k)
        direct = np.stack([np.cos(arg) @ cos + np.sin(arg) @ sin,
                           np.cos(arg) @ (k * sin) - np.sin(arg) @ (k * cos),
                           -(np.cos(arg) @ (k**2 * cos) + np.sin(arg) @ (k**2 * sin))])
        together = trig_series(cos, sin, n, (0, 1, 2))
        assert np.max(np.abs(together - direct)) < 1e-13
        assert np.array_equal(together, np.stack([trig_series(cos, sin, n, d) for d in (0, 1, 2)]))

    def test_lone_nyquist_harmonic(self):
        # on 64 points cos 32x_j = (-1)^j and sin 32x_j = 0, so only the cosine
        # shows, and only the sine in the derivative
        cos, sin = np.zeros(33), np.zeros(33)
        cos[32], sin[32] = 0.7, -0.3
        values, slopes = trig_series(cos, sin, 64, (0, 1))
        alternating = (-1.0) ** np.arange(64)
        assert np.max(np.abs(values - 0.7 * alternating)) < 1e-15
        assert np.max(np.abs(slopes + 0.3 * 32 * alternating)) < 1e-13

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


class TestSpectralDerivative:
    @pytest.mark.parametrize("n", [64, 65])
    def test_matches_the_coefficient_route(self, rng, n):
        u = rng.standard_normal(n)
        route = trig_series(*trig_coefficients(u), n, deriv=1)
        assert np.max(np.abs(spectral_derivative(u) - route)) <= 1e-13 * np.max(np.abs(route))

    def test_lone_nyquist_cosine(self):
        # the interpolant of (-1)^j on 64 points is cos 32t, whose derivative vanishes there
        u = 0.7 * (-1.0) ** np.arange(64)
        assert np.max(np.abs(spectral_derivative(u))) < 1e-15
        assert np.max(np.abs(trig_series(*trig_coefficients(u), 64, deriv=1))) < 1e-15

    def test_top_harmonic_of_an_odd_grid(self):
        # on 65 points harmonic 32 is the top one, with a sine that shows on the grid
        t = TWO_PI * np.arange(65) / 65
        u = np.cos(32 * t) - 0.5 * np.sin(32 * t)
        exact = -32 * np.sin(32 * t) - 16 * np.cos(32 * t)
        assert np.max(np.abs(spectral_derivative(u) - exact)) < 1e-12


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

    def test_random_curve_exhausts_rejection_budget(self, rng, monkeypatch):
        monkeypatch.setattr(curves, "RANDOM_RHO", 50.0)
        monkeypatch.setattr(curves, "MAX_TRIES", 3)
        with pytest.raises(ExhaustedRejection):
            ob.random_curve(rng)

    def test_offset_is_derived(self):
        # C = -sum b_n is what makes phi(0) = 0; it cannot be passed in
        with pytest.raises(TypeError):
            ob.FourierCurve(a={2: 0.1}, c_offset=3.0)
        # and it does not depend on the order the harmonics are listed in
        assert ob.FourierCurve(b={2: 0.1, 3: 0.2, 4: 0.3}) \
            == ob.FourierCurve(b={4: 0.3, 3: 0.2, 2: 0.1})

    @pytest.mark.parametrize("kwargs", [{"a": {4096: 1e-5}}, {"b": {2048: 1e-5}},
                                        {"max_index": 10**15}, {"max_index": 2048}],
                         ids=["a-4096", "b-2048", "max-index-huge", "max-index-2048"])
    def test_harmonic_cap(self, kwargs):
        # the largest solve grid has 8 * MAX_MODES points: harmonic 4 * MAX_MODES
        # and above fold onto lower harmonics there
        with pytest.raises(ValueError, match="alias"):
            ob.FourierCurve(**kwargs)
        assert ob.FourierCurve(a={2047: 1e-9}).max_index == curves.MAX_HARMONIC - 1

    @pytest.mark.parametrize("max_index", [True, False, 2.5, 3.0, "3"])
    def test_max_index_must_be_an_integer(self, max_index):
        # a bool would pass operator.index as 1 or 0
        with pytest.raises(TypeError, match="max_index"):
            ob.FourierCurve(a={2: 0.1}, max_index=max_index)

    @pytest.mark.parametrize("max_index", [-5, 0, 1])
    def test_max_index_below_two_refused(self, max_index):
        # no admissible harmonic lies below 2; such a value was once read as 2
        with pytest.raises(ValueError, match="max_index"):
            ob.FourierCurve(max_index=max_index)

    def test_max_index_covers_coefficients(self):
        curve = ob.FourierCurve(a={7: 0.01}, max_index=2)
        assert curve.max_index == 7


class TestFromSeries:
    @pytest.mark.parametrize("max_index", range(2, 31))
    def test_round_trip_on_random_curves(self, rng, max_index):
        curve = ob.random_curve(rng, max_index=max_index)
        assert ob.FourierCurve.from_series(curve._series) == curve

    def test_round_trip_keeps_a_curve_files_larger_max_index(self):
        curve = parse_curve_json('{"max_index": 9, "a": {"2": 0.05}, "b": {"4": -0.01}}')
        back = ob.FourierCurve.from_series(curve._series)
        assert back == curve and back.max_index == 9
        assert np.array_equal(back._series, curve._series)

    @pytest.mark.parametrize("series", [
        [[0.0, 0.0, 0.1], [0.0, 0.0, np.nan]],
        [[0.0, 0.0, np.inf], [0.0, 0.0, 0.0]],
        [[0.5, 0.0, 0.1], [0.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.0], [0.0, 0.1, 0.0]],
        np.zeros((2, curves.MAX_HARMONIC + 1)),
        np.zeros(5), np.zeros((3, 5)), np.zeros((1, 5)), np.zeros((2, 5, 2)),
        np.zeros((2, 0)), np.zeros((2, 1)), np.zeros((2, 2)),
    ], ids=["nan", "inf", "column-0", "column-1", "max-harmonic",
            "1-d", "three-rows", "one-row", "3-d", "k-minus-1", "k-0", "k-1"])
    def test_refusals_are_the_dict_constructors(self, series):
        with pytest.raises(ValueError):
            ob.FourierCurve.from_series(series)

    @pytest.mark.parametrize("seed", range(10))
    def test_pi_periodic_part_is_the_even_harmonics(self, seed):
        # the reference is the curve's even harmonics, filtered from its dicts
        curve = ob.random_curve(np.random.default_rng(seed))
        filtered = ob.FourierCurve(a={n: v for n, v in curve.a.items() if n % 2 == 0},
                                   b={n: v for n, v in curve.b.items() if n % 2 == 0})
        assert ob.FourierCurve.from_series(ob.decompose(curve).g_series) == filtered

    @pytest.mark.parametrize("max_index", [2, 6, 8, 12])
    def test_random_curve_draw_stream(self, max_index):
        # one draw per coefficient, every a_n then every b_n, on each try: every
        # verify report and the lambda_batch benchmark curves depend on this stream
        bounds = [curves.RANDOM_RHO / n**2 for n in range(2, max_index + 1)]
        for seed in range(20):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            curve = ob.random_curve(rng, max_index=max_index)
            while True:
                a = {n: ref_rng.uniform(-h, h) for n, h in enumerate(bounds, 2)}
                b = {n: ref_rng.uniform(-h, h) for n, h in enumerate(bounds, 2)}
                ref = ob.FourierCurve(a=a, b=b, max_index=max_index)
                try:
                    ob.validate_curve(ref)
                    break
                except RejectedCurve:
                    continue
            assert curve == ref
            assert rng.random() == ref_rng.random()  # and the stream is left where it was


class TestValidation:
    def test_circle_passes_with_unit_minimum(self):
        report = ob.validate_curve(ob.FourierCurve())
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

    def test_minimum_is_exact_on_many_harmonics(self):
        # oracle: the least value of (phi^-1)' over the roots of (phi^-1)''
        rng = np.random.default_rng(0)
        for _ in range(50):
            curve = ob.random_curve(rng, max_index=30)
            k = np.arange(curve.max_index + 1)
            cos, sin = np.zeros(k.size), np.zeros(k.size)
            cos[list(curve.b)], sin[list(curve.a)] = list(curve.b.values()), list(curve.a.values())
            angles, _ = trig_roots(-k**2 * cos, -k**2 * sin)
            exact = float(np.min(curve.phi_inv(angles, deriv=1)))
            assert abs(ob.validate_curve(curve).min_value - exact) <= 1e-12


@pytest.mark.parametrize("call", [
    lambda: ob.validate_curve(ob.FourierCurve(a={2: 1e308})),  # 2e308 overflows the scan
    lambda: ob.validate_curve(ob.FourierCurve(b={1000: 1e305})),  # and 1e311 the polish
    lambda: ob.rayleigh_quotient(ob.FourierCurve(), np.array([])),
    lambda: ob.rayleigh_quotient(ob.FourierCurve(), np.ones((4, 64))),
    lambda: ob.build_projection(ob.FourierCurve(), np.array([])),
    lambda: ob.build_projection(ob.FourierCurve(), np.ones((4, 64))),
    lambda: ob.FourierCurve().phi_inv(0),
    lambda: ob.FourierCurve().phi_inv(-3),
], ids=["scan-overflows", "polish-overflows", "rayleigh-empty", "rayleigh-2-d",
        "projection-empty", "projection-2-d", "grid-0", "grid-negative"])
def test_bad_input_raises_a_library_error(call):
    # each once ended in a numpy warning or error, or passed validation with min_value inf
    with pytest.raises(OvalboundError):
        call()


class TestDecomposition:
    def test_zero_curve(self):
        prof = ob.decompose(ob.FourierCurve())
        assert not prof.f_series.any() and not prof.g_series.any()
        t = np.linspace(0.0, TWO_PI, 512, endpoint=False)
        assert np.all(prof.f(t) == 0.0) and np.all(prof.g(t) == 0.0)

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

    def test_int_means_the_uniform_grid(self, rng):
        # an int n is the grid 2*pi*j/n, as in phi_inv, and a float is one point
        prof = ob.decompose(ob.random_curve(rng))
        t = TWO_PI * np.arange(1024) / 1024
        for part in (prof.f, prof.g):
            for n in (1024, np.int64(1024)):
                assert np.max(np.abs(part(n) - part(t))) < 1e-14
                assert np.max(np.abs(part(n, 1) - part(t, 1))) < 1e-13
            point = part(1024.0)
            assert np.ndim(point) == 0 and point == part(np.array([1024.0]))[0]

    def test_reconstructs_phi_inv(self, rng):
        curve = ob.random_curve(rng)
        prof = ob.decompose(curve)
        t = np.linspace(0.0, TWO_PI, 512, endpoint=False)
        recon = curve.c_offset + t + prof.f(t) + prof.g(t)
        assert np.max(np.abs(recon - curve.phi_inv(t))) < 1e-12


def closure_and_length(curve, n):
    """int cos phi ds, int sin phi ds and int ds as sums on the uniform n-point
    t-grid, with ds = rho dt: 0, 0 and 2*pi for a closed curve that winds once."""
    t = TWO_PI * np.arange(n) / n
    rho = curve.phi_inv(n, deriv=1)
    return tuple(TWO_PI * np.mean(rho * [np.cos(t), np.sin(t), np.ones(n)], axis=1))


class TestInversion:
    """phi^-1 as a map from tangent angle to arc length; the package never inverts it."""

    def test_circle_identity(self):
        t = TWO_PI * np.arange(1024) / 1024
        curve = ob.FourierCurve()
        assert np.max(np.abs(curve.phi_inv(1024) - t)) < 1e-12
        assert np.max(np.abs(1.0 / curve.phi_inv(1024, deriv=1) - 1.0)) < 1e-15

    def test_closure_against_dense_quadrature(self):
        # oracle: adaptive quadrature of rho e^{it}, off any grid
        from scipy.integrate import quad

        curve = ob.FourierCurve(a={2: 0.1}, b={3: 0.05})
        for trig in (np.cos, np.sin):
            exact = quad(lambda t: curve.phi_inv(t, deriv=1) * trig(t), 0.0, TWO_PI)[0]
            assert abs(exact) < 1e-12
        closure_cos, closure_sin, length = closure_and_length(curve, 2048)
        assert abs(closure_cos) < 1e-12 and abs(closure_sin) < 1e-12
        assert abs(length - TWO_PI) < 1e-12

    def test_curvature_positive_and_winding(self, rng):
        for _ in range(5):
            curve = ob.random_curve(rng)
            assert curve.phi_inv(2048, deriv=1).min() > 0.0  # kappa = 1/rho > 0
            closure_cos, closure_sin, length = closure_and_length(curve, 2048)
            assert abs(length - TWO_PI) < 1e-12
            assert abs(closure_cos) < 1e-12 and abs(closure_sin) < 1e-12

    def test_invalid_curve_raises_non_monotone(self):
        # (phi^-1)' = 1 + 1.2 cos 2t is negative near pi/2: every solve on a
        # t-grid refuses the curve before it divides by rho
        curve = ob.FourierCurve(a={2: 0.6})
        for solve in (ob.ground_state, ob.fd_reference_lambda,
                      lambda c: ob.rayleigh_quotient(c, np.ones(512)),
                      lambda c: ob.build_projection(c, np.ones(512))):
            with pytest.raises(NonMonotone):
                solve(curve)


class TestTotalVariation:
    def test_zero_profile(self):
        assert ob.total_variation(ob.decompose(ob.FourierCurve())) == 0.0
        # even harmonics only: f vanishes identically
        assert ob.total_variation(ob.decompose(ob.FourierCurve(a={2: 0.2}))) == 0.0

    def test_single_harmonic_closed_form(self):
        # A*sin(nt) rises and falls 2n times by 2A over the period: V = 4*A*n;
        # an even max_index leaves f's series ending in zero harmonics, and
        # f' = -0.1*sin(5t) has a zero at t = 0
        for max_index in (5, 8):
            prof = ob.decompose(ob.FourierCurve(a={3: 0.1}, max_index=max_index))
            assert ob.total_variation(prof) == pytest.approx(1.2, abs=1e-12)
            prof = ob.decompose(ob.FourierCurve(b={5: 0.02}, max_index=max_index))
            assert ob.total_variation(prof) == pytest.approx(0.4, abs=1e-12)


class TestCriticalAngles:
    def test_sine_harmonic_zeros(self):
        # an even max_index leaves f's series ending in zero harmonics; the
        # zero at t = 0 must come out as 0, first, and not near 2*pi.
        # 0.1*sin(3t) - 0.005*sin(9t) = sin(3t)*(0.085 + 0.02*sin(3t)**2)
        for a, max_index in (({3: 0.1}, 3), ({3: 0.1}, 6), ({3: 0.1, 9: -0.005}, 10)):
            zeros = ob.critical_angles(ob.decompose(ob.FourierCurve(a=a, max_index=max_index)))
            assert zeros.size == 6
            assert zeros[0] == 0.0
            assert np.allclose(zeros, np.arange(6) * np.pi / 3, atol=1e-10)

    def test_cosine_harmonic_zeros(self):
        for max_index in (3, 6):
            zeros = ob.critical_angles(ob.decompose(ob.FourierCurve(b={3: 0.1},
                                                                    max_index=max_index)))
            assert zeros.size == 6
            assert np.allclose(zeros, np.pi / 6 + np.arange(6) * np.pi / 3, atol=1e-10)

    def test_tangential_zeros_counted_with_multiplicity(self):
        # f = 0.04*sin(4t)*cos(t): sin(4t) vanishes at k*pi/4, and cos(t)
        # doubles the zeros at pi/2 and 3*pi/2, where f keeps its sign
        prof = ob.decompose(ob.FourierCurve(a={3: 0.02, 5: 0.02}))
        zeros = ob.critical_angles(prof)
        expected = np.sort(np.concatenate([np.arange(8) * np.pi / 4, [np.pi / 2, 3 * np.pi / 2]]))
        assert zeros.size == 10
        assert np.allclose(zeros, expected, atol=1e-6)
        # oracle: the cyclic sum of |df| on a million-point grid
        f = prof.f(np.linspace(0.0, TWO_PI, 1_000_000, endpoint=False))
        assert ob.total_variation(prof) == pytest.approx(
            np.sum(np.abs(f - np.roll(f, 1))), abs=1e-9)

    def test_degenerate_profile(self):
        with pytest.raises(DegenerateProfile):
            ob.critical_angles(ob.decompose(ob.FourierCurve(a={2: 0.2})))

    def test_structure_with_a_root_at_zero(self):
        # f vanishes at t = 0, where a root's angle can round up to 2*pi; the
        # verify suite checks the count, pairing and windows on random curves
        zeros = ob.critical_angles(ob.decompose(ob.FourierCurve(a={3: 0.1},
                                                                b={3: 0.01, 5: -0.01})))
        assert zeros.size >= 6
        assert 0.0 <= zeros[0] and zeros[-1] < TWO_PI
        # zeros come in antipodal pairs
        shifted = np.sort((zeros + np.pi) % TWO_PI)
        assert np.max(np.abs(shifted - zeros)) < 1e-8
        # every half-open half-period holds at least three
        for t0 in (0.0, 0.35, 1.1, 2.7):
            inside = ((zeros - t0) % TWO_PI) < np.pi
            assert int(np.sum(inside)) >= 3
