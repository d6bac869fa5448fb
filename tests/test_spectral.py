import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ovalbound as ob
from ovalbound import spectral
from ovalbound.curves import TWO_PI
from ovalbound.errors import ConvergenceFailure, DomainError, NonMonotone, ZeroFunction
from ovalbound.spectral import (_fd_richardson, _fd_smallest, _finish, _galerkin, _lanczos,
                                _mass, _reduce, _ring_solve, _symmetry)

# Frozen reference eigenvalues from a finite-difference oracle in arc length
# (8192/16384 grids, Richardson-extrapolated).
LAMBDA_A2 = 1.000151520959517
LAMBDA_B3 = 1.026491458012025


class TestCircle:
    def test_unit_eigenvalue_constant_eigenfunction(self, circle_state):
        _, sol = circle_state
        assert sol.lam == pytest.approx(1.0, abs=1e-9)
        assert np.std(sol.psi) < 1e-10
        assert sol.psi.min() > 0.0
        assert sol.residual < 1e-8

    def test_normalization(self, circle_state, mixed_state):
        # int psi^2 ds = int rho psi^2 dt on the solve's t-grid
        for curve, sol, *_ in (circle_state, mixed_state):
            rho = curve.phi_inv(TWO_PI * np.arange(len(sol.psi)) / len(sol.psi), deriv=1)
            assert np.mean(rho * sol.psi**2) * TWO_PI == pytest.approx(1.0, abs=1e-12)


#: The Rayleigh checks' uniform t-grid.
T_GRID = TWO_PI * np.arange(2048) / 2048


class TestRayleighQuotient:
    def test_constant_on_circle(self):
        assert ob.rayleigh_quotient(ob.FourierCurve(), np.ones(2048)) == \
            pytest.approx(1.0, abs=1e-13)

    def test_first_harmonic_perturbation_closed_form(self):
        # psi = 1 + 0.1 cos s on the circle, where s = t:
        #   int psi'^2 = 0.01*pi, int psi^2 = int kappa^2 psi^2 = 2.01*pi,
        # so the quotient is 2.02/2.01 exactly.
        psi = 1.0 + 0.1 * np.cos(T_GRID)
        assert ob.rayleigh_quotient(ob.FourierCurve(), psi) == \
            pytest.approx(2.02 / 2.01, abs=1e-13)

    def test_ground_state_is_stationary(self, mixed_state):
        curve, sol, _ = mixed_state
        assert ob.rayleigh_quotient(curve, sol.psi_at(T_GRID)) == \
            pytest.approx(sol.lam, abs=1e-9)

    def test_zero_function_rejected(self):
        # a NaN or inf norm has no quotient either: each once came out NaN
        for psi in (np.zeros(2048), np.full(2048, np.nan),
                    np.where(np.arange(256) == 3, np.inf, 1.0)):
            with pytest.raises(ZeroFunction):
                ob.rayleigh_quotient(ob.FourierCurve(), psi)


class TestGroundState:
    def test_pi_periodic_curvature_frozen_value(self):
        curve = ob.FourierCurve(a={2: 0.1})
        sol = ob.ground_state(curve, n_modes=96, check_convergence=False)
        assert sol.lam == pytest.approx(LAMBDA_A2, abs=1e-9)
        assert sol.lam >= 1.0 - 1e-8

    def test_odd_harmonic_frozen_value(self):
        curve = ob.FourierCurve(b={3: 0.1})
        sol = ob.ground_state(curve, n_modes=96, check_convergence=False)
        assert sol.lam == pytest.approx(LAMBDA_B3, abs=1e-9)
        assert sol.lam > 0.81
        assert abs(sol.lam - ob.fd_reference_lambda(curve)) < 1e-7

    def test_psi_positive_and_residual(self, mixed_state):
        _, sol, _ = mixed_state
        assert sol.psi.min() > 0.0
        assert sol.residual < 1e-8

    def test_variational_consistency(self, mixed_state, rng):
        curve, sol, _ = mixed_state
        s = curve.phi_inv(T_GRID)  # the arc length at each t
        for _ in range(100):
            coef = 0.1 * rng.standard_normal(4)
            psi = sol.psi_at(T_GRID) + coef[0] * np.cos(s) + coef[1] * np.sin(s) \
                + coef[2] * np.cos(3 * s) + coef[3]
            assert ob.rayleigh_quotient(curve, psi) >= sol.lam - 1e-9

    @pytest.mark.parametrize("check_convergence", [False, True])
    @pytest.mark.parametrize("n_modes", [0, -3])
    def test_empty_basis_refused(self, n_modes, check_convergence):
        # an empty basis would give a one-point psi and lam = 1, where the
        # one-harmonic basis gives 1.0483
        with pytest.raises(DomainError, match="n_modes"):
            ob.ground_state(ob.FourierCurve(a={3: 0.1}), n_modes=n_modes,
                            check_convergence=check_convergence)

    def test_convergence_failure_at_mode_cap(self):
        # min (phi^-1)' = 1.9e-3: the eigenvector's tail is still unresolved at 512 modes
        with pytest.raises(ConvergenceFailure, match="512-mode cap"):
            ob.ground_state(ob.FourierCurve(a={3: 0.3327}))

    @pytest.mark.parametrize("amp", [0.5, 0.34, 1 / 3])
    def test_non_convex_curve_refused(self, amp):
        # (phi^-1)' = 1 + 3 amp cos 3t dips below zero, or touches it at t = pi,
        # a point of every solve grid: refused before 1/rho is formed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonMonotone):
                ob.ground_state(ob.FourierCurve(a={3: amp}))

    def test_largest_solve_memory(self):
        # the solve holds K, 1025 x 1025 at 512 modes and factored in place, and
        # little more: M is applied without being formed.  Harmonics 2 and 5
        # share no factor, so the basis is not reduced.
        spectral._lapack()  # the LAPACK extension's one-time load is not counted

        curve = ob.FourierCurve(a={2: 0.01, 5: 0.19})
        tracemalloc.start()
        try:
            sol = ob.ground_state(curve, n_modes=512, check_convergence=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.n_modes == 512
        assert peak <= 2 * 8 * 1025**2

    def test_basis_grows_to_what_the_tail_needs(self):
        # psi's tail reaches past harmonic 128 at 256 modes but stops short of
        # 160: the basis grows to 320 modes, not to the next power of two
        sol = ob.ground_state(ob.FourierCurve(a={5: 0.19}))
        assert sol.n_modes == 320
        assert sol.residual < 1e-8

    def test_oracle_agreement_sample(self, rng):
        for _ in range(3):
            curve = ob.random_curve(rng)
            sol = ob.ground_state(curve, n_modes=128, check_convergence=False)
            assert abs(sol.lam - ob.fd_reference_lambda(curve)) < 1e-7


def dense_pencil(curve, m):
    """K from _galerkin, made symmetric, and M summed on the 8m-point grid
    from the basis functions themselves, both scaled by 2/pi."""
    n = 8 * m
    t = TWO_PI * np.arange(n) / n
    rho = curve.phi_inv(t, deriv=1)
    lower = _galerkin(1.0 / rho, m)
    stiff = lower + np.tril(lower, -1).T
    k = np.arange(1, m + 1)
    basis = np.hstack([np.cos(np.outer(t, np.arange(m + 1))), np.sin(np.outer(t, k))])
    return stiff, 4.0 / n * basis.T @ (rho[:, None] * basis)


class TestLanczosSolve:
    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_matches_dense_generalized_eigensolve(self, m):
        from scipy.linalg import eigh

        curve = ob.FourierCurve(a={2: 0.1, 5: 0.02}, b={3: 0.1})
        lams, vecs = eigh(*dense_pencil(curve, m))
        lam, series, rho = _lanczos(_reduce(curve), m)
        assert abs(lam - lams[0]) <= 1e-13 * lams[0]
        # g = 1: ground_state passes this rho to _finish in place of phi_inv's
        assert np.array_equal(rho, curve.phi_inv(8 * m, deriv=1))
        # the grid Rayleigh quotient of the returned basis is the same number
        assert abs(_finish(curve.phi_inv(8 * m, deriv=1), series)[0] - lam) <= 1e-13 * lam
        vec = np.delete(series.ravel(), m + 1)
        dense = vecs[:, 0] * np.sign(vecs[0, 0] * vec[0])
        vec, dense = vec / np.linalg.norm(vec), dense / np.linalg.norm(dense)
        assert np.max(np.abs(vec - dense)) <= 1e-13

    def test_circle_is_exact(self):
        for m in (4, 64):
            lam, series, _ = _lanczos(_reduce(ob.FourierCurve()), m)
            assert abs(lam - 1.0) <= 1e-15
            assert abs(_finish(np.ones(8 * m), series)[0] - 1.0) <= 1e-15
        assert abs(ob.ground_state(ob.FourierCurve()).lam - 1.0) <= 1e-15

    @pytest.mark.parametrize("curve", [ob.FourierCurve(a={3: 0.3}),
                                       ob.FourierCurve(a={2: 0.05, 60: 3e-4}, b={3: 0.02})],
                             ids=["near_degenerate", "high_harmonic"])
    def test_warm_start_matches_cold_solve(self, curve):
        # ground_state starts every solve after the first from the previous psi
        sol = ob.ground_state(curve)
        _, series, _ = _lanczos(_reduce(curve), sol.n_modes)
        lam, psi, residual = _finish(curve.phi_inv(8 * sol.n_modes, deriv=1), series)
        psi = psi if series[0, 0] > 0.0 else -psi
        assert abs(sol.lam - lam) <= 1e-14 * lam
        assert abs(sol.residual - residual) <= 1e-12
        assert np.max(np.abs(sol.psi - psi)) <= 1e-13

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 1)
        with pytest.raises(ConvergenceFailure, match="Lanczos"):
            _lanczos(_reduce(ob.FourierCurve(a={2: 0.1}, b={3: 0.1})), 32)


class TestSymmetricSolve:
    """A curve whose harmonics share the factor g is solved on the harmonics
    gk alone, in u = gt, with M applied from rho's coefficients."""

    @pytest.mark.parametrize("coeffs, g", [({"a": {2: 0.1}}, 2), ({"b": {3: 0.2}}, 3),
                                           ({"a": {5: 0.15}, "b": {10: 0.002}}, 5),
                                           ({"a": {6: 0.1}, "b": {12: 0.004}}, 6),
                                           ({"a": {2: 0.1, 4: 0.02}, "b": {6: 0.01}}, 2),
                                           ({}, 1)],
                             ids=["g2", "g3", "g5", "g6", "g2-mixed", "circle"])
    def test_reduced_solve_matches_full_pencil(self, coeffs, g):
        from scipy.linalg import eigvalsh

        curve = ob.FourierCurve(**coeffs)
        assert _symmetry(curve) == g
        m = 64
        full = eigvalsh(*dense_pencil(curve, m))[0]
        lam, series, _ = _lanczos(_reduce(curve), m)
        assert abs(lam - full) <= 1e-13 * full
        # the series lives on the harmonics gk only
        assert not np.delete(series, np.s_[::g], axis=1).any()
        assert abs(_finish(curve.phi_inv(8 * m, deriv=1), series)[0] - lam) <= 1e-13 * lam

    def test_constant_alone(self):
        # g = 1000 > 512 leaves only the constant: lam = int kappa dt / int rho dt
        curve = ob.FourierCurve(a={1000: 2e-4})
        lam, series, _ = _lanczos(_reduce(curve), 512)
        assert series.shape == (2, 513) and not series[:, 1:].any()
        rho = curve.phi_inv(4096, deriv=1)
        assert abs(lam - np.mean(1.0 / rho)) <= 1e-15 * lam
        # the solve above is exact on its basis, but that basis cannot hold
        # the curve's harmonic 1000, so ground_state refuses it
        with pytest.raises(ConvergenceFailure, match="512-mode basis .* harmonic 1000"):
            ob.ground_state(curve)

    @pytest.mark.parametrize("max_index", [2, 6, 30, 80])
    def test_convolution_mass_matches_quadrature(self, rng, max_index):
        # M v from rho's 2*max_index + 1 coefficients against the mass matrix
        # summed from the basis functions on the 8m-point grid, exact there
        curve = ob.random_curve(rng, max_index=max_index)
        m = 64
        _, mass = dense_pencil(curve, m)
        cos, sin = spectral.trig_coefficients(curve.phi_inv(8 * m, deriv=1), max_index)
        half = 0.5 * (cos[1:] - 1j * sin[1:])
        rho = np.concatenate([half[::-1].conj(), cos[:1], half])
        for _ in range(3):
            vec = rng.standard_normal(2 * m + 1)
            exact = mass @ vec
            assert np.max(np.abs(_mass(rho, vec) - exact)) <= 1e-13 * np.max(np.abs(exact))

    @pytest.mark.parametrize("n, outcomes", [
        (2, [192, 256, 320, 416, 512]),
        (3, [288, 352, 512, None, None]),
        (4, [384, 512, None, None, None]),
        (5, [448, None, None, None, None]),
        (6, [None, None, None, None, None])])
    def test_single_harmonic_ladder(self, n, outcomes):
        # {"a": {n: (1 - f)/n}} has min (phi^-1)' = f: the basis each curve
        # ends at, or None for a ConvergenceFailure at the 512-mode cap
        for f, expected in zip((0.02, 0.01, 0.005, 0.002, 0.001), outcomes):
            curve = ob.FourierCurve(a={n: (1 - f) / n})
            try:
                got = ob.ground_state(curve).n_modes
            except ConvergenceFailure:
                got = None
            assert got == expected, f


def periodic_fd_pencil(rho):
    """The t-ring's A, assembled entry by entry, and its lumped mass diag(rho_j),
    for rho sampled at the ring's points (even) and midpoints (odd)."""
    n = len(rho) // 2
    h = TWO_PI / n
    mat = np.zeros((n, n))
    for j in range(n):
        edge = 1.0 / (rho[2 * j + 1] * h**2)  # kappa_{j+1/2}/h^2
        k = (j + 1) % n
        mat[j, k] = mat[k, j] = -edge
        mat[j, j] += edge
        mat[k, k] += edge
        mat[j, j] += 1.0 / rho[2 * j]
    return mat, rho[::2]


class TestFDOracle:
    @pytest.mark.parametrize("n", [64, 65])
    def test_matches_dense_eigensolve(self, rng, n):
        from scipy.linalg import eigh

        rho = ob.random_curve(rng).phi_inv(2 * n, deriv=1)
        mat, mass = periodic_fd_pencil(rho)
        dense = eigh(mat, np.diag(mass), eigvals_only=True)[0]
        assert abs(_fd_smallest(rho)[0] - dense) <= 1e-12 * dense

    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("weights", [(1.0, 0.0), (0.5, 0.5)],
                             ids=["near_smallest", "between_smallest_two"])
    def test_ring_solve_matches_dense_solve(self, rng, n, weights):
        from scipy.linalg import eigh

        mat, mass = periodic_fd_pencil(ob.random_curve(rng).phi_inv(2 * n, deriv=1))
        shift = eigh(mat, np.diag(mass), eigvals_only=True)[:2] @ weights - 1e-10
        shifted = mat - shift * np.diag(mass)
        rhs = 1.0 + 0.1 * rng.standard_normal(n)
        dense = np.linalg.solve(shifted, rhs)
        off = shifted[np.arange(n), (np.arange(n) + 1) % n]  # the wrap edge last
        x = _ring_solve(np.diag(shifted), off, rhs)
        x, dense = x / (x @ dense), dense / (dense @ dense)  # the same sign and scale
        assert np.max(np.abs(x - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_exact_eigenvalue_ends_iteration_without_nan(self, monkeypatch):
        # the ring [[0, -1, -1], [-1, 2, -1], [-1, -1, -4]] is singular, and
        # eliminating its cut tridiagonal is exact in binary: 1 + off w.z is
        # exactly 0 and the solve returns the null vector (1.5, 0.5, -0.5)
        x = _ring_solve(np.array([0.0, 2.0, -4.0]), np.full(3, -1.0), np.ones(3))
        assert np.array_equal(x, [2.25, 0.75, -0.75])
        # the circle's shift 1 is an eigenvalue: started there, the iteration stays
        lam, vec = _fd_smallest(np.ones(2048), (1.0, np.ones(1024)))
        assert abs(lam - 1.0) <= 1e-14 and np.isfinite(vec).all()
        # a ring solve that gives no vector ends it on the pair it holds
        monkeypatch.setattr(spectral, "_ring_solve", lambda *_: None)
        v = np.full(64, 0.125)
        lam, vec = _fd_smallest(np.ones(128), (1.0, v))
        assert lam == 1.0 and vec is v

    @pytest.mark.parametrize("curve", [{"a": {2: 0.05}, "b": {3: 0.02}},
                                       {"a": {6: 0.1665}}, {"a": {3: 0.3327}}],
                             ids=["smooth", "max_kappa_1000", "near_degenerate"])
    def test_fine_ring_from_coarse_start(self, monkeypatch, curve):
        sizes = []
        solve = spectral._ring_solve
        monkeypatch.setattr(spectral, "_ring_solve",
                            lambda diag, *args: sizes.append(len(diag)) or solve(diag, *args))
        monkeypatch.setattr(spectral, "ORACLE_BASE", 2048)
        ob.fd_reference_lambda(ob.FourierCurve(**curve))
        assert sizes.count(4096) <= 3

    def test_coarse_ring_from_galerkin_start(self, monkeypatch, rng):
        # spectral_suite starts the coarse ring from the Galerkin pair, psi on
        # exactly the coarse ring's points
        sizes = []
        solve = spectral._ring_solve
        monkeypatch.setattr(spectral, "_ring_solve",
                            lambda diag, *args: sizes.append(len(diag)) or solve(diag, *args))
        for _ in range(3):
            curve = ob.random_curve(rng)
            rho = curve.phi_inv(4 * 2048, deriv=1)
            sol = ob.ground_state(curve)
            psi = sol.psi_at(TWO_PI * np.arange(2048) / 2048)
            del sizes[:]
            warm = _fd_richardson(rho, (sol.lam, psi / np.linalg.norm(psi)))
            assert sizes.count(2048) <= 2
            cold = _fd_richardson(rho)
            assert abs(warm - cold) <= 1e-13 * cold

    def test_circle_is_exact(self, monkeypatch):
        assert abs(_fd_smallest(np.ones(2048))[0] - 1.0) <= 1e-14
        monkeypatch.setattr(spectral, "ORACLE_BASE", 512)
        assert abs(ob.fd_reference_lambda(ob.FourierCurve()) - 1.0) <= 1e-14

    def test_excited_state_refused(self):
        # started at cos t and near its eigenvalue 2 on the circle, the
        # iteration settles on the first excited state
        t = TWO_PI * np.arange(256) / 256
        with pytest.raises(ConvergenceFailure, match="changes sign"):
            _fd_smallest(np.ones(512), (2.0, np.cos(t)))

    def test_reference_values(self, monkeypatch):
        # max kappa = 1000: the Galerkin value at m = 768 and 1024
        assert abs(ob.fd_reference_lambda(ob.FourierCurve(a={6: 0.1665}))
                   - 7.0261503751653) <= 1e-9
        curve = ob.FourierCurve(a={2: 0.49})
        assert abs(ob.fd_reference_lambda(curve) - ob.ground_state(curve).lam) <= 1e-12
        # near-degenerate: the rings of 8192 and 2048 points agree
        curve = ob.FourierCurve(a={3: 0.3327})
        fine = ob.fd_reference_lambda(curve)
        monkeypatch.setattr(spectral, "ORACLE_BASE", 2048)
        assert abs(ob.fd_reference_lambda(curve) - fine) <= 1e-9


class TestLapackLoader:
    """spectral._lapack, the one place the solvers touch scipy."""

    ROUTINES = ("dpotrf", "dpotrs", "dstev", "dgtsv")

    @pytest.fixture(autouse=True)
    def uncached(self):
        spectral._lapack.cache_clear()
        yield
        spectral._lapack.cache_clear()

    def test_falls_back_to_scipy_linalg_without_the_extension_file(
            self, monkeypatch, tmp_path, mixed_state):
        from scipy.linalg import lapack

        curve = mixed_state[0]
        expected = ob.ground_state(curve).lam, ob.fd_reference_lambda(curve)
        spectral._lapack.cache_clear()
        find_spec = importlib.util.find_spec
        empty = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        empty.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name, package=None:
                            empty if name == "scipy" else find_spec(name, package))
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        assert spectral._lapack() is lapack
        assert (ob.ground_state(curve).lam, ob.fd_reference_lambda(curve)) == expected

    def test_missing_scipy_raises_the_import_error(self, monkeypatch, mixed_state):
        for name in [m for m in sys.modules if m.split(".")[0] == "scipy"]:
            monkeypatch.delitem(sys.modules, name)
        monkeypatch.setitem(sys.modules, "scipy", None)  # import of scipy halted
        assert importlib.util.find_spec("scipy") is None
        with pytest.raises(ModuleNotFoundError) as plain:
            from scipy.linalg.lapack import dpotrf  # noqa: F401
        for solve in (spectral._lapack, lambda: ob.ground_state(mixed_state[0])):
            spectral._lapack.cache_clear()
            with pytest.raises(ModuleNotFoundError) as err:
                solve()
            assert (err.value.name, str(err.value)) == (plain.value.name, str(plain.value))

    @pytest.mark.parametrize("scipy_linalg_first", [True, False])
    def test_one_copy_shared_with_scipy_linalg(self, scipy_linalg_first):
        # in a fresh interpreter, with scipy.linalg imported before or after
        # the first solve: one copy of the extension, shared by both
        steps = ["import scipy.linalg.lapack",
                 "curve = ob.FourierCurve(a={2: 0.1}, b={3: 0.1}); "
                 "ob.ground_state(curve); ob.fd_reference_lambda(curve)"]
        code = "\n".join(["import sys", "import ovalbound as ob",
                          *(steps if scipy_linalg_first else steps[::-1]),
                          "ext, lapack = ob.spectral._lapack(), sys.modules['scipy.linalg.lapack']",
                          f"print([getattr(ext, f) is getattr(lapack, f) for f in {self.ROUTINES}], "
                          "ext is sys.modules['scipy.linalg._flapack'] is lapack._flapack)"])
        src = str(Path(ob.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.splitlines()[-1] == "[True, True, True, True] True"


class TestOffGridEvaluation:
    def test_psi_at_reproduces_grid_samples(self, mixed_state):
        _, sol, _ = mixed_state
        probe = (TWO_PI * np.arange(len(sol.psi)) / len(sol.psi))[::97]
        assert np.allclose(sol.psi_at(probe), sol.psi[::97], atol=1e-13)

    def test_int_means_the_uniform_grid(self, mixed_state):
        # an int n is the grid 2*pi*j/n, and a float is one point
        _, sol, _ = mixed_state
        n = len(sol.psi)
        assert np.max(np.abs(sol.psi_at(n) - sol.psi)) < 1e-13
        grid = sol.psi_at(TWO_PI * np.arange(2048) / 2048, deriv=1)
        for size in (2048, np.int64(2048)):
            assert np.max(np.abs(sol.psi_at(size, deriv=1) - grid)) < 1e-12
        point = sol.psi_at(2048.0)
        assert np.ndim(point) == 0 and point == sol.psi_at(np.array([2048.0]))[0]

    def test_eigen_equation_holds_between_grid_points(self, mixed_state):
        curve, sol, _ = mixed_state
        # midpoints of the solve grid are genuinely off-grid for psi; the
        # strong form in t is -kappa (kappa psi_t)_t + kappa^2 psi = lam psi
        n = len(sol.psi)
        t = TWO_PI * (np.arange(0, n, 41) + 0.5) / n
        rho, rho_t = (curve.phi_inv(t, deriv=d) for d in (1, 2))
        psi, psi_t, psi_tt = (sol.psi_at(t, deriv=d) for d in range(3))
        kappa, kappa_t = 1.0 / rho, -rho_t / rho**2
        resid = -kappa * (kappa_t * psi_t + kappa * psi_tt) + kappa**2 * psi - sol.lam * psi
        assert np.max(np.abs(resid)) < 1e-8
