"""Ground state of -d^2/ds^2 + kappa^2(s) with periodic boundary conditions.

The primary discretization is Galerkin in the tangent angle t (Floquet-
Fourier-Hill): with ds = rho dt, rho = (phi^-1)' and kappa = 1/rho, the
Rayleigh quotient int kappa (psi_t^2 + psi^2) dt / int rho psi^2 dt gives
K c = lam M c on {cos kt, sin kt : k <= m}, m sized from the eigenvector's
coefficient tail.  When the curve's harmonics share a factor g, kappa is
2pi/g-periodic and the ground state lies in the span of the harmonics gk
(Floquet-Bloch reduction), so each solve runs in u = gt on the floor(m/g)
harmonics of that class alone.  K is assembled in Toeplitz-plus-Hankel
blocks from the Fourier coefficients of kappa and Cholesky-factored; M is
applied exactly, as the convolution of a vector's spectrum with rho's
2*top_harmonic + 1 coefficients, and never formed.  1/lam is the largest
eigenvalue of K^-1 M, which Lanczos finds in a few steps, started from the
previous basis's eigenvector.  An independent cross-check discretizes the
same operator, -(kappa u_t)_t + kappa u = lam rho u in t, by three-point
finite differences on a ring with Richardson extrapolation: each inverse
iteration step is one tridiagonal solve, and a positive eigenvector
certifies the smallest eigenvalue (Perron-Frobenius).

Both solvers call four LAPACK routines (dpotrf, dpotrs, dstev, dgtsv) of
scipy's compiled extension scipy.linalg._flapack.  _lapack is the one place
scipy is touched: it loads that extension file directly, so a solve does not
run scipy.linalg's package import, which costs more than the solve.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .curves import (MAX_MODES, TWO_PI, FourierCurve, spectral_derivative,
                     trig_coefficients, trig_series)
from .errors import ConvergenceFailure, DomainError, NonMonotone, ZeroFunction

#: The basis grows until psi's coefficients above harmonic m/2 are at most TAIL_RTOL
#: of its largest, up to MAX_MODES; lam must agree with the previous basis to CONV_RTOL.
TAIL_RTOL, CONV_RTOL = 1e-10, 1e-9
#: Lanczos stops once its Ritz residual is at most LANCZOS_RTOL of the Ritz
#: value, and fails after LANCZOS_MAX_STEPS steps.
LANCZOS_RTOL, LANCZOS_MAX_STEPS = 1e-15, 64


_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def _lapack():
    """scipy's LAPACK extension module, whose dpotrf, dpotrs, dstev and dgtsv
    are the very objects scipy.linalg.lapack re-exports.

    importlib.util.find_spec("scipy") locates the package without running its
    __init__, and the file linalg/_flapack<suffix> is loaded on its own and
    registered under its full name in sys.modules, where a later
    ``import scipy.linalg`` finds it, so one process holds one copy.  If
    scipy.linalg is already imported, its copy is used; if no such file
    exists, the routines come from ``scipy.linalg.lapack``, whose import
    raises ModuleNotFoundError when scipy is missing.
    """
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                ext = importlib.util.spec_from_file_location(_FLAPACK, path)
                module = importlib.util.module_from_spec(ext)
                ext.loader.exec_module(module)
                return sys.modules.setdefault(_FLAPACK, module)
    from scipy.linalg import lapack
    return lapack


@dataclass(frozen=True)
class SpectralSolution:
    """Lowest eigenpair: lam is the eigenvalue, psi the positive eigenfunction
    on the solve's uniform t-grid of 8*n_modes points with int rho psi^2 dt =
    int psi^2 ds = 1, n_modes the basis size in t the solve used (it solved
    on the n_modes // g harmonics that are multiples of the curve's g)."""

    lam: float
    psi: np.ndarray
    n_modes: int
    residual: float

    def psi_at(self, t: np.ndarray | float | int, deriv: int = 0) -> np.ndarray:
        """psi, or its t-derivative of order deriv, at arbitrary tangent angles
        t; an int n means the uniform grid 2*pi*j/n, one real inverse FFT (as
        in ``trig_series``), so psi_at(len(psi)) reproduces psi."""
        return trig_series(*trig_coefficients(self.psi, self.n_modes), t, deriv)


def _symmetry(curve: FourierCurve) -> int:
    """g, the gcd of the curve's nonzero harmonics: 1 for the circle."""
    return int(np.gcd.reduce(np.flatnonzero(curve._series.any(axis=0)))) or 1


def _galerkin(f: np.ndarray, n_modes: int, g: int = 1) -> np.ndarray:
    """2/pi times the Galerkin matrix of int f (u v + g^2 u_x v_x) dx over u, v
    in cos kx (k = 0..n_modes), then sin kx (k = 1..n_modes), for f sampled
    on a uniform x-grid of more than 4*n_modes points.  Only the lower
    triangle is filled, block by block into a C-ordered array: its transpose
    is the upper triangle in the Fortran order LAPACK reads, and the Cholesky
    factorization overwrites it in place."""
    m = n_modes
    A, B = trig_coefficients(f, 2 * m)
    A[0] *= 2.0  # cos (k - l)x is 1 on the diagonal: the mean counts twice

    def windows(x):  # rows x[i:i + m + 1], i = 0..m, as one strided view
        return as_strided(x, (m + 1, m + 1), 2 * x.strides)

    # Toeplitz T[k, l] = A|k - l| and sgn(k - l) B|k - l|, Hankel H[k, l] = A, B(k + l)
    even = windows(np.concatenate([A[m:0:-1], A[:m + 1]]))[::-1]
    odd = windows(np.concatenate([B[m:0:-1], [0.0], -B[1:m + 1]]))[::-1]
    hankel_a, hankel_b = windows(A), windows(B)
    out = np.zeros((2 * m + 1, 2 * m + 1))
    k = g * np.arange(m + 1.0)
    cos, sin = slice(0, m + 1), slice(1, m + 1)  # harmonics of the basis blocks
    # the product of two basis functions holds harmonics |k - l| and k + l, the
    # latter negated for two sines; d/dx maps cos kx to -k sin kx and sin kx to
    # k cos kx, so the derivative term is g^2 k l times the sum with that sign flipped
    for block, rows, cols, t, h, sign in ((out[:m + 1, :m + 1], cos, cos, even, hankel_a, 1),
                                          (out[m + 1:, m + 1:], sin, sin, even, hankel_a, -1),
                                          (out[m + 1:, :m + 1], sin, cos, odd, hankel_b, 1)):
        plus, minus = (np.add, np.subtract)[::sign]
        plus(t[rows, cols], h[rows, cols], out=block)
        block += minus(t[rows, cols], h[rows, cols]) * np.multiply.outer(k[rows], k[cols])
    return out


def _mass(rho: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """M vec for the Galerkin mass matrix, 2/pi times int rho u v dx, without
    forming M, for rho's two-sided spectrum (harmonics -d..d, d = len//2).
    The product of rho and vec's series has the convolution of their
    two-sided spectra as its spectrum, so M vec is exact, with no grid."""
    m, d = len(vec) // 2, len(rho) // 2
    spec = np.zeros(m + 2 * d + 1, complex)  # vec's spectrum at harmonics -d..m+d
    spec[d] = vec[0]
    spec[d + 1:d + m + 1] = 0.5 * (vec[1:m + 1] - 1j * vec[m + 1:])
    spec[:d] = spec[2 * d:d:-1].conj()
    out = np.convolve(spec, rho, "valid")  # harmonics 0..m of the product
    return 4.0 * np.concatenate([out.real, -out.imag[1:]])


def _reduce(curve: FourierCurve) -> tuple[int, np.ndarray, np.ndarray]:
    """The curve's pencil data in u = gt, derived once for every basis that
    _lanczos solves it on: g = _symmetry(curve), the (cos, sin) rows of
    rho - 1 as a series in u (the curve's series decimated by g and
    differentiated in t), and rho's two-sided spectrum in u, harmonics
    -d..d, that _mass reads."""
    g = _symmetry(curve)
    cos, sin = curve._series[:, :curve.top_harmonic + 1:g]  # phi^-1 - t - C as a series in u
    k = g * np.arange(len(cos))
    rho_rows = np.array([k * sin, -k * cos])
    half = 0.5 * (rho_rows[0, 1:] - 1j * rho_rows[1, 1:])
    return g, rho_rows, np.concatenate([half[::-1].conj(), [1.0], half])


def _lanczos(reduced: tuple[int, np.ndarray, np.ndarray], n_modes: int,
             start: np.ndarray | None = None) -> tuple[float, np.ndarray, np.ndarray]:
    """Lowest eigenpair of K c = lam M c at n_modes as lam = 1/theta and the
    (cos, sin) rows of c in t, harmonics 0..n_modes, and rho on the u-grid
    K is built on.

    ``reduced`` is _reduce(curve).  Every harmonic of the curve is a
    multiple of g = _symmetry(curve), so kappa is 2pi/g-periodic and the
    simple, positive ground state lies in the span of the harmonics gk
    (Floquet-Bloch; Reed & Simon IV, XIII.16).  The pencil is therefore
    built in u = gt on cos ku, sin ku for k <= n_modes // g, where
    rho = 1 + g (the curve's series decimated by g)' and the derivative
    term carries g^2.  K's kappa coefficients come from
    the 8*n_modes-point t-grid, which u = gt maps onto 8*n_modes /
    gcd(g, 8*n_modes) points, so K is the t-space K restricted to the
    harmonics gk; M is applied exactly by _mass.  The result is spread back
    to harmonics gk in t.

    The largest eigenvalue theta of K^-1 M is 1/lam.  Lanczos finds it in the
    M inner product, with K Cholesky-factored and full reorthogonalization,
    from the series start in t (truncated or zero-padded; the constant when
    None), and stops once the Ritz residual is at most LANCZOS_RTOL of the
    Ritz value.  K is positive definite while rho > 0, since its entries are
    the grid sum of kappa (u_t v_t + u v).
    """
    lapack = _lapack()
    g, rho_rows, rho_spec = reduced
    m, n = n_modes // g, 8 * n_modes // math.gcd(g, 8 * n_modes)
    rho = 1.0 + trig_series(*rho_rows, n)
    if not rho.min() > 0.0:
        raise NonMonotone(f"(phi^-1)' <= 0 on the {8 * n_modes}-point solve grid; "
                          "validate the curve first")
    chol, info = lapack.dpotrf(_galerkin(1.0 / rho, m, g).T, overwrite_a=1, clean=0)
    if info != 0:
        raise ConvergenceFailure(f"stiffness matrix at {n_modes} modes is not positive "
                                 f"definite (dpotrf info {info})")
    q = np.zeros(2 * m + 1)  # cos 0u..cos mu, then sin 1u..sin mu
    if start is None:
        q[0] = 1.0
    else:
        cos, sin = start[:, ::g][:, :m + 1]
        q[:len(cos)], q[m + 1:m + len(sin)] = cos, sin[1:]
    mq = _mass(rho_spec, q)
    norm = np.sqrt(q @ mq)
    basis, mass_basis = np.empty((2, LANCZOS_MAX_STEPS, 2 * m + 1))  # q_j and M q_j
    alpha, beta = np.zeros(LANCZOS_MAX_STEPS), np.zeros(LANCZOS_MAX_STEPS)
    for j in range(LANCZOS_MAX_STEPS):
        basis[j], mass_basis[j] = q / norm, mq / norm
        q = lapack.dpotrs(chol, mass_basis[j])[0]
        for _ in range(2):  # Gram-Schmidt against every q_i in the M inner product, twice
            h = mass_basis[:j + 1] @ q
            q -= h @ basis[:j + 1]
            alpha[j] += h[j]
        mq = _mass(rho_spec, q)
        norm = np.sqrt(max(q @ mq, 0.0))
        # ascending, so the top pair is last; the wrapper wants one off-diagonal even at j = 0
        theta, ritz = lapack.dstev(alpha[:j + 1], beta[:max(j, 1)])[:2]
        if norm * abs(ritz[j, j]) <= LANCZOS_RTOL * theta[j]:
            break
        beta[j] = norm
    else:
        raise ConvergenceFailure(f"Lanczos at {n_modes} modes: Ritz residual above "
                                 f"{LANCZOS_RTOL:.0e} after {LANCZOS_MAX_STEPS} steps")
    vec = ritz[:, j] @ basis[:j + 1]
    series = np.zeros((2, n_modes + 1))
    series[0, ::g], series[1, g::g] = vec[:m + 1], vec[m + 1:]
    return 1.0 / theta[j], series, rho


def _finish(rho: np.ndarray, series: np.ndarray) -> tuple[float, np.ndarray, float]:
    """lam as the Rayleigh quotient summed on rho's t-grid, psi on that grid
    with int rho psi^2 dt = 1, and the residual of the strong form in t, for
    the eigenvector's (cos, sin) rows series."""
    psi, psi_t = trig_series(*series, len(rho), deriv=(0, 1))
    norm = float(np.mean(rho * psi**2))
    lam = float(np.mean((psi_t**2 + psi**2) / rho)) / norm
    # r = -psi_ss + (kappa^2 - lam) psi, psi_ss = kappa (kappa psi_t)_t; |r|^2 = int r^2 rho dt
    r = (psi / rho - spectral_derivative(psi_t / rho)) / rho - lam * psi
    return lam, psi / np.sqrt(norm * TWO_PI), float(np.sqrt(np.mean(r**2 * rho) / norm))


def ground_state(curve: FourierCurve, n_modes: int = 32,
                 check_convergence: bool = True) -> SpectralSolution:
    """Smallest eigenpair of the curve's operator by trigonometric Galerkin in t.

    With check_convergence the basis starts at the smallest power of two at
    least max(n_modes, 2*top_harmonic), capped at MAX_MODES; while psi has a
    harmonic j > m/2 above TAIL_RTOL of its largest, m becomes 2j rounded up
    to a multiple of 32.  m counts harmonics in t; each solve runs on the
    curve's symmetry class (_lanczos).  Each solve after the first, the m/2
    comparison included, starts Lanczos from the previous solve's psi.  Only
    the basis returned evaluates psi, on its 8m-point t-grid, the grid
    Rayleigh quotient and the residual; the others give lam = 1/theta.
    If the first basis cannot hold the curve's top nonzero harmonic (one
    above MAX_MODES), past MAX_MODES, or if lam moves by more than CONV_RTOL from
    the previous basis (m/2 if the first passes), ConvergenceFailure is
    raised.  Without it the solve uses exactly n_modes.  n_modes < 1 raises
    DomainError.
    """
    if n_modes < 1:
        raise DomainError(f"n_modes must be at least 1, got {n_modes}")
    m = n_modes
    if check_convergence:
        m = min(MAX_MODES, 1 << (max(n_modes, 2 * curve.top_harmonic) - 1).bit_length())
        if curve.top_harmonic > m:
            raise ConvergenceFailure(f"the {m}-mode basis at the cap cannot hold the "
                                     f"curve's harmonic {curve.top_harmonic}")
    reduced = _reduce(curve)
    prev = None  # (m, lam) of the last basis whose tail was too large
    series = None  # the last solve's psi, where the next one starts
    while True:
        if check_convergence and m > MAX_MODES:
            raise ConvergenceFailure(f"basis passes the {MAX_MODES}-mode cap before the "
                                     f"eigenvector tail falls to {TAIL_RTOL:.0e}")
        lam, series, rho = _lanczos(reduced, m, series)
        mags = np.abs(series).max(axis=0)
        top = int(np.flatnonzero(mags > TAIL_RTOL * mags.max())[-1])
        if not check_convergence or top <= m // 2:
            break
        prev, m = (m, lam), -(-2 * top // 32) * 32
    if check_convergence:
        prev = prev or (m // 2, _lanczos(reduced, m // 2, series)[0])
    # for g = 1 the solve's u-grid is the 8m-point t-grid, and rho there is
    # the array phi_inv(8m, deriv=1) returns, bit for bit
    lam, psi, residual = _finish(rho if reduced[0] == 1 else curve.phi_inv(8 * m, deriv=1),
                                 series)
    if check_convergence and abs(lam - prev[1]) > CONV_RTOL * max(1.0, abs(lam)):
        raise ConvergenceFailure(f"lambda moved by {abs(lam - prev[1]):.3e} between "
                                 f"{prev[0]} and {m} modes (rtol {CONV_RTOL:.1e})")
    psi = psi if series[0, 0] >= 0.0 else -psi
    if psi.min() <= 0.0:
        raise ConvergenceFailure("computed ground state is not positive; "
                                 "increase n_modes or check the curve")
    return SpectralSolution(lam, psi, m, residual)


def rayleigh_quotient(curve: FourierCurve, psi: np.ndarray) -> float:
    """int kappa (psi_t^2 + psi^2) dt / int rho psi^2 dt, that is
    int (psi_s^2 + kappa^2 psi^2) ds / int psi^2 ds, for psi on a uniform
    t-grid; never below the ground-state eigenvalue (up to roundoff)."""
    if np.ndim(psi) != 1 or len(psi) == 0:
        raise DomainError(f"psi must be a non-empty 1-D array, got shape {np.shape(psi)}")
    rho = curve.phi_inv(len(psi), deriv=1)
    if not rho.min() > 0.0:
        raise NonMonotone("(phi^-1)' <= 0 on the test function's grid; validate the curve first")
    mass = float(np.mean(rho * psi**2)) * TWO_PI
    if not 1e-24 <= mass < np.inf:  # checked before psi's derivative meets an inf
        raise ZeroFunction("test function has a zero, infinite or undefined norm "
                           f"(norm^2 = {mass})")
    energy = float(np.mean((spectral_derivative(psi)**2 + psi**2) / rho)) * TWO_PI
    return energy / mass


#: The FD oracle's inverse iteration stops once lam moves by at most FD_ULPS
#: units in the last place, and fails after FD_MAX_ITER solves.
FD_ULPS, FD_MAX_ITER = 4, 20
#: fd_reference_lambda's coarse ring; its fine ring has twice the points.
ORACLE_BASE = 8192


def _ring_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """A nonzero multiple of A^-1 rhs, for the symmetric periodic tridiagonal
    A with diagonal diag and off[i] on the ring edge (i, i+1 mod n), n >= 3,
    the wrap edge (n-1, 0) at off[-1]; None when no such vector comes out.

    Cutting the wrap edge leaves the tridiagonal T = A - c w w^T, with
    c = off[-1] and w = e_0 + e_{n-1}, and Sherman-Morrison gives A^-1 rhs =
    y - c (w.y) z / (1 + c w.z) from y = T^-1 rhs and z = T^-1 w, both from
    one two-column dgtsv call (the LAPACK solve behind solve_banded((1, 1))).
    The result is returned times 1 + c w.z, with no division.  That factor is
    det A / det T: it is 0 when the shift in diag is an eigenvalue of A, and
    rounds to 0 already some 1e-11 away from one, since the cut lifts T's
    spectrum.  Then the result is the multiple of z, which is the eigenvector
    (A z = (1 + c w.z) w = 0), so the iteration goes on without a NaN.
    None comes only from a singular T or a product that vanishes identically.
    """
    c = off[-1]
    cut = diag.copy()
    cut[[0, -1]] -= c
    w = np.zeros(len(diag))
    w[[0, -1]] = 1.0
    sol, info = _lapack().dgtsv(off[:-1], cut, off[:-1], np.column_stack([rhs, w]))[3:]
    y, z = sol.T
    out = (1.0 + c * (z[0] + z[-1])) * y - c * (y[0] + y[-1]) * z
    return out if info == 0 and out.any() else None


def _fd_smallest(rho: np.ndarray,
                 start: tuple[float, np.ndarray] | None = None) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue, and its eigenvector, positive with unit norm, of
    the three-point FD pencil A u = lam diag(rho_j) u for
    -(kappa u_t)_t + kappa u = lam rho u on the ring of the n = len(rho) // 2
    points t_j = 2 pi j / n, with rho sampled at the 2n points pi k / n (the
    odd ones are the midpoints t_{j+1/2}).  A's edge (j, j+1) is
    -kappa_{j+1/2}/h^2, its diagonal (kappa_{j-1/2} + kappa_{j+1/2})/h^2
    + kappa_j; rho <= 0 raises NonMonotone.

    Rayleigh-quotient inverse iteration, one ring solve of
    (A - lam diag rho) w = rho v per step, runs from start = (lam, v), or from
    lam = 0 and the constant vector when None.  It stops once lam moves by at
    most FD_ULPS units in the last place, or on the pair it holds when a ring
    solve gives no vector.  lam is the quotient in difference form, which does
    not cancel.  A's off-diagonals are negative on an irreducible ring, so by
    Perron-Frobenius an eigenvector of one strict sign belongs to the smallest
    eigenvalue; any other outcome raises ConvergenceFailure.
    """
    n = len(rho) // 2
    if not rho.min() > 0.0:
        raise NonMonotone(f"(phi^-1)' <= 0 on the {n}-point FD ring; validate the curve first")
    h = TWO_PI / n
    mass, kappa_mid = rho[::2], 1.0 / rho[1::2]
    off = -kappa_mid / h**2
    main = 1.0 / mass - off - np.roll(off, 1)
    lam, v = (0.0, np.ones(n)) if start is None else start
    for _ in range(FD_MAX_ITER):
        w = _ring_solve(main - lam * mass, off, mass * v)
        if w is None:
            break
        v = w / np.linalg.norm(w) * np.sign(w.sum())
        prev, lam = lam, (float(np.sum(kappa_mid * np.diff(v, append=v[0])**2)) / h**2
                          + float(np.sum(v**2 / mass))) / float(np.sum(mass * v**2))
        if abs(lam - prev) <= FD_ULPS * np.spacing(lam):
            break
    else:
        raise ConvergenceFailure(f"FD inverse iteration: lambda still moving after "
                                 f"{FD_MAX_ITER} solves at n = {n}")
    if not v.min() > 0.0:
        raise ConvergenceFailure(f"FD inverse iteration at n = {n} reached an "
                                 "eigenvector that changes sign, not the ground state")
    return lam, v


def _fd_richardson(rho: np.ndarray,
                   start: tuple[float, np.ndarray] | None = None) -> float:
    """The FD eigenvalues on the ring of n = len(rho) // 4 points and on the
    ring of 2n, both read from rho sampled at the 4n points pi k / (2n),
    Richardson-extrapolated to cancel the h^2 error.  The coarse ring
    starts from start = (lam, v), v positive with unit norm on its points
    (cold when None), and the fine ring from the coarse eigenpair, the
    eigenvector linearly prolonged (each new point the mean of its two
    neighbours)."""
    coarse, v = _fd_smallest(rho[::2], start)
    prolonged = np.column_stack([v, 0.5 * (v + np.roll(v, -1))]).ravel()
    fine, _ = _fd_smallest(rho, (coarse, prolonged))
    return (4.0 * fine - coarse) / 3.0


def fd_reference_lambda(curve: FourierCurve) -> float:
    """Independent eigenvalue oracle: finite differences in t on rings of
    ORACLE_BASE and 2*ORACLE_BASE points, Richardson-extrapolated
    (_fd_richardson) from a cold start, so that it owes nothing to the
    Galerkin solve.  Both rings read one inverse FFT of rho = (phi^-1)'."""
    return _fd_richardson(curve.phi_inv(4 * ORACLE_BASE, deriv=1))
