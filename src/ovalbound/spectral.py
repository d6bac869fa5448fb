"""Ground state of -d^2/ds^2 + kappa^2(s) with periodic boundary conditions.

The primary discretization is a real trigonometric Galerkin basis
{1, cos ks, sin ks : k <= n_modes}, orthonormalized on [0, 2*pi).  The
potential enters through the Fourier coefficients of kappa^2, so the matrix
assembly is a convolution in coefficient space and the eigenproblem is a
dense symmetric solve.  A second-order finite-difference discretization with
periodic wrap plus Richardson extrapolation serves as an independent
cross-check; the two share no code path beyond the curvature samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from .curves import (TWO_PI, FourierCurve, SampledCurve, invert_phi,
                     trig_coefficients, trig_series)
from .errors import ConvergenceFailure, ZeroFunction

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SpectralSolution:
    """Lowest eigenpair: lam is the eigenvalue, psi the positive eigenfunction
    sampled on the curve's s-grid with int psi^2 ds = 1.  ``coeffs`` holds the
    coefficients in the orthonormal trigonometric basis (constant block first,
    then cosines, then sines) so psi can be evaluated off-grid."""

    lam: float
    psi: np.ndarray
    n_modes: int
    residual: float
    coeffs: np.ndarray

    def psi_at(self, s: np.ndarray | float, deriv: int = 0) -> np.ndarray:
        """psi, or its derivative of order deriv, at arbitrary points s."""
        return trig_series(*_basis_series(self.coeffs, self.n_modes),
                           np.asarray(s, dtype=float), deriv)


def _basis_series(vec: np.ndarray, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine coefficients of the orthonormal-basis expansion vec."""
    cos = np.concatenate([[vec[0] / np.sqrt(TWO_PI)], vec[1:n_modes + 1] / np.sqrt(np.pi)])
    sin = np.concatenate([[0.0], vec[n_modes + 1:] / np.sqrt(np.pi)])
    return cos, sin


def _hamiltonian(kappa_sq: np.ndarray, n_modes: int) -> np.ndarray:
    A, B = trig_coefficients(kappa_sq, 2 * n_modes)
    nb = 2 * n_modes + 1
    k = np.arange(1, n_modes + 1)
    H = np.zeros((nb, nb))
    H[0, 0] = A[0]
    H[0, 1:n_modes + 1] = A[k] / SQRT2
    H[0, n_modes + 1:] = B[k] / SQRT2
    H[1:n_modes + 1, 0] = H[0, 1:n_modes + 1]
    H[n_modes + 1:, 0] = H[0, n_modes + 1:]
    K, L = np.meshgrid(k, k, indexing="ij")
    H[1:n_modes + 1, 1:n_modes + 1] = 0.5 * (A[np.abs(K - L)] + A[K + L])
    H[np.arange(1, n_modes + 1), np.arange(1, n_modes + 1)] = A[0] + 0.5 * A[2 * k]
    H[n_modes + 1:, n_modes + 1:] = 0.5 * (A[np.abs(K - L)] - A[K + L])
    H[np.arange(n_modes + 1, nb), np.arange(n_modes + 1, nb)] = A[0] - 0.5 * A[2 * k]
    cross = 0.5 * (B[K + L] - np.sign(K - L) * B[np.abs(K - L)])
    H[1:n_modes + 1, n_modes + 1:] = cross
    H[n_modes + 1:, 1:n_modes + 1] = cross.T
    H[np.arange(nb), np.arange(nb)] += np.concatenate([[0.0], k, k]) ** 2
    return H


def _solve_smallest(kappa_sq: np.ndarray, n_modes: int) -> tuple[float, np.ndarray]:
    w, v = np.linalg.eigh(_hamiltonian(kappa_sq, n_modes))
    return float(w[0]), v[:, 0]


def ground_state(sampled: SampledCurve, n_modes: int = 256,
                 check_convergence: bool = True, conv_rtol: float = 1e-9) -> SpectralSolution:
    """Smallest eigenpair of the curve's operator by trigonometric Galerkin.

    The eigenvector is normalized to int psi^2 ds = 1 and its sign fixed by
    mean(psi) > 0.  With check_convergence the basis is doubled once and a
    relative eigenvalue shift above conv_rtol raises ConvergenceFailure.
    Callers should keep n_modes at least four times the top harmonic index
    of the underlying curve.
    """
    kappa_sq = sampled.kappa**2
    lam, vec = _solve_smallest(kappa_sq, n_modes)
    if check_convergence:
        lam2, _ = _solve_smallest(kappa_sq, 2 * n_modes)
        if abs(lam - lam2) > conv_rtol * max(1.0, abs(lam)):
            raise ConvergenceFailure(
                f"lambda moved by {abs(lam - lam2):.3e} when doubling "
                f"n_modes from {n_modes} (rtol {conv_rtol:.1e})")
    if vec[0] < 0.0:
        vec = -vec
    series = _basis_series(vec, n_modes)
    psi = trig_series(*series, sampled.n_points)
    if psi.min() <= 0.0:
        raise ConvergenceFailure("computed ground state is not positive; "
                                 "increase n_modes or check the curvature samples")
    r = -trig_series(*series, sampled.n_points, deriv=2) + kappa_sq * psi - lam * psi
    residual = float(np.sqrt(np.mean(r**2) * TWO_PI))
    return SpectralSolution(lam, psi, n_modes, residual, vec)


def spectral_derivative(u: np.ndarray) -> np.ndarray:
    """d/ds of uniform periodic samples, via the FFT."""
    return trig_series(*trig_coefficients(u), len(u), deriv=1)


def trig_interpolate(u: np.ndarray, s: np.ndarray | float) -> np.ndarray | float:
    """Evaluate the trigonometric interpolant of uniform periodic samples at
    arbitrary points; spectrally accurate for smooth data."""
    out = trig_series(*trig_coefficients(u), np.asarray(s, dtype=float))
    return float(out) if np.ndim(s) == 0 else out


def rayleigh_quotient(sampled: SampledCurve, psi: np.ndarray) -> float:
    """(int psi'^2 + kappa^2 psi^2) / int psi^2 for an arbitrary test function.

    Never below the ground-state eigenvalue (up to roundoff).
    """
    mass = float(np.mean(psi**2)) * TWO_PI
    if mass < 1e-24:
        raise ZeroFunction("test function has numerically zero norm")
    dpsi = spectral_derivative(psi)
    energy = float(np.mean(dpsi**2 + sampled.kappa**2 * psi**2)) * TWO_PI
    return energy / mass


def _fd_smallest(kappa_sq: np.ndarray, n: int) -> float:
    """Smallest eigenvalue of the second-order central FD matrix with wrap."""
    h = TWO_PI / n
    main = 2.0 / h**2 + kappa_sq
    off = -np.ones(n - 1) / h**2
    corner = off[:1]
    # periodic wrap: the corner entries sit on the diagonals at offsets +-(n-1)
    mat = sp.diags([corner, off, main, off, corner], [1 - n, -1, 0, 1, n - 1], format="csc")
    # fixed start vector keeps the Lanczos iteration bit-deterministic
    v0 = np.full(n, 1.0 / np.sqrt(n))
    vals = spl.eigsh(mat, k=1, sigma=0.0, which="LM", v0=v0, return_eigenvectors=False)
    return float(vals[0])


def fd_reference_lambda(curve: FourierCurve, n_base: int = 4096) -> float:
    """Independent eigenvalue oracle: central finite differences at n_base and
    2*n_base points, Richardson-extrapolated to cancel the h^2 error."""
    coarse = _fd_smallest(invert_phi(curve, n_base).kappa**2, n_base)
    fine = _fd_smallest(invert_phi(curve, 2 * n_base).kappa**2, 2 * n_base)
    return (4.0 * fine - coarse) / 3.0
