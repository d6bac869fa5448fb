"""Energy projections of the psi-weighted curve and the three-angle identity.

With x = psi*cos(phi) and y = psi*sin(phi) interpreted as plane coordinates,
the quadratic integrals over arc length

    X = (int x^2, -2 int xy, int y^2),   X_hat = same with derivatives,

turn the projection h_t = x*sin(t) - y*cos(t) into scalar products: the
energy projection I(t) = int h_t'^2 / int h_t^2 equals (V_t.X_hat)/(V_t.X)
with V_t = (sin^2 t, sin t cos t, cos^2 t), and the full energy quotient is
(N.X_hat)/(N.X) with N = (1, 0, 1).  Because V_t depends on t only through
cos(2t) and sin(2t), I is pi-periodic and has at most one maximum/minimum
pair per period; the decomposition a*V_alpha + b*V_beta + c*V_gamma = N
expresses the energy as a weighted mix of three projections.  The
integrals are taken in the tangent angle, with ds = rho dphi, rho = (phi^-1)'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import TWO_PI, FourierCurve, spectral_derivative
from .errors import (DegenerateAngles, DegenerateProjection, DomainError, NonMonotone,
                     SingularDenominator)

N_VECTOR = np.array([1.0, 0.0, 1.0])

#: Angles closer than this (in |sin| of the difference) count as congruent mod pi.
ANGLE_MARGIN = 1e-6

#: Points of the uniform angle grid that I is tabulated on.
N_ANGLES = 1440

#: Extreme values of I closer than this make the projection constant.
FLAT_TOL = 1e-9


def direction_vector(t: np.ndarray | float) -> np.ndarray:
    """V_t = (sin^2 t, sin t cos t, cos^2 t); shape (3,) or (3, len(t))."""
    t = np.asarray(t, dtype=float)
    return np.stack([np.sin(t)**2, np.sin(t) * np.cos(t), np.cos(t)**2])


def _harmonics(X: np.ndarray) -> tuple[float, float, float]:
    """(p, q, r) with V_t.X = p + q cos 2t + r sin 2t."""
    return 0.5 * (X[0] + X[2]), 0.5 * (X[2] - X[0]), 0.5 * X[1]


@dataclass(frozen=True)
class ProjectionData:
    X: np.ndarray
    X_hat: np.ndarray
    t_grid: np.ndarray
    I_values: np.ndarray

    @property
    def energy(self) -> float:
        """E(x, y) = (N.X_hat)/(N.X)."""
        return float((self.X_hat[0] + self.X_hat[2]) / (self.X[0] + self.X[2]))

    def I_at(self, t: np.ndarray | float) -> np.ndarray | float:
        v = direction_vector(t)
        out = (self.X_hat @ v) / (self.X @ v)
        return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class AngleWeights:
    alpha: float
    beta: float
    gamma: float
    a: float
    b: float
    c: float


@dataclass(frozen=True)
class ConstantProjection:
    value: float


@dataclass(frozen=True)
class TwoExtremaPairs:
    t_max: float
    t_min: float


def build_projection(curve: FourierCurve, psi: np.ndarray) -> ProjectionData:
    """Assemble the moment vectors and I on the uniform N_ANGLES-point angle grid.

    psi may be any positive test function on a uniform t-grid; the library
    flows pass the spectral ground state.  x = psi cos t, y = psi sin t.
    """
    if np.ndim(psi) != 1 or len(psi) == 0:
        raise DomainError(f"psi must be a non-empty 1-D array, got shape {np.shape(psi)}")
    if not 0.0 < psi.min() <= psi.max() < np.inf:  # also refuses a NaN
        raise DomainError("psi must be positive and finite everywhere")
    t = TWO_PI * np.arange(len(psi)) / len(psi)
    rho = curve.phi_inv(len(psi), deriv=1)
    if not rho.min() > 0.0:
        raise NonMonotone("(phi^-1)' <= 0 on psi's grid; validate the curve first")
    x, y = psi * np.cos(t), psi * np.sin(t)
    xt, yt = spectral_derivative(x), spectral_derivative(y)
    X = TWO_PI * np.mean(rho * [x * x, -2.0 * x * y, y * y], axis=1)
    X_hat = TWO_PI * np.mean([xt * xt, -2.0 * xt * yt, yt * yt] / rho, axis=1)
    # min_t V_t.X in closed form
    p, q, r = _harmonics(X)
    if p - np.hypot(q, r) < 1e-14:
        raise DegenerateProjection("a projection direction has vanishing mass")
    t_grid = np.linspace(0.0, TWO_PI, N_ANGLES, endpoint=False)
    v = direction_vector(t_grid)
    I_values = (X_hat @ v) / (X @ v)
    return ProjectionData(X, X_hat, t_grid, I_values)


def three_angle_weights(alpha: float, beta: float, gamma: float) -> AngleWeights:
    """Weights (a, b, c) with a*V_alpha + b*V_beta + c*V_gamma = N.

    Requires the three angles to be pairwise non-congruent modulo pi; the
    weight formulas blow up like 1/sin^2 as two angles merge.
    """
    sab = np.sin(alpha - beta)
    sag = np.sin(alpha - gamma)
    sbg = np.sin(beta - gamma)
    smallest = np.min(np.abs([sab, sag, sbg]))  # NaN if any angle is: builtin min could skip it
    if not smallest >= ANGLE_MARGIN:
        raise DegenerateAngles(f"min |sin(angle difference)| = {smallest:.3e} < {ANGLE_MARGIN:.1e}")
    a = np.cos(beta - gamma) / (sab * sag)
    b = np.cos(alpha - gamma) / (-sab * sbg)
    c = np.cos(alpha - beta) / (sag * sbg)
    return AngleWeights(alpha, beta, gamma, float(a), float(b), float(c))


def three_angle_energy(data: ProjectionData, w: AngleWeights) -> float:
    """Energy reconstructed from I at three angles via the N decomposition."""
    angles = np.array([w.alpha, w.beta, w.gamma])
    weights = np.array([w.a, w.b, w.c])
    v = direction_vector(angles)
    masses = data.X @ v
    projections = (data.X_hat @ v) / masses
    den = float(weights @ masses)
    if abs(den) < 1e-12 * float(np.sum(np.abs(data.X))):
        raise SingularDenominator(f"weighted mass {den:.3e} too small")
    return float(weights @ (projections * masses)) / den


def classify_energy_projection(data: ProjectionData):
    """Either ConstantProjection or the unique TwoExtremaPairs of I on [0, pi).

    I'(t) is proportional to a sin 2t + b cos 2t + c = R sin(2t + atan2(b, a)) + c,
    whose two zeros per period are the extrema.  I is constant, and equal to
    the energy, when they differ by less than FLAT_TOL or when R = 0.
    """
    p, q, r = _harmonics(data.X)
    ph, qh, rh = _harmonics(data.X_hat)
    a, b, c = ph * q - qh * p, rh * p - ph * r, rh * q - qh * r
    R = np.hypot(a, b)
    base = np.arcsin(np.clip(-c / R, -1.0, 1.0)) if R > 0.0 else 0.0
    shift = np.arctan2(b, a)
    t1, t2 = float(0.5 * (base - shift) % np.pi), float(0.5 * (np.pi - base - shift) % np.pi)
    i1, i2 = data.I_at(t1), data.I_at(t2)
    if abs(i1 - i2) < FLAT_TOL:
        return ConstantProjection(data.energy)
    return TwoExtremaPairs(t1, t2) if i1 > i2 else TwoExtremaPairs(t2, t1)


def lambda_equal_point(data: ProjectionData) -> float:
    """The unique t in [0, pi/2) with I(t) = I(t + pi/2).

    At that angle the projection value equals the full energy quotient:
    I(t) = I(t + pi/2) reduces to (p q_hat - p_hat q) cos 2t
    + (p r_hat - p_hat r) sin 2t = 0.  A constant projection balances
    everywhere and returns 0.  The angle is returned in closed form, with no
    test of I(t) against the energy: verify's
    equal_point_matches_eigenvalue judges |I(t_lambda) - lambda| at 1e-6.
    """
    if isinstance(classify_energy_projection(data), ConstantProjection):
        return 0.0
    p, q, r = _harmonics(data.X)
    ph, qh, rh = _harmonics(data.X_hat)
    # the outer wrap folds a 2t rounded up to pi back onto 0
    return float(0.5 * (np.arctan2(ph * q - p * qh, p * rh - ph * r) % np.pi)) % (0.5 * np.pi)
