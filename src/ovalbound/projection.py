"""Energy projections of the psi-weighted curve and the three-angle identity.

With x = psi*cos(phi) and y = psi*sin(phi) interpreted as plane coordinates,
the quadratic integrals

    X = (int x^2, -2 int xy, int y^2),   X_hat = same with derivatives,

turn the projection h_t = x*sin(t) - y*cos(t) into scalar products: the
energy projection I(t) = int h_t'^2 / int h_t^2 equals (V_t.X_hat)/(V_t.X)
with V_t = (sin^2 t, sin t cos t, cos^2 t), and the full energy quotient is
(N.X_hat)/(N.X) with N = (1, 0, 1).  Because V_t depends on t only through
cos(2t) and sin(2t), I is pi-periodic and has at most one maximum/minimum
pair per period; the decomposition a*V_alpha + b*V_beta + c*V_gamma = N
expresses the energy as a weighted mix of three projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import TWO_PI, SampledCurve
from .errors import (AmbiguousExtrema, DegenerateAngles, DegenerateProjection,
                     DomainError, EqualPointNotFound, SingularDenominator)
from .spectral import spectral_derivative

N_VECTOR = np.array([1.0, 0.0, 1.0])

#: Angles closer than this (in |sin| of the difference) count as congruent mod pi.
ANGLE_MARGIN = 1e-6


def direction_vector(t: np.ndarray | float) -> np.ndarray:
    """V_t = (sin^2 t, sin t cos t, cos^2 t); shape (3,) or (3, len(t))."""
    t = np.asarray(t, dtype=float)
    return np.stack([np.sin(t)**2, np.sin(t) * np.cos(t), np.cos(t)**2])


@dataclass(frozen=True)
class ProjectionData:
    x: np.ndarray
    y: np.ndarray
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


def build_projection(sampled: SampledCurve, psi: np.ndarray,
                     n_angles: int = 1440) -> ProjectionData:
    """Assemble x/y, the moment vectors and I on a uniform angle grid.

    psi may be any positive test function sampled on the curve's s-grid; the
    library flows pass the spectral ground state.
    """
    if psi.min() <= 0.0:
        raise ValueError("psi must be positive everywhere")
    x = psi * np.cos(sampled.phi)
    y = psi * np.sin(sampled.phi)
    xp = spectral_derivative(x)
    yp = spectral_derivative(y)
    X = TWO_PI * np.array([np.mean(x * x), -2.0 * np.mean(x * y), np.mean(y * y)])
    X_hat = TWO_PI * np.array([np.mean(xp * xp), -2.0 * np.mean(xp * yp), np.mean(yp * yp)])
    # min_t V_t.X in closed form; V_t.X = p + q cos 2t + r sin 2t
    p = 0.5 * (X[0] + X[2])
    q = 0.5 * (X[2] - X[0])
    r = 0.5 * X[1]
    if p - np.hypot(q, r) < 1e-14:
        raise DegenerateProjection("a projection direction has vanishing mass")
    t_grid = np.linspace(0.0, TWO_PI, n_angles, endpoint=False)
    v = direction_vector(t_grid)
    I_values = (X_hat @ v) / (X @ v)
    return ProjectionData(x, y, X, X_hat, t_grid, I_values)


def three_angle_weights(alpha: float, beta: float, gamma: float,
                        margin: float = ANGLE_MARGIN) -> AngleWeights:
    """Weights (a, b, c) with a*V_alpha + b*V_beta + c*V_gamma = N.

    Requires the three angles to be pairwise non-congruent modulo pi; the
    weight formulas blow up like 1/sin^2 as two angles merge.
    """
    sab = np.sin(alpha - beta)
    sag = np.sin(alpha - gamma)
    sbg = np.sin(beta - gamma)
    smallest = min(abs(sab), abs(sag), abs(sbg))
    if smallest < margin:
        raise DegenerateAngles(f"min |sin(angle difference)| = {smallest:.3e} < {margin:.1e}")
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


def classify_energy_projection(data: ProjectionData, span_tol: float = 1e-9):
    """Either ConstantProjection or the unique TwoExtremaPairs of I on [0, pi).

    The grid scan counts cyclic sign changes of the finite difference of I;
    anything other than one rise and one fall contradicts the two-extrema
    structure and raises AmbiguousExtrema.  Extrema locations are polished
    with one three-point parabolic step (~1e-6 accuracy on the default grid).
    """
    if len(data.t_grid) < 720:
        raise DomainError("classification needs at least 720 angle samples")
    m = len(data.t_grid) // 2
    half = data.I_values[:m]
    span = float(half.max() - half.min())
    if span < span_tol:
        return ConstantProjection(float(half.mean()))
    d = np.diff(half, append=half[0])
    signs = np.sign(d)
    signs = signs[signs != 0.0]
    if signs.size == 0:
        raise AmbiguousExtrema("projection is flat but span exceeds tolerance")
    flips = int(np.sum(signs != np.roll(signs, -1)))
    if flips != 2:
        raise AmbiguousExtrema(f"{flips} monotonicity changes on [0, pi); expected 2")
    h = np.pi / m

    def refine(i: int) -> float:
        ym, y0, yp = half[(i - 1) % m], half[i], half[(i + 1) % m]
        den = ym - 2.0 * y0 + yp
        off = 0.0 if abs(den) < 1e-300 else 0.5 * h * (ym - yp) / den
        return float((data.t_grid[i] + np.clip(off, -h, h)) % np.pi)

    return TwoExtremaPairs(refine(int(np.argmax(half))), refine(int(np.argmin(half))))


def lambda_equal_point(data: ProjectionData, n_scan: int = 720,
                       tol: float = 1e-12) -> float:
    """The unique t in [0, pi/2) with I(t) = I(t + pi/2).

    At that angle the projection value equals the full energy quotient; the
    root is bracketed on a scan grid and polished by bisection.  A constant
    projection balances everywhere and returns 0 (classify first).
    """
    if float(data.I_values.max() - data.I_values.min()) < 1e-9:
        return 0.0

    def gap(t):
        return data.I_at(t) - data.I_at(t + 0.5 * np.pi)

    ts = np.linspace(0.0, 0.5 * np.pi, n_scan + 1)
    gv = np.asarray(gap(ts))
    exact = np.where(gv == 0.0)[0]
    if exact.size:
        t_root = float(ts[exact[0]])
    else:
        idx = np.where(gv[:-1] * gv[1:] < 0.0)[0]
        if idx.size == 0:
            raise EqualPointNotFound("no sign change of I(t) - I(t + pi/2) on [0, pi/2]")
        lo, hi = ts[idx[0]], ts[idx[0] + 1]
        glo = gv[idx[0]]
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            gm = gap(mid)
            if gm == 0.0:
                lo = hi = mid
            elif glo * gm < 0.0:
                hi = mid
            else:
                lo, glo = mid, gm
        t_root = 0.5 * (lo + hi)
    t_root = float(t_root % (0.5 * np.pi))
    mismatch = abs(data.I_at(t_root) - data.energy)
    if mismatch >= 1e-6:
        raise EqualPointNotFound(f"I(t_lambda) deviates from the energy by {mismatch:.3e}; "
                                 "this contradicts the equal-projection identity")
    return t_root
