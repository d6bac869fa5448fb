"""Step-function minimizers of the total variation, and random admissible
profiles for the empirical lower-bound check.

The extremal class consists of anti-periodic two-plateau step functions: a
positive plateau beta on (tau1, m], a negative plateau -gamma on [m, tau2),
and a delta-plateau on [pi/2, pi] (peaking at delta + nu at the single point
pi/2).  Killing both first-harmonic Fourier components is a 2x2 linear
system in (beta, gamma); adding up the jumps gives the total variation
4*(delta + nu + beta + gamma), minimal when the split point m is the
midpoint of tau1 and tau2.  Random piecewise-linear anti-periodic profiles,
built directly with the same sign pattern, zero first harmonics and total
variation at most 2*pi, provide an empirical check that every admissible
profile has strictly more variation than the step-function bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NegativeWeight, SingularSystem

SQRT2 = np.sqrt(2.0)
HALF_PI = 0.5 * np.pi

#: sample_admissible adds EXTRA_KNOTS knots in (0, tau1), (tau1, tau2), (tau2, pi/2)
#: and (pi/2, pi) to its five fixed ones.
EXTRA_KNOTS = (1, 4, 1, 3)


def _check_taus(tau1: float, tau2: float, delta: float) -> None:
    if not 0.0 < tau1 < tau2 < HALF_PI:
        raise DomainError(f"need 0 < tau1 < tau2 < pi/2, got ({tau1}, {tau2})")
    if not delta > 0.0:
        raise DomainError("delta must be positive")


def solve_balance(tau1: float, tau2: float, m: float, delta: float) -> tuple[float, float]:
    """Plateau heights (beta, gamma) that zero both first-harmonic integrals.

    The system comes from int f sin t dt = int f cos t dt = 0 over one
    anti-period.  Rejects a singular split point (pivot under 1e-14) and any
    solution with a non-positive height, which would leave the step class.
    """
    _check_taus(tau1, tau2, delta)
    if not tau1 < m < tau2:
        raise DomainError(f"split point m = {m} must lie in (tau1, tau2)")
    mat = np.array([
        [np.cos(tau1) - np.cos(m), np.cos(tau2) - np.cos(m)],
        [np.sin(m) - np.sin(tau1), -(np.sin(tau2) - np.sin(m))],
    ])
    det = float(np.linalg.det(mat))
    if abs(det) < 1e-14:
        raise SingularSystem(f"balance system determinant {det:.3e}")
    beta, gamma = np.linalg.solve(mat, np.array([-delta, delta]))
    if beta <= 0.0 or gamma <= 0.0:
        raise NegativeWeight(f"beta = {beta:.6g}, gamma = {gamma:.6g}")
    return float(beta), float(gamma)


@dataclass(frozen=True)
class StepFunctionSpec:
    """A member of the extremal step class, with balanced plateau heights."""

    tau1: float
    tau2: float
    m: float
    delta: float
    nu: float
    beta: float
    gamma: float


def make_step_spec(tau1: float, tau2: float, m: float, delta: float,
                   nu: float = 0.0) -> StepFunctionSpec:
    if not nu >= 0.0:
        raise DomainError("nu must be nonnegative")
    beta, gamma = solve_balance(tau1, tau2, m, delta)
    return StepFunctionSpec(tau1, tau2, m, delta, nu, beta, gamma)


def step_values(spec: StepFunctionSpec, t: np.ndarray) -> np.ndarray:
    """Evaluate the step function on [0, 2*pi); anti-periodic by construction."""
    t = np.asarray(t, dtype=float) % (2.0 * np.pi)
    base = t % np.pi
    sign = np.where(t < np.pi, 1.0, -1.0)
    out = np.zeros_like(base)
    out = np.where((base > spec.tau1) & (base <= spec.m), spec.beta, out)
    out = np.where((base >= spec.m) & (base < spec.tau2), -spec.gamma, out)
    out = np.where(base >= HALF_PI, spec.delta, out)
    # the single-point peak at pi/2; tolerance absorbs the modulo roundoff
    out = np.where(np.abs(base - HALF_PI) < 1e-12, spec.delta + spec.nu, out)
    return sign * out


def step_fourier_residuals(spec: StepFunctionSpec) -> tuple[float, float]:
    """(int f sin, int f cos) over the full period, from exact plateau sums.

    Both vanish for a balanced spec; this recomputes them from the plateau
    geometry rather than from the solved system.
    """
    def plateau(a, b, level):
        return (level * (np.cos(a) - np.cos(b)), level * (np.sin(b) - np.sin(a)))

    pieces = [plateau(spec.tau1, spec.m, spec.beta),
              plateau(spec.m, spec.tau2, -spec.gamma),
              plateau(HALF_PI, np.pi, spec.delta)]
    rs = 2.0 * sum(p[0] for p in pieces)
    rc = 2.0 * sum(p[1] for p in pieces)
    return float(rs), float(rc)


def plateau_sum(tau1: float, tau2: float, m, delta: float):
    """S(m) = beta + gamma as an explicit function of the split point."""
    _check_taus(tau1, tau2, delta)
    m = np.asarray(m, dtype=float)
    den = np.sin(tau2 - m) + np.sin(m - tau1) - np.sin(tau2 - tau1)
    if not np.all(den > 0.0):
        raise DomainError("plateau-sum denominator not positive; m outside (tau1, tau2)")
    num = delta * (np.sin(tau2) - np.sin(tau1) + np.cos(tau1) - np.cos(tau2))
    out = num / den
    return float(out) if out.ndim == 0 else out


def plateau_sum_minimum(tau1: float, tau2: float, delta: float) -> float:
    """Closed-form minimum of S(m), attained at the midpoint of tau1, tau2."""
    _check_taus(tau1, tau2, delta)
    return float(SQRT2 * delta * np.sin(0.5 * (tau1 + tau2) + 0.25 * np.pi)
                 / (2.0 * np.sin(0.25 * (tau2 - tau1)) ** 2))


@dataclass(frozen=True)
class VariationBound:
    exact: float
    relaxed: float


def min_total_variation(tau1: float, tau2: float, delta: float,
                        nu: float = 0.0) -> VariationBound:
    """Lower bound on the total variation of any admissible profile.

    The exact form uses sin((tau1 + tau2)/2 + pi/4); the relaxed form
    replaces the angle sum by the difference, which can only decrease it.
    Both are returned as computed; verify's relaxed_below_exact judges
    that ordering.
    """
    _check_taus(tau1, tau2, delta)
    if not nu >= 0.0:
        raise DomainError("nu must be nonnegative")
    s2 = np.sin(0.25 * (tau2 - tau1)) ** 2
    exact = 4.0 * (delta + nu) + 4.0 * plateau_sum_minimum(tau1, tau2, delta)
    relaxed = 4.0 * (delta + nu) + 2.0 * SQRT2 * delta * np.sin(
        0.5 * (tau2 - tau1) + 0.25 * np.pi) / s2
    return VariationBound(float(exact), float(relaxed))


@dataclass(frozen=True)
class AdmissibleSample:
    """Piecewise-linear anti-periodic profile satisfying the sign-pattern and
    first-harmonic conditions, with its measured parameters."""

    knots: np.ndarray
    values: np.ndarray
    tau1: float
    tau2: float
    delta: float
    nu: float


def _pwl_first_harmonics(knots: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """(int f sin, int f cos) over [0, pi] for a piecewise-linear f, exactly."""
    p, q = knots[:-1], knots[1:]
    vp, vq = values[:-1], values[1:]
    slope = (vq - vp) / (q - p)
    a0 = vp - slope * p
    i_sin = -(a0 + slope * q) * np.cos(q) + (a0 + slope * p) * np.cos(p) \
        + slope * (np.sin(q) - np.sin(p))
    i_cos = (a0 + slope * q) * np.sin(q) - (a0 + slope * p) * np.sin(p) \
        + slope * (np.cos(q) - np.cos(p))
    return float(np.sum(i_sin)), float(np.sum(i_cos))


def sample_variation(sample: AdmissibleSample) -> float:
    """Exact total variation: twice the sum of |slope|*width over [0, pi]."""
    return 2.0 * float(np.sum(np.abs(np.diff(sample.values))))


def sample_admissible(rng: np.random.Generator) -> AdmissibleSample:
    """Construct a random admissible piecewise-linear profile, with no rejection.

    Knots always include 0, tau1, tau2, pi/2 and pi.  EXTRA_KNOTS more sit one
    per equal bin of the gaps between them, jittered within the middle of the
    bin, which keeps every pair apart.  Values are drawn with the required
    sign pattern; the first and last knots strictly inside (tau1, tau2), where
    the sign pattern places no constraint, then absorb both first harmonics
    (a 2x2 solve, as the harmonics are linear in the values).  A profile with
    total variation over 2*pi is scaled to u*2*pi, u ~ U(0.5, 1), so that it
    could come from an actual curve profile, which the plateau-ceiling bound
    presumes.  Scaling keeps the sign pattern and the zero harmonics, and as
    min_total_variation is homogeneous of degree one in (delta, nu), it keeps
    the sign of the strict-bound margin too.
    """
    n_neg, n_mid, n_pos, n_right = EXTRA_KNOTS
    tau1 = rng.uniform(0.25, 0.55)
    tau2 = rng.uniform(tau1 + 0.5, HALF_PI - 0.08)
    gaps = ((0.03, tau1 - 0.03, n_neg), (tau1 + 0.04, tau2 - 0.04, n_mid),
            (tau2 + 0.02, HALF_PI - 0.02, n_pos), (HALF_PI + 0.03, np.pi - 0.03, n_right))
    extra = [lo + (hi - lo) * (np.arange(n) + rng.uniform(0.2, 0.8, n)) / n
             for lo, hi, n in gaps]
    knots = np.concatenate([[0.0], extra[0], [tau1], extra[1], [tau2], extra[2],
                            [HALF_PI], extra[3], [np.pi]])
    plateau = rng.uniform(0.01, 0.06)
    values = np.concatenate([[0.0], -rng.uniform(0.02, 0.25, n_neg), [0.0],
                             rng.uniform(-0.3, 0.3, n_mid), [0.0],
                             rng.uniform(0.02, 0.25, n_pos),
                             plateau * (1.0 + rng.uniform(0.0, 1.0, n_right + 2))])
    values[0] = -values[-1]  # anti-periodic continuity at 0 and pi

    mid = [n_neg + 2, n_neg + 1 + n_mid]
    unit = np.eye(len(knots))
    mat = np.array([_pwl_first_harmonics(knots, unit[i]) for i in mid]).T
    det = float(np.linalg.det(mat))
    if abs(det) < 1e-12:
        raise SingularSystem(f"first-harmonic system determinant {det:.3e}")
    values[mid] -= np.linalg.solve(mat, _pwl_first_harmonics(knots, values))

    tv = 2.0 * float(np.sum(np.abs(np.diff(values))))
    if tv > 2.0 * np.pi:
        values *= rng.uniform(0.5, 1.0) * 2.0 * np.pi / tv
    right = values[knots >= HALF_PI]
    return AdmissibleSample(knots, values, tau1, tau2,
                            float(right.min()), float(right.max() - right.min()))
