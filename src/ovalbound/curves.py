"""Closed convex plane curves represented by the Fourier coefficients of the
inverse tangent-angle derivative.

A smooth, strictly convex closed curve of length 2*pi is encoded by the
tangent angle phi(s) as a function of arc length.  Working with the inverse
function, its derivative is a Fourier series

    (phi^-1)'(t) = 1 + sum_{n>=2} n*a_n*cos(nt) - n*b_n*sin(nt),

whose constant term is fixed by the winding number and whose first harmonic
is absent because the curve closes.  Integrating once,

    phi^-1(t) = C + t + g(t) + f(t),

where g collects the even-index harmonics (pi-periodic part) and f the odd
ones (anti-periodic part).  The zeros of f are the critical angles of the
curve, and the total variation of f is bounded above by 2*pi for every
admissible curve.  This module holds the curve representation, validation,
the f/g split, monotone inversion back to arc length, and the zero/variation
machinery on f, and the trigonometric-series kernel (``trig_series``,
``trig_coefficients``) that every module evaluates its Fourier series with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import (ConvergenceFailure, DegenerateProfile, DomainError,
                     ExhaustedRejection, NonMonotone, RejectedCurve)

TWO_PI = 2.0 * np.pi

#: Default strict-convexity margin for min (phi^-1)'.
EPS_CONVEX = 1e-3

#: Newton tolerance (in t) and iteration cap for the monotone inversion.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50

#: Scan grids carry at least this many points regardless of max_index.
MIN_GRID = 512


def trig_series(cos: np.ndarray, sin: np.ndarray, x: np.ndarray | float | int,
                deriv: int = 0) -> np.ndarray:
    """The ``deriv``-th derivative of sum_k cos[k]*cos(k x) + sin[k]*sin(k x).

    ``x`` is an array of points, or an int n meaning the uniform grid
    x_j = 2*pi*j/n, j = 0..n-1.  On the grid the sum is one inverse FFT, with
    harmonics at or above n/2 folded onto the grid exactly.  Off the grid it
    is the real part of a Horner recurrence in e^{ix}, or one pass over all
    harmonics at once when points are fewer than harmonics.
    """
    k = np.arange(len(cos))
    if deriv:  # d/dx maps the (cos, sin) coefficients of harmonic k to k*(sin, -cos)
        cos, sin = ((cos, sin), (sin, -cos), (-cos, -sin), (-sin, cos))[deriv % 4]
        cos, sin = k**deriv * cos, k**deriv * sin
    if isinstance(x, (int, np.integer)):
        spec = np.bincount(k % x, cos, x) - 1j * np.bincount(k % x, sin, x)
        return x * np.fft.ifft(spec).real
    x = np.asarray(x, dtype=float)
    if x.size < len(cos):
        arg = np.multiply.outer(x, k.astype(float))
        return np.cos(arg) @ cos + np.sin(arg) @ sin
    z = np.exp(1j * x)
    out = np.zeros_like(z)
    for c in (cos - 1j * sin)[::-1].tolist():  # Re sum_k (cos[k] - i sin[k]) z^k
        out *= z
        out += c
    return out.real


def trig_coefficients(samples: np.ndarray,
                      n_harmonics: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine coefficients, harmonics 0..n_harmonics (default n//2),
    of the trigonometric interpolant of samples on the grid 2*pi*j/n;
    harmonics beyond n//2 are zero.  For even n the Nyquist harmonic n/2 is
    a pure cosine carrying the full grid amplitude (its sine vanishes on the
    grid), so ``trig_series(*trig_coefficients(u), len(u))`` reproduces u.
    """
    n = len(samples)
    spec = np.fft.rfft(samples)
    spec[1:(n + 1) // 2] *= 2.0  # every bin but 0 and n/2 stands for a conjugate pair
    top = n // 2 if n_harmonics is None else n_harmonics
    cos, sin = np.zeros(top + 1), np.zeros(top + 1)
    m = min(top + 1, len(spec))
    cos[:m], sin[:m] = spec.real[:m] / n, -spec.imag[:m] / n
    return cos, sin


def _as_coeff_map(coeffs: Mapping[int, float] | None) -> dict[int, float]:
    out = {}
    for n, v in (coeffs or {}).items():
        n = int(n)
        if n < 2:
            raise ValueError(f"coefficient index {n} < 2: the constant term is fixed "
                             "and the first harmonic is excluded by closure")
        v = float(v)
        if not np.isfinite(v):
            raise ValueError(f"coefficient {n} is not finite: {v}")
        if v != 0.0:
            out[n] = v
    return out


@dataclass(frozen=True)
class FourierCurve:
    """Truncated Fourier data of (phi^-1)'; the single source of truth for a curve.

    ``a`` holds sine coefficients and ``b`` cosine coefficients of phi^-1,
    indexed by harmonic n >= 2.  ``c_offset`` is the integration constant C
    fixed by the parametrization choice phi(0) = 0.
    """

    a: dict[int, float] = field(default_factory=dict)
    b: dict[int, float] = field(default_factory=dict)
    max_index: int = 2
    c_offset: float = field(default=None)  # type: ignore[assignment]
    _series: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", _as_coeff_map(self.a))
        object.__setattr__(self, "b", _as_coeff_map(self.b))
        hi = max([2, *self.a.keys(), *self.b.keys()])
        object.__setattr__(self, "max_index", max(int(self.max_index), hi))
        if self.c_offset is None:
            # phi^-1(0) = C + sum b_n must vanish so that phi(0) = 0.
            object.__setattr__(self, "c_offset", -sum(self.b.values()))
        series = np.zeros((2, self.max_index + 1))  # cosine row from b, sine row from a
        for row, coeffs in enumerate((self.b, self.a)):
            series[row, list(coeffs)] = list(coeffs.values())
        object.__setattr__(self, "_series", series)

    def phi_inv(self, t: np.ndarray | float, deriv: int = 0) -> np.ndarray:
        """phi^-1(t) = C + t + sum_n a_n sin(nt) + b_n cos(nt), or its derivative."""
        t = np.asarray(t, dtype=float)
        linear = (self.c_offset + t, 1.0, 0.0)[min(deriv, 2)]
        return linear + trig_series(*self._series, t, deriv)

    def coefficient_budget(self) -> float:
        """Upper bound on |phi^-1(t) - t - C|, used to bracket the inversion."""
        return sum(abs(v) for v in self.a.values()) + sum(abs(v) for v in self.b.values())

    def grid_size(self, factor: int = 16) -> int:
        return max(MIN_GRID, factor * self.max_index)


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    min_value: float
    argmin_t: float
    eps_convex: float
    n_grid: int


@dataclass(frozen=True)
class ProfileDecomposition:
    """Odd/even harmonic split of phi^-1 - t - C.

    ``f_coeffs`` maps odd n to (a_n, b_n), ``g_coeffs`` even n likewise.
    ``f_values`` and ``g_values`` sample f and g on the uniform grid
    ``t_grid`` and satisfy f(t+pi) = -f(t) and g(t+pi) = g(t) by construction.
    """

    f_coeffs: dict[int, tuple[float, float]]
    g_coeffs: dict[int, tuple[float, float]]
    t_grid: np.ndarray
    max_index: int
    f_values: np.ndarray = field(init=False)
    g_values: np.ndarray = field(init=False)
    _f: np.ndarray = field(init=False, repr=False, compare=False)
    _g: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, coeffs in (("f", self.f_coeffs), ("g", self.g_coeffs)):
            series = np.zeros((2, self.max_index + 1))
            for n, (an, bn) in coeffs.items():
                series[:, n] = bn, an
            object.__setattr__(self, f"_{name}", series)
            object.__setattr__(self, f"{name}_values", trig_series(*series, len(self.t_grid)))

    def f(self, t: np.ndarray | float, deriv: int = 0) -> np.ndarray:
        return trig_series(*self._f, np.asarray(t, dtype=float), deriv)

    def g(self, t: np.ndarray | float, deriv: int = 0) -> np.ndarray:
        return trig_series(*self._g, np.asarray(t, dtype=float), deriv)


@dataclass(frozen=True)
class SampledCurve:
    """Uniform arc-length samples of the tangent angle and curvature of ``curve``."""

    n_points: int
    s_grid: np.ndarray
    phi: np.ndarray
    kappa: np.ndarray
    curve: FourierCurve


def validate_curve(curve: FourierCurve, eps_convex: float = EPS_CONVEX) -> ValidationReport:
    """Check strict convexity: min (phi^-1)' >= eps_convex on a dense grid.

    The grid minimum is polished with one parabolic step so that the reported
    value matches the true minimum of the trigonometric polynomial.  Raises
    RejectedCurve when the margin is violated.
    """
    n_grid = curve.grid_size()
    t = np.linspace(0.0, TWO_PI, n_grid, endpoint=False)
    vals = curve.phi_inv(t, deriv=1)
    i = int(np.argmin(vals))
    h = TWO_PI / n_grid
    tm, t0, tp = t[i] - h, t[i], t[i] + h
    fm, f0, fp = curve.phi_inv(np.array([tm, t0, tp]), deriv=1)
    denom = fm - 2.0 * f0 + fp
    t_star = t0 if abs(denom) < 1e-300 else t0 + 0.5 * h * (fm - fp) / denom
    t_star = float(np.clip(t_star, tm, tp))
    min_value = float(min(f0, curve.phi_inv(t_star, deriv=1)))
    argmin_t = float(t_star % TWO_PI if min_value < f0 else t0 % TWO_PI)
    if not min_value >= eps_convex:
        raise RejectedCurve(min_value, argmin_t, eps_convex)
    return ValidationReport(True, min_value, argmin_t, eps_convex, n_grid)


def decompose(curve: FourierCurve) -> ProfileDecomposition:
    """Split phi^-1 - t - C into the anti-periodic f and pi-periodic g parts."""
    f_coeffs, g_coeffs = {}, {}
    for n in sorted(set(curve.a) | set(curve.b)):
        pair = (curve.a.get(n, 0.0), curve.b.get(n, 0.0))
        (f_coeffs if n % 2 else g_coeffs)[n] = pair
    t_grid = np.linspace(0.0, TWO_PI, curve.grid_size(), endpoint=False)
    return ProfileDecomposition(f_coeffs, g_coeffs, t_grid, curve.max_index)


def invert_phi(curve: FourierCurve, n_points: int = 2048) -> SampledCurve:
    """Recover phi(s) and kappa(s) on a uniform arc-length grid.

    For each s the equation phi^-1(t) = s is solved by safeguarded Newton
    (monotone since (phi^-1)' > 0); the curvature is kappa = 1/(phi^-1)'.
    """
    if n_points < 1:
        raise DomainError(f"n_points must be at least 1, got {n_points}")
    s = TWO_PI * np.arange(n_points) / n_points
    margin = abs(curve.c_offset) + curve.coefficient_budget() + 1e-6
    lo = s - margin
    hi = s + margin
    t = s.copy()
    for _ in range(NEWTON_MAX_ITER):
        r = curve.phi_inv(t) - s
        d = curve.phi_inv(t, deriv=1)
        if np.any(d <= 0.0):
            raise NonMonotone("(phi^-1)' <= 0 during inversion; validate the curve first")
        if np.max(np.abs(r) / d) < NEWTON_TOL:
            break
        hi = np.where(r > 0.0, t, hi)
        lo = np.where(r < 0.0, t, lo)
        t_new = t - r / d
        # strict comparisons: a converged iterate sitting on its own bracket
        # bound must not be bisected away
        outside = (t_new < lo) | (t_new > hi)
        t = np.where(outside, 0.5 * (lo + hi), t_new)
    resid = np.max(np.abs(curve.phi_inv(t) - s))
    if resid > 1e-10:
        raise ConvergenceFailure(f"inversion residual {resid:.3e} after "
                                 f"{NEWTON_MAX_ITER} iterations")
    kappa = 1.0 / curve.phi_inv(t, deriv=1)
    return SampledCurve(n_points, s, t, kappa, curve)


def closure_residuals(sampled: SampledCurve) -> tuple[float, float]:
    """(|int cos phi ds|, |int sin phi ds|); both vanish for closed curves."""
    return (abs(float(np.mean(np.cos(sampled.phi)))) * TWO_PI,
            abs(float(np.mean(np.sin(sampled.phi)))) * TWO_PI)


def winding_integral(sampled: SampledCurve) -> float:
    """int kappa ds; equals 2*pi once around."""
    return float(np.mean(sampled.kappa)) * TWO_PI


def _scan_zeros(fun: Callable[[np.ndarray], np.ndarray], n_grid: int,
                dedupe_tol: float = 1e-9) -> np.ndarray:
    """All simple zeros of a 2*pi-periodic function, by sign scan + bisection."""
    t = np.linspace(0.0, TWO_PI, n_grid, endpoint=False)
    v = fun(t)
    t_ext = np.append(t, TWO_PI)
    v_ext = np.append(v, v[0])
    exact = t[v == 0.0]
    idx = np.where(v_ext[:-1] * v_ext[1:] < 0.0)[0]
    lo, hi = t_ext[idx], t_ext[idx + 1]
    flo = v_ext[idx]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        hit = fm == 0.0
        down = flo * fm < 0.0
        hi = np.where(hit | down, mid, hi)
        lo = np.where(hit | ~down, mid, lo)
        flo = np.where(down | hit, flo, fm)
    roots = np.concatenate([exact, 0.5 * (lo + hi)]) % TWO_PI
    roots.sort()
    if roots.size > 1:
        keep = np.diff(roots, prepend=roots[-1] - TWO_PI) > dedupe_tol
        roots = roots[keep]
    return roots


def critical_angles(profile: ProfileDecomposition) -> np.ndarray:
    """Zeros of f in [0, 2*pi), sorted.  These are the critical angles; every
    closed curve has at least six of them, in antipodal pairs."""
    scale = float(np.max(np.abs(profile.f_values))) if profile.f_values.size else 0.0
    if scale < 1e-12:
        raise DegenerateProfile("f is identically zero; all angles are critical")
    n_grid = max(MIN_GRID, 16 * profile.max_index)
    return _scan_zeros(profile.f, n_grid)


def total_variation(profile: ProfileDecomposition) -> float:
    """Total variation int |f'(t)| dt over one period.

    f' keeps one sign between consecutive zeros, so the integral is the exact
    cyclic sum of |f(z_{i+1}) - f(z_i)| over the zeros z_i of f', each located
    to bisection accuracy.  Deterministic for a fixed scan grid.
    """
    if not profile.f_coeffs:
        return 0.0
    n_grid = max(2 * MIN_GRID, 32 * profile.max_index)
    t = np.linspace(0.0, TWO_PI, n_grid, endpoint=False)
    if float(np.max(np.abs(profile.f(t, deriv=1)))) < 1e-14:
        return 0.0
    z = _scan_zeros(lambda u: profile.f(u, deriv=1), n_grid)
    fz = profile.f(z)
    return float(np.sum(np.abs(np.diff(fz, append=fz[0]))))


def random_curve(rng: np.random.Generator, max_index: int = 6, rho: float = 0.5,
                 eps_convex: float = EPS_CONVEX, max_tries: int = 1000) -> FourierCurve:
    """Rejection-sample a valid curve with coefficients a_n, b_n ~ U[-rho/n^2, rho/n^2].

    The 1/n^2 decay keeps a healthy convexity margin while exercising many
    harmonics.
    """
    for _ in range(max_tries):
        a = {n: rng.uniform(-rho / n**2, rho / n**2) for n in range(2, max_index + 1)}
        b = {n: rng.uniform(-rho / n**2, rho / n**2) for n in range(2, max_index + 1)}
        curve = FourierCurve(a=a, b=b, max_index=max_index)
        try:
            validate_curve(curve, eps_convex)
        except RejectedCurve:
            continue
        return curve
    raise ExhaustedRejection(max_tries)
