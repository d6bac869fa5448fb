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
admissible curve.  The package works in t throughout, with ds = (phi^-1)' dt,
and never inverts phi^-1.  This module holds the curve representation,
validation, the f/g split, the zero/variation machinery on f, and the
trigonometric-series kernel every module uses: ``trig_series``,
``trig_coefficients``, ``spectral_derivative`` and ``trig_roots``.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateProfile, DomainError, ExhaustedRejection, RejectedCurve

TWO_PI = 2.0 * np.pi

#: The strict-convexity margin for min (phi^-1)'.
EPS_CONVEX = 1e-3

#: The eigensolve's largest basis.  Its 8*MAX_MODES-point t-grid aliases each harmonic at
#: or above MAX_HARMONIC, its Nyquist harmonic, onto a lower one, so no curve may hold one.
MAX_MODES = 512
MAX_HARMONIC = 4 * MAX_MODES

#: random_curve draws a_n, b_n ~ U[-RANDOM_RHO/n^2, RANDOM_RHO/n^2], at most MAX_TRIES times.
RANDOM_RHO, MAX_TRIES = 0.5, 1000

#: Newton tolerance (in t) and iteration cap of the convexity polish.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50

#: The convexity scan grid has at least this many points.
MIN_GRID = 512

#: A root in z = e^{it} within this of |z| = 1 is a real zero: simple zeros
#: land within ~1e-14 and a double zero splits by ~1e-8, while the other
#: roots of random curves keep a few 1e-2 away.
UNIT_CIRCLE_TOL = 1e-6


def _derivative_spectra(cos: np.ndarray, sin: np.ndarray, orders: Sequence[int]) -> np.ndarray:
    """Rows (ik)^d (cos[k] - i sin[k]), one per order d: the d-th derivative
    of the series is Re sum_k row[k] e^{ikx}.  (ik)^d is exact, so each
    entry is one rounding of k^d times a coefficient."""
    spec = cos - 1j * sin
    ik = 1j * np.arange(len(cos))
    return np.array([spec * ik**d if d else spec for d in orders])


def trig_series(cos: np.ndarray, sin: np.ndarray, x: np.ndarray | float | int,
                deriv: int | Sequence[int] = 0) -> np.ndarray:
    """The ``deriv``-th derivative of sum_k cos[k]*cos(k x) + sin[k]*sin(k x).

    ``x`` is an array of points, or an int n >= 1 meaning the uniform grid
    x_j = 2*pi*j/n.  A grid that resolves every harmonic (the top one at most
    n/2) takes one real inverse FFT for all orders, of the half-spectrum
    (cos[k] - i sin[k])/2 whose bins 0 and, for even n, n/2 count once.
    Points, and a coarser grid at its points, take the real part of a Horner
    recurrence in e^{ix}.  A sequence of orders gives one row per order, each
    bitwise equal to its order alone."""
    single = isinstance(deriv, (int, np.integer))
    spec = _derivative_spectra(cos, sin, [deriv] if single else deriv)
    grid = isinstance(x, (int, np.integer))
    if grid and x < 1:
        raise DomainError(f"a uniform grid needs at least 1 point, got {x}")
    if grid and len(cos) <= x // 2 + 1:  # every harmonic has its own bin
        half = np.zeros((len(spec), x // 2 + 1), complex)
        half[:, :len(cos)] = spec
        half[:, 1:(x + 1) // 2] *= 0.5  # every bin but 0 and n/2 stands for a conjugate pair
        # irfft drops the imaginary parts of bins 0 and n/2: sin 0 and sin(n x_j / 2) vanish
        out = np.fft.irfft(half, x, norm="forward")
    else:
        z = np.exp(1j * (TWO_PI * np.arange(x) / x if grid else np.asarray(x, dtype=float)))
        out = []
        for coeffs in spec:  # every order from the one z
            row = np.zeros_like(z)
            for coeff in coeffs[::-1].tolist():  # Re sum_k coeffs[k] z^k
                row *= z
                row += coeff
            out.append(row.real)
    return out[0] if single else np.asarray(out)


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


def spectral_derivative(u: np.ndarray) -> np.ndarray:
    """The derivative, at the samples, of the trigonometric interpolant of uniform
    samples u: bin k of rfft(u) times ik, then irfft, with the even-n Nyquist bin
    zeroed, as that pure cosine (see ``trig_coefficients``) has no slope on the grid."""
    spec = np.fft.rfft(u)
    spec *= 1j * np.arange(len(spec))
    if len(u) % 2 == 0:
        spec[-1] = 0.0
    return np.fft.irfft(spec, len(u))


def trig_roots(cos: np.ndarray, sin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of sum_k cos[k]*cos(k t) + sin[k]*sin(k t) in z = e^{it}.

    With K the top nonzero harmonic, the sum is z^-K times a polynomial of
    degree 2K, whose 2K roots come from its companion matrix (Boyd, J. Eng.
    Math. 56, 2006).  Returns their angles in [0, 2*pi), sorted, and their
    moduli in the same order; the real zeros of the series are the roots on
    the unit circle, a zero of multiplicity m appearing m times.
    """
    top = max(np.flatnonzero((cos != 0.0) | (sin != 0.0)), default=0)
    if top == 0:  # a constant has no roots
        return np.zeros(0), np.zeros(0)
    half = 0.5 * (cos[1:top + 1] - 1j * sin[1:top + 1])  # the z^k coefficient, k >= 1
    poly = np.concatenate([half[::-1], cos[:1], np.conj(half)]) / half[-1]
    # real when all harmonics share one phase (sine-only f, say); real
    # arithmetic then returns the roots z = 1 and z = -1 exactly real
    z = np.roots(poly if poly.imag.any() else poly.real)
    angles = np.angle(z) % TWO_PI
    angles[angles == TWO_PI] = 0.0  # a tiny negative angle rounds up to 2*pi
    order = np.argsort(angles)
    return angles[order], np.abs(z[order])


def _as_coeff_map(coeffs: Mapping[int, float] | None) -> dict[int, float]:
    coeffs = {} if coeffs is None else coeffs
    if not isinstance(coeffs, Mapping):
        raise TypeError(f"coefficients must map harmonics to numbers, not {type(coeffs).__name__}")
    out = {}
    for key, v in coeffs.items():
        # int() would take "2_0", " 2" or the Arabic-Indic digit three
        if isinstance(key, str) and not (key.isascii() and key.isdigit()):
            raise ValueError(f"harmonic key {key!r} is not a string of ASCII digits")
        n = int(key) if isinstance(key, str) else operator.index(key)
        if n < 2:
            raise ValueError(f"coefficient index {n} < 2: the constant term is fixed "
                             "and the first harmonic is excluded by closure")
        if n in out:
            raise ValueError(f"harmonic {n} is given twice (as {key!r})")
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise TypeError(f"coefficient {n} is not a number: {v!r}")
        try:
            out[n] = float(v)
        except OverflowError:  # an int past the largest float
            raise ValueError(f"coefficient {n} is too large for a float") from None
        if not np.isfinite(out[n]):
            raise ValueError(f"coefficient {n} is not finite: {out[n]}")
    return {n: v for n, v in out.items() if v != 0.0}


@dataclass(frozen=True)
class FourierCurve:
    """Truncated Fourier data of (phi^-1)'; the single source of truth for a curve.

    ``a`` holds sine coefficients and ``b`` cosine coefficients of phi^-1,
    indexed by harmonic 2 <= n <= max_index < MAX_HARMONIC, and ``_series``
    their cosine and sine rows by harmonic, which every derived quantity reads.
    ``c_offset`` is C = -sum b_n, which makes phi^-1(0) = phi(0) = 0.
    ``top_harmonic`` is the highest harmonic with a nonzero coefficient, 0 for
    the circle: solves and scans are sized from it, as max_index may count padding.
    """

    a: dict[int, float] = field(default_factory=dict)
    b: dict[int, float] = field(default_factory=dict)
    max_index: int = 2
    c_offset: float = field(init=False)
    top_harmonic: int = field(init=False)
    _series: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", _as_coeff_map(self.a))
        object.__setattr__(self, "b", _as_coeff_map(self.b))
        if isinstance(self.max_index, bool) or not hasattr(self.max_index, "__index__"):
            raise TypeError(f"max_index must be an integer, got {self.max_index!r}")
        index = operator.index(self.max_index)
        if index < 2:
            raise ValueError(f"max_index {index} < 2 names no admissible harmonic")
        object.__setattr__(self, "max_index", max([index, *self.a, *self.b]))
        if self.max_index >= MAX_HARMONIC:  # also bounds every coefficient index
            raise ValueError(f"harmonic {self.max_index} >= {MAX_HARMONIC} would alias "
                             "on the largest solve grid")
        series = np.zeros((2, self.max_index + 1))  # cosine row from b, sine row from a
        for row, coeffs in enumerate((self.b, self.a)):
            series[row, list(coeffs)] = list(coeffs.values())
        object.__setattr__(self, "_series", series)
        object.__setattr__(self, "c_offset", -float(series[0].sum()))
        object.__setattr__(self, "top_harmonic", max([0, *self.a, *self.b]))

    @classmethod
    def from_series(cls, series: np.ndarray) -> FourierCurve:
        """The curve whose ``_series`` is ``series``, rows b and a by harmonic 0..K = max_index."""
        if np.ndim(series) != 2 or len(series) != 2:
            raise ValueError(f"series must have shape (2, K + 1), got {np.shape(series)}")
        b, a = ({n: v for n, v in enumerate(row) if v != 0.0} for row in series)
        return cls(a=a, b=b, max_index=len(series[0]) - 1)

    def phi_inv(self, t: np.ndarray | float | int, deriv: int = 0) -> np.ndarray:
        """phi^-1(t) = C + t + sum_n a_n sin(nt) + b_n cos(nt), or its deriv-th
        derivative; an int n means the uniform grid 2*pi*j/n, as in ``trig_series``."""
        out = trig_series(*self._series[:, :self.top_harmonic + 1], t, deriv)
        if deriv > 0:  # the part the series leaves out, C + t, has slope 1
            return out + (1.0 if deriv == 1 else 0.0)
        ts = TWO_PI * np.arange(t) / t if isinstance(t, (int, np.integer)) else np.asarray(t, float)
        return out + (self.c_offset + ts)


@dataclass(frozen=True)
class ValidationReport:
    min_value: float
    argmin_t: float


@dataclass(frozen=True, eq=False)
class ProfileDecomposition:
    """Odd/even harmonic split of phi^-1 - t - C.

    ``f_series`` is the curve's ``_series`` with its even harmonics zeroed
    and ``g_series`` the same with its odd ones zeroed, so f(t+pi) = -f(t)
    and g(t+pi) = g(t) by construction.
    """

    f_series: np.ndarray
    g_series: np.ndarray

    def f(self, t: np.ndarray | float | int, deriv: int | Sequence[int] = 0) -> np.ndarray:
        """f or its derivative at t, with t and deriv as ``trig_series`` takes x and
        deriv: an int n is the grid 2*pi*j/n, a sequence of orders one row each."""
        return trig_series(*self.f_series, t, deriv)

    def g(self, t: np.ndarray | float | int, deriv: int | Sequence[int] = 0) -> np.ndarray:
        """g or its derivative; t and deriv as in ``f``."""
        return trig_series(*self.g_series, t, deriv)


def validate_curve(curve: FourierCurve) -> ValidationReport:
    """Check strict convexity: min (phi^-1)' >= EPS_CONVEX.

    The minimum over a dense grid is polished by Newton steps on
    (phi^-1)'' = 0, kept within one grid step of the grid minimum, so that
    the reported value is the minimum of the trigonometric polynomial in
    that basin.  Raises RejectedCurve when the margin is violated or a value
    overflows a float, then with min_value at most 0.
    """
    n_grid = max(MIN_GRID, 16 * curve.top_harmonic)
    h = TWO_PI / n_grid
    k = np.arange(curve.top_harmonic + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        scan = curve.phi_inv(n_grid, deriv=1)
        t0 = t_star = float(np.argmin(scan)) * h
        if not np.isfinite(scan).all():
            raise RejectedCurve(-np.finfo(float).max, t0, EPS_CONVEX)
        # (phi^-1)' - 1, (phi^-1)'' and (phi^-1)''' at t are the rows of Re spec @ e^{ikt}
        spec = _derivative_spectra(*curve._series[:, :len(k)], (1, 2, 3))
        for _ in range(NEWTON_MAX_ITER):
            slope, bend = (spec[1:] @ np.exp(1j * t_star * k)).real.tolist()
            finite = math.isfinite(slope) and math.isfinite(bend)
            if not (finite and bend > 0.0):  # no minimum ahead for Newton to find
                break
            t_prev, t_star = t_star, float(np.clip(t_star - slope / bend, t0 - h, t0 + h))
            if abs(t_star - t_prev) < NEWTON_TOL:
                break
        f0, f_star = 1.0 + (np.exp(1j * np.multiply.outer([t0, t_star], k)) @ spec[0]).real
    # a polish that overflowed bounds nothing: the curve is refused
    min_value = float(min(f0, f_star) if finite else min(f0, f_star, 0.0))
    argmin_t = t_star % TWO_PI if f_star < f0 else t0
    if not min_value >= EPS_CONVEX:
        raise RejectedCurve(min_value, argmin_t, EPS_CONVEX)
    return ValidationReport(min_value, argmin_t)


def decompose(curve: FourierCurve) -> ProfileDecomposition:
    """Split phi^-1 - t - C into the anti-periodic f and pi-periodic g parts by parity."""
    odd = np.arange(curve.max_index + 1) % 2 == 1
    return ProfileDecomposition(np.where(odd, curve._series, 0.0),
                                np.where(odd, 0.0, curve._series))


def critical_angles(profile: ProfileDecomposition) -> np.ndarray:
    """Zeros of f in [0, 2*pi), sorted, each repeated by its multiplicity.
    These are the critical angles; every closed curve has at least six of
    them, in antipodal pairs.  They are the roots of f's polynomial in
    z = e^{it} within UNIT_CIRCLE_TOL of the unit circle."""
    if not np.any(profile.f_series):
        raise DegenerateProfile("f is identically zero; all angles are critical")
    angles, moduli = trig_roots(*profile.f_series)
    return angles[np.abs(moduli - 1.0) < UNIT_CIRCLE_TOL]


def total_variation(profile: ProfileDecomposition) -> float:
    """Total variation int |f'(t)| dt over one period.

    f is monotone between consecutive real zeros of f', so the integral is
    the cyclic sum of |f(z_{i+1}) - f(z_i)| over those zeros.  The sum runs
    over the angles of every root of f' in z = e^{it}: an extra point inside
    a monotone run leaves the sum unchanged, so no root needs to be told
    apart from the unit circle.
    """
    cos, sin = profile.f_series
    k = np.arange(len(cos))
    angles, _ = trig_roots(k * sin, -k * cos)  # the coefficients of f'
    fz = profile.f(angles)
    return float(np.sum(np.abs(fz - np.roll(fz, 1))))


def random_curve(rng: np.random.Generator, max_index: int = 6) -> FourierCurve:
    """Rejection-sample a curve that passes validate_curve: each try draws the
    row a_n, then the row b_n, n = 2..max_index, from U[-RANDOM_RHO/n^2, RANDOM_RHO/n^2].

    The 1/n^2 decay keeps a healthy convexity margin while exercising many
    harmonics.
    """
    bound = RANDOM_RHO / np.arange(2, max_index + 1) ** 2
    for _ in range(MAX_TRIES):
        a = rng.uniform(-bound, bound)  # a row a call: the stream of one draw per a_n, then b_n
        b = rng.uniform(-bound, bound)
        curve = FourierCurve.from_series(np.concatenate([np.zeros((2, 2)), [b, a]], axis=1))
        try:
            validate_curve(curve)
        except RejectedCurve:
            continue
        return curve
    raise ExhaustedRejection(MAX_TRIES)
