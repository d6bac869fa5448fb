"""Computer-free derivation of the 0.81 lower bound, made executable.

Restricting B2 to the level set where B1 equals 0.81 gives a function of
delta alone on [delta_min, pi/2).  Three tangent/chord linearizations
(concave secant term, convex quarter-angle tangent, concave rational term)
turn it into an explicit minorant whose minimum is the real root of a
depressed cubic; Cardano's formula locates the root and the minimum value
comes out near 0.8166, strictly above 0.81.  Each inequality used along the
way is sampled on MAJORANT_GRID points, with SLACK_TOL of roundoff allowed.

The functions compute and never judge: a negative slack fails the analytic
report's ``majorant_<name>`` and verify's ``tangent_majorants_nonnegative``,
and a minimum at or below LEVEL fails ``final_value_exceeds_0.81`` in the
one and ``final_value_exceeds_0_81`` in the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import b1, b2, g_factor
from .errors import DomainError

#: Slope constant of the chord bound tan(delta/4) <= delta/k on (0, pi/2);
#: equivalently cot(delta/4) >= k/delta with k = (pi/2)(sqrt(2) + 1).
CHORD_SLOPE = 0.5 * math.pi * (math.sqrt(2.0) + 1.0)

#: The level-set height: B1 = 0.81 means 1 + 2*nu*G = 10/9.
LEVEL = 0.81

#: Points per majorant grid, and the roundoff a slack may fall below zero at a tangency.
MAJORANT_GRID, SLACK_TOL = 10_000, 1e-12

#: Largest |d0^3 + p*d0 + q| that the cubic-residual checks accept.
CUBIC_RESIDUAL_TOL = 1e-9

#: Points of the level-set grid on [delta_min, pi/2), and the largest
#: |B1 - LEVEL| on it that the level_set_hits_0_81 checks accept.
LEVEL_SET_GRID, LEVEL_SET_TOL = 2000, 1e-12


@dataclass(frozen=True)
class AnalyticPipeline:
    """All intermediate constants of the closed-form minimization."""

    k: float
    delta_min: float
    p: float
    q: float
    d0: float
    delta0: float
    final_value: float
    discriminant: float
    residual: float  # |d0^3 + p*d0 + q|


@dataclass(frozen=True)
class MajorantCheck:
    name: str
    min_slack: float
    argmin: float


def level_set_delta_min() -> float:
    """Smallest delta on the B1 = 0.81 level set, where nu_tilde reaches 1.

    Solves G(delta) = 1/18 in closed form: tan(delta/4) = 1/(3*sqrt(2) - 1).
    """
    return 4.0 * math.atan(1.0 / (3.0 * math.sqrt(2.0) - 1.0))


def level_set_nu(delta):
    """nu_tilde = 1/(18*G(delta)) parameterizing the B1 = 0.81 level set.

    Defined for delta in [delta_min, pi/2): a delta below delta_min raises
    DomainError, and the roundoff above 1 at delta_min is clipped.  The value
    itself is not judged here: ``level_set_hits_0_81`` and
    ``level_set_nu_decreasing`` in verify's analytic suite do that.
    """
    delta = np.asarray(delta, dtype=float)
    if np.any(delta < level_set_delta_min()):
        raise DomainError("delta below delta_min: off the B1 = 0.81 level set")
    out = np.minimum(1.0 / (18.0 * g_factor(delta)), 1.0)
    return float(out) if out.ndim == 0 else out


def level_set_grid() -> np.ndarray:
    """LEVEL_SET_GRID deltas from delta_min to pi/2 - 1e-9."""
    return np.linspace(level_set_delta_min(), 0.5 * math.pi - 1e-9, LEVEL_SET_GRID)


def level_set_miss(delta) -> float:
    """Largest |B1(nu_tilde(delta), delta) - LEVEL| over the deltas: roundoff
    while level_set_nu parameterizes the B1 = 0.81 level set.  The analytic
    report's and verify's ``level_set_hits_0_81`` accept up to LEVEL_SET_TOL."""
    return float(np.max(np.abs(b1(level_set_nu(delta), delta) - LEVEL)))


def b2_on_level(delta):
    """B2 restricted to the level set, as a function of delta alone."""
    return b2(level_set_nu(delta), delta)


def b2_on_level_explicit(delta):
    """Same restriction written out: 1 - (2 - sec^2(d/2))(1 - (19/9 - G^-1/18)^-2)."""
    delta = np.asarray(delta, dtype=float)
    sec2 = 1.0 / np.cos(0.5 * delta) ** 2
    inner = 19.0 / 9.0 - 1.0 / (18.0 * g_factor(delta))
    out = 1.0 - (2.0 - sec2) * (1.0 - inner ** -2.0)
    return float(out) if out.ndim == 0 else out


def secant_term(delta):
    """F(delta) = 2 - sec^2(delta/2), the leading bracket of B2; concave."""
    delta = np.asarray(delta, dtype=float)
    out = 2.0 - 1.0 / np.cos(0.5 * delta) ** 2
    return float(out) if out.ndim == 0 else out


def secant_term_tangent(delta):
    """Tangent line to the secant term at delta = pi/3; majorizes it."""
    delta = np.asarray(delta, dtype=float)
    out = -(4.0 * math.sqrt(3.0) / 9.0) * (delta - math.pi / 3.0) + 2.0 / 3.0
    return float(out) if out.ndim == 0 else out


def g_inverse_chord_bound(delta):
    """(1 + k/delta)^2, a lower bound on G(delta)^-1 from the chord estimate
    on tan(delta/4); touches G^-1 at delta = pi/2."""
    delta = np.asarray(delta, dtype=float)
    out = (1.0 + CHORD_SLOPE / delta) ** 2.0
    return float(out) if out.ndim == 0 else out


def h_rational(delta):
    """H(delta) = 37/2 - k/delta - k^2/(2*delta^2); concave on (0, inf)."""
    delta = np.asarray(delta, dtype=float)
    out = 18.5 - CHORD_SLOPE / delta - 0.5 * CHORD_SLOPE**2 / delta**2
    return float(out) if out.ndim == 0 else out


def h_tangent(delta):
    """Tangent line to H at delta = k/3: (36/k)*delta - 1; majorizes H."""
    delta = np.asarray(delta, dtype=float)
    out = (36.0 / CHORD_SLOPE) * delta - 1.0
    return float(out) if out.ndim == 0 else out


def minorant(delta):
    """Explicit lower bound on B2 along the level set after all three
    linearizations; valid on [delta_min, pi/2)."""
    delta = np.asarray(delta, dtype=float)
    out = np.asarray(1.0 - secant_term_tangent(delta)
                     * (1.0 - 81.0 / h_tangent(delta) ** 2.0))
    return float(out) if out.ndim == 0 else out


def _slack_check(name: str, grid: np.ndarray, slack: np.ndarray) -> MajorantCheck:
    i = int(np.argmin(slack))
    return MajorantCheck(name, float(slack[i]), float(grid[i]))


def tangent_majorant_checks() -> list[MajorantCheck]:
    """Sample the three linearizations pointwise on MAJORANT_GRID-point grids.

    Returns the minimum slack and its location for each inequality, whatever
    its sign.  The ``analytic`` report's ``majorant_<name>`` checks and
    ``verify``'s ``tangent_majorants_nonnegative`` judge them: a slack below
    -SLACK_TOL fails them, and would indicate an implementation error.
    """
    margin = 1e-9
    full = np.linspace(margin, 0.5 * math.pi - margin, MAJORANT_GRID)
    upper = np.linspace(level_set_delta_min(), 0.5 * math.pi - margin, MAJORANT_GRID)
    return [
        _slack_check("secant_term_tangent", full, secant_term_tangent(full) - secant_term(full)),
        _slack_check("g_inverse_chord", full, 1.0 / g_factor(full) - g_inverse_chord_bound(full)),
        _slack_check("h_tangent", upper, h_tangent(upper) - h_rational(upper)),
    ]


def cardano_minimum() -> AnalyticPipeline:
    """Locate the minorant's minimum in closed form.

    Substituting D = (36/k)*delta - 1 turns the stationarity condition into
    the depressed cubic D^3 + p*D + q = 0 with p = 81 > 0, so the
    discriminant -4p^3 - 27q^2 is negative for every q: one real root, given
    by Cardano's formula with sign-aware real cube roots (the second radicand
    is negative).  delta0 and final_value are returned whatever their values:
    the ``analytic`` report's ``delta0_matches`` and
    ``final_value_exceeds_0.81`` judge them, and verify's
    ``final_value_exceeds_0_81`` and ``tangent_majorants_nonnegative`` fail
    for a chord slope that moves delta0 off [delta_min, pi/2).
    """
    k = CHORD_SLOPE
    p = 81.0
    q = 162.0 - 162.0 * (36.0 / k) * (math.pi / 3.0 + math.sqrt(3.0) / 2.0)
    discriminant = -4.0 * p**3 - 27.0 * q**2
    s = math.sqrt(0.25 * q * q + p**3 / 27.0)
    u1 = -0.5 * q + s
    u2 = -0.5 * q - s
    d0 = float(np.cbrt(u1) + np.cbrt(u2))
    delta0 = (k / 36.0) * (d0 + 1.0)
    delta_min = level_set_delta_min()
    final_value = float(minorant(delta0))
    residual = abs(d0**3 + p * d0 + q)
    return AnalyticPipeline(k, delta_min, p, q, d0, delta0, final_value, discriminant, residual)
