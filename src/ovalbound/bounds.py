"""The two bound surfaces and their inf-max optimization.

On the rectangle (nu_tilde, delta) in [0, 1] x (0, pi/2) the eigenvalue of
every admissible curve exceeds max(B1, B2) at some point, so the infimum of
the pointwise maximum is a global lower bound.  The surfaces are

    B1 = (1 + 2*nu_tilde*G(delta))^-2,
    B2 = 1 - (2 - sec^2(delta/2)) * (1 - (2 + 2*nu_tilde*G(delta) - nu_tilde)^-2),
    G  = (1 + cot(delta/4))^-2.

B1 decreases in both arguments, B2 increases in nu_tilde, and the minimum of
the maximum, 0.8245683950, sits on the crossing B1 = B2 at delta = 1.2755057.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

#: Open-interval clamp for delta; B1 -> 1 as delta -> 0 so the infimum is interior.
DELTA_MARGIN = 1e-9
#: Smallest and largest coarse grid per axis that optimize_infmax accepts.
#: The scan holds one block of at most MAX_GRID points of the surfaces: a
#: fresh eval-bounds --grid 2048 peaks at 31.7 MB of RSS, 3.4 MB above its
#: import, and writes a 416 MB CSV.
MIN_GRID, MAX_GRID = 64, 2048


def _check(cond: np.ndarray | bool, message: str) -> None:
    if not np.all(cond):
        raise DomainError(message)


def g_factor(delta):
    """G(delta) = (1 + cot(delta/4))^-2, strictly increasing on (0, pi/2)."""
    delta = np.asarray(delta, dtype=float)
    _check((delta > 0.0) & (delta < 0.5 * np.pi), "delta must lie in (0, pi/2)")
    out = (1.0 + 1.0 / np.tan(0.25 * delta)) ** -2.0
    return float(out) if out.ndim == 0 else out


def _delta_terms(delta):
    """G(delta) and 2 - sec^2(delta/2), the two factors B1 and B2 take from
    delta, for one delta axis."""
    delta = np.asarray(delta, dtype=float)
    return g_factor(delta), 2.0 - 1.0 / np.cos(0.5 * delta) ** 2


def _surfaces(nu_tilde, g, f):
    """B1 and B2 at nu_tilde from delta's G = g and 2 - sec^2(delta/2) = f;
    the only place the surface formulas are written."""
    two_nu_g = 2.0 * nu_tilde * g
    return (1.0 + two_nu_g) ** -2.0, 1.0 - f * (1.0 - (2.0 + two_nu_g - nu_tilde) ** -2.0)


def _checked_nu(nu_tilde) -> np.ndarray:
    nu_tilde = np.asarray(nu_tilde, dtype=float)
    _check((nu_tilde >= 0.0) & (nu_tilde <= 1.0), "nu_tilde must lie in [0, 1]")
    return nu_tilde


def b1(nu_tilde, delta):
    """B1 bound surface; value in (0, 1], decreasing in each argument."""
    out = _surfaces(_checked_nu(nu_tilde), *_delta_terms(delta))[0]
    return float(out) if np.ndim(out) == 0 else out


def b2(nu_tilde, delta):
    """B2 bound surface; increasing in nu_tilde."""
    out = _surfaces(_checked_nu(nu_tilde), *_delta_terms(delta))[1]
    return float(out) if np.ndim(out) == 0 else out


def dual_use_delta_bound(nu, delta):
    """(pi - 2*nu) * G(delta): the admissible ceiling on the plateau level of
    an anti-periodic profile whose total variation fits under 2*pi."""
    nu = np.asarray(nu, dtype=float)
    _check((nu >= 0.0) & (nu <= 0.5 * np.pi), "nu must lie in [0, pi/2]")
    out = (np.pi - 2.0 * nu) * g_factor(delta)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BoundSurface:
    """The coarse grid's axes and minimum plus the inf-max point.

    ``coarse_min`` is the smallest max(B1, B2) on the coarse grid, whose
    surfaces are not kept (optimize_infmax's export receives them).  ``value``
    and ``argmin`` are _search's, found in ``levels_used`` steps.
    """

    nu_grid: np.ndarray
    delta_grid: np.ndarray
    coarse_min: float
    argmin: tuple[float, float]
    value: float
    levels_used: int


def _crossing(delta: float) -> tuple[float, float, float]:
    """(min over nu_tilde of max(B1, B2), its nu_tilde, delta) at one delta.

    B1 falls and B2 rises in nu_tilde, from B1 = 1 > B2 at nu_tilde = 0, so
    bisection on B1 > B2 closes on their crossing, or on nu_tilde = 1 if B1
    stays above B2, until the bracket's ends are adjacent doubles.
    """
    g, f = map(float, _delta_terms(delta))
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        B1, B2 = _surfaces(mid, g, f)
        lo, hi = (mid, hi) if B1 > B2 else (lo, mid)
    return min((max(_surfaces(nu, g, f)), nu, delta) for nu in (lo, hi))


def _search(refine_tol: float) -> tuple[float, float, float, int]:
    """(value, nu_tilde, delta, steps) of a golden-section search in delta for
    the least _crossing value.  It narrows the whole delta interval, on which
    that value has one minimum, to at most refine_tol, or until its two inner
    points stop lying strictly inside it."""
    shrink = 0.5 * (5.0 ** 0.5 - 1.0)  # each step keeps this share of the bracket
    a, b = DELTA_MARGIN, 0.5 * np.pi - DELTA_MARGIN
    c, d = _crossing(b - shrink * (b - a)), _crossing(a + shrink * (b - a))
    steps = 0
    while b - a > refine_tol and a < c[2] < d[2] < b:
        if c < d:  # the minimum lies in [a, d]
            b, d, c = d[2], c, _crossing(d[2] - shrink * (d[2] - a))
        else:
            a, c, d = c[2], d, _crossing(c[2] + shrink * (b - c[2]))
        steps += 1
    return (*min(c, d), steps)


def optimize_infmax(n_coarse: int = 256, refine_tol: float = 1e-6,
                    export: Callable | None = None) -> BoundSurface:
    """Scan max(B1, B2) on the coarse grid and find its minimum by _search,
    which n_coarse does not enter; levels_used counts the search's steps.

    The coarse scan evaluates the n_coarse x n_coarse grid once, in blocks
    of whole nu_tilde rows of at most MAX_GRID points, and keeps only the
    running minimum.  export, if given, is called once as export(axes,
    blocks), the last two arguments of write_csv: the axes [nu_grid,
    delta_grid] and an iterator over the blocks' (B1, B2, max(B1, B2)).
    Blocks it leaves unread are scanned after it returns.
    """
    if not MIN_GRID <= n_coarse <= MAX_GRID:
        raise DomainError(f"n_coarse must lie in {MIN_GRID}..{MAX_GRID}")
    nu_grid = np.linspace(0.0, 1.0, n_coarse)
    delta_grid = np.linspace(DELTA_MARGIN, 0.5 * np.pi - DELTA_MARGIN, n_coarse)
    g, f = _delta_terms(delta_grid)
    rows, coarse_min = MAX_GRID // n_coarse, np.inf

    def blocks():
        nonlocal coarse_min
        for top in range(0, n_coarse, rows):
            B1, B2 = _surfaces(nu_grid[top:top + rows, None], g, f)
            BM = np.maximum(B1, B2)
            coarse_min = min(coarse_min, float(BM.min()))
            yield B1, B2, BM

    scan = blocks()
    if export is not None:
        export([nu_grid, delta_grid], scan)
    for _ in scan:
        pass
    value, nu, delta, levels = _search(refine_tol)
    return BoundSurface(nu_grid, delta_grid, coarse_min, (nu, delta), value, levels)
