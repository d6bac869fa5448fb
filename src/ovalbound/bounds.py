"""The two bound surfaces and their inf-max optimization.

On the rectangle (nu_tilde, delta) in [0, 1] x (0, pi/2) the eigenvalue of
every admissible curve exceeds max(B1, B2) at some point, so the infimum of
the pointwise maximum is a global lower bound.  The surfaces are

    B1 = (1 + 2*nu_tilde*G(delta))^-2,
    B2 = 1 - (2 - sec^2(delta/2)) * (1 - (2 + 2*nu_tilde*G(delta) - nu_tilde)^-2),
    G  = (1 + cot(delta/4))^-2.

B1 decreases in both arguments, B2 increases in nu_tilde, and the minimum of
the maximum sits on the crossing B1 = B2 at roughly 0.8246.
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
#: Refinement levels optimize_infmax stops at if the argmin is still moving.
MAX_LEVELS = 6


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
    """The coarse grid's axes and minimum plus the refined inf-max point.

    ``coarse_min`` is the smallest max(B1, B2) on the coarse grid, whose
    surfaces are not kept (optimize_infmax's export receives them).
    ``value`` is the minimum of max(B1, B2) over every point evaluated
    (coarse grid and all refinement levels): the smallest grid value, which
    estimates the infimum from above; ``argmin`` is the refined location.
    """

    nu_grid: np.ndarray
    delta_grid: np.ndarray
    coarse_min: float
    argmin: tuple[float, float]
    value: float
    levels_used: int


def optimize_infmax(n_coarse: int = 256, refine_tol: float = 1e-6,
                    export: Callable | None = None) -> BoundSurface:
    """Minimize max(B1, B2) by coarse scan plus nested 4x grid refinement.

    The coarse scan evaluates the n_coarse x n_coarse grid once, in blocks
    of whole nu_tilde rows of at most MAX_GRID points, and keeps only the
    running minimum and np.argmin's location of it, the first in C order.
    export, if given, is called once as export(axes, blocks), the last two
    arguments of write_csv: the axes [nu_grid, delta_grid] and an iterator
    over the blocks' (B1, B2, max(B1, B2)).  Blocks it leaves unread are
    scanned after it returns.

    Refinement re-centers a 17x17 window on the incumbent with the spacing
    divided by four per level, until the argmin moves less than refine_tol in
    each coordinate or MAX_LEVELS is reached.
    """
    if not MIN_GRID <= n_coarse <= MAX_GRID:
        raise DomainError(f"n_coarse must lie in {MIN_GRID}..{MAX_GRID}")
    lo_d, hi_d = DELTA_MARGIN, 0.5 * np.pi - DELTA_MARGIN
    nu_grid = np.linspace(0.0, 1.0, n_coarse)
    delta_grid = np.linspace(lo_d, hi_d, n_coarse)
    g, f = _delta_terms(delta_grid)
    rows = MAX_GRID // n_coarse
    coarse_min, coarse_at = np.inf, 0

    def blocks():
        nonlocal coarse_min, coarse_at
        for top in range(0, n_coarse, rows):
            B1, B2 = _surfaces(nu_grid[top:top + rows, None], g, f)
            BM = np.maximum(B1, B2)
            k = int(np.argmin(BM))
            if BM.flat[k] < coarse_min:  # strict, so a tie keeps the earlier block's point
                coarse_min, coarse_at = float(BM.flat[k]), top * n_coarse + k
            yield B1, B2, BM

    scan = blocks()
    if export is not None:
        export([nu_grid, delta_grid], scan)
    for _ in scan:
        pass
    i, j = divmod(coarse_at, n_coarse)
    best_nu, best_delta, best_val = float(nu_grid[i]), float(delta_grid[j]), coarse_min

    h_nu = nu_grid[1] - nu_grid[0]
    h_d = delta_grid[1] - delta_grid[0]
    levels = 0
    for _ in range(MAX_LEVELS):
        h_nu *= 0.25
        h_d *= 0.25
        nus = np.clip(best_nu + h_nu * np.arange(-8, 9), 0.0, 1.0)[:, None]
        dds = np.clip(best_delta + h_d * np.arange(-8, 9), lo_d, hi_d)[None, :]
        Mr = np.maximum(*_surfaces(nus, *_delta_terms(dds)))
        i, j = np.unravel_index(int(np.argmin(Mr)), Mr.shape)
        moved = (abs(nus[i, 0] - best_nu), abs(dds[0, j] - best_delta))
        if Mr[i, j] < best_val:
            best_nu, best_delta, best_val = float(nus[i, 0]), float(dds[0, j]), float(Mr[i, j])
        levels += 1
        # the movement criterion is only meaningful once the window spacing
        # itself resolves refine_tol; the valley is a flat curved crossing
        if max(h_nu, h_d) <= refine_tol and moved[0] < refine_tol and moved[1] < refine_tol:
            break
    return BoundSurface(nu_grid, delta_grid, coarse_min, (best_nu, best_delta), best_val,
                        levels)
