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

import numpy as np

from .errors import DomainError

#: Open-interval clamp for delta; B1 -> 1 as delta -> 0 so the infimum is interior.
DELTA_MARGIN = 1e-9
#: Smallest and largest coarse grid per axis that optimize_infmax accepts.
#: The surfaces take about 24 bytes per grid point: eval-bounds peaks at
#: 129 MB of RSS at 2048 and writes a 416 MB CSV.
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


def b1(nu_tilde, delta):
    """B1 bound surface; value in (0, 1], decreasing in each argument."""
    nu_tilde = np.asarray(nu_tilde, dtype=float)
    _check((nu_tilde >= 0.0) & (nu_tilde <= 1.0), "nu_tilde must lie in [0, 1]")
    out = (1.0 + 2.0 * nu_tilde * g_factor(delta)) ** -2.0
    return float(out) if out.ndim == 0 else out


def b2(nu_tilde, delta):
    """B2 bound surface; increasing in nu_tilde."""
    nu_tilde = np.asarray(nu_tilde, dtype=float)
    _check((nu_tilde >= 0.0) & (nu_tilde <= 1.0), "nu_tilde must lie in [0, 1]")
    delta = np.asarray(delta, dtype=float)
    g = g_factor(delta)
    sec2 = 1.0 / np.cos(0.5 * delta) ** 2
    out = 1.0 - (2.0 - sec2) * (1.0 - (2.0 + 2.0 * nu_tilde * g - nu_tilde) ** -2.0)
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
    """Coarse-grid evaluation of both surfaces plus the refined inf-max point.

    ``value`` is the minimum of max(B1, B2) over every point evaluated
    (coarse grid and all refinement levels): the smallest grid value, which
    estimates the infimum from above; ``argmin`` is the refined location.
    """

    nu_grid: np.ndarray
    delta_grid: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    Bmax: np.ndarray
    argmin: tuple[float, float]
    value: float
    levels_used: int


def optimize_infmax(n_coarse: int = 256, refine_tol: float = 1e-6) -> BoundSurface:
    """Minimize max(B1, B2) by coarse scan plus nested 4x grid refinement.

    Refinement re-centers a 17x17 window on the incumbent with the spacing
    divided by four per level, until the argmin moves less than refine_tol in
    each coordinate or MAX_LEVELS is reached.
    """
    if not MIN_GRID <= n_coarse <= MAX_GRID:
        raise DomainError(f"n_coarse must lie in {MIN_GRID}..{MAX_GRID}")
    lo_d, hi_d = DELTA_MARGIN, 0.5 * np.pi - DELTA_MARGIN
    nu_grid = np.linspace(0.0, 1.0, n_coarse)
    delta_grid = np.linspace(lo_d, hi_d, n_coarse)
    # on the broadcast axes G and sec^2 are computed once per delta
    B1M = b1(nu_grid[:, None], delta_grid[None, :])
    B2M = b2(nu_grid[:, None], delta_grid[None, :])
    BM = np.maximum(B1M, B2M)
    i, j = np.unravel_index(int(np.argmin(BM)), BM.shape)
    best_nu, best_delta, best_val = float(nu_grid[i]), float(delta_grid[j]), float(BM[i, j])

    h_nu = nu_grid[1] - nu_grid[0]
    h_d = delta_grid[1] - delta_grid[0]
    levels = 0
    for _ in range(MAX_LEVELS):
        h_nu *= 0.25
        h_d *= 0.25
        nus = np.clip(best_nu + h_nu * np.arange(-8, 9), 0.0, 1.0)[:, None]
        dds = np.clip(best_delta + h_d * np.arange(-8, 9), lo_d, hi_d)[None, :]
        Mr = np.maximum(b1(nus, dds), b2(nus, dds))
        i, j = np.unravel_index(int(np.argmin(Mr)), Mr.shape)
        moved = (abs(nus[i, 0] - best_nu), abs(dds[0, j] - best_delta))
        if Mr[i, j] < best_val:
            best_nu, best_delta, best_val = float(nus[i, 0]), float(dds[0, j]), float(Mr[i, j])
        levels += 1
        # the movement criterion is only meaningful once the window spacing
        # itself resolves refine_tol; the valley is a flat curved crossing
        if max(h_nu, h_d) <= refine_tol and moved[0] < refine_tol and moved[1] < refine_tol:
            break
    return BoundSurface(nu_grid, delta_grid, B1M, B2M, BM,
                        (best_nu, best_delta), best_val, levels)
