"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (outside pytest's capture, so the
lines always reach the terminal) and then asserts, so a red criterion is
both printed and reported by pytest.  The spectral, projection and variation
criteria read the margins that `ovalbound verify --seed 20240801 --n 1000`
reports, from one run of the suites; the inf-max, corner, analytic, circle
and majorant criteria are computed here.
"""

import time

import numpy as np
import pytest

import ovalbound as ob
from ovalbound.analytic import (CHORD_SLOPE, h_rational, h_tangent, secant_term,
                                secant_term_tangent)
from ovalbound.checks import run_suites
from ovalbound.cli import cmd_eval_bounds
from ovalbound.curves import TWO_PI

SEED = 20240801


def accept(capfd, name: str, checks: dict[str, bool], detail: str) -> None:
    ok = all(checks.values())
    with capfd.disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, checks


@pytest.fixture(scope="module")
def margins():
    """Every check of `ovalbound verify --seed 20240801 --n 1000`, by "suite:check"."""
    checks = {f"{label}:{check.name}": check
              for label, results in run_suites(SEED, 1000).items() for check in results}
    raised = [check.detail for name, check in checks.items() if name.endswith("_completed")]
    assert not raised, raised
    return checks


def test_infmax_reproduction(tmp_path, capfd):
    start = time.time()
    code = cmd_eval_bounds(grid=256, tol=1e-6, out_path=tmp_path / "eb.json")
    elapsed = time.time() - start
    value = ob.optimize_infmax().value
    accept(capfd, "infmax_reproduction",
           {"exit": code == 0, "value": abs(value - 0.8246) <= 5e-4, "runtime": elapsed < 10.0},
           f"value={value:.6f} target 0.8246+-5e-4, runtime={elapsed:.2f}s < 10s")


def test_crude_bound_corner(capfd):
    gap = abs(ob.b1(1.0, 0.5 * np.pi - 1e-13) - (3.0 + 2.0 * np.sqrt(2.0)) / 8.0)
    accept(capfd, "crude_bound_corner", {"gap": gap <= 1e-12},
           f"|B1(1, pi/2-) - (3+2sqrt2)/8| = {gap:.2e} <= 1e-12")


def test_analytic_pipeline(capfd):
    start = time.time()
    delta_min = ob.level_set_delta_min()
    pipe = ob.cardano_minimum()
    residual = abs(pipe.d0**3 + pipe.p * pipe.d0 + pipe.q)
    elapsed = time.time() - start
    checks = {
        "delta_min": abs(delta_min - 1.196) <= 1e-3,
        "delta0": abs(pipe.delta0 - 1.386) <= 1e-3,
        "final_value": abs(pipe.final_value - 0.8166) <= 5e-4,
        "exceeds": pipe.final_value > 0.81,
        "residual": residual < 1e-9,
        "runtime": elapsed < 1.0,
    }
    accept(capfd, "analytic_pipeline", checks,
           f"delta_min={delta_min:.4f}, delta0={pipe.delta0:.4f}, "
           f"final={pipe.final_value:.5f}, residual={residual:.1e}, "
           f"runtime={elapsed:.3f}s; {checks}")


def test_spectral_sanity(capfd, margins):
    circle = ob.ground_state(ob.FourierCurve(), n_modes=64, check_convergence=False)
    fd_gap = 1e-7 - margins["spectral:fd_oracle_agreement"].margin
    periodic_floor = 1.0 - 1e-8 + margins["spectral:pi_periodic_curvature_lower"].margin
    accept(capfd, "spectral_sanity",
           {"circle": abs(circle.lam - 1.0) <= 1e-9 and np.std(circle.psi) < 1e-10,
            "fd_gap": fd_gap <= 1e-7, "periodic_floor": periodic_floor >= 1.0 - 1e-8},
           f"circle lam={circle.lam:.12f}, worst FD gap={fd_gap:.2e} <= 1e-7 "
           f"(50 curves), pi-periodic min lam={periodic_floor:.12f} >= 1-1e-8 (50 curves)")


def test_three_angles_identity(capfd, margins):
    identity = 1e-10 - margins["projection:three_angle_reconstruction"].margin
    energy = 1e-8 - margins["projection:three_angle_energy_match"].margin
    accept(capfd, "three_angles_identity", {"identity": identity < 1e-10, "energy": energy < 1e-8},
           f"worst reconstruction={identity:.2e} < 1e-10 (300 triples), "
           f"worst energy gap={energy:.2e} < 1e-8 (100 curves x 3 triples)")


def test_projection_envelope_and_balance(capfd, margins):
    envelope_slack = margins["projection:projection_lower_envelope"].margin
    equal_point = margins["projection:equal_point_matches_eigenvalue"]
    equal_gap = 1e-6 - equal_point.margin
    # the detail reads "{k} of {n} curves", k the curves with two extrema pairs
    classified = int(equal_point.detail.split()[0])
    accept(capfd, "projection_envelope_and_balance",
           {"envelope": envelope_slack >= 0.0, "classified": classified >= 50,
            "equal_point": equal_gap < 1e-6},
           f"min envelope slack={envelope_slack:.3e} >= 0 (100 curves, grid 1440), "
           f"{classified} >= 50 non-constant classifications, "
           f"worst |I(t_lambda) - lambda|={equal_gap:.2e} < 1e-6")


def test_variation_suite(capfd, margins):
    worst_v = TWO_PI + 1e-9 - margins["curves:variation_upper_bound"].margin
    strict = margins["variation:lower_bound_strict_on_samples"].margin
    ceiling = margins["variation:plateau_ceiling_on_samples"].margin
    midpoint = margins["variation:plateau_sum_midpoint_minimal"].margin
    accept(capfd, "variation_suite",
           {"upper": worst_v <= TWO_PI + 1e-9, "strict": strict > 0.0,
            "ceiling": ceiling > 0.0, "midpoint": midpoint >= 0.0},
           f"max V(f)={worst_v:.6f} <= 2pi+1e-9 (1000 curves), "
           f"min strict margin={strict:.3e} > 0 (1000 samples), "
           f"min ceiling margin={ceiling:.3e} > 0, "
           f"argmin within grid step by {midpoint:.2e} >= 0 (100 draws)")


def test_tangent_majorants(capfd):
    min_slack = min(c.min_slack for c in ob.tangent_majorant_checks())
    f_tangency = abs(secant_term_tangent(np.pi / 3) - secant_term(np.pi / 3))
    h_tangency = abs(h_tangent(CHORD_SLOPE / 3) - h_rational(CHORD_SLOPE / 3))
    accept(capfd, "tangent_majorants",
           {"slack": min_slack >= -1e-12, "f_tangency": f_tangency <= 1e-12,
            "h_tangency": h_tangency <= 1e-12},
           f"min slack={min_slack:.2e} >= -1e-12 on 1e4 grids, tangency slacks "
           f"{f_tangency:.1e} (pi/3) and {h_tangency:.1e} (k/3) <= 1e-12")
