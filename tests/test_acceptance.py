"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (outside pytest's capture, so the
lines always reach the terminal) and then asserts, so a red criterion is
both printed and reported by pytest.
"""

import time

import numpy as np
import pytest

import ovalbound as ob
from ovalbound.analytic import (CHORD_SLOPE, h_rational, h_tangent, minorant,
                                secant_term, secant_term_tangent)
from ovalbound.cli import cmd_eval_bounds
from ovalbound.curves import TWO_PI
from ovalbound.errors import RejectedCurve
from ovalbound.projection import N_VECTOR, TwoExtremaPairs, direction_vector

SEED = 20240801


def announce(capfd, name: str, ok: bool, detail: str) -> None:
    with capfd.disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def random_triple(rng, separation=0.05):
    while True:
        a, b, c = rng.uniform(0.0, TWO_PI, 3)
        if min(abs(np.sin(a - b)), abs(np.sin(a - c)), abs(np.sin(b - c))) > separation:
            return a, b, c


def even_only_curve(rng, rho=0.5, max_tries=200):
    for _ in range(max_tries):
        a = {n: rng.uniform(-rho / n**2, rho / n**2) for n in (2, 4, 6)}
        b = {n: rng.uniform(-rho / n**2, rho / n**2) for n in (2, 4, 6)}
        curve = ob.FourierCurve(a=a, b=b)
        try:
            ob.validate_curve(curve)
        except RejectedCurve:
            continue
        return curve
    raise RuntimeError("no valid even-only curve found")


def test_infmax_reproduction(tmp_path, capfd):
    start = time.time()
    code = cmd_eval_bounds(grid=256, tol=1e-6, out_path=tmp_path / "eb.json")
    elapsed = time.time() - start
    value = ob.optimize_infmax().value
    ok = code == 0 and abs(value - 0.8246) <= 5e-4 and elapsed < 10.0
    announce(capfd, "infmax_reproduction", ok,
             f"value={value:.6f} target 0.8246+-5e-4, runtime={elapsed:.2f}s < 10s")
    assert code == 0
    assert abs(value - 0.8246) <= 5e-4
    assert elapsed < 10.0


def test_crude_bound_corner(capfd):
    limit = ob.b1(1.0, 0.5 * np.pi - 1e-13)
    target = (3.0 + 2.0 * np.sqrt(2.0)) / 8.0
    gap = abs(limit - target)
    ok = gap <= 1e-12
    announce(capfd, "crude_bound_corner", ok, f"|B1(1, pi/2-) - (3+2sqrt2)/8| = {gap:.2e} <= 1e-12")
    assert ok


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
    ok = all(checks.values())
    announce(capfd, "analytic_pipeline", ok,
             f"delta_min={delta_min:.4f}, delta0={pipe.delta0:.4f}, "
             f"final={pipe.final_value:.5f}, residual={residual:.1e}, "
             f"runtime={elapsed:.3f}s; {checks}")
    assert ok, checks


def test_spectral_sanity(capfd):
    circle = ob.ground_state(ob.FourierCurve(), n_modes=64, check_convergence=False)
    circle_ok = abs(circle.lam - 1.0) <= 1e-9 and np.std(circle.psi) < 1e-10

    rng = np.random.default_rng(SEED)
    agreement = 0.0
    for _ in range(50):
        curve = ob.random_curve(rng)
        sol = ob.ground_state(curve, n_modes=128, check_convergence=False)
        agreement = max(agreement, abs(sol.lam - ob.fd_reference_lambda(curve)))
    periodic_floor = np.inf
    for _ in range(10):
        curve = even_only_curve(rng)
        sol = ob.ground_state(curve, n_modes=128, check_convergence=False)
        periodic_floor = min(periodic_floor, sol.lam)
    ok = circle_ok and agreement <= 1e-7 and periodic_floor >= 1.0 - 1e-8
    announce(capfd, "spectral_sanity", ok,
             f"circle lam={circle.lam:.12f}, worst FD gap={agreement:.2e} <= 1e-7 "
             f"(50 curves), pi-periodic min lam={periodic_floor:.12f} >= 1-1e-8")
    assert circle_ok
    assert agreement <= 1e-7
    assert periodic_floor >= 1.0 - 1e-8


def test_three_angles_identity(capfd):
    rng = np.random.default_rng(SEED + 1)
    worst_identity = 0.0
    for _ in range(1000):
        w = ob.three_angle_weights(*random_triple(rng))
        recon = w.a * direction_vector(w.alpha) + w.b * direction_vector(w.beta) \
            + w.c * direction_vector(w.gamma)
        worst_identity = max(worst_identity, float(np.max(np.abs(recon - N_VECTOR))))
    worst_energy = 0.0
    for _ in range(20):
        curve = ob.random_curve(rng)
        sol = ob.ground_state(curve, n_modes=128, check_convergence=False)
        data = ob.build_projection(curve, sol.psi)
        for _ in range(5):
            w = ob.three_angle_weights(*random_triple(rng))
            worst_energy = max(worst_energy,
                               abs(ob.three_angle_energy(data, w) - data.energy))
    ok = worst_identity < 1e-10 and worst_energy < 1e-8
    announce(capfd, "three_angles_identity", ok,
             f"worst reconstruction={worst_identity:.2e} < 1e-10 (1000 triples), "
             f"worst energy gap={worst_energy:.2e} < 1e-8 (20 curves)")
    assert worst_identity < 1e-10
    assert worst_energy < 1e-8


def test_projection_envelope_and_balance(capfd):
    rng = np.random.default_rng(SEED + 2)
    envelope_slack = np.inf
    equal_gap = 0.0
    classified = 0
    for _ in range(100):
        curve = ob.random_curve(rng)
        sol = ob.ground_state(curve, n_modes=128, check_convergence=False)
        data = ob.build_projection(curve, sol.psi)
        prof = ob.decompose(curve)
        lower = (1.0 + 2.0 * np.abs(prof.f(data.t_grid)) / np.pi) ** -2.0
        envelope_slack = min(envelope_slack, float(np.min(data.I_values - lower)))
        shape = ob.classify_energy_projection(data)
        if isinstance(shape, TwoExtremaPairs):
            classified += 1
            t_lam = ob.lambda_equal_point(data)
            equal_gap = max(equal_gap, abs(data.I_at(t_lam) - sol.lam))
    ok = envelope_slack >= 0.0 and equal_gap < 1e-6 and classified >= 50
    announce(capfd, "projection_envelope_and_balance", ok,
             f"min envelope slack={envelope_slack:.3e} >= 0 (100 curves, grid 1440), "
             f"{classified} non-constant classifications, "
             f"worst |I(t_lambda) - lambda|={equal_gap:.2e} < 1e-6")
    assert envelope_slack >= 0.0
    assert classified >= 50
    assert equal_gap < 1e-6


def test_variation_suite(capfd):
    rng = np.random.default_rng(SEED + 3)
    worst_v = 0.0
    for _ in range(500):
        worst_v = max(worst_v, ob.total_variation(ob.decompose(ob.random_curve(rng))))
    upper_ok = worst_v <= TWO_PI + 1e-9

    strict_margin = np.inf
    dual_margin = np.inf
    for _ in range(1000):
        sample = ob.sample_admissible(rng)
        bound = ob.min_total_variation(sample.tau1, sample.tau2,
                                       sample.delta, sample.nu)
        strict_margin = min(strict_margin, ob.sample_variation(sample) - bound.exact)
        for delta in np.linspace(sample.tau2 - sample.tau1, 0.5 * np.pi - 1e-12, 5):
            dual_margin = min(dual_margin,
                              ob.dual_use_delta_bound(sample.nu, delta) - sample.delta)

    tau1, tau2, delta = 0.4, 1.0, 0.05
    m_grid = np.linspace(tau1, tau2, 100_003)[1:-1]
    s_vals = ob.plateau_sum(tau1, tau2, m_grid, delta)
    mid_gap = abs(m_grid[int(np.argmin(s_vals))] - 0.5 * (tau1 + tau2))
    mid_ok = mid_gap <= m_grid[1] - m_grid[0]

    ok = upper_ok and strict_margin > 0.0 and dual_margin > 0.0 and mid_ok
    announce(capfd, "variation_suite", ok,
             f"max V(f)={worst_v:.6f} <= 2pi+1e-9 (500 curves), "
             f"min strict margin={strict_margin:.3e} > 0 (1000 samples), "
             f"min ceiling margin={dual_margin:.3e} > 0, "
             f"argmin gap={mid_gap:.2e} within grid step")
    assert upper_ok
    assert strict_margin > 0.0
    assert dual_margin > 0.0
    assert mid_ok


def test_tangent_majorants(capfd):
    checks = ob.tangent_majorant_checks()
    min_slack = min(c.min_slack for c in checks)
    f_tangency = abs(secant_term_tangent(np.pi / 3) - secant_term(np.pi / 3))
    h_tangency = abs(h_tangent(CHORD_SLOPE / 3) - h_rational(CHORD_SLOPE / 3))
    ok = min_slack >= -1e-12 and f_tangency <= 1e-12 and h_tangency <= 1e-12
    announce(capfd, "tangent_majorants", ok,
             f"min slack={min_slack:.2e} >= -1e-12 on 1e4 grids, tangency slacks "
             f"{f_tangency:.1e} (pi/3) and {h_tangency:.1e} (k/3) <= 1e-12")
    assert ok
