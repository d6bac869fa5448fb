"""Seeded property suites behind the verify command.

Each suite re-states the mathematical guarantees of one module as testable
predicates over random inputs and reports the worst margin seen.  A margin
is the signed slack of the binding inequality: nonnegative means the check
passed.  The acceptance tests assert every check at n = 1000.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytic, bounds, variation
from .curves import (TWO_PI, FourierCurve, critical_angles, decompose, random_curve,
                     total_variation)
from .errors import DomainError, NegativeWeight, SingularSystem
from .projection import (TwoExtremaPairs, N_VECTOR, build_projection,
                         classify_energy_projection, direction_vector,
                         lambda_equal_point, three_angle_energy,
                         three_angle_weights)
from .spectral import _fd_richardson, ground_state, rayleigh_quotient

SUITE_LABELS = ("curves", "spectral", "projection", "bounds", "analytic", "variation")

#: The spectral suite's FD-oracle base grid, which is also its Rayleigh-check
#: grid, and the least |sin| of an angle difference in a random triple.
FD_BASE, TRIPLE_SEPARATION = 2048, 0.05
#: The largest n run_suites takes: each unit of n costs about 1 ms in each sized suite.
MAX_N = 10_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


def _result(name: str, margin: float, detail: str = "") -> CheckResult:
    # an infinite slack means no sample bound the check, which is a failure;
    # the clamp keeps the margin JSON-safe
    passed = bool(np.isfinite(margin) and margin >= 0.0)
    return CheckResult(name, passed, float(np.clip(margin, -1e300, 1e300)), detail)


def _random_triple(rng: np.random.Generator) -> tuple[float, float, float]:
    while True:
        al, be, ga = rng.uniform(0.0, TWO_PI, 3)
        sines = (abs(np.sin(al - be)), abs(np.sin(al - ga)), abs(np.sin(be - ga)))
        if min(sines) > TRIPLE_SEPARATION:
            return float(al), float(be), float(ga)


def curve_suite(rng: np.random.Generator, n_curves: int) -> list[CheckResult]:
    n_grid = 1024
    t = np.linspace(0.0, TWO_PI, n_grid, endpoint=False)
    # a max-type accumulator starts at -inf, so a check that saw no sample fails
    anti = peri = fourier = prime = antipodal = var_worst = -np.inf
    count_margin = np.inf
    window_margin = np.inf
    for _ in range(n_curves):
        curve = random_curve(rng)
        prof = decompose(curve)
        (f, f_t), (g, g_t) = prof.f(n_grid, (0, 1)), prof.g(n_grid, (0, 1))
        half = len(t) // 2
        anti = max(anti, float(np.max(np.abs(f + np.roll(f, -half)))))
        peri = max(peri, float(np.max(np.abs(g - np.roll(g, -half)))))
        fourier = max(fourier, abs(float(np.mean(f * np.sin(t)))) * TWO_PI,
                      abs(float(np.mean(f * np.cos(t)))) * TWO_PI)
        prime = max(prime, float(np.max(np.abs(f_t) - 1.0 - g_t)))
        var_worst = max(var_worst, total_variation(prof))
        if np.any(prof.f_series):
            zeros = critical_angles(prof)
            count_margin = min(count_margin, zeros.size - 6)
            shifted = np.sort((zeros + np.pi) % TWO_PI)
            antipodal = max(antipodal, float(np.max(np.abs(shifted - zeros))))
            for t0 in (0.0, 0.7, 2.1):
                inside = ((zeros - t0) % TWO_PI) < np.pi
                window_margin = min(window_margin, int(np.sum(inside)) - 3)
    return [
        _result("f_anti_periodic", 1e-12 - anti),
        _result("g_pi_periodic", 1e-12 - peri),
        _result("f_first_harmonics_vanish", 1e-10 - fourier),
        _result("f_prime_dominated", 1e-10 - prime),
        _result("variation_upper_bound", TWO_PI + 1e-9 - var_worst),
        _result("at_least_six_critical_angles", float(count_margin)),
        _result("critical_angles_antipodal", 1e-8 - antipodal),
        _result("three_zeros_per_half_period", float(window_margin)),
    ]


def spectral_suite(rng: np.random.Generator, n_curves: int) -> list[CheckResult]:
    variational = np.inf
    agreement = -np.inf
    periodic_margin = np.inf
    for _ in range(n_curves):
        curve = random_curve(rng)
        # one FFT of rho serves the FD oracle's rings; the Rayleigh checks run on
        # the coarse ring's points t, where the oracle starts from the Galerkin pair
        rho = curve.phi_inv(4 * FD_BASE, deriv=1)
        s = curve.phi_inv(FD_BASE)  # the arc length at each t
        sol = ground_state(curve)
        psi_t = sol.psi_at(FD_BASE)
        for _ in range(3):
            eta = 0.05 * rng.standard_normal(3)
            psi = psi_t + eta[0] * np.cos(s) + eta[1] * np.sin(2 * s) + eta[2]
            if psi.min() <= 0:
                continue
            variational = min(variational, rayleigh_quotient(curve, psi) - sol.lam)
        start = (sol.lam, psi_t / np.linalg.norm(psi_t))
        agreement = max(agreement, abs(sol.lam - _fd_richardson(rho, start)))
        # random_curve's even harmonics keep min (phi^-1)' above 0.35, so the
        # pi-periodic curve needs no validation
        even_sol = ground_state(FourierCurve.from_series(decompose(curve).g_series))
        periodic_margin = min(periodic_margin, even_sol.lam - (1.0 - 1e-8))
    # grid-refinement convergence on one representative curve
    kappa_sq_curve = random_curve(rng, max_index=8)
    lams = [ground_state(kappa_sq_curve, n_modes=nm, check_convergence=False).lam
            for nm in (4, 8, 16, 32)]
    diffs = [abs(lams[i] - lams[i + 1]) for i in range(len(lams) - 1)]
    monotone = min(diffs[i] - diffs[i + 1] + 1e-14 for i in range(len(diffs) - 1))
    return [
        _result("rayleigh_above_ground_state", variational + 1e-9),
        _result("fd_oracle_agreement", 1e-7 - agreement),
        _result("pi_periodic_curvature_lower", periodic_margin),
        _result("refinement_monotone", monotone),
    ]


def projection_suite(rng: np.random.Generator, n_curves: int) -> list[CheckResult]:
    envelope = np.inf
    between = np.inf
    pair_lower = np.inf
    identity = -np.inf
    energy_match = -np.inf
    equal_point = -np.inf
    classified = 0  # the curves whose equal point the check binds
    evenly = np.inf
    for _ in range(n_curves):
        curve = random_curve(rng)
        sol = ground_state(curve)
        data = build_projection(curve, sol.psi)
        prof = decompose(curve)
        lower = (1.0 + 2.0 * np.abs(prof.f(len(data.t_grid))) / np.pi) ** -2.0
        envelope = min(envelope, float(np.min(data.I_values - lower)))
        e = data.energy
        between = min(between, e - data.I_values.min(), data.I_values.max() - e)
        half = len(data.t_grid) // 4
        pair_lower = min(pair_lower, float(np.min(
            e - np.minimum(data.I_values, np.roll(data.I_values, -half)))))
        for _ in range(3):
            w = three_angle_weights(*_random_triple(rng))
            recon = w.a * direction_vector(w.alpha) + w.b * direction_vector(w.beta) \
                + w.c * direction_vector(w.gamma) - N_VECTOR
            identity = max(identity, float(np.max(np.abs(recon))))
            energy_match = max(energy_match, abs(three_angle_energy(data, w) - e))
        shape = classify_energy_projection(data)
        if isinstance(shape, TwoExtremaPairs):
            classified += 1
            t_lam = lambda_equal_point(data)
            equal_point = max(equal_point, abs(data.I_at(t_lam) - sol.lam))
    # curves whose critical angles are pi/3-spaced satisfy the density hypothesis
    for _ in range(max(1, n_curves // 4)):
        amp = rng.uniform(0.05, 0.25)
        # one phase keeps the amplitude at amp, so min (phi^-1)' = 1 - 3*amp > 0
        theta = rng.uniform(0, TWO_PI)
        curve = FourierCurve(a={3: amp * np.cos(theta)}, b={3: amp * np.sin(theta)})
        sol = ground_state(curve)
        evenly = min(evenly, sol.lam - (1.0 - 1e-6))
    return [
        _result("projection_lower_envelope", envelope),
        _result("energy_between_projection_extremes", between + 1e-12),
        _result("energy_above_pair_minimum", pair_lower + 1e-12),
        _result("three_angle_reconstruction", 1e-10 - identity),
        _result("three_angle_energy_match", 1e-8 - energy_match),
        _result("equal_point_matches_eigenvalue", 1e-6 - equal_point,
                f"{classified} of {n_curves} curves"),
        _result("dense_critical_angles_imply_unit_bound", evenly),
    ]


def bounds_suite(rng: np.random.Generator, n_points: int) -> list[CheckResult]:
    lo, hi = bounds.DELTA_MARGIN, 0.5 * np.pi - bounds.DELTA_MARGIN
    nu1 = rng.uniform(0.0, 1.0, n_points)
    nu2 = np.minimum(1.0, nu1 + rng.uniform(1e-6, 0.5, n_points))
    d1 = rng.uniform(lo, hi, n_points)
    d2 = np.minimum(hi, d1 + rng.uniform(1e-6, 0.5, n_points))
    b1_nu = float(np.min(bounds.b1(nu1, d1) - bounds.b1(nu2, d1)))
    b1_d = float(np.min(bounds.b1(nu1, d1) - bounds.b1(nu1, d2)))
    b2_nu = float(np.min(bounds.b2(nu2, d1) - bounds.b2(nu1, d1)))
    g_inc = float(np.min(bounds.g_factor(d2) - bounds.g_factor(d1)))

    surface = bounds.optimize_infmax(n_coarse=128, refine_tol=1e-6)
    certificate = surface.coarse_min - (surface.value - 1e-6)

    nu = rng.uniform(0.0, 0.5 * np.pi, n_points)
    dd = rng.uniform(lo, hi, n_points)
    est1 = float(np.max(np.abs(
        (1.0 + 2.0 * (1.0 - 2.0 * nu / np.pi) * bounds.g_factor(dd)) ** -2.0
        - bounds.b1(1.0 - 2.0 * nu / np.pi, dd))))

    est2 = -np.inf
    for _ in range(min(n_points, 200)):
        i1 = rng.uniform(0.05, 1.0)
        i2 = i1 + rng.uniform(0.05, 0.5 * np.pi - i1 - 0.05)
        gamma = 0.5 * (i1 + i2) + 0.5 * np.pi
        w = three_angle_weights(i1, i2, gamma)
        est2 = max(est2, abs(w.c - (2.0 - 1.0 / np.cos(0.5 * (i2 - i1)) ** 2)))
    return [
        _result("b1_decreasing_in_nu", b1_nu),
        _result("b1_decreasing_in_delta", b1_d),
        _result("b2_increasing_in_nu", b2_nu),
        _result("g_strictly_increasing", g_inc),
        _result("infmax_certificate", certificate),
        _result("estimate1_shorthand_identity", 1e-14 - est1),
        _result("estimate2_constant_identity", 1e-12 - est2),
    ]


def analytic_suite() -> list[CheckResult]:
    grid = analytic.level_set_grid()
    nu_level = analytic.level_set_nu(grid)
    decreasing = float(np.min(nu_level[:-1] - nu_level[1:]))
    dual_forms = float(np.max(np.abs(analytic.b2_on_level(grid)
                                     - analytic.b2_on_level_explicit(grid))))
    majorants = analytic.tangent_majorant_checks()
    # slack nears zero at the tangency points; allow roundoff there
    majorant_min = min(c.min_slack for c in majorants) + analytic.SLACK_TOL
    pipe = analytic.cardano_minimum()
    chain = float(np.min(analytic.b2_on_level(grid) - analytic.minorant(grid)))
    dominates = float(np.min(analytic.minorant(grid) - pipe.final_value))
    # the minimum over the whole rectangle only if the crossing value has one
    # minimum in delta (test_crossing_has_one_minimum); bounds:infmax_certificate
    # checks the search against an independent grid scan on every verify
    combined = bounds._search(1e-9)[0] - analytic.LEVEL
    return [
        _result("level_set_hits_0_81",
                analytic.LEVEL_SET_TOL - analytic.level_set_miss(grid)),
        _result("level_set_nu_decreasing", decreasing),
        _result("b2_on_level_dual_forms", 1e-13 - dual_forms),
        _result("tangent_majorants_nonnegative", majorant_min),
        _result("chain_dominance_b2_over_minorant", chain),
        _result("minorant_above_final_value", dominates + 1e-12),
        _result("final_value_exceeds_0_81", pipe.final_value - analytic.LEVEL),
        _result("combined_bound_exceeds_0_81", combined),
        _result("cubic_root_residual", analytic.CUBIC_RESIDUAL_TOL - pipe.residual),
    ]


def variation_suite(rng: np.random.Generator, n_samples: int) -> list[CheckResult]:
    midpoint = np.inf
    ordering = np.inf
    for _ in range(max(1, n_samples // 10)):
        tau1 = rng.uniform(0.1, 0.7)
        tau2 = tau1 + rng.uniform(0.2, 0.5 * np.pi - tau1 - 0.05)
        delta = rng.uniform(0.01, 0.4)
        m_grid = np.linspace(tau1, tau2, 4003)[1:-1]
        s_vals = variation.plateau_sum(tau1, tau2, m_grid, delta)
        step = m_grid[1] - m_grid[0]
        midpoint = min(midpoint, step + 1e-15
                       - abs(m_grid[int(np.argmin(s_vals))] - 0.5 * (tau1 + tau2)))
        vb = variation.min_total_variation(tau1, tau2, delta, rng.uniform(0.0, 0.3))
        ordering = min(ordering, vb.exact - vb.relaxed)
    strict_lower = np.inf
    dual = np.inf
    membership = -np.inf
    for _ in range(n_samples):
        sample = variation.sample_admissible(rng)
        bound = variation.min_total_variation(sample.tau1, sample.tau2,
                                              sample.delta, sample.nu)
        strict_lower = min(strict_lower,
                           variation.sample_variation(sample) - bound.exact)
        ordering = min(ordering, bound.exact - bound.relaxed)
        for dd in np.linspace(sample.tau2 - sample.tau1, 0.5 * np.pi - 1e-12, 5):
            dual = min(dual, bounds.dual_use_delta_bound(sample.nu, dd) - sample.delta)
    for _ in range(max(1, n_samples // 20)):
        tau1 = rng.uniform(0.2, 0.6)
        tau2 = tau1 + rng.uniform(0.3, 0.5 * np.pi - tau1 - 0.05)
        m = rng.uniform(tau1 + 0.05, tau2 - 0.05)
        try:
            spec = variation.make_step_spec(tau1, tau2, m, rng.uniform(0.01, 0.1))
        except (NegativeWeight, SingularSystem):
            continue
        rs, rc = variation.step_fourier_residuals(spec)
        membership = max(membership, abs(rs), abs(rc))
        tg = rng.uniform(0.0, np.pi, 64)
        anti = np.max(np.abs(variation.step_values(spec, tg + np.pi)
                             + variation.step_values(spec, tg)))
        membership = max(membership, float(anti))
    return [
        _result("plateau_sum_midpoint_minimal", midpoint),
        _result("relaxed_below_exact", ordering),
        _result("lower_bound_strict_on_samples", strict_lower),
        _result("plateau_ceiling_on_samples", dual),
        _result("step_class_membership", 1e-10 - membership),
    ]


def _run_one(label: str, index: int, seed: int, n: int) -> list[CheckResult]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    try:
        if label == "curves":
            return curve_suite(rng, n)
        if label == "spectral":
            return spectral_suite(rng, min(n, 50))
        if label == "projection":
            return projection_suite(rng, min(n, 100))
        if label == "bounds":
            return bounds_suite(rng, max(1000, 10 * n))
        if label == "analytic":
            return analytic_suite()
        return variation_suite(rng, n)
    except Exception as exc:  # a raising suite is itself a failed check
        return [CheckResult(f"{label}_suite_completed", False, -1.0,
                            detail=f"{type(exc).__name__}: {exc}")]


def run_suites(seed: int, n: int) -> dict[str, list[CheckResult]]:
    """Run every suite, sized from n, with label-split seeds; deterministic for fixed inputs."""
    if not 1 <= n <= MAX_N:
        raise DomainError(f"suites need n in 1..{MAX_N}, got n={n}")
    return {label: _run_one(label, i, seed, n) for i, label in enumerate(SUITE_LABELS)}
