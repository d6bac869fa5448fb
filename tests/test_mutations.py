"""Mutations of the program, each paired with the verify checks it must fail.

Each row patches one name with pytest's monkeypatch and runs the suites at
verify's defaults (seed 42, n 25).  The checks that fail must be exactly the
row's checks, and no suite may raise: a suite that raises hides all of its
checks behind one failed ``<suite>_suite_completed`` check.
"""

import dataclasses
import json

import pytest

from ovalbound import analytic, bounds, checks, variation
from ovalbound.checks import run_suites
from ovalbound.cli import main


def scaled_b2(surfaces):
    def mutated(*args):
        b1, b2 = surfaces(*args)
        return b1, b2 * (1.0 + 1e-6)
    return mutated


def scaled_field(function, field, factor):
    def mutated(*args, **kwargs):
        value = function(*args, **kwargs)
        return dataclasses.replace(value, **{field: getattr(value, field) * factor})
    return mutated


#: chord slope k moved off (pi/2)(sqrt(2) + 1): the bound (1 + k/delta)^2 <= 1/G
#: touches at pi/2, so any larger k breaks it; a far smaller one moves delta0
#: below delta_min, where the minorant's value drops under 0.81
CHORD_UP = (analytic, "CHORD_SLOPE", lambda k: k * (1.0 + 1e-6))
CHORD_HALF = (analytic, "CHORD_SLOPE", lambda k: k * 0.5)
CHORD_DOUBLE = (analytic, "CHORD_SLOPE", lambda k: k * 2.0)
G_LOW = (analytic, "g_factor", lambda g: lambda delta: g(delta) * (1.0 - 1e-6))
G_HIGH = (analytic, "g_factor", lambda g: lambda delta: g(delta) * (1.0 + 1e-6))

#: (id, (module, name, mutation of its value), the checks that fail)
MUTATIONS = [
    ("CHORD_SLOPE", CHORD_UP, {"analytic:tangent_majorants_nonnegative"}),
    ("minorant", (analytic, "minorant", lambda f: lambda delta: f(delta) - 0.01),
     {"analytic:final_value_exceeds_0_81"}),
    ("plateau_sum_minimum", (variation, "plateau_sum_minimum", lambda f: lambda *args: 0.0),
     {"variation:relaxed_below_exact"}),
    ("CHORD_SLOPE-half", CHORD_HALF, {"analytic:final_value_exceeds_0_81"}),
    ("CHORD_SLOPE-double", CHORD_DOUBLE, {"analytic:tangent_majorants_nonnegative",
                                          "analytic:chain_dominance_b2_over_minorant"}),
    ("g_factor-low", G_LOW, {"analytic:level_set_hits_0_81",
                             "analytic:b2_on_level_dual_forms"}),
    ("g_factor-high", G_HIGH, {"analytic:level_set_hits_0_81",
                               "analytic:b2_on_level_dual_forms",
                               "analytic:tangent_majorants_nonnegative"}),
    ("three_angle-c", (checks, "three_angle_weights",
                       lambda f: scaled_field(f, "c", 1.0 + 1e-9)),
     {"projection:three_angle_reconstruction", "bounds:estimate2_constant_identity"}),
    ("B2", (bounds, "_surfaces", scaled_b2), {"analytic:b2_on_level_dual_forms"}),
    ("lambda", (checks, "ground_state", lambda f: scaled_field(f, "lam", 1.0 + 1e-6)),
     {"spectral:fd_oracle_agreement", "projection:equal_point_matches_eigenvalue"}),
]


@pytest.mark.parametrize("mutation, failing", [row[1:] for row in MUTATIONS],
                         ids=[row[0] for row in MUTATIONS])
def test_mutation_fails_its_check(monkeypatch, mutation, failing):
    module, name, mutate = mutation
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    failed = {f"{label}:{c.name}"
              for label, suite in run_suites(42, 25).items() for c in suite if not c.passed}
    assert failed == failing


#: (id, mutation, exit code, the analytic report's checks that fail)
ANALYTIC_MUTATIONS = [
    ("CHORD_SLOPE", CHORD_UP, 1, {"majorant_g_inverse_chord"}),
    # delta0 = 0.915 lies below delta_min = 1.197
    ("CHORD_SLOPE-half", CHORD_HALF, 1, {"delta0_matches", "final_value_matches",
                                         "final_value_exceeds_0.81"}),
    # delta0 = 2.006 lies above pi/2
    ("CHORD_SLOPE-double", CHORD_DOUBLE, 1, {"majorant_g_inverse_chord", "delta0_matches",
                                             "final_value_matches"}),
    ("g_factor-low", G_LOW, 1, {"level_set_hits_0_81"}),
    ("g_factor-high", G_HIGH, 1, {"level_set_hits_0_81", "majorant_g_inverse_chord"}),
]


@pytest.mark.parametrize("mutation, code, failing", [row[1:] for row in ANALYTIC_MUTATIONS],
                         ids=[row[0] for row in ANALYTIC_MUTATIONS])
def test_analytic_writes_its_report(monkeypatch, tmp_path, mutation, code, failing):
    module, name, mutate = mutation
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    out = tmp_path / "analytic.json"
    assert main(["analytic", "--out", str(out)]) == code
    assert {c["name"] for c in json.loads(out.read_text())["checks"] if not c["passed"]} \
        == failing
