"""Mutations of the program, each paired with the verify check it must fail.

Each row patches one name with pytest's monkeypatch and runs the suites at
verify's defaults (seed 42, n 25).  The named check must fail, and every
suite must still complete: a suite that raises hides all of its checks
behind one failed ``<suite>_suite_completed`` check.
"""

import json

import pytest

from ovalbound import analytic, variation
from ovalbound.checks import run_suites
from ovalbound.cli import main

#: (module, name, mutation of its value, the check that must fail)
MUTATIONS = [
    # the chord bound (1 + k/delta)^2 <= 1/G touches at pi/2, so any larger k breaks it
    (analytic, "CHORD_SLOPE", lambda k: k * (1.0 + 1e-6),
     "analytic:tangent_majorants_nonnegative"),
    (analytic, "minorant", lambda f: lambda delta: f(delta) - 0.01,
     "analytic:final_value_exceeds_0_81"),
    (variation, "plateau_sum_minimum", lambda f: lambda *args: 0.0,
     "variation:relaxed_below_exact"),
]


@pytest.mark.parametrize("module, name, mutate, check", MUTATIONS,
                         ids=[row[1] for row in MUTATIONS])
def test_mutation_fails_its_check(monkeypatch, module, name, mutate, check):
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    results = {f"{label}:{c.name}": c
               for label, suite in run_suites(42, 25).items() for c in suite}
    assert not results[check].passed
    assert not [n for n in results if n.endswith("_suite_completed")]


def test_analytic_reports_a_violated_majorant(monkeypatch, tmp_path):
    # a violated inequality gives a written report with its failing check, and exit 1
    monkeypatch.setattr(analytic, "CHORD_SLOPE", analytic.CHORD_SLOPE * (1.0 + 1e-6))
    out = tmp_path / "analytic.json"
    assert main(["analytic", "--out", str(out)]) == 1
    passed = {c["name"]: c["passed"] for c in json.loads(out.read_text())["checks"]}
    assert passed["majorant_g_inverse_chord"] is False
