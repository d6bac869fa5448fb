import numpy as np
import pytest

from ovalbound import checks, variation
from ovalbound.checks import SUITE_LABELS, _result, projection_suite, run_suites
from ovalbound.errors import DomainError, NegativeWeight


def test_all_suites_pass_small():
    results = run_suites(seed=7, n=3)
    assert set(results) == set(SUITE_LABELS)
    for label in SUITE_LABELS:
        for check in results[label]:
            assert check.passed, f"{label}:{check.name} margin={check.margin} {check.detail}"


def test_projection_suite_default_verify_stream():
    # the stream `ovalbound verify` hands the projection suite at its defaults;
    # its pi/3-spaced curves once reached amplitude amp*sqrt(2) and lost convexity
    rng = np.random.default_rng(np.random.SeedSequence((42, 2)))
    for check in projection_suite(rng, n_curves=25):
        assert check.passed, f"{check.name} margin={check.margin} {check.detail}"


def test_deterministic_margins():
    first = run_suites(seed=3, n=2)
    second = run_suites(seed=3, n=2)
    for label in SUITE_LABELS:
        for a, b in zip(first[label], second[label]):
            assert a == b


@pytest.mark.parametrize("n", [0, -3])
def test_empty_suites_rejected(n):
    # with no curves the curve checks would pass on margins no sample bound
    with pytest.raises(DomainError):
        run_suites(seed=42, n=n)


def test_huge_n_rejected_before_any_suite(monkeypatch):
    monkeypatch.setattr(checks, "_run_one", lambda *args: pytest.fail("a suite ran"))
    with pytest.raises(DomainError):
        run_suites(seed=42, n=checks.MAX_N + 1)


def test_acceptance_sizes(monkeypatch):
    # test_acceptance reads run_suites(20240801, 1000) at these sizes: a cap
    # change that shrinks a suite turns this red instead of the acceptance
    sizes, projection_suite = {}, checks.projection_suite

    def record(label):
        def run(rng, n):
            sizes[label] = n
            return projection_suite(rng, n) if label == "projection" else []
        return run

    for label in ("curve", "spectral", "projection", "bounds", "variation"):
        monkeypatch.setattr(checks, f"{label}_suite", record(label))
    monkeypatch.setattr(checks, "analytic_suite", lambda: [])
    equal_point = run_suites(20240801, 1000)["projection"][5]
    assert sizes == {"curve": 1000, "spectral": 50, "projection": 100, "bounds": 10_000,
                     "variation": 1000}
    count, rest = equal_point.detail.split(" ", 1)
    assert equal_point.name == "equal_point_matches_eigenvalue"
    assert rest == "of 100 curves" and int(count) >= 1


def test_unbound_margin_fails():
    for margin in (np.inf, -np.inf, np.nan):
        assert not _result("unbound", margin).passed
    assert _result("unbound", np.inf).margin == 1e300
    assert _result("bound", 0.0).passed


def test_check_that_saw_no_sample_fails(monkeypatch):
    # with every step spec refused, step_class_membership bounds nothing
    def refuse(*args):
        raise NegativeWeight("refused")

    monkeypatch.setattr(variation, "make_step_spec", refuse)
    results = {c.name: c for c in checks.variation_suite(np.random.default_rng(1), 40)}
    assert not results.pop("step_class_membership").passed
    assert all(check.passed for check in results.values())
