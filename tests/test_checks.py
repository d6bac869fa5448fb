import numpy as np

from ovalbound.checks import SUITE_LABELS, projection_suite, run_suites


def test_all_suites_pass_small():
    results = run_suites(seed=7, n_curves=3, n_samples=5)
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
    first = run_suites(seed=3, n_curves=2, n_samples=3)
    second = run_suites(seed=3, n_curves=2, n_samples=3)
    for label in SUITE_LABELS:
        for a, b in zip(first[label], second[label]):
            assert a == b
