"""The lambda_batch benchmark workload (bench/workloads.py) writes each curve
file with json.dumps(obj, sort_keys=True), which lists harmonic 10 before
harmonic 2.  Each file must parse to the curve drawn, whatever that order,
and pass validation: a refused curve would count as a failed benchmark
operation."""

import importlib.util
import json
from pathlib import Path

import pytest

from ovalbound import FourierCurve, validate_curve
from ovalbound.cli import parse_curve_json

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def in_harmonic_order(coeffs: dict) -> dict[int, float]:
    return dict(sorted((int(n), v) for n, v in coeffs.items()))


@pytest.mark.parametrize("seed", range(1, 21))
def test_lambda_batch_curve_files_parse_to_their_curves(workloads, seed):
    for _, obj in workloads.lambda_curves(seed):
        curve = parse_curve_json(json.dumps(obj, sort_keys=True))
        assert curve == FourierCurve(a=in_harmonic_order(obj["a"]),
                                     b=in_harmonic_order(obj["b"]),
                                     max_index=obj["max_index"])
        validate_curve(curve)
