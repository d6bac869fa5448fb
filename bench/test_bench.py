"""Self-test of the benchmark at tiny input sizes.

    python3 -m pytest bench/test_bench.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, that a forced failure is counted in fail_frac (once, however
many passes repeat it), that traced self times fit inside the traced wall
time, and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def runs(request):
    return request.param, {trace: _run(request.param, trace) for trace in (0, 1)}


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_emitted_with_unit(runs):
    workload, procs = runs
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(procs[trace])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    printed = {ln.split()[1]: ln.split()[-1] for ln in procs[0].stdout.splitlines()
               if ln.startswith("metric ")}
    assert printed["fail_frac"] == "ratio"
    if workload == "lambda_batch":
        assert printed["curve_ms.p50"] == "ms" and printed["curve_ms.p75"] == "ms"
        assert printed["curve_ms.samples"] == "count"
    assert all(printed[m["name"]] == m["unit"] for m in SPEC["end_to_end"])


def test_traced_self_times_fit_in_traced_wall(runs):
    _, procs = runs
    metrics = _result(procs[1])["metrics"]
    layer_self = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    assert 0.0 < layer_self <= metrics["trace.wall_s"]["value"]


def test_forced_failure_counts(tmp_path):
    """The known-failing {"a":{"3":0.3}} is one failed operation."""
    from ovalbound.cli import main
    plan = workloads.build("lambda_batch", 3, tmp_path, tiny=True)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"a": {"3": 0.3}}))
    plan["ops"].append(["lambda", str(bad), "--out", str(tmp_path / "bad_out.json")])
    plan["meta"].append({"kind": "forced", "curve": str(bad)})
    passes = [{"traced": False, "obs": [workloads.run_op(main, argv) for argv in plan["ops"]]}]
    refs = workloads.fd_references(plan)
    verdicts = run.gate_all(passes, refs)
    assert len(verdicts) == len(plan["ops"])
    forced = verdicts[-1]
    assert forced["failed"] and not forced["wrong"]
    assert "doubling" in forced["reason"]
    before, after = run.summarize(verdicts[:-1]), run.summarize(verdicts)
    assert after["failed"] == before["failed"] + 1
    assert after["fail_frac"] == (before["failed"] + 1) / len(verdicts) > 0.0
    # a second pass over the same inputs repeats operations, it adds none
    twice = run.summarize(run.gate_all(passes * 2, refs))
    assert (twice["attempted"], twice["failed"]) == (after["attempted"], after["failed"])


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("bounds_report", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
