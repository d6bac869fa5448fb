"""ovalbound benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload lambda_batch --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
``src``).  The run generates the workload's inputs from the seed, starts
fresh interpreters to time set-up, then one worker that issues timed passes
through ``ovalbound.cli.main``, gates every operation's output and prints a
human-readable report followed, as the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones from
the traced half of the run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

#: Every run must end well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 7
#: The worker's BLAS thread count, never above nproc.  Two OpenBLAS threads on
#: a shared two-core machine stall whenever a neighbour takes a core.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """The worker's environment: the checkout's ``src`` first on the path,
    OVALBOUND_THREADS unset, and one BLAS thread (see bench/README.md)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("OVALBOUND_THREADS", None)
    env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    return env


def environment(seed: int, blas_threads) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    git = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git, text=True,
                                capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"git_commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": blas_threads, "nproc": _nproc(), "seed": seed,
            "OVALBOUND_THREADS": "unset" + (f" (caller had {os.environ['OVALBOUND_THREADS']})"
                                            if "OVALBOUND_THREADS" in os.environ else "")}


class Worker:
    """A worker process, timed from launch until it prints READY.  Leaving
    the ``with`` block kills it if it is still running."""

    def __init__(self, args: list[str], deadline: float):
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                                     stdout=subprocess.PIPE, text=True, env=worker_env(),
                                     cwd=ROOT)
        try:
            line = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - t0
            if line.strip() != "READY":
                raise RuntimeError(f"worker failed during set-up (exit {self.finish()})")
        except BaseException:
            self.__exit__()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def finish(self) -> int:
        """Wait for the worker to exit within the run deadline; its exit code.
        The worker prints nothing after READY, so its pipe cannot fill."""
        try:
            return self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError("worker overran the run deadline") from None


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def gate_all(passes: list[dict], refs) -> list[dict]:
    """One verdict per operation of every pass, in issue order."""
    verdicts = []
    for p in passes:
        for i, obs in enumerate(p["obs"]):
            for v in workloads.gate(i, obs, refs):
                verdicts.append({**v, "index": i, "traced": p["traced"]})
    return verdicts


def summarize(verdicts: list[dict]) -> dict:
    """Operation counts over the workload's input set: every pass repeats
    the same operations, so an operation is counted once and fails if it
    failed in any pass.  The counts then depend on the seed alone, not on
    how many passes fitted in the run.  Failed operations are never dropped."""
    ops: dict[tuple, bool] = {}
    for v in verdicts:
        key = (v["index"], v["op"])
        ops[key] = ops.get(key, False) or v["failed"]
    attempted, failed = len(ops), sum(ops.values())
    return {"attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
            "wrong": [v for v in verdicts if v["wrong"]]}


def pass_time(untraced: list[dict], field: str) -> float:
    """One pass at the machine's unloaded speed: the sum over operations of
    each one's fastest time across the untraced passes.  On a shared host
    neighbours slow every command by up to half for seconds or minutes at a
    time; the fastest of several passes moves least with that."""
    return sum(min(p["obs"][i][field] for p in untraced)
               for i in range(len(untraced[0]["obs"])))


def e2e_metrics(setups: list[float], untraced: list[dict], peak_rss_kb: int) -> dict:
    return {"setup_s": statistics.median(setups),
            "wall_s": pass_time(untraced, "wall"),
            "cpu_s": pass_time(untraced, "cpu"),
            "peak_rss_mb": peak_rss_kb / 1024.0}


def oracle_gap_max(passes: list[dict]) -> float:
    """Largest |lambda - FD oracle| seen: the lambda gates' gaps, or the
    verify report's fd_oracle_agreement margin (tolerance 1e-7 minus gap)."""
    gaps = [o["fd_gap"] for p in passes for o in p["obs"] if o.get("fd_gap") is not None]
    gaps += [workloads.FD_TOL - c[2] for p in passes for o in p["obs"]
             for c in o.get("checks", []) if c[0] == "spectral:fd_oracle_agreement"]
    return max(gaps, default=0.0)


def layer_metrics(trace: dict, passes: list[dict]) -> dict:
    """Per-layer metrics as (value, unit): counts and times are means per
    traced pass; maxima, ratios and infmax_value are over the whole run."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    n = len(traced)
    stats, counters = trace["stats"], trace["counters"]

    def stat(name, field):
        calls, self_s, _total, errors = stats.get(name, [0, 0.0, 0.0, 0])
        return {"calls": calls, "self_s": self_s, "errors": errors}[field] / n

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for fn in ("ground_state", "fd_reference_lambda"):
        put(f"spectral.{fn}.calls", stat(f"spectral.{fn}", "calls"), "count")
        put(f"spectral.{fn}.self_s", stat(f"spectral.{fn}", "self_s"), "s")
    put("spectral.ground_state.errors", stat("spectral.ground_state", "errors"), "count")
    put("spectral.ground_state.dense_n3", counters["dense_n3"] / n, "count")
    put("spectral.residual_max", counters["residual_max"], "1")
    for fn in ("rayleigh_quotient", "trig_interpolate"):
        put(f"spectral.{fn}.self_s", stat(f"spectral.{fn}", "self_s"), "s")
    put("spectral.oracle_gap_max", oracle_gap_max(passes), "1")

    for fn in ("invert_phi", "validate_curve"):
        put(f"curves.{fn}.calls", stat(f"curves.{fn}", "calls"), "count")
        put(f"curves.{fn}.self_s", stat(f"curves.{fn}", "self_s"), "s")
    put("curves.invert_phi.points", counters["invert_points"] / n, "count")
    tried = stats.get("curves.validate_curve", [0, 0.0, 0.0, 0])
    put("curves.accept_ratio", (tried[0] - tried[3]) / tried[0] if tried[0] else 0.0, "ratio")
    for fn in ("decompose", "critical_angles", "total_variation"):
        put(f"curves.{fn}.self_s", stat(f"curves.{fn}", "self_s"), "s")

    put("projection.build_projection.calls", stat("projection.build_projection", "calls"), "count")
    for fn in ("build_projection", "classify_energy_projection", "lambda_equal_point"):
        put(f"projection.{fn}.self_s", stat(f"projection.{fn}", "self_s"), "s")
    put("projection.three_angle.self_s", stat("projection.three_angle_weights", "self_s")
        + stat("projection.three_angle_energy", "self_s"), "s")

    put("variation.sample_admissible.calls", stat("variation.sample_admissible", "calls"), "count")
    for fn in ("sample_admissible", "min_total_variation"):
        put(f"variation.{fn}.self_s", stat(f"variation.{fn}", "self_s"), "s")

    for suite in ("curve", "spectral", "projection", "bounds", "analytic", "variation"):
        put(f"checks.{suite}_suite.self_s", stat(f"checks.{suite}_suite", "self_s"), "s")
    put("checks.failed", counters["checks_failed"] / n, "count")

    put("bounds.optimize_infmax.calls", stat("bounds.optimize_infmax", "calls"), "count")
    put("bounds.optimize_infmax.self_s", stat("bounds.optimize_infmax", "self_s"), "s")
    put("bounds.points_evaluated", counters["points_evaluated"] / n, "count")
    put("bounds.infmax_value", counters["infmax_min"] or 0.0, "1")

    for fn in ("cardano_minimum", "tangent_majorant_checks"):
        put(f"analytic.{fn}.self_s", stat(f"analytic.{fn}", "self_s"), "s")

    for cmd in ("lambda", "verify", "eval-bounds", "analytic"):
        put(f"cli.command_s.{cmd}", trace["command_s"].get(cmd, 0.0) / n, "s")
    put("cli.write_csv.self_s", stat("cli.write_csv", "self_s"), "s")
    put("cli.write_csv.bytes", counters["csv_bytes"] / n, "bytes")
    put("cli.report_write.self_s", stat("cli.report_write", "self_s"), "s")
    put("cli.parse_curve_json.self_s", stat("cli.parse_curve_json", "self_s"), "s")

    for layer in LAYERS:
        put(f"{layer}.self_s", sum(s[1] for name, s in stats.items()
                                   if name.split(".")[0] == layer) / n, "s")

    # means, like every per-pass figure above, so self times sum to at most trace.wall_s
    traced_wall = statistics.fmean(sum(o["wall"] for o in p["obs"]) for p in traced)
    untraced_wall = statistics.fmean(sum(o["wall"] for o in p["obs"]) for p in untraced)
    put("trace.wall_s", traced_wall, "s")
    put("trace_overhead_frac", traced_wall / untraced_wall - 1.0, "ratio")
    return out


def run(args) -> dict:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    work = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plan = workloads.build(args.workload, args.seed, work, tiny=args.tiny)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        compileall.compile_dir(str(SRC), quiet=2)

        def setup_samples(n: int) -> list[float]:
            out = []
            for _ in range(n):
                with Worker([str(plan_path), "-", "--setup-only"], deadline) as w:
                    out.append(w.setup_s)
                    if w.finish() != 0:
                        raise RuntimeError("set-up worker failed")
            return out

        # set-up samples before and after the timed worker, so their median
        # spans the whole run rather than the few seconds before it
        extra = 1 if args.tiny else SETUP_SAMPLES - 1
        setups = setup_samples(extra // 2)
        result_path = work / "result.json"
        with Worker([str(plan_path), str(result_path), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)], deadline) as w:
            setups.append(w.setup_s)
            if w.finish() != 0:
                raise RuntimeError("timed worker failed")
        setups += setup_samples(extra - extra // 2)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        passes = result["passes"]

        refs = workloads.fd_references(plan) if args.workload == "lambda_batch" else None
        verdicts = gate_all(passes, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_run").rmdir()
        except OSError:
            pass

    untraced = [p for p in passes if not p["traced"]]
    counts = summarize(verdicts)
    e2e = e2e_metrics(setups, untraced, result["peak_rss_kb"])
    info = {"fail_frac": (counts["fail_frac"], "ratio"),
            "passes": (len(untraced), "count"),
            "setup_samples": (len(setups), "count")}
    if args.workload == "lambda_batch":
        ms = sorted(1e3 * o["wall"] for p in untraced for o in p["obs"])
        info["curve_ms.p50"] = (percentile(ms, 0.50), "ms")
        info["curve_ms.p75"] = (percentile(ms, 0.75), "ms")
        info["curve_ms.samples"] = (len(ms), "count")
    layers = layer_metrics(result["trace"], passes) if args.trace else {}
    return {"plan": plan, "env": environment(args.seed, result.get("blas_threads")),
            "e2e": e2e, "info": info, "layers": layers, "verdicts": verdicts, **counts,
            "elapsed": time.monotonic() - start}


def failure_lines(run_out: dict) -> list[str]:
    """One line per distinct failing operation, with its input and reason."""
    plan, seen, lines = run_out["plan"], {}, []
    for v in run_out["verdicts"]:
        if v["failed"]:
            seen.setdefault((v["index"], v["op"], v["reason"]), []).append(v)
    for (index, op, reason), vs in sorted(seen.items()):
        meta = plan["meta"][index]
        where = f"{meta['kind']} #{index}" if "curve" in meta else meta["kind"]
        curve = " " + json.dumps(meta["curve_obj"]) if "curve_obj" in meta else ""
        lines.append(f"FAIL {op} [{where}] x{len(vs)}{' WRONG' * vs[0]['wrong']}: "
                     f"{reason}{curve}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input set (for the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (SRC / "ovalbound" / "cli.py").is_file():
        print(f"error: no ovalbound sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, stopping the worker
    try:
        out = run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"ran {out['elapsed']:.1f} s")
    print("env " + json.dumps(out["env"], sort_keys=True))
    for name, value in out["e2e"].items():
        print(f"metric {name} {value:.6g} {E2E_UNITS[name]}")
    for name, (value, unit) in out["info"].items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, (value, unit) in out["layers"].items():
        print(f"layer {name} {value:.6g} {unit}")
    print(f"operations attempted {out['attempted']} failed {out['failed']} "
          f"wrong {len(out['wrong'])}")
    for line in failure_lines(out):
        print(line)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in out["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in out["e2e"].items()}
    print(json.dumps({"correct": not out["wrong"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
