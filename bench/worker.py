"""Benchmark worker: one fresh interpreter that imports ovalbound.cli, runs
the workload's warm-up, prints READY, then issues timed passes.

Started by run.py with ``src`` on PYTHONPATH:

    python3 bench/worker.py PLAN.json RESULT.json --seconds S --trace 0|1
    python3 bench/worker.py PLAN.json - --setup-only

With ``--trace 1`` the first half of the time budget runs untraced and the
second half traced, so the trace overhead is measured inside one process.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _passes(ops, seconds: float, traced: bool) -> list[dict]:
    """Issue whole passes over ``ops`` while another pass as long as the last
    one still fits in ``seconds`` (at least one pass)."""
    from ovalbound import cli

    def main(argv):  # look the entry point up per call so a tracer's rebinding applies
        return cli.main(argv)

    passes, last = [], 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        passes.append({"traced": traced, "obs": [workloads.run_op(main, argv) for argv in ops]})
        last = time.perf_counter() - t0
    return passes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan", type=Path)
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    plan = json.loads(args.plan.read_text(encoding="utf-8"))

    from ovalbound import cli
    for argv in plan["warmup"]:
        obs = workloads.run_op(cli.main, argv)
        if not obs["report"]:
            print(f"warm-up {argv[0]} wrote no report (exit {obs['exit']}): {obs['error']}",
                  file=sys.stderr)
            return 3
    print("READY", flush=True)
    if args.setup_only:
        return 0

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = _passes(plan["ops"], budget, traced=False)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"passes": passes, "peak_rss_kb": peak_rss_kb, "blas_threads": _blas_threads()}
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            passes += _passes(plan["ops"], budget, traced=True)
        finally:
            tracer.uninstall()
        result["trace"] = {"stats": tracer.stats, "counters": tracer.counters,
                           "command_s": tracer.command_s}
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
