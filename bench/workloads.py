"""The three benchmark workloads: input generation, the commands one pass
issues, what each command leaves behind, and the correctness gates.

A workload is a fixed list of CLI commands ("operations") generated from the
workload seed before anything is timed.  One pass issues them in order from a
single caller, each only after the previous one returned (a closed loop with
one client).  Each operation yields an observation dict: the exit status, its
wall and CPU time, and the fields the gates need, read back from the files
the command wrote.  Gates turn observations into (attempted, failed, wrong)
counts; "wrong" marks a command that exited 0 with an output the gate
rejects, which the benchmark reports as ``correct: false``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("lambda_batch", "verify_suites", "bounds_report")

#: |lambda - fd_reference_lambda(curve)| above this fails a lambda operation;
#: the same tolerance as the spectral suite's fd_oracle_agreement check.
FD_TOL = 1e-7
EXPECTED_INFMAX = 0.8246
INFMAX_BAND = 5e-4
ANALYTIC_FLOOR = 0.81

#: Curves in one lambda_batch pass: 3/4 smooth, 1/8 of each minority kind.
LAMBDA_CURVES = 8
#: verify --n of the one verify_suites command (spectral and projection suites
#: draw this many curves each; the run time is linear in it).
VERIFY_N = 20
#: eval-bounds always runs at GRID_LO and GRID_HI, plus a seed-drawn pair of
#: grids (g, g') with g^2 + g'^2 = GRID_PAIR_SQ (up to rounding g'), so every
#: pass writes about the same number of CSV rows whatever the seed.
GRID_LO, GRID_MID, GRID_HI = 64, 362, 512
GRID_PAIR_SQ = GRID_LO**2 + GRID_MID**2
TINY_BOUNDS = [["eval-bounds", "--grid", "64", "--tol", "1e-6"],
               ["eval-bounds", "--grid", "96", "--tol", "1e-9"], ["analytic"]]


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))


def curve_object(a: dict, b: dict, max_index: int) -> dict:
    return {"max_index": int(max_index),
            "a": {str(n): float(v) for n, v in sorted(a.items())},
            "b": {str(n): float(v) for n, v in sorted(b.items())}}


def lambda_curves(seed: int, n_curves: int = LAMBDA_CURVES) -> list[tuple[str, dict]]:
    """(kind, curve object) pairs: 3/4 smooth, 1/8 near-degenerate single
    harmonic, 1/8 smooth plus one small high harmonic, in seed-shuffled order."""
    from ovalbound.curves import random_curve, validate_curve
    from ovalbound.errors import RejectedCurve

    rng = _rng(seed, "lambda_batch")
    n_odd = n_curves // 8
    kinds = ["smooth"] * (n_curves - 2 * n_odd) + ["degenerate"] * n_odd + ["high"] * n_odd
    kinds = [kinds[i] for i in rng.permutation(n_curves)]
    out = []
    for kind in kinds:
        if kind == "degenerate":
            # (phi^-1)' = 1 + n*amp*cos(n t + theta), so min (phi^-1)' = floor
            n = int(rng.integers(2, 7))
            floor = rng.uniform(0.05, 0.2)
            amp, theta = (1.0 - floor) / n, rng.uniform(0.0, 2.0 * math.pi)
            out.append((kind, curve_object({n: amp * math.cos(theta)},
                                           {n: amp * math.sin(theta)}, n)))
            continue
        while True:
            base = random_curve(rng, max_index=int(rng.integers(2, 13)))
            a, b, top = dict(base.a), dict(base.b), base.max_index
            if kind == "high":
                n = int(rng.integers(30, 81))
                amp, theta = rng.uniform(1e-4, 5e-4), rng.uniform(0.0, 2.0 * math.pi)
                a[n], b[n], top = amp * math.cos(theta), amp * math.sin(theta), n
            obj = curve_object(a, b, top)
            try:
                validate_curve(type(base)(a=a, b=b, max_index=top))
            except RejectedCurve:
                continue
            out.append((kind, obj))
            break
    return out


def bounds_commands(seed: int) -> list[list[str]]:
    """eval-bounds at both ends of the grid range and at one seed-drawn pair
    of grids in [GRID_LO, GRID_MID], each with a seed-drawn tolerance, then
    analytic.  The fixed 512 grid keeps the peak memory of a pass independent
    of the seed."""
    rng = _rng(seed, "bounds_report")
    g = int(rng.integers(GRID_LO, GRID_MID + 1))
    grids = (GRID_LO, GRID_HI, g, int(round(math.sqrt(GRID_PAIR_SQ - g * g))))
    cmds = [["eval-bounds", "--grid", str(grid), "--tol", repr(10.0 ** rng.uniform(-9.0, -6.0))]
            for grid in grids]
    return cmds + [["analytic"]]


def build(workload: str, seed: int, work: Path, tiny: bool = False) -> dict:
    """Write the workload's input files under ``work`` and return its plan:
    the warm-up and timed argv lists, each writing to its own --out path
    under ``work``, and per-operation metadata for the gates."""
    work.mkdir(parents=True, exist_ok=True)
    warm = work / "warmup"
    warm.mkdir(exist_ok=True)
    ops, meta = [], []
    if workload == "lambda_batch":
        warm_curve = warm / "curve.json"
        warm_curve.write_text(json.dumps(curve_object({2: 0.05}, {3: 0.02}, 3)))
        warmup = [["lambda", str(warm_curve), "--projections",
                   "--out", str(warm / "lambda.json")]]
        for i, (kind, obj) in enumerate(lambda_curves(seed, 4 if tiny else LAMBDA_CURVES)):
            path = work / f"curve_{i:02d}.json"
            path.write_text(json.dumps(obj, sort_keys=True))
            argv = ["lambda", str(path)] + (["--projections"] if i % 2 else [])
            ops.append(argv + ["--out", str(work / f"lambda_{i:02d}.json")])
            meta.append({"kind": kind, "curve": str(path), "curve_obj": obj})
    elif workload == "verify_suites":
        warmup = [["verify", "--seed", "0", "--n", "1", "--out", str(warm / "verify.json")]]
        ops.append(["verify", "--seed", str(seed), "--n", "2" if tiny else str(VERIFY_N),
                    "--out", str(work / "verify.json")])
        meta.append({"kind": "verify"})
    elif workload == "bounds_report":
        warmup = [["eval-bounds", "--grid", "64", "--out", str(warm / "eval.json")],
                  ["analytic", "--out", str(warm / "analytic.json")]]
        cmds = TINY_BOUNDS if tiny else bounds_commands(seed)
        for i, argv in enumerate(cmds):
            ops.append(argv + ["--out", str(work / f"{argv[0]}_{i}.json")])
            meta.append({"kind": argv[0]})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "warmup": warmup, "ops": ops, "meta": meta}


def _out_path(argv: list[str]) -> Path:
    return Path(argv[argv.index("--out") + 1])


def run_op(main, argv: list[str]) -> dict:
    """Issue one command through ``main`` (ovalbound.cli.main) and observe it.

    Output files from an earlier pass are removed first so a command that
    writes nothing is seen as such.  Only the call itself is timed.
    """
    out = _out_path(argv)
    csv = out.with_suffix(".csv")
    out.unlink(missing_ok=True)
    csv.unlink(missing_ok=True)
    sink = io.StringIO()
    error = ""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the flags
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escaped error is a failed operation, not a crash
        code, error = -1, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if not error:
        lines = [ln for ln in sink.getvalue().splitlines() if ln.startswith("error")]
        error = lines[-1] if lines else ""
    obs = {"cmd": argv[0], "exit": int(code), "wall": wall, "cpu": cpu,
           "report": out.is_file(), "error": error[:300]}
    if not obs["report"]:
        return obs
    report = json.loads(out.read_text(encoding="utf-8"))
    outputs = report.get("outputs", {})
    if argv[0] == "lambda":
        obs["lambda"] = outputs.get("lambda")
        obs["residual"] = outputs.get("residual")
        obs["failed_checks"] = [c["name"] for c in report["checks"] if not c["passed"]]
    elif argv[0] == "verify":
        obs["checks"] = [[c["name"], bool(c["passed"]), c["margin"], c["detail"]]
                         for c in report["checks"]]
    elif argv[0] == "eval-bounds":
        obs["grid"] = int(argv[argv.index("--grid") + 1])
        obs["value"] = outputs.get("value")
        if csv.is_file():
            with csv.open("rb") as fh:
                obs["csv_rows"] = sum(chunk.count(b"\n") for chunk in iter(
                    lambda: fh.read(1 << 20), b"")) - 1
    elif argv[0] == "analytic":
        obs["final_value"] = outputs.get("final_value")
    return obs


def fd_references(plan: dict) -> dict[int, float]:
    """FD/Richardson oracle value for every curve of a lambda_batch plan.
    Computed after the timed phase, in a process that traces nothing."""
    from ovalbound.cli import parse_curve_json
    from ovalbound.spectral import fd_reference_lambda

    refs = {}
    for i, meta in enumerate(plan["meta"]):
        curve = parse_curve_json(Path(meta["curve"]).read_text(encoding="utf-8"))
        refs[i] = fd_reference_lambda(curve)
    return refs


def gate(index: int, obs: dict, refs: dict[int, float] | None = None) -> list[dict]:
    """Verdicts for one observation: one dict per operation it covers, with
    ``failed`` and ``wrong`` flags and a one-line reason.  A lambda
    observation also gets its ``fd_gap`` recorded."""
    cmd = obs["cmd"]

    def verdict(reason: str = "", wrong: bool = False, name: str = cmd) -> dict:
        return {"op": name, "failed": bool(reason), "wrong": wrong, "reason": reason}

    if cmd == "verify":
        if "checks" not in obs:
            return [verdict(f"no report (exit {obs['exit']}) {obs['error']}".strip())]
        return [verdict(f"passed=false margin={m:.3e} {d}".strip() if not ok else "",
                        name=name) for name, ok, m, d in obs["checks"]]
    clean_exit = obs["exit"] == 0
    if not obs["report"]:
        return [verdict(f"no report (exit {obs['exit']}) {obs['error']}".strip())]
    if cmd == "lambda":
        lam, ref = obs.get("lambda"), (refs or {}).get(index)
        gap = None if lam is None or ref is None else abs(lam - ref)
        obs["fd_gap"] = gap
        if gap is not None and not gap <= FD_TOL:
            return [verdict(f"|lambda - fd| = {gap:.3e} > {FD_TOL:.0e}"
                            + ("" if clean_exit else f" (exit {obs['exit']})"),
                            wrong=clean_exit)]
        if not clean_exit:
            return [verdict(f"exit {obs['exit']}: failed checks {obs['failed_checks']}")]
        if gap is None:
            return [verdict("no FD reference or lambda to compare", wrong=True)]
        return [verdict()]
    if not clean_exit:
        return [verdict(f"exit {obs['exit']} {obs['error']}".strip())]
    if cmd == "eval-bounds":
        if not abs(obs["value"] - EXPECTED_INFMAX) <= INFMAX_BAND:
            return [verdict(f"inf-max {obs['value']!r} outside {EXPECTED_INFMAX}"
                            f" +- {INFMAX_BAND}", wrong=True)]
        if obs.get("csv_rows") != obs["grid"] ** 2:
            return [verdict(f"csv rows {obs.get('csv_rows')} != grid^2 = {obs['grid']**2}",
                            wrong=True)]
        return [verdict()]
    if not obs["final_value"] > ANALYTIC_FLOOR:
        return [verdict(f"analytic final value {obs['final_value']!r} <= {ANALYTIC_FLOOR}",
                        wrong=True)]
    return [verdict()]
