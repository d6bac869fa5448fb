"""Command-line front end: bound optimization, the closed-form pipeline,
per-curve eigenvalue reports, and the seeded verification suites.

Every subcommand writes a machine-readable JSON report (inputs echoed,
outputs, named checks with margins, library version, tolerances).  Reports
are byte-deterministic for fixed flags and seed: no timestamps, sorted keys,
shortest-round-trip floats.  CSV files use '.' decimals, LF terminators and
17 significant digits, the bytes ``'%.17g' % v`` prints (``_cells``).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .analytic import (CUBIC_RESIDUAL_TOL, LEVEL, LEVEL_SET_GRID, LEVEL_SET_TOL,
                       MAJORANT_GRID, SLACK_TOL, cardano_minimum, level_set_grid, level_set_miss,
                       tangent_majorant_checks)
from .bounds import MAX_GRID, MIN_GRID, b1, b2, optimize_infmax
from .checks import MAX_N, SUITE_LABELS, _result, run_suites
from .curves import EPS_CONVEX, FourierCurve, validate_curve
from .errors import CurveFormatError, OvalboundError, RejectedCurve
from .projection import build_projection
from .spectral import RESIDUAL_TOL, ground_state

#: Tolerances echoed into every report.
TOLERANCES = {
    "infmax_value_band": 5e-4,
    "crossing_gap": 1e-12,
    "delta_min_band": 1e-3,
    "delta0_band": 1e-3,
    "final_value_band": 5e-4,
    "cubic_residual": CUBIC_RESIDUAL_TOL,
    "eigen_residual": RESIDUAL_TOL,
}

EXPECTED_INFMAX = 0.8246
EXPECTED_DELTA_MIN = 1.196
EXPECTED_DELTA0 = 1.386
EXPECTED_FINAL = 0.8166


@dataclass
class RunReport:
    command: str
    inputs: dict
    outputs: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    version: str = __version__
    tolerances: dict = field(default_factory=lambda: dict(TOLERANCES))

    def add_check(self, name: str, margin: float, detail: str = "") -> None:
        self.checks.append(asdict(_result(name, margin, detail)))

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")

    def to_json(self) -> str:
        # every field holds plain JSON values, so the fields go to json.dumps as they are
        return json.dumps(vars(self), sort_keys=True, indent=2)


#: Bytes per cell: "-0.000", the 17 digits of %.17g, a slot for the point
#: and the separator.
CELL_BYTES = 25
#: 10^j for j = -4..17, the bounds of the decades in which %g prints no
#: exponent, and 10^p for p = 0..20, each exactly a double; parsed, since a
#: first float np.power call pages in 170 kB of numpy's code.
_DECADES = np.array([float(f"1e{j}") for j in range(-4, 18)])
_SCALES = np.array([float(f"1e{p}") for p in range(21)])


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: x = hi + lo exactly, each of 26 bits or fewer."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


@functools.cache  # built on the first CSV, not at import
def _tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of _cells.

    - quads: the four digits of 0..9999, with leading zeros, one uint32 each;
    - tails: the count of trailing zeros of 0..9999, 4 for 0;
    - decades: by the biased exponent of 2^e, the k with 2^e in
      [10^(k-1), 10^k), clipped to -4..17;
    - scales: 10^p for p = 0..20 and the two halves of its _split;
    - masks: which bytes of a _cells row to keep, by (sign * 21 + k + 3) * 17
      + the count of N's trailing zeros.

    uint16 keeps every temporary below malloc's 128 kB mmap threshold:
    freeing a mapped one raises that threshold for the rest of the process,
    which lifts its peak RSS."""
    numbers = np.arange(10_000, dtype=np.uint16)
    quads = (numbers[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
             + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    tails = sum((numbers % np.uint16(10**i) == 0).astype(np.int8) for i in range(1, 5))
    powers = np.array([2.0 ** min(max(e, -60), 60) for e in range(-1023, 1025)])
    decades = np.searchsorted(_DECADES, powers, side="right").clip(0, 21) - 4
    scales = np.array([_SCALES, *_split(_SCALES)])
    sign = np.arange(2)[:, None, None, None]
    k = np.arange(-3, 18)[:, None, None]
    zeros = np.arange(17)[:, None]
    at = np.arange(CELL_BYTES)
    i = at - 6  # from byte 6 on, digit i of N, or for k >= 1 the point at i = k
    digits = np.where(k <= 0, i < 17 - zeros, (i < k) | ((i > k) & (i <= 17 - zeros)))
    keep = ((at == 0) & (sign == 1)) | (((at == 1) | (at == 2)) & (k <= 0)) \
        | ((at >= 3) & (at < 6) & (at >= 6 + k)) \
        | ((at >= 6) & (at < 24) & (digits | ((i == k) & (k + zeros < 17)))) \
        | (at == CELL_BYTES - 1)
    return quads, tails, decades, scales, keep.reshape(-1, CELL_BYTES).astype(np.uint8)


def _cells(values: np.ndarray) -> np.ndarray:
    """Each value's %.17g text and a ",", in a row of CELL_BYTES bytes whose
    other bytes are zero.

    For 1e-4 <= |v| < 1e17, where %g prints no exponent, the text comes
    from an integer kernel.  |v| lies in the decade [10^(k-1), 10^k) and
    10^(17-k) is an exact double, so Dekker's product splits
    |v| * 10^(17-k) exactly into hi + lo.  hi is an even integer >= 2^53,
    so N = hi + rint(lo) is the 17-digit integer rounded to nearest, ties
    to even, as %.17g rounds; its digits come from a 4-digit table.  Every
    other value (0, -0, subnormals, exponent forms, inf, nan), and any N
    outside [10^16, 10^17), goes through '%.17g' itself.

    A row holds "-0." at bytes 0-2, N's five 4-digit groups at 3-22 (the
    lead group "000d", so the 17 digits sit at 6-22), a slot for the point
    at 23 and the "," at 24.  Where |v| >= 1, the digits after the k-th
    move up one byte and the point fills the gap.  A mask by sign, k and
    N's trailing zeros then zeroes every byte %.17g does not print: it
    keeps the sign, "0." and the leading zeros below 1, the point after
    digit k, and the digits up to the last nonzero one or that point.  The
    longest '%.17g' text, such as -2.2250738585072014e-308, is 24 bytes,
    so it fits with its ",".
    """
    quads, tails, decades, scales, masks = _tables()
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e17)
    a[~fast] = 0.5  # '%.17g' writes these; 0.5 keeps the arithmetic below finite
    k = decades.take(a.view(np.int64) >> 52)  # the decade of a's power of two
    k += a >= _DECADES.take(k + 4)
    scale, sh, sl = scales.take(17 - k, axis=1)
    hi = a * scale
    ah, al = _split(a)
    lo = ((ah * sh - hi) + ah * sl + al * sh) + al * sl
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # each stage's temporaries go before the next is made: held to the end,
    # a call on 4096 values peaks at 0.9 MB, more than glibc's malloc keeps
    # between write_csv's blocks, so their pages would fault in every block
    del a, scale, sh, sl, hi, ah, al, lo
    fast &= (n >= 10**16) & (n < 10**17)
    upper = n // 10**8
    lower = n - upper * 10**8
    middle, low = upper // 10**4, lower // 10**4
    lead = middle // 10**4
    groups = np.stack([lead, middle - lead * 10**4, upper - middle * 10**4,
                       low, lower - low * 10**4], axis=1)
    del n, upper, lower, middle, low, lead
    text = np.empty((len(values), CELL_BYTES), dtype=np.uint8)
    text[:, 3:23] = quads.take(groups).view(np.uint8)  # "000d" from the lead digit
    for at, byte in enumerate(b"-0."):
        text[:, at] = byte
    text[:, 24] = ord(",")
    tail = tails.take(groups)
    del groups
    zeros = tail[:, 4]
    for i in (3, 2, 1):  # group i's zeros count where every later group is 0000
        zeros = zeros + (zeros == 16 - 4 * i) * tail[:, i]
    # digits[:k] + "." + digits[k:] where |v| >= 1; a set, since np.unique's
    # sort pages in 1 MB of numpy's code on its first call
    for point in set(k[k >= 1].tolist()):
        rows = np.flatnonzero(k == point)
        text[rows, 7 + point:24] = text[rows, 6 + point:23]
        text[rows, 6 + point] = ord(".")
    text *= masks.take((np.signbit(values) * 21 + k + 3) * 17 + zeros, axis=0)
    for i in np.flatnonzero(~fast):
        exact = b"%.17g" % values[i]
        text[i, :-1] = 0
        text[i, :len(exact)] = np.frombuffer(exact, dtype=np.uint8)
    return text


def write_csv(path: Path, header: list[str], axes: list[np.ndarray],
              blocks: Iterable[Sequence[np.ndarray]]) -> None:
    """Write a table under header, each value as the bytes '%.17g' % v
    prints.  Its first columns are the 1-D axes, whose outer product gives
    the rows in C order.  Each item of blocks holds the other columns'
    values on the next rows, each array read in C order, and is written as
    one block of rows, so a caller can stream columns it never holds whole,
    as optimize_infmax's export streams the coarse surfaces.

    Each axis is formatted once (_cells), and each row finds its cell by
    the row's index along that axis.  A block's values are formatted too,
    except where a value is bitwise equal to an earlier column's value in
    the same row: that cell is reused.  The comparison is bitwise because
    0.0 == -0.0 prints two ways.  Each block's cells are gathered into one
    byte matrix, whose zeros are deleted, and written in one call.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    shape = tuple(len(a) for a in axes)
    firsts = np.cumsum((0, *shape))
    axis_text = np.concatenate([np.empty((0, CELL_BYTES), dtype=np.uint8),
                                *(_cells(np.asarray(a, dtype=float)) for a in axes)])
    start = 0
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for block in blocks:
            values = [np.asarray(v, dtype=float).ravel() for v in block]
            rows = len(values[0])
            buffer = bytearray(rows * len(header) * CELL_BYTES)
            text = np.frombuffer(buffer, dtype=np.uint8).reshape(rows, len(header), CELL_BYTES)
            index = np.empty(text.shape[:2], dtype=np.intp)
            place = np.unravel_index(np.arange(start, start + rows), shape) if shape else ()
            for j, p in enumerate(place):
                index[:, j] = firsts[j] + p
            bits, fresh_values, count = {}, [], len(axis_text)
            for j, v in enumerate(values, start=len(axes)):
                fresh = np.ones(rows, dtype=bool)
                for i, earlier in bits.items():
                    same = earlier == v.view(np.int64)
                    np.copyto(index[:, j], index[:, i], where=same)
                    fresh &= ~same
                bits[j] = v.view(np.int64)
                fresh_values.append(v[fresh])
                index[fresh, j] = count + np.arange(len(fresh_values[-1]))
                count += len(fresh_values[-1])
            cells = np.concatenate([axis_text, _cells(np.concatenate(fresh_values))])
            # with mode "raise", take gathers into a temporary before copying to out
            cells.take(index, axis=0, out=text, mode="clip")
            text[:, -1, -1] = ord("\n")
            fh.write(buffer.translate(None, b"\0"))
            start += rows


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json object_pairs_hook: refuse a key given twice, whose last value json keeps."""
    if len(obj := dict(pairs)) < len(pairs):
        raise CurveFormatError("a key appears twice in one JSON object")
    return obj


def parse_curve_json(text: str) -> FourierCurve:
    """Curve file format: {"max_index": N, "a": {"2": v, ...}, "b": {...}};
    absent keys mean zero.  FourierCurve converts and checks the values."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # ValueError includes JSONDecodeError
        raise CurveFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or not obj.keys() <= {"a", "b", "max_index"}:
        raise CurveFormatError("curve file must hold a JSON object with only a, b, max_index")
    try:
        return FourierCurve(**obj)
    except (TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise CurveFormatError(f"bad curve data: {exc}") from exc


def cmd_eval_bounds(grid: int, tol: float, out_path: Path) -> int:
    """Minimize max(B1, B2); write the coarse contour CSV and a JSON report."""
    export = functools.partial(write_csv, out_path.with_suffix(".csv"),
                               ["nu_tilde", "delta", "b1", "b2", "bmax"])
    surface = optimize_infmax(n_coarse=grid, refine_tol=tol, export=export)
    report = RunReport("eval-bounds", {"grid": grid, "tol": tol})
    report.outputs = {
        "value": surface.value,
        "argmin_nu_tilde": surface.argmin[0],
        "argmin_delta": surface.argmin[1],
        "levels_used": surface.levels_used,
        "csv_rows": grid * grid,
    }
    gap = abs(b1(*surface.argmin) - b2(*surface.argmin))
    report.add_check("value_within_expected_band",
                     TOLERANCES["infmax_value_band"] - abs(surface.value - EXPECTED_INFMAX))
    report.add_check("argmin_on_surface_crossing", TOLERANCES["crossing_gap"] - gap)
    report.write(out_path)
    print(f"inf-max value {surface.value:.6f} at nu_tilde={surface.argmin[0]:.6f}, "
          f"delta={surface.argmin[1]:.6f}; report: {out_path}")
    return 0 if report.all_passed else 1


def cmd_analytic(out_path: Path) -> int:
    """Run the closed-form pipeline and print its full ledger as JSON."""
    majorants = tangent_majorant_checks()
    pipe = cardano_minimum()
    report = RunReport("analytic", {})
    report.outputs = {
        "k": pipe.k,
        "delta_min": pipe.delta_min,
        "p": pipe.p,
        "q": pipe.q,
        "discriminant": pipe.discriminant,
        "d0": pipe.d0,
        "delta0": pipe.delta0,
        "final_value": pipe.final_value,
        "exceeds_0.81": pipe.final_value > LEVEL,
    }
    report.add_check("level_set_hits_0_81", LEVEL_SET_TOL - level_set_miss(level_set_grid()),
                     detail=f"max |B1 - {LEVEL}| on the level set's {LEVEL_SET_GRID} points")
    for check in majorants:
        # slack touches zero at the tangency points; absorb roundoff
        report.add_check(f"majorant_{check.name}", check.min_slack + SLACK_TOL,
                         detail=f"argmin {check.argmin:.6g} on {MAJORANT_GRID} points")
    report.add_check("delta_min_matches",
                     TOLERANCES["delta_min_band"] - abs(pipe.delta_min - EXPECTED_DELTA_MIN))
    report.add_check("delta0_matches",
                     TOLERANCES["delta0_band"] - abs(pipe.delta0 - EXPECTED_DELTA0))
    report.add_check("final_value_matches",
                     TOLERANCES["final_value_band"] - abs(pipe.final_value - EXPECTED_FINAL))
    report.add_check("final_value_exceeds_0.81", pipe.final_value - LEVEL)
    report.add_check("cubic_residual", TOLERANCES["cubic_residual"] - pipe.residual)
    report.write(out_path)
    print(report.to_json())
    return 0 if report.all_passed else 1


def curve_as_json_object(curve: FourierCurve) -> dict:
    """Canonical curve-file form of a parsed curve (round-trips through
    parse_curve_json)."""
    return {"max_index": curve.max_index,
            "a": {str(n): curve.a[n] for n in sorted(curve.a)},
            "b": {str(n): curve.b[n] for n in sorted(curve.b)}}


def cmd_lambda(curve_file: Path, out_path: Path, projections: bool = False) -> int:
    """Validate, solve and check one curve; optional (t, I(t)) CSV."""
    try:
        text = Path(curve_file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CurveFormatError(f"cannot read curve file: {exc}") from exc
    curve = parse_curve_json(text)
    report = RunReport("lambda", {"curve_file": str(curve_file), "projections": projections,
                                  "curve": curve_as_json_object(curve)})
    try:
        validation = validate_curve(curve)
    except RejectedCurve as exc:
        report.outputs = {"rejected": True, "min_phi_inv_prime": exc.min_value,
                          "argmin_t": exc.argmin_t}
        report.add_check("convexity_margin", exc.min_value - exc.eps_convex,
                         detail=str(exc))
        report.write(out_path)
        print(exc, file=sys.stderr)
        return 1
    try:
        solution = ground_state(curve)
    except OvalboundError as exc:
        report.outputs = {"converged": False, "min_phi_inv_prime": validation.min_value}
        report.add_check("ground_state_converged", -1.0, detail=str(exc))
        report.write(out_path)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.outputs = {
        "converged": True,
        "lambda": solution.lam,
        "residual": solution.residual,
        "min_phi_inv_prime": validation.min_value,
        "n_modes": solution.n_modes,
    }
    report.add_check("convexity_margin", validation.min_value - EPS_CONVEX,
                     detail=f"min (phi^-1)' = {validation.min_value:.6g} at t = "
                            f"{validation.argmin_t:.6g} (threshold {EPS_CONVEX:.3g})")
    report.add_check("eigen_residual", TOLERANCES["eigen_residual"] - solution.residual)
    report.add_check("psi_positive", float(solution.psi.min()))
    if projections:
        data = build_projection(curve, solution.psi)
        write_csv(out_path.with_suffix(".csv"), ["t", "i_of_t"], [data.t_grid], [[data.I_values]])
    report.write(out_path)
    print(f"lambda = {solution.lam:.12f} (residual {solution.residual:.2e}); "
          f"report: {out_path}")
    return 0 if report.all_passed else 1


def cmd_verify(seed: int, n: int, out_path: Path) -> int:
    """Run every property suite on seeded random inputs."""
    results = run_suites(seed, n)
    report = RunReport("verify", {"seed": seed, "n": n})
    failures = 0
    for label in SUITE_LABELS:
        for check in results[label]:
            report.checks.append(asdict(replace(check, name=f"{label}:{check.name}")))
            failures += 0 if check.passed else 1
    report.outputs = {"suites": len(SUITE_LABELS),
                      "checks": len(report.checks),
                      "failures": failures}
    report.write(out_path)
    for check in report.checks:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']} margin={check['margin']:.3e}")
    if failures:
        print(f"{failures} check(s) failed; report: {out_path}", file=sys.stderr)
        return 1
    print(f"all {len(report.checks)} checks passed; report: {out_path}")
    return 0


@functools.cache  # built once per process: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ovalbound",
        description="Eigenvalue lower-bound machinery for closed convex curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-bounds", help="minimize max(B1, B2) and export contours")
    p.add_argument("--grid", type=int, default=256, help="coarse grid per axis")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="width of the delta bracket at which the inf-max search stops")
    p.add_argument("--out", type=Path, default=Path("eval_bounds.json"))

    p = sub.add_parser("analytic", help="closed-form 0.81 pipeline ledger")
    p.add_argument("--out", type=Path, default=Path("analytic.json"))

    p = sub.add_parser("lambda", help="ground-state eigenvalue of a curve file")
    p.add_argument("curve", type=Path, help="curve JSON file")
    p.add_argument("--out", type=Path, default=Path("lambda.json"))
    p.add_argument("--projections", action="store_true",
                   help="also write the (t, I(t)) CSV")

    p = sub.add_parser("verify", help="run all property suites on seeded inputs")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n", type=int, default=25,
                   help="random curves and samples per suite")
    p.add_argument("--out", type=Path, default=Path("verify.json"))
    return parser


#: Numeric flags, the condition each value must meet and its wording.
FLAG_RULES = {"n": (lambda v: 1 <= v <= MAX_N, f"in 1..{MAX_N}"),
              "seed": (lambda v: v >= 0, "at least 0"),
              "grid": (lambda v: MIN_GRID <= v <= MAX_GRID, f"in {MIN_GRID}..{MAX_GRID}"),
              "tol": (lambda v: math.isfinite(v) and v > 0.0, "finite and positive")}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for flag, (ok, wording) in FLAG_RULES.items():
        value = getattr(args, flag, None)
        if value is not None and not ok(value):
            print(f"error: --{flag} must be {wording}, got {value}", file=sys.stderr)
            return 2
    writes_csv = args.command == "eval-bounds" or getattr(args, "projections", False)
    if writes_csv and args.out.with_suffix(".csv") == args.out:
        print(f"error: --out {args.out} would be overwritten by the CSV", file=sys.stderr)
        return 2
    try:
        if args.command == "eval-bounds":
            return cmd_eval_bounds(args.grid, args.tol, args.out)
        if args.command == "analytic":
            return cmd_analytic(args.out)
        if args.command == "lambda":
            return cmd_lambda(args.curve, args.out, args.projections)
        return cmd_verify(args.seed, args.n, args.out)
    except CurveFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # only writes: cmd_lambda raises CurveFormatError on reads
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except OvalboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
