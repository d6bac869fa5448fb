import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ovalbound as ob
from ovalbound.cli import main, parse_curve_json, write_csv


def run_cli(args):
    return main([str(a) for a in args])


def load(path):  # strict: refuses the Infinity and NaN that json.dumps writes by default
    return json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in {path}"))


def modules_loaded(argv, package):
    """The sorted names of ``package`` and its submodules that a fresh
    interpreter holds after ``main(argv)``, printed as a list."""
    code = ("import sys; from ovalbound.cli import main; "
            f"main({argv!r}); "
            f"print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))")
    src = str(Path(ob.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    return out.splitlines()[-1]


class TestEvalBounds:
    def test_coarse_run(self, tmp_path):
        out = tmp_path / "eb.json"
        code = run_cli(["eval-bounds", "--grid", 64, "--tol", 1e-3, "--out", out])
        assert code == 0
        report = load(out)
        assert report["command"] == "eval-bounds"
        value = report["outputs"]["value"]
        assert abs(value - 0.8246) < 5e-4
        csv_lines = (tmp_path / "eb.csv").read_text().splitlines()
        assert csv_lines[0] == "nu_tilde,delta,b1,b2,bmax"
        assert len(csv_lines) == 1 + 64 * 64

    def test_csv_roundtrip_precision(self, tmp_path):
        out = tmp_path / "eb.json"
        run_cli(["eval-bounds", "--grid", 64, "--tol", 1e-3, "--out", out])
        rows = (tmp_path / "eb.csv").read_text().splitlines()[1:]
        sample = rows[1234].split(",")
        nu, delta, v1, v2, vmax = map(float, sample)
        assert vmax == max(v1, v2)
        assert v1 == ob.b1(nu, delta)

    def test_report_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["eval-bounds", "--grid", 64, "--tol", 1e-3, "--out", a])
        run_cli(["eval-bounds", "--grid", 64, "--tol", 1e-3, "--out", b])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_loads_no_scipy(self, tmp_path):
        argv = ["eval-bounds", "--grid", "64", "--out", str(tmp_path / "eb.json")]
        assert modules_loaded(argv, "scipy") == "[]"


def test_write_csv_matches_format(tmp_path):
    # -2.2250738585072014e-308 is 24 bytes, the longest '%.17g' text
    values = [0.1, 1 / 3, -0.0, 5e-324, 1e300, -2.2250738585072014e-308, 0.5]
    table = np.array(values * 3).reshape(7, 3)
    path = tmp_path / "awkward.csv"
    write_csv(path, ["x", "y", "z"], [], [list(table.T)])
    expected = "x,y,z\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n"
                                   for row in table.tolist())
    assert path.read_bytes() == expected.encode()
    assert b"-0," in path.read_bytes() and b"4.9406564584124654e-324" in path.read_bytes()
    assert b",-2.2250738585072014e-308," in path.read_bytes()


def reference_csv(header, table):
    return (",".join(header) + "\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n"
                                               for row in table.tolist())).encode()


def test_write_csv_reuses_text_only_bitwise(tmp_path):
    # each column sits next to one that equals it with ==, but not bitwise
    x = np.array([0.0, -0.0, 5e-324, 1e300, 0.1, -0.0])
    y = np.array([-0.0, 0.0, 5e-324, 1e300, 0.1, -0.0])
    z = np.array([0.0, -0.0, 0.0, -1e300, 0.1, 0.0])
    path = tmp_path / "zeros.csv"
    write_csv(path, ["x", "y", "z"], [], [[x, y, z]])
    text = path.read_bytes()
    assert text == reference_csv(["x", "y", "z"], np.column_stack([x, y, z]))
    assert text.splitlines()[1:3] == [b"0,-0,0", b"-0,0,-0"]


def grid_surfaces(grid):
    """nu_tilde, delta, B1, B2 and max(B1, B2) on eval-bounds' coarse grid,
    each a whole grid x grid array."""
    surface = ob.optimize_infmax(n_coarse=grid)
    nu, delta = np.meshgrid(surface.nu_grid, surface.delta_grid, indexing="ij")
    v1, v2 = ob.b1(nu, delta), ob.b2(nu, delta)
    return [nu, delta, v1, v2, np.maximum(v1, v2)]


def test_write_csv_grid_surface_matches_reference(tmp_path):
    # at 362 the scan yields blocks of 5 whole nu_tilde rows (1810 points) and a last one of 2
    for grid in (97, 256, 362):
        out = tmp_path / f"eb{grid}.json"
        assert run_cli(["eval-bounds", "--grid", grid, "--tol", 1e-7, "--out", out]) == 0
        table = np.stack(grid_surfaces(grid), axis=-1).reshape(-1, 5)
        assert len(table) == grid * grid
        assert out.with_suffix(".csv").read_bytes() == \
            reference_csv(["nu_tilde", "delta", "b1", "b2", "bmax"], table)


def kernel_probes():
    """Values on every edge of write_csv's integer kernel, both signs."""
    rng = np.random.default_rng(15)
    powers = 10.0 ** np.arange(-5, 19)
    edges = [np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf), [1e-4, 1e17]]
    # 2^e + 1/8 and the like: the exact decimal ties of 17 digits sit at 2^40..2^56
    exponents = np.repeat(np.arange(40, 57), 64)
    ties = [[562949953421312.125],
            (2.0**52 + rng.integers(0, 2**52, exponents.size)) * 2.0 ** (exponents - 52)]
    exponents = rng.integers(-20, 61, 20_000)
    spread = (1.0 + rng.random(exponents.size)) * 2.0**exponents
    values = np.concatenate([*edges, *ties, spread])
    return np.concatenate([values, -values, [0.0, -0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan]])


def test_write_csv_kernel_matches_format(tmp_path):
    values = kernel_probes()
    path = tmp_path / "kernel.csv"
    write_csv(path, ["v", "w"], [], [[values, values[::-1]]])
    assert path.read_bytes() == reference_csv(["v", "w"], np.column_stack([values, values[::-1]]))


def cell_class(text):
    """(sign, k, z) of a %.17g text without exponent: |v| lies in
    [10^(k-1), 10^k) and its 17-digit N ends in z zeros."""
    digits = text.lstrip("-")
    whole, _, fraction = digits.partition(".")
    k = len(whole) if whole != "0" else len(fraction.lstrip("0")) - len(fraction)
    return text.startswith("-"), k, 17 - len((whole + fraction).strip("0"))


def class_probes():
    """By (k, z) for k in -3..17 and z in 0..16, a positive double whose
    %.17g text is in that class: of the first 17-digit integers N with z
    trailing zeros, the first for which N * 10^(k-17), rounded to a double,
    or one of that double's two neighbours prints as N's digits."""
    found = {}
    for k in range(-3, 18):
        for z in range(17):
            for n in range(10**16, min(10**17, 10**16 + 100 * 10**z), 10**z):
                if n // 10**z % 10 == 0:
                    continue
                near = float(Fraction(n) * Fraction(10) ** (k - 17))
                hits = [v for v in (np.nextafter(near, 0.0), near, np.nextafter(near, np.inf))
                        if cell_class(format(v, ".17g")) == (False, k, z)]
                if hits:
                    found[k, z] = hits[0]
                    break
    return found


def test_write_csv_kernel_covers_every_class(tmp_path):
    found = class_probes()
    assert len(found) == 21 * 17  # every class is reachable
    values = np.array(list(found.values()))
    values = np.concatenate([values, -values])
    assert len({cell_class(format(v, ".17g")) for v in values}) == 2 * 21 * 17
    path = tmp_path / "classes.csv"
    write_csv(path, ["v", "w"], [], [[values, values[::-1]]])
    assert path.read_bytes() == reference_csv(["v", "w"], np.column_stack([values, values[::-1]]))


def test_write_csv_mixes_points_and_fractions(tmp_path):
    # |v| >= 1 moves digits to make room for the point; |v| < 1 does not
    above = np.array([1.5, -123.25, 99999.5, 1e16 + 2, 7.0, -2.0**52 - 0.5])
    below = np.array([0.25, -0.001953125, 0.1, 1e-4, -0.99999999999999989, 0.5])
    x = np.stack([above, below], axis=1).ravel()  # alternating within one column
    path = tmp_path / "mixed.csv"
    write_csv(path, ["x", "y", "z"], [], [[x, x[::-1], -x]])
    table = np.column_stack([x, x[::-1], -x])
    assert path.read_bytes() == reference_csv(["x", "y", "z"], table)
    assert b"1.5,0.5,-1.5\n" in path.read_bytes()


def test_write_csv_without_rows_writes_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["t", "i_of_t"], [], [[np.empty(0), np.empty(0)]])
    assert path.read_bytes() == b"t,i_of_t\n"


def test_write_csv_streams_uneven_blocks(tmp_path):
    # 7 x 11 rows in blocks of 5, 13, 1, 0 and 58 rows, most ending inside an x row
    rng = np.random.default_rng(30)
    x, y = rng.standard_normal(7), np.linspace(-1.0, 1.0, 11)
    u = rng.choice([0.0, -0.0, 1.5, 1e-5], 77)
    v = np.where(rng.random(77) < 0.5, u, -u)  # u's cell is reused where v equals it bitwise
    assert (u.view(np.int64) == v.view(np.int64)).any()
    assert ((u == 0.0) & (np.signbit(u) != np.signbit(v))).any()  # 0.0 beside -0.0
    cuts = np.cumsum([5, 13, 1, 0])
    path = tmp_path / "uneven.csv"
    write_csv(path, ["x", "y", "u", "v"], [x, y],
              ([a, b] for a, b in zip(np.split(u, cuts), np.split(v, cuts))))
    xs, ys = np.meshgrid(x, y, indexing="ij")
    table = np.column_stack([xs.ravel(), ys.ravel(), u, v])
    assert path.read_bytes() == reference_csv(["x", "y", "u", "v"], table)


def test_write_csv_memory_is_bounded(tmp_path):
    exported = []
    ob.optimize_infmax(n_coarse=512,
                       export=lambda axes, blocks: exported.append((axes, list(blocks))))
    (axes, blocks), = exported
    tracemalloc.start()
    try:
        write_csv(tmp_path / "eb.csv", ["nu_tilde", "delta", "b1", "b2", "bmax"], axes, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 512 x 512 file is about 25 MB of text
    assert peak <= 2e6
    assert (tmp_path / "eb.csv").stat().st_size > 2e7


def test_eval_bounds_memory_is_bounded(tmp_path):
    out = tmp_path / "eb.json"
    tracemalloc.start()
    try:
        assert run_cli(["eval-bounds", "--grid", 1024, "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # B1, B2 and max(B1, B2) on the whole 1024 x 1024 grid would take 25 MB
    assert peak <= 2e6
    assert out.with_suffix(".csv").stat().st_size > 9e7


class TestAnalytic:
    def test_report(self, tmp_path, capsys):
        # exit 0 means the report's own band checks passed; the command also prints the report
        out = tmp_path / "an.json"
        assert run_cli(["analytic", "--out", out]) == 0
        assert json.loads(capsys.readouterr().out) == load(out)


class TestLambda:
    def test_loads_only_flapack(self, tmp_path):
        curve = tmp_path / "mixed.json"
        curve.write_text('{"a": {"2": 0.05}, "b": {"3": 0.02}}')
        argv = ["lambda", str(curve), "--projections", "--out", str(tmp_path / "l.json")]
        assert modules_loaded(argv, "scipy") == "['scipy.linalg._flapack']"

    def test_circle(self, tmp_path):
        curve = tmp_path / "circle.json"
        curve.write_text("{}")
        out = tmp_path / "lc.json"
        assert run_cli(["lambda", curve, "--out", out]) == 0
        report = load(out)
        assert abs(report["outputs"]["lambda"] - 1.0) < 1e-9
        assert report["outputs"]["converged"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_odd_curve_with_projections(self, tmp_path):
        curve = tmp_path / "a3.json"
        curve.write_text('{"a": {"3": 0.1}}')
        out = tmp_path / "la.json"
        assert run_cli(["lambda", curve, "--projections", "--out", out]) == 0
        report = load(out)
        assert report["outputs"]["lambda"] > 0.81
        # (phi^-1)' = 1 + 0.3 cos 3t has its minimum 0.7 at t = pi/3, pi, 5pi/3
        [convexity] = [c for c in report["checks"] if c["name"] == "convexity_margin"]
        assert convexity["passed"] and abs(convexity["margin"] - (0.7 - 1e-3)) < 1e-12
        argmin = float(convexity["detail"].split(" at t = ")[1].split()[0])
        assert min(abs(argmin - k * np.pi / 3) for k in (1, 3, 5)) < 1e-5
        csv_lines = (tmp_path / "la.csv").read_text().splitlines()
        assert csv_lines[0] == "t,i_of_t"
        assert len(csv_lines) == 1 + 1440
        # report echoes the curve in the canonical file format
        echoed = report["inputs"]["curve"]
        assert echoed == {"max_index": 3, "a": {"3": 0.1}, "b": {}}
        assert parse_curve_json(json.dumps(echoed)).a == {3: 0.1}

    def test_rejected_curve(self, tmp_path, capsys):
        curve = tmp_path / "bad.json"
        curve.write_text('{"a": {"2": 0.6}}')
        out = tmp_path / "lb.json"
        assert run_cli(["lambda", curve, "--out", out]) == 1
        report = load(out)
        assert report["outputs"]["rejected"] is True
        assert abs(report["outputs"]["min_phi_inv_prime"] + 0.2) < 1e-9
        assert capsys.readouterr().err.count("curve rejected") == 1

    @pytest.mark.parametrize("curve_text", ['{"a": {"2": 1e308}}', '{"b": {"1000": 1e305}}'],
                             ids=["scan-overflows", "polish-overflows"])
    def test_overflowing_curve_rejected(self, tmp_path, curve_text):
        (tmp_path / "huge.json").write_text(curve_text)
        assert run_cli(["lambda", tmp_path / "huge.json", "--out", tmp_path / "lo.json"]) == 1
        outputs = load(tmp_path / "lo.json")["outputs"]
        assert outputs["rejected"] is True and outputs["min_phi_inv_prime"] <= 0.0

    @pytest.mark.parametrize("curve_text", [
        '{"max_index": 3, "a": {"3": 0.08032611050809595}, "b": {"3": -0.26363984420833786}}',
        '{"max_index": 53, "a": {"2": -0.04924189329517162, "3": -0.02461937643324741, '
        '"53": -0.00028492857539405585}, "b": {"2": -0.06128260308646885, '
        '"3": -0.006102632679705934, "53": -9.955199113704548e-05}}',
        # the top harmonic asks for a first basis past the cap; the tail test accepts the cap
        '{"a": {"2": 0.05, "300": 1e-9}}',
        # min (phi^-1)' = 0.050 and 0.062: curvature peaks at 20 and 16, where an
        # arc-length grid of 2048 points once missed the 1e-8 closure checks
        '{"a": {"3": 0.11081261454401864}, "b": {"3": 0.2965369947337222}}',
        '{"a": {"4": -0.07283024610797685}, "b": {"4": -0.22298730303241895}}',
    ], ids=["near-degenerate", "high-harmonic", "harmonic-300", "min-rho-0.050", "min-rho-0.062"])
    def test_hard_curve_converges(self, tmp_path, curve_text):
        curve = tmp_path / "hard.json"
        curve.write_text(curve_text)
        out = tmp_path / "lh.json"
        assert run_cli(["lambda", curve, "--projections", "--out", out]) == 0
        outputs = load(out)["outputs"]
        assert outputs["residual"] < 1e-8
        parsed = parse_curve_json(curve_text)
        reference = ob.fd_reference_lambda(parsed)
        assert abs(outputs["lambda"] - reference) < 1e-7
        # the projection moments are taken on the solve's own t-grid
        energy = ob.build_projection(parsed, ob.ground_state(parsed).psi).energy
        assert abs(energy - outputs["lambda"]) <= 1e-12

    def test_failed_solve_writes_report(self, tmp_path, capsys):
        # min (phi^-1)' = 1.9e-3: valid, but psi's tail is unresolved at the mode cap;
        # harmonic 300 at 1e-4 leaves a tail above harmonic 256 in the capped basis
        for curve_text in ('{"a": {"3": 0.3327}}', '{"a": {"300": 1e-4}}'):
            curve = tmp_path / "cap.json"
            curve.write_text(curve_text)
            out = tmp_path / "lf.json"
            assert run_cli(["lambda", curve, "--out", out]) == 1
            report = load(out)
            assert report["outputs"]["converged"] is False
            [check] = report["checks"]
            assert check["name"] == "ground_state_converged" and not check["passed"]
            assert "512-mode cap" in check["detail"]
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("curve_text", ['{"a": {"2000": 1e-5}}', '{"a": {"600": 1e-4}}',
                                            '{"a": {"2": 0.1, "1000": 1e-7}}'],
                             ids=["harmonic-2000", "harmonic-600", "harmonic-2-and-1000"])
    def test_basis_below_top_harmonic_fails(self, tmp_path, capsys, curve_text):
        # the first basis is capped at 512 modes, below the curve's top harmonic
        curve = tmp_path / "high.json"
        curve.write_text(curve_text)
        out = tmp_path / "lh.json"
        assert run_cli(["lambda", curve, "--out", out]) == 1
        report = load(out)
        assert report["outputs"]["converged"] is False
        [check] = report["checks"]
        assert check["name"] == "ground_state_converged" and not check["passed"]
        assert "512-mode basis" in check["detail"] and "harmonic" in check["detail"]
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("curve_text", ['{"max_index": 600, "a": {"2": 0.1}}',
                                            '{"a": {"2": 0.1, "600": 0.0}}'],
                             ids=["padded-max-index", "zero-harmonic-600"])
    def test_padding_above_basis_converges(self, tmp_path, curve_text):
        # max_index counts padding and zero coefficients; the top nonzero
        # harmonic, 2, fits the 512-mode basis
        curve = tmp_path / "padded.json"
        curve.write_text(curve_text)
        out = tmp_path / "lp.json"
        assert run_cli(["lambda", curve, "--out", out]) == 0
        report = load(out)
        assert report["outputs"]["converged"] is True
        assert all(check["passed"] for check in report["checks"])

    def test_padding_leaves_the_solve_unchanged(self):
        # the solve is sized from the top nonzero harmonic, 2, so a padded
        # max_index neither enlarges the basis nor moves lambda's last digit
        plain, padded = (ob.ground_state(parse_curve_json(text)) for text in
                         ('{"a": {"2": 0.1}}', '{"max_index": 600, "a": {"2": 0.1}}'))
        assert (padded.lam, padded.n_modes, padded.residual) == \
            (plain.lam, plain.n_modes, plain.residual)
        assert plain.n_modes == 32 and np.array_equal(padded.psi, plain.psi)

    def test_parse_error(self, tmp_path):
        curve = tmp_path / "broken.json"
        curve.write_text("{not json")
        assert run_cli(["lambda", curve, "--out", tmp_path / "x.json"]) == 2

    def test_first_harmonic_rejected(self, tmp_path):
        curve = tmp_path / "h1.json"
        curve.write_text('{"a": {"1": 0.1}}')
        assert run_cli(["lambda", curve, "--out", tmp_path / "x.json"]) == 2


class TestBadInput:
    @pytest.mark.parametrize("command, curve_text", [
        (["verify", "--n", 0], None),
        (["verify", "--seed", -1], None),
        # about 1 ms per unit of n in each suite: refused before any suite runs
        (["verify", "--n", 10**9], None),
        (["lambda"], '{"a": {"3": "inf"}}'),
        (["lambda"], '{"A": {"2": 0.3}}'),
        (["lambda"], '{"a": {"2": 0.1, "02": 0.3}}'),
        (["lambda"], '{"a": {"2_0": 0.01}}'),
        # the Arabic-Indic digit three, which int() reads as 3
        (["lambda"], '{"a": {"\\u0663": 0.1}}'),
        (["lambda"], '{"a": []}'),
        (["lambda"], '{"a": {"2": [0.1]}}'),
        (["lambda"], '{"a": {"2": null}}'),
        (["lambda"], '{"a": {"2": 0.1, "2": 0.3}}'),
        (["lambda"], '{"a": {"2": 0.1}, "a": {}}'),
        (["lambda"], '{"a": {"2": true}}'),
        (["lambda"], '{"a": {"2": "0.1"}}'),
        (["lambda"], '{"max_index": 3.7}'),
        (["lambda"], '{"max_index": true, "a": {"2": 0.1}}'),
        (["lambda"], '{"max_index": false}'),
        (["lambda"], '{"a": {"2": 1' + "0" * 5000 + '}}'),
        (["lambda"], '{"a": {"2": 1' + "0" * 400 + '}}'),
        (["lambda"], '{"a": ' + "[" * 100_000),
        (["lambda"], '{"b": {"2": NaN}}'),
        # harmonic 4096 of rho would fold onto the constant on every solve grid
        (["lambda"], '{"a": {"4096": 1e-5}}'),
        (["lambda"], '{"max_index": 1000000000000000}'),
        (["lambda"], '{"max_index": 1e400}'),
        (["lambda"], '{"max_index": -5}'),
        (["eval-bounds", "--tol", "nan"], None),
        (["eval-bounds", "--tol", -1], None),
        (["eval-bounds", "--tol", 0], None),
        (["eval-bounds", "--tol", "inf"], None),
        (["eval-bounds", "--grid", 10], None),
        # 7.3 TiB for each surface: refused before anything is allocated
        (["eval-bounds", "--grid", 10**6], None),
    ], ids=["n-zero", "seed-negative", "n-huge", "inf-string", "unknown-key", "harmonic-twice",
            "key-not-digits", "unicode-digit", "list-coefficients", "list-value", "null-value",
            "json-key-twice", "top-key-twice", "bool-value", "string-value",
            "max-index-fraction", "max-index-true", "max-index-false", "int-too-long",
            "int-too-large", "nested-too-deep", "json-nan", "harmonic-4096",
            "max-index-huge", "max-index-inf", "max-index-negative", "tol-nan", "tol-negative",
            "tol-zero", "tol-inf", "grid-small", "grid-huge"])
    def test_exit_two_with_one_line_error(self, tmp_path, capsys, command, curve_text):
        argv = list(command)
        if curve_text is not None:
            curve = tmp_path / "curve.json"
            curve.write_text(curve_text)
            argv.insert(1, curve)
        out = tmp_path / "out.json"
        assert run_cli(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # the message is the package's own, not Python's
        assert "has no attribute" not in err and "float() argument" not in err
        assert "convert to float" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["eval-bounds", "--grid", 64],
                                         ["lambda", "curve.json", "--projections"]],
                             ids=["eval-bounds", "lambda-projections"])
    def test_csv_named_out_exits_two(self, tmp_path, capsys, monkeypatch, command):
        # the CSV goes to out with suffix .csv: here that is out itself
        monkeypatch.chdir(tmp_path)
        Path("curve.json").write_text('{"a": {"2": 0.05}}')
        assert run_cli(command + ["--out", "r.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not Path("r.csv").exists()
        # without --projections lambda writes no CSV, so the name is free
        assert run_cli(["lambda", "curve.json", "--out", "r.csv"]) == 0
        assert load(Path("r.csv"))["command"] == "lambda"

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_curve_file_exits_two(self, tmp_path, capsys, kind):
        curve = tmp_path / "curve.json"
        if kind == "directory":
            curve.mkdir()
        elif kind == "not-utf8":
            curve.write_bytes(b'\xff\xfe{"a": {"3": 0.1}}')
        out = tmp_path / "out.json"
        assert run_cli(["lambda", curve, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read curve file: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command",[["eval-bounds", "--grid", 64], ["analytic"],
                                         ["lambda", "curve.json"], ["verify", "--n", 1]],
                             ids=["eval-bounds", "analytic", "lambda", "verify"])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        Path("curve.json").write_text('{"a": {"2": 0.05}}')
        Path("out.json").mkdir()
        assert run_cli(command + ["--out", "out.json"]) == 2
        err = capsys.readouterr().err
        assert err == "error: cannot write out.json: Is a directory\n"


class TestVerify:
    def test_smoke_run_is_fast_and_green(self, tmp_path):
        out = tmp_path / "v.json"
        start = time.time()
        assert run_cli(["verify", "--seed", 42, "--n", 1, "--out", out]) == 0
        assert time.time() - start < 5.0
        report = load(out)
        assert report["outputs"]["failures"] == 0
        assert all(c["passed"] for c in report["checks"])

    def test_loads_only_flapack(self, tmp_path):
        argv = ["verify", "--n", "1", "--out", str(tmp_path / "v.json")]
        assert modules_loaded(argv, "scipy") == "['scipy.linalg._flapack']"

    def test_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["verify", "--seed", 42, "--n", 2, "--out", a])
        run_cli(["verify", "--seed", 42, "--n", 2, "--out", b])
        assert a.read_bytes() == b.read_bytes()
