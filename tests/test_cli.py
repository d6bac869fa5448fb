import json
import time

import numpy as np
import pytest

import ovalbound as ob
from ovalbound.cli import main


def run_cli(args):
    return main([str(a) for a in args])


def load(path):
    return json.loads(path.read_text())


class TestEvalBounds:
    def test_coarse_run(self, tmp_path):
        out = tmp_path / "eb.json"
        code = run_cli(["eval-bounds", "--grid", 64, "--tol", 1e-3, "--out", out])
        assert code == 0
        report = load(out)
        assert report["command"] == "eval-bounds"
        value = report["outputs"]["value"]
        assert abs(value - 0.8246) < 5e-4
        # coarse run stays close to the fully refined optimum
        assert abs(value - ob.optimize_infmax().value) < 2e-3
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


class TestAnalytic:
    def test_report(self, tmp_path, capsys):
        out = tmp_path / "an.json"
        assert run_cli(["analytic", "--out", out]) == 0
        report = load(out)
        assert report["outputs"]["exceeds_0.81"] is True
        assert abs(report["outputs"]["delta_min"] - 1.196) < 1e-3
        assert abs(report["outputs"]["delta0"] - 1.386) < 1e-3
        assert abs(report["outputs"]["final_value"] - 0.8166) < 5e-4
        assert all(c["passed"] for c in report["checks"])
        printed = capsys.readouterr().out
        assert json.loads(printed)["command"] == "analytic"


class TestLambda:
    def test_circle(self, tmp_path):
        curve = tmp_path / "circle.json"
        curve.write_text("{}")
        out = tmp_path / "lc.json"
        assert run_cli(["lambda", curve, "--out", out]) == 0
        report = load(out)
        assert abs(report["outputs"]["lambda"] - 1.0) < 1e-9
        assert all(c["passed"] for c in report["checks"])

    def test_odd_curve_with_projections(self, tmp_path):
        curve = tmp_path / "a3.json"
        curve.write_text('{"a": {"3": 0.1}}')
        out = tmp_path / "la.json"
        assert run_cli(["lambda", curve, "--projections", "--out", out]) == 0
        report = load(out)
        assert report["outputs"]["lambda"] > 0.81
        csv_lines = (tmp_path / "la.csv").read_text().splitlines()
        assert csv_lines[0] == "t,i_of_t"
        assert len(csv_lines) == 1 + 1440
        # report echoes the curve in the canonical file format
        echoed = report["inputs"]["curve"]
        assert echoed == {"max_index": 3, "a": {"3": 0.1}, "b": {}}
        from ovalbound.cli import parse_curve_json
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
        (["lambda", "--modes", 0], '{"a": {"3": 0.1}}'),
        (["lambda", "--modes", -3], '{"a": {"3": 0.1}}'),
        (["verify", "--n", 0], None),
        (["lambda"], '{"a": {"3": "inf"}}'),
        (["lambda"], '{"b": {"2": NaN}}'),
    ], ids=["modes-zero", "modes-negative", "n-zero", "inf-string", "json-nan"])
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
        assert not out.exists()


class TestVerify:
    def test_smoke_run_is_fast_and_green(self, tmp_path):
        out = tmp_path / "v.json"
        start = time.time()
        assert run_cli(["verify", "--seed", 42, "--n", 1, "--out", out]) == 0
        assert time.time() - start < 5.0
        report = load(out)
        assert report["outputs"]["failures"] == 0
        assert all(c["passed"] for c in report["checks"])

    def test_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["verify", "--seed", 42, "--n", 2, "--out", a])
        run_cli(["verify", "--seed", 42, "--n", 2, "--out", b])
        assert a.read_bytes() == b.read_bytes()
