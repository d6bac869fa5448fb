"""The benchmark tracer (bench/tracer.py) binds library parameter and field
names by name: ``ground_state``'s ``n_modes`` and ``check_convergence``,
``optimize_infmax``'s ``n_coarse`` and ``levels_used``, ``write_csv``'s
``path`` and ``main``'s ``argv``.  It also
reports spans by function name, such as ``variation.sample_admissible``.
The lambda_batch workload (bench/workloads.py) reads ``FourierCurve``'s
``a``, ``b`` and ``max_index`` fields and calls ``random_curve(rng,
max_index=...)``, whose draw order (the row a_2..a_K, then the row b_2..b_K,
on each try) fixes the curves it writes; tests/test_workload_curves.py and
``TestFromSeries.test_random_curve_draw_stream`` in tests/test_curves.py
cover those.  Renaming one breaks the benchmark only when it runs; this test
runs every command under the tracer so that the break shows here first."""

import importlib.util
from pathlib import Path

from ovalbound import cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_command_runs_under_the_tracer(tmp_path):
    curve = tmp_path / "curve.json"
    curve.write_text('{"a": {"2": 0.05}, "b": {"3": 0.02}}')
    commands = [["lambda", str(curve), "--projections"], ["eval-bounds", "--grid", "64"],
                ["analytic"], ["verify", "--n", "1"]]
    tracer = load_tracer()
    tracer.install()
    try:
        # look main up per call: the tracer rebinds the module attribute
        codes = [cli.main(argv + ["--out", str(tmp_path / f"{argv[0]}.json")])
                 for argv in commands]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    assert sorted(tracer.command_s) == ["analytic", "eval-bounds", "lambda", "verify"]
    # every hook saw its arguments: each counter it feeds moved
    counters = tracer.counters
    assert counters["dense_n3"] > 0 and counters["residual_max"] > 0.0
    # both CSVs went through cli.write_csv, eval-bounds' included
    csv_bytes = sum((tmp_path / f"{cmd}.csv").stat().st_size for cmd in ("lambda", "eval-bounds"))
    assert counters["csv_bytes"] == csv_bytes and tracer.stats["cli.write_csv"][0] == 2
    assert counters["points_evaluated"] > 64**2 and counters["infmax_min"] is not None
    assert counters["checks_failed"] == 0 and tracer.stats["checks.run_suites"][0] == 1
    assert tracer.stats["variation.sample_admissible"][0] > 0
