"""Per-module spans around the public functions of the ovalbound layers.

The tracer wraps each public function of the layer modules from outside and
rebinds the wrapper under every name that points at the original in any
loaded ``ovalbound.*`` namespace, because ``checks`` and ``cli`` import with
``from .x import f``.  Spans nest on one stack (the program is single-
threaded with ``OVALBOUND_THREADS`` unset); a span's self time is its
duration minus the time covered by its child spans.  Spans are aggregated in
memory as they close: per function, calls, self and total seconds and the
number that raised.  A few counters are computed at the same boundaries from
the arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

#: The package's modules that do work; ``errors`` holds none and is no layer.
LAYERS = ("curves", "spectral", "projection", "bounds", "analytic", "variation",
          "checks", "cli")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s, errors]
        self.counters = {"dense_n3": 0, "invert_points": 0, "csv_bytes": 0,
                         "residual_max": 0.0, "infmax_min": None,
                         "points_evaluated": 0, "checks_failed": 0}
        self.command_s: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._rebound: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        modules = {layer: importlib.import_module(f"ovalbound.{layer}") for layer in LAYERS}
        hooks = self._hooks()
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    span = f"{layer}.{name}"
                    wrappers[id(fn)] = (fn, self._wrap(span, fn, hooks.get(span)))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "ovalbound" or n.startswith("ovalbound.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._rebind(ns, attr, wrappers[id(value)][1])
        report_cls = modules["cli"].RunReport
        self._rebind(report_cls, "write", self._wrap("cli.report_write", report_cls.write))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._rebound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- spans --------------------------------------------------------------
    def _wrap(self, name: str, fn, hook=None):
        """``fn`` recording a span under ``name``; ``hook(arguments, result,
        seconds)`` sees each call's bound arguments (result None if it raised)."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            result, raised = None, False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                raised = True
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt - children[0]
                stat[2] += dt
                stat[3] += raised
                if hook:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(bound.arguments, None if raised else result, dt)

        return span

    def _hooks(self) -> dict:
        c = self.counters

        def ground_state(args, result, _dt):
            m = args["n_modes"]
            c["dense_n3"] += (2 * m + 1) ** 3 + ((4 * m + 1) ** 3 if args["check_convergence"] else 0)
            if result is not None:
                c["residual_max"] = max(c["residual_max"], result.residual)

        def invert_phi(args, _result, _dt):
            c["invert_points"] += args["n_points"]

        def optimize_infmax(args, result, _dt):
            if result is not None:
                c["points_evaluated"] += args["n_coarse"] ** 2 + 289 * result.levels_used
                c["infmax_min"] = result.value if c["infmax_min"] is None \
                    else min(c["infmax_min"], result.value)

        def write_csv(args, _result, _dt):
            if os.path.isfile(args["path"]):
                c["csv_bytes"] += os.path.getsize(args["path"])

        def run_suites(_args, result, _dt):
            if result is not None:
                c["checks_failed"] += sum(not r.passed for rs in result.values() for r in rs)

        def main(args, _result, dt):
            argv = args["argv"] or []
            cmd = argv[0] if argv else "?"
            self.command_s[cmd] = self.command_s.get(cmd, 0.0) + dt

        return {"spectral.ground_state": ground_state, "curves.invert_phi": invert_phi,
                "bounds.optimize_infmax": optimize_infmax, "cli.write_csv": write_csv,
                "checks.run_suites": run_suites, "cli.main": main}
