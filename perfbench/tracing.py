"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the program: each public function of a
``sqdisp`` layer is replaced, in every ``sqdisp`` module that binds it, by a
wrapper that records a span (name, start, end, parent, job id, work count).
Spans stay in memory and are written out when the run ends.  Nothing here
imports numpy or sqdisp, so the traced CLI entry point can time
``import sqdisp.cli`` on its own.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

# (module, function, span name, work counter).  A work counter receives the
# bound call arguments and the result and returns the units of work done:
# refined grid nodes, scan rows or oracle r slices.
LAYER_TARGETS = (
    ("sqdisp.grids", "half_line_moment", "grids.half_line_moment", None),
    ("sqdisp.povm", "build_ml_seed", "povm.build_seed", None),
    ("sqdisp.povm", "build_srm_seed", "povm.build_seed", None),
    ("sqdisp.povm", "build_parity_seed", "povm.build_seed", None),
    ("sqdisp.povm", "optimal_likelihood", "povm.likelihood", None),
    ("sqdisp.povm", "srm_likelihood", "povm.likelihood", None),
    ("sqdisp.distribution", "_refine_for_window", "distribution.refine",
     lambda args, result: result[1].grid.n),
    ("sqdisp.distribution", "scan", "distribution.scan",
     lambda args, result: len(result.r_nodes)),
    ("sqdisp.distribution", "moments", "distribution.moments", None),
    ("sqdisp.distribution", "argmax", "distribution.moments", None),
    ("sqdisp.distribution", "group_average_sandwich", "distribution.group_average",
     lambda args, result: args["r_resolution"]),
    ("sqdisp.distribution", "closed_form_sandwich", "distribution.closed_form", None),
    ("sqdisp.distribution", "normalization_check", "distribution.normalization_check",
     lambda args, result: args["r_resolution"]),
    ("sqdisp.two_mode", "make_pointer", "two_mode.make_pointer", None),
    ("sqdisp.two_mode", "concentration_profile", "two_mode.concentration_profile",
     lambda args, result: len(result.map.r_nodes)),
    ("sqdisp.two_mode", "pointer_overlap", "two_mode.pointer_overlap", None),
    ("sqdisp.asymptotics", "model_density", "asymptotics", None),
    ("sqdisp.asymptotics", "rms_predictions", "asymptotics", None),
    ("sqdisp.asymptotics", "separate_optima", "asymptotics", None),
    ("sqdisp.asymptotics", "uncertainty_product_ratio", "asymptotics", None),
    ("sqdisp.asymptotics", "heisenberg_ratio", "asymptotics", None),
    ("sqdisp.asymptotics", "isotropic_params", "asymptotics", None),
    ("sqdisp.cli", "write_csv", "cli.write_csv", None),
)

CLI_SUBCOMMANDS = ("density", "likelihood", "compare-srm", "asymptotics", "two-mode")


class Tracer:
    """In-memory span list with a parent stack; ``job`` tags new spans."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._installed = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index, work=None):
        self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = work

    def wrap(self, fn, name, work=None):
        signature = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            count = None
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count = work(bound.arguments, result)
                return result
            finally:
                self.close(index, count)

        return wrapper

    def install(self):
        """Wrap every target at each binding a sqdisp module holds for it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sqdisp" or n.startswith("sqdisp."))]
        for module_name, attr, name, work in LAYER_TARGETS:
            if module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, name, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))
        cli = sys.modules.get("sqdisp.cli")
        if cli is not None:
            runners = cli._RUNNERS
            for sub in CLI_SUBCOMMANDS:
                original = runners[sub]
                runners[sub] = self.wrap(original, f"cli.{sub}")
                self._installed.append((runners, sub, original))

    def uninstall(self):
        for target, key, original in reversed(self._installed):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._installed.clear()

    def records(self):
        keys = ("name", "start", "end", "parent", "job", "work")
        return [dict(zip(keys, span)) for span in self.spans]

    def dump(self, path):
        with open(path, "w") as fh:
            for record in self.records():
                fh.write(json.dumps(record) + "\n")


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans):
    """Per-layer calls, times and work ratios from a list of span dicts.

    A span nested inside a span of the same name (``argmax`` inside
    ``moments``) is not counted again.  Row and slice times divide a
    layer's time, less its refinement or pointer-building children, by the
    rows or slices it computed.
    """
    def outermost(name):
        keep = []
        for span in spans:
            if span["name"] != name:
                continue
            parent = span["parent"]
            while parent is not None and spans[parent]["name"] != name:
                parent = spans[parent]["parent"]
            if parent is None:
                keep.append(span)
        return keep

    def durations(name):
        return [s["end"] - s["start"] for s in outermost(name)]

    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def per_unit(name, exclude):
        busy = units = 0.0
        for index, span in enumerate(spans):
            if span["name"] != name:
                continue
            busy += span["end"] - span["start"]
            busy -= sum(c["end"] - c["start"] for c in children.get(index, ())
                        if c["name"] == exclude)
            units += span["work"] or 0
        return busy / units if units else 0.0

    m = {}

    def timing(name, *stats):
        d = durations(name)
        if "calls" in stats:
            m[f"{name}.calls"] = len(d)
        if "total_s" in stats:
            m[f"{name}.total_s"] = float(sum(d))
        if "p50_s" in stats:
            m[f"{name}.p50_s"] = _median(d)

    timing("grids.half_line_moment", "calls", "total_s")
    timing("povm.build_seed", "calls", "total_s", "p50_s")
    timing("povm.likelihood", "calls", "total_s")
    timing("distribution.refine", "calls", "total_s")
    m["distribution.refine.grid_n_max"] = max(
        (s["work"] or 0 for s in outermost("distribution.refine")), default=0)
    timing("distribution.scan", "calls", "total_s", "p50_s")
    m["distribution.scan.row_s"] = per_unit("distribution.scan", "distribution.refine")
    timing("distribution.moments", "total_s")
    timing("distribution.group_average", "calls", "total_s", "p50_s")
    m["distribution.group_average.slice_s"] = per_unit("distribution.group_average", None)
    timing("distribution.closed_form", "total_s")
    timing("distribution.normalization_check", "calls", "total_s")
    m["distribution.normalization_check.slice_s"] = per_unit(
        "distribution.normalization_check", None)
    timing("two_mode.make_pointer", "total_s")
    timing("two_mode.concentration_profile", "calls", "total_s")
    m["two_mode.concentration_profile.row_s"] = per_unit(
        "two_mode.concentration_profile", "two_mode.make_pointer")
    timing("two_mode.pointer_overlap", "total_s")
    timing("asymptotics", "total_s")
    timing("cli.write_csv", "total_s")
    timing("cli.main", "p50_s")
    for sub in CLI_SUBCOMMANDS:
        timing(f"cli.{sub}", "p50_s")
    return m
