"""Before/after record of the benchmark's scan, profile and oracle jobs, as one JSON file.

    python3 tools/bench_pair.py --parent OLD_SRC [--repeats N] [--out FILE]

OLD_SRC is the ``src`` directory of the checkout to compare against, for
example ``git archive <commit> src | tar -x -C /tmp/old`` and then
``--parent /tmp/old/src``; the tree this script sits in is the change.  Both
packages are imported into one process, as ``sqdisp_parent`` and ``sqdisp``,
and ``perfbench/workloads.py`` once for each, its ``sqdisp`` read as that
side's package, so each side builds scan states with ``ScanWorkload.build_state``
and runs oracle jobs with ``OracleWorkload.run`` as the benchmark does.  The
sides are timed in alternation, so machine load falls on both.

Node counts, screened pairs and traced peaks are observed through ``tests/helpers.py``
(``record_chunks``, ``spy`` and ``traced``), bound to each side's own
``distribution``.  README.md, "Before/after records", describes every key: per
side, best-of-N seconds (``*_s``), node counts (``scan_*``, ``oracle_nodes``),
traced peaks (``*_peak_mb``) and deviations from exact maps (``scan_exact_*``);
at the top level, the change's deviations from the parent (``*_dev``).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import pkgutil
import platform
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]  # the change's sqdisp, then helpers
import helpers  # noqa: E402

ROW_NODES = (4096, 8192)
ROW_X = 128
# (case, lambda, n_max, resolution) after the defaults: a large cutoff, where the
# pointer's matrix products and each row's Hermite recurrence over 8192 nodes
# take the time, and its (n_max+1) x N tables the memory
LARGE_PROFILE = ("profile_0.999_n1000", 0.999, 1000, 16)
POINTS = (0.1, 0.5, 0.9)


def load(name: str, src: Path) -> dict:
    """The package under ``src/sqdisp`` imported as ``name``, its modules by
    name, and under "workloads" a new import of ``perfbench/workloads.py``
    whose ``from sqdisp import ...`` reads that package."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, src / "sqdisp" / "__init__.py",
            submodule_search_locations=[str(src / "sqdisp")])
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    package = sys.modules[name]
    modules = {info.name: importlib.import_module(f"{name}.{info.name}")
               for info in pkgutil.iter_modules([str(src / "sqdisp")])}
    own = {key: sys.modules.pop(key) for key in list(sys.modules)
           if key.split(".")[0] == "sqdisp"}
    sys.modules["sqdisp"] = package
    sys.modules.update({f"sqdisp.{mod}": module for mod, module in modules.items()})
    try:
        spec = importlib.util.spec_from_file_location(f"{name}_workloads",
                                                      ROOT / "perfbench" / "workloads.py")
        modules["workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(modules["workloads"])
    finally:
        for key in [key for key in sys.modules if key.split(".")[0] == "sqdisp"]:
            del sys.modules[key]
        sys.modules.update(own)
    return modules


def alternate(calls, repeats):
    """Run each side's call ``repeats`` times, the sides in turn.  Per side: the
    last output and the best time."""
    outs, times = {}, {side: [] for side in calls}
    for _ in range(repeats):
        for side, call in calls.items():
            start = time.perf_counter()
            outs[side] = call()
            times[side].append(time.perf_counter() - start)
    return outs, {side: min(t) for side, t in times.items()}


def row_call(pkg, n):
    """One scan row of the vacuum on n nodes: x' = -e^{-r} x at r = 0.3."""
    y = pkg["grids"].QuadratureGrid(10.0, n).nodes
    x = -np.exp(-0.3) * np.linspace(-3.0, 3.0, ROW_X)
    h = np.exp(-y ** 2 - np.exp(-0.6) * y ** 2) * (2.0 * y[1] - 2.0 * y[0])
    return lambda: pkg["grids"].fourier_at(x, y, h)


def scan_record(distribution, args, dmap) -> dict:
    """The ``scan_*`` node counts of one scan slot, ``scan(*args)``, from an untimed run of
    ``distribution._scan_rows(*args)``, and for a Gaussian psi the deviations of its map
    ``dmap`` from the exact map of its ML seed."""
    grid_ns = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = helpers.record_chunks(monkeypatch, grid_ns, distribution)
        distribution._scan_rows(*args)
    _, spans = helpers.kept(calls)
    runs = calls[2::2]  # (nodes, rows) of each chunk's fourier_at
    (rows_n,) = grid_ns
    seed, psi, window, _ = args
    record = {"scan_nodes": max(spans), "scan_rows_n": rows_n,
              "scan_node_rows": sum(span * rows for span, (_, rows) in zip(spans, runs))
              / sum(rows for _, rows in runs),
              "scan_folded": sum(n < span for span, (n, _) in zip(spans, runs)) / len(runs),
              "scan_grid_n": distribution._refine_for_window(seed, psi, window)[1].grid.n}
    if psi.evaluator is not None:
        record.update(zip(("scan_exact_rel_dev", "scan_exact_abs_dev"),
                          helpers.map_devs(dmap.values, helpers.exact_map(psi, dmap))))
    return record


def oracle_nodes(distribution, call) -> int:
    """The largest n of the ``distribution._band_spectrum`` calls of one untimed ``call()``."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        nodes = helpers.spy(monkeypatch, distribution, "_band_spectrum", lambda n, *_: n)
        call()
    return max(nodes)


def screen_call(distribution, call):
    """A fresh cross-term screen, its cache cleared first, of the pair that one untimed
    ``call()`` screens first (``distribution._screened_cross_terms``)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        pairs = helpers.spy(monkeypatch, distribution, "_screened_cross_terms", lambda *pair: pair)
        call()
    screen = distribution._screened_cross_terms

    def fresh():
        screen.cache_clear()
        return screen(*pairs[0])
    return fresh


def screen_devs(old, new):
    return {"screen_max_rel_dev": max(abs(new[s] - old[s]) / abs(old[s]) for s in old)}


def map_devs(prefix, old, new):
    return dict(zip((prefix + "max_rel_dev", prefix + "max_abs_dev"),
                    helpers.map_devs(new.values, old.values)))


def oracle_devs(kind, old, new):
    if kind == "cross":
        return {"oracle_max_abs_dev": abs(new[0] - old[0])}
    devs = {"oracle_max_rel_dev": abs(new[0] - old[0]) / abs(old[0])}
    if kind == "ga":
        devs["closed_form_rel_dev"] = abs(new[1] - old[1]) / abs(old[1])
    return devs


def cases(sides, repeats):
    """Every timed case: its time key, name, repeats, call by side, and the
    deviations of the change's output from the parent's (None: not compared)."""
    for n in ROW_NODES:
        yield "row_s", str(n), 20 * repeats, {s: row_call(pkg, n) for s, pkg in sides.items()}, None
    scans = {side: pkg["workloads"].ScanWorkload(seed=0, workdir=".", n_blocks=1)
             for side, pkg in sides.items()}
    for slot in scans["change"].slots:
        job = getattr(scans["change"], f"gen_{slot}")((0.5, 0.5, 0.5))
        calls, seeds = {}, {}
        for side, pkg in sides.items():
            psi = scans[side].build_state(job)
            seed = pkg["povm"].build_ml_seed(psi)
            calls[side] = partial(pkg["distribution"].scan, seed, psi, job["window"], job["res"])
            seeds[side] = partial(pkg["povm"].build_ml_seed, psi)
        yield "scan_s", slot, repeats, calls, partial(map_devs, "")
        yield "seed_s", slot, repeats, seeds, None
        yield "scan_job_s", slot, repeats, {s: partial(scans[s].run, job) for s in sides}, None
    cli = sides["change"]["cli"]
    reads = cli._READS["two-mode"]
    window = tuple(reads[key] for key in ("x_lo", "x_hi", "r_lo", "r_hi"))
    defaults = [(f"profile_{lam}", lam, cli.RunConfig().n_max, reads["resolution"])
                for lam in sides["change"]["workloads"].LAMBDAS]
    for case, lam, n_max, resolution in defaults + [LARGE_PROFILE]:
        calls = {side: lambda pkg=pkg, args=(lam, n_max, window, resolution):
                     pkg["two_mode"].concentration_profile(*args, tail_tol=None).map
                 for side, pkg in sides.items()}
        yield "profile_s", case, repeats, calls, partial(map_devs, "profile_")
    oracles = {side: pkg["workloads"].OracleWorkload(seed=0, workdir=".", n_blocks=1)
               for side, pkg in sides.items()}
    for workload in oracles.values():
        workload.warm_up()
    for slot in dict.fromkeys(oracles["change"].slots):
        for u in POINTS:
            job = getattr(oracles["change"], f"gen_{slot}")((u, u, u))
            calls = {side: partial(w.run, job) for side, w in oracles.items()}
            yield "job_s", f"{slot}@{u}", repeats, calls, partial(oracle_devs, job["kind"])
            if job["kind"] in ("ga", "cross"):
                screens = {side: screen_call(sides[side]["distribution"], call)
                           for side, call in calls.items()}
                yield "screen_s", f"{slot}@{u}", repeats, screens, screen_devs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="src directory of the checkout to compare against")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_pair.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:  # each side's best time needs at least one run
        parser.error(f"--repeats must be at least 1, got {args.repeats}")

    sides = {"parent": load("sqdisp_parent", args.parent.resolve()),
             "change": load("sqdisp", ROOT / "src")}
    keys = ("row_s", "scan_s", "scan_row_s", "seed_s", "scan_job_s", "scan_nodes",
            "scan_node_rows", "scan_folded", "scan_grid_n", "scan_rows_n",
            "scan_exact_rel_dev", "scan_exact_abs_dev", "profile_s", "job_s", "screen_s",
            "oracle_nodes", "oracle_peak_mb", "profile_peak_mb")
    record = {side: {key: {} for key in keys} for side in sides}
    deviation = {}
    for key, case, repeats, calls, devs in cases(sides, args.repeats):
        outs, best = alternate(calls, repeats)
        for side in sides:
            record[side][key][case] = best[side]
            distribution = sides[side]["distribution"]
            if key == "scan_s":
                record[side]["scan_row_s"][case] = best[side] / len(outs[side].r_nodes)
                for name, value in scan_record(distribution, calls[side].args, outs[side]).items():
                    record[side][name][case] = value
            if key == "job_s":
                record[side]["oracle_nodes"][case] = oracle_nodes(distribution, calls[side])
            if key in ("job_s", "profile_s"):
                peak_key = "oracle_peak_mb" if key == "job_s" else "profile_peak_mb"
                record[side][peak_key][case] = helpers.traced(calls[side])[1] / 1e6
        if devs is not None:
            for name, value in devs(outs["parent"], outs["change"]).items():
                deviation.setdefault(name, {})[case] = value
    for side in sides:
        record[side]["total_s"] = sum(record[side]["job_s"].values())

    result = {"script": "tools/bench_pair.py", "repeats": args.repeats, "points": POINTS,
              "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                          "python": platform.python_version(), "numpy": np.__version__},
              **record, **deviation}
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for key in ("row_s", "scan_s", "seed_s", "scan_job_s", "profile_s", "job_s", "screen_s"):
        for case, old in record["parent"][key].items():
            new = record["change"][key][case]
            print(f"{key:9s} {case:22s} {old:10.4g} -> {new:10.4g} s  ({new / old:5.2f}x)")
    for key in ("scan_nodes", "oracle_nodes"):
        for case, old in record["parent"][key].items():
            line = f"nodes     {case:22s} {old:10d} -> {record['change'][key][case]:10d}"
            if key == "scan_nodes":
                line += (f"  mean {record['parent']['scan_node_rows'][case]:7.1f}"
                         f" -> {record['change']['scan_node_rows'][case]:7.1f}"
                         f"  folded {record['parent']['scan_folded'][case]:4.2f}"
                         f" -> {record['change']['scan_folded'][case]:4.2f}"
                         f"  of grid n {record['parent']['scan_grid_n'][case]}"
                         f" -> {record['change']['scan_grid_n'][case]}"
                         f"  rows on {record['parent']['scan_rows_n'][case]}"
                         f" -> {record['change']['scan_rows_n'][case]}")
            print(line)
    for case, old in record["parent"]["scan_exact_rel_dev"].items():
        new = record["change"]["scan_exact_rel_dev"][case]
        print(f"exact     {case:22s} {old:10.3g} -> {new:10.3g}"
              f"  of peak {record['parent']['scan_exact_abs_dev'][case]:10.3g}"
              f" -> {record['change']['scan_exact_abs_dev'][case]:10.3g}")
    for key in ("profile_peak_mb", "oracle_peak_mb"):
        for case, old in record["parent"][key].items():
            print(f"peak_mb   {case:22s} {old:10.4g} -> {record['change'][key][case]:10.4g} MB")
    print(f"total_s {record['parent']['total_s']:.3f} -> {record['change']['total_s']:.3f}")
    for key, values in deviation.items():
        print(f"{key} {max(values.values()):.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
