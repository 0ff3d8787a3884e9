"""tools/bench_pair.py runs the benchmark's own job bodies on each side's package.

A run with the tree as its own parent records every deviation as 0 whether or
not the parent side really runs the parent, so the binding is checked here, and
so is the binding of its recorder, ``helpers.record_chunks``, to the side's rows.
"""

import functools
import importlib
import importlib.util
import pkgutil
import shutil
import sys
from pathlib import Path

import pytest

import sqdisp

from helpers import record_chunks, spy

ROOT = Path(__file__).resolve().parents[1]


def _sqdisp_modules():
    return {name: module for name, module in sys.modules.items()
            if name.split(".")[0] == "sqdisp"}


def _bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
    bench_pair = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pair)
    return bench_pair


@pytest.fixture
def parent_src(tmp_path):
    """A copy of the package for a parent side's src; its modules go when the test ends."""
    shutil.copytree(ROOT / "src" / "sqdisp", tmp_path / "sqdisp",
                    ignore=shutil.ignore_patterns("__pycache__"))
    yield tmp_path
    for name in [name for name in sys.modules if name.split(".")[0] == "sqdisp_parent"]:
        del sys.modules[name]


def test_workloads_bound_to_each_side(parent_src):
    bench_pair = _bench_pair()
    # load imports every module of the package it is given, so the snapshot does too,
    # whatever this process imported before
    for info in pkgutil.iter_modules([str(ROOT / "src" / "sqdisp")]):
        importlib.import_module(f"sqdisp.{info.name}")
    change = _sqdisp_modules()
    parent = bench_pair.load("sqdisp_parent", parent_src)
    for name in ("grids", "povm", "distribution"):
        module = getattr(parent["workloads"], name)
        assert module is sys.modules[f"sqdisp_parent.{name}"] is parent[name]
        assert Path(module.__file__).parent == parent_src / "sqdisp"
    assert sys.modules["sqdisp"] is sqdisp
    assert _sqdisp_modules() == change
    own = bench_pair.load("sqdisp", ROOT / "src")
    assert own["workloads"].distribution is sqdisp.distribution
    assert _sqdisp_modules() == change


def test_recorder_watches_the_side_it_is_given(parent_src, monkeypatch):
    # bound to a copied parent package, the scan record notes the rows of that package's
    # distribution, all on the vacuum's 4096-node grid, and none of the change's
    bench_pair = _bench_pair()
    change_calls = record_chunks(monkeypatch, [])
    parent = bench_pair.load("sqdisp_parent", parent_src)
    psi = parent["grids"].make_vacuum()
    args = (parent["povm"].build_ml_seed(psi), psi, (-3.0, 3.0, -1.0, 1.0), 16)
    record = bench_pair.scan_record(parent["distribution"], args,
                                    parent["distribution"]._scan_rows(*args))
    assert change_calls == []
    assert record["scan_rows_n"] == record["scan_grid_n"] == 4096
    assert 0 < record["scan_node_rows"] <= record["scan_nodes"] < 4096
    assert record["scan_folded"] == 1.0 and record["scan_exact_rel_dev"] <= 1e-10  # 3.9e-11


def _fresh_screens(bench_pair, parent_src, monkeypatch, cached):
    """Two fresh screens of a group-average job by ``screen_call`` on a copied parent package,
    its screen wrapped in a cache if ``cached``, as an older parent's is; asserts that each call
    sums both sectors anew."""
    parent = bench_pair.load("sqdisp_parent", parent_src)
    distribution = parent["distribution"]
    if cached:
        monkeypatch.setattr(distribution, "_screened_cross_terms",
                            functools.lru_cache(maxsize=1)(distribution._screened_cross_terms))
    workload = parent["workloads"].OracleWorkload(seed=0, workdir=".", n_blocks=1)
    workload.warm_up()
    job = workload.gen_ga_odd((0.5, 0.5, 0.5))
    integrals = spy(monkeypatch, distribution, "sector_integral", lambda *args: args[2:])
    fresh = bench_pair.screen_call(distribution, lambda: workload.run(job))
    terms = []
    for _ in range(2):
        integrals.clear()
        terms.append(fresh())
        assert integrals == [(+1, -1), (-1, -1)]  # computed anew
    return terms


def test_screen_call_reruns_the_sides_own_screen(parent_src, monkeypatch):
    # bound to a copied parent package, the fresh screen of a group-average job is that
    # package's screen of the job's state, recomputed on every call, and none of the change's
    bench_pair = _bench_pair()
    change_screens = spy(monkeypatch, sqdisp.distribution, "_screened_cross_terms")
    terms = _fresh_screens(bench_pair, parent_src, monkeypatch, cached=False)
    assert set(terms[0]) == {+1, -1} and terms[0] == terms[1] and change_screens == []


def test_screen_call_clears_a_cached_parent_screen(parent_src, monkeypatch):
    terms = _fresh_screens(_bench_pair(), parent_src, monkeypatch, cached=True)
    assert terms[0] == terms[1]


def test_repeats_below_one_refused_before_loading(capsys):
    with pytest.raises(SystemExit) as exit_:
        _bench_pair().main(["--parent", str(ROOT / "src"), "--repeats", "0"])
    assert exit_.value.code == 2
    assert "--repeats must be at least 1" in capsys.readouterr().err
    assert "sqdisp_parent" not in sys.modules
