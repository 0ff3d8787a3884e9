"""tools/bench_pair.py runs the benchmark's own job bodies on each side's package.

A run with the tree as its own parent records every deviation as 0 whether or
not the parent side really runs the parent, so the binding is checked here.
"""

import importlib
import importlib.util
import pkgutil
import shutil
import sys
from pathlib import Path

import pytest

import sqdisp

ROOT = Path(__file__).resolve().parents[1]


def _sqdisp_modules():
    return {name: module for name, module in sys.modules.items()
            if name.split(".")[0] == "sqdisp"}


def _bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
    bench_pair = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pair)
    return bench_pair


def test_workloads_bound_to_each_side(tmp_path):
    bench_pair = _bench_pair()
    shutil.copytree(ROOT / "src" / "sqdisp", tmp_path / "sqdisp",
                    ignore=shutil.ignore_patterns("__pycache__"))
    # load imports every module of the package it is given, so the snapshot does too,
    # whatever this process imported before
    for info in pkgutil.iter_modules([str(ROOT / "src" / "sqdisp")]):
        importlib.import_module(f"sqdisp.{info.name}")
    change = _sqdisp_modules()
    try:
        parent = bench_pair.load("sqdisp_parent", tmp_path)
        for name in ("grids", "povm", "distribution"):
            module = getattr(parent["workloads"], name)
            assert module is sys.modules[f"sqdisp_parent.{name}"] is parent[name]
            assert Path(module.__file__).parent == tmp_path / "sqdisp"
        assert sys.modules["sqdisp"] is sqdisp
        assert _sqdisp_modules() == change
        own = bench_pair.load("sqdisp", ROOT / "src")
        assert own["workloads"].distribution is sqdisp.distribution
        assert _sqdisp_modules() == change
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "sqdisp_parent"]:
            del sys.modules[name]


def test_repeats_below_one_refused_before_loading(capsys):
    with pytest.raises(SystemExit) as exit_:
        _bench_pair().main(["--parent", str(ROOT / "src"), "--repeats", "0"])
    assert exit_.value.code == 2
    assert "--repeats must be at least 1" in capsys.readouterr().err
    assert "sqdisp_parent" not in sys.modules
