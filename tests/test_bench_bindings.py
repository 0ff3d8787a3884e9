"""The sqdisp names the benchmark's tracer binds (perfbench/tracing.py).

The tracer wraps library functions from outside, by module and name, reads
``r_resolution`` from the oracle calls and ``map`` from the concentration
profile, and wraps the CLI runners in ``cli._RUNNERS``.  A rename or a
deleted argument there breaks a traced benchmark run, not the library.
"""

import inspect
import itertools
import sys

import pytest

import sqdisp
import sqdisp.cli
from perfbench.tracing import CLI_SUBCOMMANDS, LAYER_TARGETS, Tracer
from perfbench.workloads import ScanWorkload
from sqdisp.distribution import _refine_for_window


def test_install_wraps_every_target_and_uninstall_restores():
    originals = {(module, attr): getattr(sys.modules[module], attr)
                 for module, attr, _, _ in LAYER_TARGETS}
    runners = dict(sqdisp.cli._RUNNERS)
    tracer = Tracer()
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            assert getattr(sys.modules[module], attr).__wrapped__ is original
        for sub in CLI_SUBCOMMANDS:
            assert sqdisp.cli._RUNNERS[sub].__wrapped__ is runners[sub]
        prof = sqdisp.two_mode.concentration_profile(0.9, 20, (-1.0, 1.0, -1.0, 1.0), 16,
                                                     tail_tol=None)
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(sys.modules[module], attr) is original
    assert sqdisp.cli._RUNNERS == runners
    spans = {}
    for record in tracer.records():
        spans.setdefault(record["name"], []).append(record["work"])
    assert spans["two_mode.concentration_profile"] == [len(prof.map.r_nodes)]
    assert len(spans["two_mode.make_pointer"]) == 1


def test_oracles_take_r_resolution():
    for fn in (sqdisp.distribution.group_average_sandwich,
               sqdisp.distribution.normalization_check):
        assert "r_resolution" in inspect.signature(fn).parameters


def test_cli_seed_paths_reach_traced_builders(capsys):
    # a builder called through a table or alias the tracer does not rebind
    # would drop out of the povm.* and grids.* per-layer metrics
    tracer = Tracer()
    tracer.install()
    try:
        for kind in sqdisp.cli.SEED_KINDS:
            assert sqdisp.cli.main(["likelihood", "--state", "coherent", "--a", "5",
                                    "--seed-kind", kind]) == 0
        assert sqdisp.cli.main(["compare-srm", "--state", "coherent", "--a", "5"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = [record["name"] for record in tracer.records()]
    assert names.count("povm.build_seed") == 3
    assert names.count("povm.likelihood") == 2
    assert names.count("grids.half_line_moment") == 14


@pytest.mark.parametrize("slot", dict.fromkeys(ScanWorkload.slots))
def test_scan_slots_keep_their_grids(tmp_path, slot):
    # the scan gate computes its reference on the slot's ``nodes``, so a grid rule that
    # moves any state of a slot's ranges off that grid would make the gate miss
    workload = ScanWorkload(1, tmp_path, 1)
    for u in itertools.product((0.0, 0.5, 1.0), repeat=2):
        job = getattr(workload, f"gen_{slot}")(u + (0.5,))
        psi = workload.build_state(job)
        _, fine = _refine_for_window(sqdisp.build_ml_seed(psi), psi, job["window"])
        assert fine.grid.n == job["nodes"], u
