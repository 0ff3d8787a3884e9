"""The sqdisp names the benchmark's tracer binds (perfbench/tracing.py).

The tracer wraps library functions from outside, by module and name, reads
``r_resolution`` from the oracle calls and ``map`` from the concentration
profile, and wraps the CLI runners in ``cli._RUNNERS``.  A rename or a
deleted argument there breaks a traced benchmark run, not the library.
"""

import inspect
import sys

import sqdisp
import sqdisp.cli
from perfbench.tracing import CLI_SUBCOMMANDS, LAYER_TARGETS, Tracer


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
    assert len(spans["two_mode.make_pointer"]) == 2


def test_oracles_take_r_resolution():
    for fn in (sqdisp.distribution.group_average_sandwich,
               sqdisp.distribution.normalization_check):
        assert "r_resolution" in inspect.signature(fn).parameters
