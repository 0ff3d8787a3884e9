"""Derandomized fuzz of the CLI and the public entry points over edge values.

Each run draws its options from small pools of edge values: amplitudes and
log-widths at the ends of their ranges, grids of 2 nodes and of 2^20, windows
of 1e-12 and 1e6, lambda next to 0 and 1, extreme tolerances and photon
numbers, and eight sampled-state files, most of them malformed.  Maps stay at
16 x 16 and pointers at n_max 20; the library calls take these sizes as a
Python int, a numpy int or a float (which raises ConfigError).  Every library
call must return or raise an EstimationError: no untyped error.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqdisp
from sqdisp import EstimationError
from sqdisp.cli import _READS, main

POOLS = {
    "state": ("vacuum", "coherent", "displaced-squeezed", "sampled-file"),
    "a": ("0", "1e-300", "-4", "1e5"),
    "z": ("-13.8", "13"),
    "n": ("2", "4", "1048576"),
    "y_max": ("1e-9", "1e6"),
    "seed_kind": ("ml", "srm", "ml-parity"),
    "lam": ("1e-12", "0.999999999"),
    "tail_tol": ("1e-300", "1e300"),
    "nbar": ("1.0000000001", "1e300"),
}
ENDS = ("-1e6", "1e6", "-1e-12", "1e-12")
FIXED = {"resolution": "16", "n_max": "20"}
SIZES = {"resolution": (16, np.int64(16), 16.0), "n_max": (20, np.int64(20), 20.0)}


def _state_files(directory):
    """Eight sampled-state CSVs: six malformed, a complex and a smooth one."""
    y = (np.arange(256) - 127.5) * (20.0 / 256)
    tables = {
        "one-node": [(0.0, 1.0, 0.0)],
        "two-nodes": [(-0.5, 1.0, 0.0), (0.5, 1.0, 0.0)],
        "all-zero": [(v, 0.0, 0.0) for v in y],
        "duplicate-y": [(v, 1.0, 0.0) for v in np.repeat(y[::2], 2)],
        "uneven-y": [(v, np.exp(-v * v), 0.0) for v in y * (1.0 + 0.01 * np.abs(y))],
        "off-centre": [(v + 0.3, np.exp(-v * v), 0.0) for v in y],
        "complex": [(v, np.exp(-v * v) * np.cos(1.4 * v), -np.exp(-v * v) * np.sin(1.4 * v))
                    for v in y],
        "smooth": [(v, v * np.exp(-v * v), 0.0) for v in y],
    }
    paths = []
    for name, rows in tables.items():
        path = directory / f"{name}.csv"
        path.write_text("y,re,im\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows))
        paths.append(str(path))
    return paths


@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    return _state_files(tmp_path_factory.mktemp("states"))


@st.composite
def argvs(draw, files):
    sub = draw(st.sampled_from(["density", "likelihood", "compare-srm", "asymptotics",
                                "two-mode"]))
    reads = _READS[sub]
    argv = [sub]
    for key in reads:
        value = FIXED.get(key)
        if key in POOLS:
            value = draw(st.one_of(st.none(), st.sampled_from(POOLS[key])))
        if key == "sampled_path" and "sampled-file" in argv:
            value = draw(st.sampled_from(files))
        if value is not None:
            argv += ["--" + key.replace("_", "-"), value]
    if "x_lo" in reads and draw(st.booleans()):
        for key in ("x_lo", "x_hi", "r_lo", "r_hi"):
            argv += ["--" + key.replace("_", "-"), draw(st.sampled_from(ENDS))]
    return argv


def _strict(constant):
    raise ValueError(f"{constant} in JSON output")


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_cli_edge_values(state_files, data):
    argv = data.draw(argvs(state_files))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), err
    assert "internal error" not in err
    if code == 0:
        json.loads(out, parse_constant=_strict)
    else:
        # pytest captures warnings, so each one counts as the stderr line it would print
        assert len(err.splitlines()) + len(caught) == 1, (err, [str(w.message) for w in caught])


def _floats(key):
    return st.sampled_from([float(v) for v in POOLS[key]])


WINDOWS = st.tuples(*[st.sampled_from([float(v) for v in ENDS])] * 4)


@st.composite
def library_calls(draw):
    """A public entry point and its arguments, drawn from the CLI's pools."""
    a, z, n = draw(_floats("a")), draw(_floats("z")), int(draw(_floats("n")))
    y_max, nbar = draw(_floats("y_max")), draw(_floats("nbar"))
    lam, tol, window = draw(_floats("lam")), draw(_floats("tail_tol")), draw(WINDOWS)
    kind = draw(st.sampled_from(["vacuum", "coherent", "displaced-squeezed"]))
    build = draw(st.sampled_from([sqdisp.build_ml_seed, sqdisp.build_srm_seed,
                                  sqdisp.build_parity_seed]))
    sign = draw(st.sampled_from([1, -1]))
    res, n_max = (draw(st.sampled_from(SIZES[key])) for key in ("resolution", "n_max"))

    def state():
        grid = sqdisp.QuadratureGrid(y_max, n)
        if kind == "vacuum":
            return sqdisp.make_vacuum(grid)
        if kind == "coherent":
            return sqdisp.make_coherent(a, grid=grid)
        return sqdisp.make_displaced_squeezed(a, z, grid=grid)

    def seed():
        psi = state()
        return build(psi), psi

    return draw(st.sampled_from([
        lambda: sqdisp.default_grid(a, z, n),
        state,
        seed,
        lambda: sqdisp.optimal_likelihood(state()),
        lambda: sqdisp.srm_likelihood(state()),
        lambda: sqdisp.scan(*seed(), window, res),
        lambda: sqdisp.rms_predictions(a, z),
        lambda: sqdisp.separate_optima(a, z),
        lambda: sqdisp.uncertainty_product_ratio(a, z),
        lambda: sqdisp.isotropic_params(nbar),
        lambda: sqdisp.make_pointer(lam, sign, n_max, tail_tol=tol),
        lambda: sqdisp.concentration_profile(lam, n_max, window, res, tail_tol=tol),
    ]))


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(call=library_calls())
def test_library_edge_values(call):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            call()
        except EstimationError:
            pass
