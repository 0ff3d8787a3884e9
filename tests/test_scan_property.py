"""Property test: every node of a scan equals the pointwise density there.

Random Gaussian inputs (center a, log-width z, linear phase c) and scan
windows; a coarse base grid (n = 1024) sends some draws through the window
refinement, so both the direct and the resampled scan are compared with
``density_at`` on the grid the scan actually used.  Two fixed cases pin the
boundaries of the scan's row chunks, and neither the scan nor the two-mode
profile, which share the row loop, may depend on them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqdisp import (GaussianStateParams, GroupElement, StateVector, build_ml_seed,
                    concentration_profile, default_grid, density_at, make_vacuum, scan)
from sqdisp import distribution
from sqdisp.distribution import _refine_for_window
from sqdisp.grids import _fft_length

RESOLUTION = 16


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(a=st.floats(-4.0, 4.0), z=st.floats(-0.5, 0.5), c=st.floats(-2.0, 2.0),
       x_lo=st.floats(-6.0, -0.5), x_hi=st.floats(0.5, 6.0),
       r_lo=st.floats(-1.5, -0.1), r_hi=st.floats(0.1, 1.5),
       n=st.sampled_from([1024, 4096]))
def test_scan_equals_density_at(a, z, c, x_lo, x_hi, r_lo, r_hi, n):
    params = GaussianStateParams(center=a, log_width=z, linear_phase=c)
    psi = StateVector.from_params(params, default_grid(a, z, n=n))
    assert_scan_equals_density_at(build_ml_seed(psi), psi, (x_lo, x_hi, r_lo, r_hi),
                                  RESOLUTION)


def assert_scan_equals_density_at(seed, psi, window, resolution):
    dmap = scan(seed, psi, window, resolution)
    fine_seed, fine_psi = _refine_for_window(seed, psi, window)
    pointwise = np.array([[density_at(fine_seed, fine_psi, GroupElement(x, r))
                           for r in dmap.r_nodes] for x in dmap.x_nodes])
    assert np.max(np.abs(dmap.values - pointwise)) <= 1e-9 * np.max(pointwise)
    return fine_psi.grid.n


def chunk_rows(nx, n, per_row=1):
    return max(1, distribution._SCAN_CHUNK // (per_row * _fft_length(nx + n - 1)))


# the chunk boundaries of the row loop: a last chunk shorter than the rest
# on 4096 nodes, and one-row chunks on a window that refines to 8192 nodes
@pytest.mark.parametrize("window, resolution, nodes", [
    ((-3.0, 3.0, -1.0, 1.0), (40, 17), 4096),
    ((-80.0, 80.0, -0.2, 0.2), (17, 16), 8192),
])
def test_scan_chunk_boundaries(window, resolution, nodes):
    vac = make_vacuum()
    rows = chunk_rows(resolution[0], nodes)
    assert (rows > 1 and resolution[1] % rows != 0) if nodes == 4096 else rows == 1
    assert assert_scan_equals_density_at(build_ml_seed(vac), vac, window, resolution) == nodes


def test_scan_independent_of_chunking(monkeypatch):
    # both maps of the one row loop: the scan and the two-mode profile
    psi = StateVector.from_params(GaussianStateParams(1.5, -0.2, 0.7), default_grid(1.5, -0.2))
    seed = build_ml_seed(psi)
    window = (-4.0, 4.0, -1.2, 0.9)
    maps = (lambda: scan(seed, psi, window, (64, 40)),
            lambda: concentration_profile(0.9, 20, window, (64, 40), tail_tol=None).map)
    chunked = [make() for make in maps]
    assert chunk_rows(64, psi.grid.n) > 1 and chunk_rows(64, 2048, per_row=2) > 1
    monkeypatch.setattr(distribution, "_SCAN_CHUNK", 1)  # one row per chunk
    for make, whole in zip(maps, chunked):
        by_row = make()
        assert np.max(np.abs(by_row.values - whole.values)) <= 1e-13 * np.max(whole.values)
