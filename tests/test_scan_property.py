"""Property test: every node of a scan equals the pointwise density there.

Random Gaussian inputs (center a, log-width z, linear phase c) and scan
windows; a coarse base grid (n = 1024) sends some draws through the window
refinement, so both the direct and the resampled scan are compared with
``density_at`` on the grid the scan actually used.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sqdisp import (GaussianStateParams, GroupElement, StateVector, build_ml_seed,
                    default_grid, density_at, scan)
from sqdisp.distribution import _refine_for_window

RESOLUTION = 16


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(a=st.floats(-4.0, 4.0), z=st.floats(-0.5, 0.5), c=st.floats(-2.0, 2.0),
       x_lo=st.floats(-6.0, -0.5), x_hi=st.floats(0.5, 6.0),
       r_lo=st.floats(-1.5, -0.1), r_hi=st.floats(0.1, 1.5),
       n=st.sampled_from([1024, 4096]))
def test_scan_equals_density_at(a, z, c, x_lo, x_hi, r_lo, r_hi, n):
    params = GaussianStateParams(center=a, log_width=z, linear_phase=c)
    psi = StateVector.from_params(params, default_grid(a, z, n=n))
    seed = build_ml_seed(psi)
    window = (x_lo, x_hi, r_lo, r_hi)
    dmap = scan(seed, psi, window, RESOLUTION)
    fine_seed, fine_psi = _refine_for_window(seed, psi, window)
    pointwise = np.array([[density_at(fine_seed, fine_psi, GroupElement(x, r))
                           for r in dmap.r_nodes] for x in dmap.x_nodes])
    assert np.max(np.abs(dmap.values - pointwise)) <= 1e-9 * np.max(pointwise)
