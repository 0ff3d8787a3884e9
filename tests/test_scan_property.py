"""Property test: every node of a scan's quadrature rows equals the pointwise density there.

A Gaussian pair's ``scan`` takes the closed form (tested against the exact
density in ``test_density_exact.py``), so these tests call the quadrature row
path ``distribution._scan_rows`` on the same states.  Random Gaussian inputs
(center a, log-width z, linear phase c) and scan windows; a coarse base grid
(n = 1024) sends some draws through the window refinement, so both the direct
and the resampled rows are compared with ``density_at`` on the grid the rows
actually used.  Fixed cases pin the boundaries of the scan's row chunks, folded
and not, and neither the scan nor the two-mode profile, which share the row
loop, may depend on them.  The rows' kernels are
evaluated only on the nodes that carry all but 2^-53 of the seed's L1 mass, and
each chunk runs on the nodes that carry all but 2^-53 of its own kernels: the
helper that picks them, and scans that drop most of a grid or none of it, are
tested next.  Then, real kernels on a symmetric window fold about y = 0: a
sampled state and its complex multiple give one map, and asymmetric windows
and one-sided seeds do not fold.  Last, a sampled state's rows run on the
halving of the window's grid that their end rows pick, with the row nearest r = 0
when that grid resamples the file's, within 1e-10 of the peak of ``density_at`` on
the window's grid, while a Gaussian pair's keep that grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqdisp import (GaussianStateParams, GroupElement, QuadratureGrid, StateVector,
                    build_ml_seed, build_srm_seed, concentration_profile, default_grid,
                    density_at, make_coherent, make_displaced_squeezed, make_sampled,
                    make_vacuum, scan)
from sqdisp import cli, distribution, two_mode
from sqdisp.distribution import _refine_for_window
from sqdisp.grids import _check_phase
from sqdisp.validate import _odd_state

from helpers import chunk_rows, kept, map_devs, record_chunks

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
    dmap = distribution._scan_rows(seed, psi, window, resolution)
    fine_seed, fine_psi = _refine_for_window(seed, psi, window)
    pointwise = np.array([[density_at(fine_seed, fine_psi, GroupElement(x, r))
                           for r in dmap.r_nodes] for x in dmap.x_nodes])
    assert np.max(np.abs(dmap.values - pointwise)) <= 1e-9 * np.max(pointwise)
    return fine_psi.grid.n


# the chunk boundaries of the row loop: a last chunk shorter than the rest, folded,
# on 4096 nodes (the vacuum's seed keeps 2483 of them, 1244 on the longer side of
# y = 0, so chunks of 12) and on 8192 for an odd state whose seed fills all but the
# two outermost (chunks of 3), and not folded, on an asymmetric window (chunks of
# 6); and one-row chunks, folded, on a window that refines the odd state to 16384.
# The rows run on the grid the window refines to: the vacuum is Gaussian, and the
# odd state at width 2.5 holds 1.1e-6 of its peak at the ends of its file
@pytest.mark.parametrize("window, resolution, nodes", [
    ((-3.0, 3.0, -1.0, 1.0), (40, 17), 4096),
    ((-80.0, 80.0, -0.2, 0.2), (17, 16), 8192),
    ((-3.0, 2.5, -1.0, 1.0), (40, 17), 4096),
    ((-160.0, 160.0, -0.2, 0.2), (17, 16), 16384),
])
def test_scan_chunk_boundaries(monkeypatch, window, resolution, nodes):
    vacuum = window[2] == -1.0
    psi = make_vacuum() if vacuum else _odd_state(QuadratureGrid(10.0, 4096), 2.5)
    grid_ns = []
    calls = record_chunks(monkeypatch, grid_ns)
    assert assert_scan_equals_density_at(build_ml_seed(psi), psi, window, resolution) == nodes
    assert grid_ns == [nodes]
    folds = window[0] == -window[1]
    rows = chunk_rows(resolution[0], calls, grid_n=nodes if folds else None)
    assert rows == 1 if nodes > 8192 else rows > 1 and resolution[1] % rows != 0


def test_scan_independent_of_chunking(monkeypatch):
    # both maps of the one row loop: the scan and the two-mode profile
    psi = StateVector.from_params(GaussianStateParams(1.5, -0.2, 0.7), default_grid(1.5, -0.2))
    seed = build_ml_seed(psi)
    window = (-4.0, 4.0, -1.2, 0.9)
    maps = (lambda: distribution._scan_rows(seed, psi, window, (64, 40)),
            lambda: concentration_profile(0.9, 20, window, (64, 40), tail_tol=None).map)
    chunked = []
    for make, per_row in zip(maps, (1, 2)):
        calls = record_chunks(monkeypatch)
        chunked.append(make())  # a complex kernel's rows, a profile's folded ones
        grid_n = two_mode._pointer_grid(20).n if per_row == 2 else None
        assert chunk_rows(64, calls, per_row, grid_n) > 1
    monkeypatch.setattr(distribution, "_SCAN_CHUNK", 1)  # one row per chunk
    for make, whole in zip(maps, chunked):
        by_row = make()
        assert np.max(np.abs(by_row.values - whole.values)) <= 1e-13 * np.max(whole.values)


# the row loop's support: the rows run on the nodes that carry all but 2^-53
# of the bound w of their kernels
def _dropped(w, lo, hi):
    return w[:lo].sum() + w[hi:].sum()


@pytest.mark.parametrize("draw", range(40))
def test_support_drops_at_most_2_to_minus_53(draw):
    rng = np.random.default_rng(draw)
    n = int(rng.integers(1, 40))
    w = 10.0 ** rng.uniform(-24.0, 0.0, n) * (rng.random(n) < 0.8)
    if draw == 0:
        w[:] = 0.0
    elif draw == 1:
        w[:] = 0.0
        w[rng.integers(n)] = 1.0
    lo, hi = distribution._support(w)
    assert 0 <= lo < hi <= n
    budget = 2.0 ** -53 * w.sum()
    # sums in another order than the helper's: allow their round-off
    assert _dropped(w, lo, hi) <= budget * (1.0 + 1e-12)
    if not w.any():
        assert (lo, hi) == (0, n)
    else:  # the longest head and tail within the budget, by brute force
        kept = min(b - a for a in range(n) for b in range(a + 1, n + 1)
                   if _dropped(w, a, b) <= budget)
        assert hi - lo == kept


def test_scan_rows_on_the_seed_support(monkeypatch):
    # y_max = |a| + 10 leaves most of the grid to tails below round-off
    psi = make_coherent(12.0, grid=default_grid(12.0))
    seed = build_ml_seed(psi)
    calls = record_chunks(monkeypatch)
    dmap = distribution._scan_rows(seed, psi, (-3.0, 3.0, -1.0, 1.0), RESOLUTION)
    chunk_rows(RESOLUTION, calls, grid_n=psi.grid.n)  # all on y > 0: no chunk folds
    nodes, runs = kept(calls)
    assert psi.grid.n == 4096 and max(runs) <= nodes < psi.grid.n // 2
    pointwise = np.array([[density_at(seed, psi, GroupElement(x, r)) for r in dmap.r_nodes]
                          for x in dmap.x_nodes])
    assert np.max(np.abs(dmap.values - pointwise)) <= 1e-12 * np.max(pointwise)


def test_wide_seed_keeps_every_node(monkeypatch):
    psi = _odd_state(QuadratureGrid(10.0, 4096), 2.5)
    calls = record_chunks(monkeypatch)
    scan(build_ml_seed(psi), psi, (-3.0, 3.0, -1.0, 1.0), RESOLUTION)
    chunk_rows(RESOLUTION, calls, grid_n=psi.grid.n)
    assert calls[0] == (0, psi.grid.n)


def whole_chunks(monkeypatch):
    """Keep the row loop's trim by its weight and let every chunk run on all it keeps."""
    support, calls = distribution._support, []

    def first_only(w):
        calls.append(len(w))
        return support(w) if len(calls) == 1 else (0, len(w))

    monkeypatch.setattr(distribution, "_support", first_only)
    return calls


# each chunk's own trim drops at most 2^-53 of its kernels' bound, so it moves a
# map by round-off only, while on the vacuum's window some chunks run on fewer
# than half of the nodes its seed keeps
@pytest.mark.parametrize("case", ["vacuum", "profile"])
def test_chunk_trim_moves_maps_by_round_off(monkeypatch, case):
    if case == "vacuum":
        psi = make_vacuum()
        seed = build_ml_seed(psi)
        make, nx, per_row = (lambda: distribution._scan_rows(seed, psi, (-3.0, 3.0, -3.0, 3.0),
                                                             64)), 64, 1
        grid_n = psi.grid.n
    else:
        make, nx, per_row = (lambda: concentration_profile(
            0.95, 60, (-1.5, 1.5, -1.5, 1.5), 48, tail_tol=None).map), 48, 2
        grid_n = two_mode._pointer_grid(60).n
    calls = record_chunks(monkeypatch)
    trimmed = make()
    chunk_rows(nx, calls, per_row, grid_n)
    nodes, runs = kept(calls)
    if case == "vacuum":
        assert nodes == 2483 and min(runs) < nodes / 2
    else:
        assert min(runs) < nodes
    monkeypatch.undo()
    whole_calls = whole_chunks(monkeypatch)
    whole = make()
    assert len(whole_calls) == 1 + len(runs)
    assert np.max(np.abs(trimmed.values - whole.values)) <= 1e-13 * np.max(whole.values)


def _sampled(state, phase=1.0):
    grid = QuadratureGrid(10.0, 4096)
    y = grid.nodes
    amp = (np.exp(-(y - 3.0) ** 2) + np.exp(-(y + 3.0) ** 2) if state == "two_bump"
           else y * np.exp(-(y / 1.6) ** 2))
    return make_sampled(grid, phase * amp)


# a sampled state's float kernels fold every chunk, each straddling y = 0, onto its
# longer side; its e^{i phi} multiple, the same ray, has complex kernels that do not.
# Both scans probe their end rows first, by FFTs and not by maps, and run their one
# map on the same grid below the file's 4096 nodes (256 and 1024)
@pytest.mark.parametrize("state, rows_n", [("two_bump", 256), ("odd", 1024)],
                         ids=["two_bump", "odd"])
def test_folded_rows_equal_complex_rows(monkeypatch, state, rows_n):
    maps = []
    for phase in (1.0, np.exp(0.7j)):
        psi = _sampled(state, phase)
        grid_ns = []
        calls = record_chunks(monkeypatch, grid_ns)
        maps.append(scan(build_ml_seed(psi), psi, (-4.0, 4.0, -1.5, 1.5), (48, 32)).values)
        monkeypatch.undo()
        assert grid_ns == [rows_n]
        chunk_rows(48, calls, grid_n=rows_n if phase == 1.0 else None)
        _, own = kept(calls)
        runs = [n for n, _ in calls[2::2]]
        assert all(n < b for n, b in zip(runs, own)) if phase == 1.0 else runs == own
    assert map_devs(maps[0], maps[1])[0] <= 1e-12


# float kernels that do not fold: on an asymmetric window, each chunk of a seed that
# straddles y = 0 runs on its own support as it stands; and an SRM seed of coherent(9),
# on a symmetric window, lives on y > 0 only.  A probe tolerance of 0 keeps the sampled
# state's rows on its own grid, where density_at is their reference to round-off
@pytest.mark.parametrize("case", ["asymmetric", "one_sided"])
def test_unfolded_real_rows(monkeypatch, case):
    if case == "asymmetric":
        psi, window = _sampled("odd"), (-4.0, 3.5, -1.5, 1.5)
        seed = build_ml_seed(psi)
    else:
        psi, window = make_coherent(9.0), (-3.0, 3.0, -0.6, 0.6)
        seed = build_srm_seed(psi)
    monkeypatch.setattr(distribution, "_PROBE_RTOL", 0.0)
    grid_ns = []
    calls = record_chunks(monkeypatch, grid_ns)
    dmap = distribution._scan_rows(seed, psi, window, RESOLUTION)
    chunk_rows(RESOLUTION, calls)
    lo, hi = calls[0]
    assert grid_ns[-1] == psi.grid.n
    assert (lo < psi.grid.n // 2 < hi) == (case == "asymmetric")
    monkeypatch.undo()
    pointwise = np.array([[density_at(seed, psi, GroupElement(x, r)) for r in dmap.r_nodes]
                          for x in dmap.x_nodes])
    assert np.max(np.abs(dmap.values - pointwise)) <= 1e-12 * np.max(pointwise)


def rows_grid_n(seed, psi, window, make=distribution._scan_rows):
    """The map of ``make`` and the node count of the grid its rows ran on."""
    grid_ns = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        record_chunks(monkeypatch, grid_ns)
        dmap = make(seed, psi, window, RESOLUTION)
    assert len(grid_ns) == 1
    return dmap, grid_ns[0]


def assert_near_density_at(seed, psi, dmap, rtol):
    """The map within rtol of the peak of density_at on the grid of ``psi``."""
    pointwise = np.array([[density_at(seed, psi, GroupElement(x, r)) for r in dmap.r_nodes]
                          for x in dmap.x_nodes])
    assert np.max(np.abs(dmap.values - pointwise)) <= rtol * np.max(pointwise)


# sampled states on the window ``sqdisp density`` picks for a file, as it is or moved in
# x so that it is not symmetric and the rows do not fold: the rows run on a power-of-two
# fraction of the window's grid that the row phase still resolves, within 1e-10 of the
# peak of density_at on the window's grid (4.0e-11 at worst over these draws, 2.8e-11 on
# a moved window; a probe tolerance of 1e-8 in place of 1e-10 fails it)
@settings(max_examples=24, derandomize=True, deadline=None, database=None)
@given(state=st.sampled_from(["odd", "two_bump"]), u=st.floats(0.0, 1.0), a=st.floats(2.0, 4.0),
       skew=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
def test_sampled_rows_on_a_probed_halving(state, u, a, skew):
    grid = QuadratureGrid(10.0, 4096)
    y = grid.nodes
    if state == "odd":
        width = 0.7 + 1.8 * u  # [0.7, 2.5]
        psi = make_sampled(grid, y * np.exp(-(y / width) ** 2))
    else:
        b = 2.5 + 1.5 * u  # [2.5, 4]
        psi = make_sampled(grid, np.exp(-(y - b) ** 2) + np.exp(-(y + b) ** 2))
    seed = build_ml_seed(psi)
    x_lo, x_hi, r_lo, r_hi = cli.default_window(cli.RunConfig(state="sampled-file", a=a))
    window = (x_lo + skew, x_hi + skew, r_lo, r_hi)
    dmap, n = rows_grid_n(seed, psi, window, scan)
    ref_seed, ref_psi = _refine_for_window(seed, psi, window)
    halvings = ref_psi.grid.n // n
    assert halvings * n == ref_psi.grid.n and halvings & (halvings - 1) == 0
    freq = distribution._row_frequency(seed, psi, max(-window[0], window[1]), r_lo)
    _check_phase(freq, 2.0 * grid.y_max / n)
    assert_near_density_at(ref_seed, ref_psi, dmap, 1e-10)


# a sampled vacuum, whose kink term at y = 0 is about dy^2/24 = 1e-6 of its rows'
# amplitudes (odd states and two-bumps with b >= 2.5 have next to none there): its end
# rows agree on a halving only with that term taken out at their own x, the DFT bins'
# phases included, and its rows run on 2048 nodes, symmetric window or not
@pytest.mark.parametrize("window", [(-4.0, 4.0, -1.5, 1.5), (-3.0, 5.0, -1.0, 2.0)])
def test_sampled_vacuum_rows_halve_with_the_kink_term_out(window):
    grid = QuadratureGrid(10.0, 4096)
    psi = make_sampled(grid, np.exp(-grid.nodes ** 2 / 2.0))
    seed = build_ml_seed(psi)
    dmap, n = rows_grid_n(seed, psi, window, scan)
    assert n == 2048
    assert_near_density_at(seed, psi, dmap, 1e-10)


# files of an even node count that is not a power of two, whose own grid the window keeps:
# the probe halves only to an even count, none of 1000 or 1002 nodes (the first halving
# moves the end rows past the tolerance) and twice of 3000, to 750, and the rows stay
# within 1e-9 of the peak of density_at on the file's grid (1.1e-10 on 750 nodes)
@pytest.mark.parametrize("n, a, rows_n", [(1000, 6.0, 1000), (1002, 6.0, 1002),
                                          (3000, 4.0, 750)])
def test_sampled_rows_on_files_of_any_even_size(n, a, rows_n):
    grid = QuadratureGrid(10.0, n)
    y = grid.nodes
    psi = make_sampled(grid, np.exp(-(y - 3.0) ** 2) + np.exp(-(y + 3.0) ** 2))
    seed = build_ml_seed(psi)
    window = cli.default_window(cli.RunConfig(state="sampled-file", a=a))
    assert _refine_for_window(seed, psi, window)[1].grid == grid
    dmap, rows = rows_grid_n(seed, psi, window, scan)
    assert rows == rows_n
    assert_near_density_at(seed, psi, dmap, 1e-9)


# Gaussian pairs, ML and SRM seeds, keep the rows on the window's grid
@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(a=st.floats(4.5, 6.0), z=st.floats(0.0, 0.5), srm=st.booleans())
def test_gaussian_rows_keep_the_window_grid(a, z, srm):
    psi = make_displaced_squeezed(a, z)
    seed = (build_srm_seed if srm else build_ml_seed)(psi)
    window = cli.default_window(cli.RunConfig(state="displaced-squeezed", a=a, z=z))
    _, n = rows_grid_n(seed, psi, window)
    assert n == _refine_for_window(seed, psi, window)[1].grid.n


# files resampled to the window's 4096 nodes: their end rows do not bound the rows near
# r = 0, so the probe also judges the r node nearest 0 on its own peak, and the rows stay
# on 2048 nodes within 1e-10 of the peak of density_at on the window's grid (2.1e-11 at
# worst; without that row 1000, 1002 and 1004 nodes run on 1024, up to 1.0e-9 off)
@pytest.mark.parametrize("n", [1000, 1002, 1004, 1008])
def test_resampled_files_probe_the_row_nearest_r0(n):
    grid = QuadratureGrid(10.0, n)
    y = grid.nodes
    psi = make_sampled(grid, np.exp(-(y - 2.5) ** 2) + np.exp(-(y + 2.5) ** 2))
    seed = build_ml_seed(psi)
    window = cli.default_window(cli.RunConfig(state="sampled-file", a=2.5))
    ref_seed, ref_psi = _refine_for_window(seed, psi, window)
    assert ref_psi.grid.n == 4096
    dmap, rows = rows_grid_n(seed, psi, window, scan)
    assert rows == 2048
    assert_near_density_at(ref_seed, ref_psi, dmap, 1e-10)
