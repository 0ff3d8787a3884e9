"""Estimation densities, scans, moments, normalization, group-average oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from sqdisp import (ConfigError, DivergenceDetected, GridMismatch, GridTooNarrow, GroupElement,
                    IDENTITY, InsufficientMass, act, argmax, build_ml_seed,
                    closed_form_sandwich, compose, concentration_profile, default_grid, density_at,
                    group_average_sandwich, inverse, make_coherent,
                    make_displaced_squeezed, make_vacuum,
                    moments, normalization_check, scan, window_statistics)
from sqdisp import grids
from sqdisp.distribution import (_band_spectrum, _quadratic_peak, _refine_for_window,
                                 _scan_rows, _screened_cross_terms, _trapezoid_weights)
from sqdisp.grids import fourier_at
from sqdisp.validate import _odd_state

from helpers import VACUUM_L_OPT, exact_map, map_devs, spy, traced

ASY_COH10_AT_R01 = (10.0 / math.pi) * math.exp(-1.0)  # 1.1709966304863835


@pytest.fixture(scope="module")
def coh10_seed():
    c10 = make_coherent(10.0)
    return build_ml_seed(c10), c10


@pytest.fixture(scope="module")
def vacuum_map(vacuum_seed):
    seed, vac = vacuum_seed
    return scan(seed, vac, (-3, 3, -3, 3), 96)


@pytest.fixture(scope="module")
def coh10_map(coh10_seed):
    seed, c10 = coh10_seed
    return scan(seed, c10, (-4, 4, -0.6, 0.6), 128)


class TestDensityAt:
    def test_identity_equals_likelihood(self, vacuum_seed):
        seed, vac = vacuum_seed
        assert density_at(seed, vac, IDENTITY) == pytest.approx(
            seed.likelihood, rel=1e-4)

    def test_vacuum_peak_value(self, vacuum_seed):
        seed, vac = vacuum_seed
        assert density_at(seed, vac, IDENTITY) == pytest.approx(
            VACUUM_L_OPT, rel=1e-4)

    def test_asymptotic_gaussian_prediction(self, coh10_seed):
        # the left-Haar-weighted density approaches
        # (a/pi) e^{-a^2 r^2} e^{-x^2} for large a
        seed, c10 = coh10_seed
        p = density_at(seed, c10, GroupElement(0.0, 0.1))
        assert p * math.exp(-0.1) == pytest.approx(ASY_COH10_AT_R01, rel=0.05)

    def test_nonnegative(self, vacuum_seed):
        seed, vac = vacuum_seed
        for g in (GroupElement(0.5, -1.0), GroupElement(-2.0, 2.0)):
            assert density_at(seed, vac, g) >= 0.0

    def test_aliased_phase_refused(self, vacuum_seed):
        # the default vacuum grid has dy = 20/4096 and pi/(2 dy) = 321.7; past it
        # e^{-2ixy} aliases (x = 640 returned 4.2e-3, x = 320 9.9e-15); the frequency
        # checked is the row's, e^{-r} |x| for a state without a linear phase
        seed, vac = vacuum_seed
        for g in (GroupElement(640.0, 0.0), GroupElement(-320.0, -1.0)):
            with pytest.raises(GridTooNarrow, match="aliases"):
                density_at(seed, vac, g)
        for g in (GroupElement(320.0, 0.0), GroupElement(640.0, 1.0)):
            assert 0.0 <= density_at(seed, vac, g) < 1e-10

    def test_grid_mismatch(self, vacuum_seed):
        seed, _ = vacuum_seed
        with pytest.raises(GridMismatch):
            density_at(seed, make_vacuum(grids.QuadratureGrid(10.0, 2048)), IDENTITY)


class TestRowFrequency:
    """D(x0)|0> carries the linear phase x0, which a row at r stretches to x0 e^{-r}: its
    rows need finer grids than e^{-r} |x| alone asks for."""

    def test_density_at_refuses_aliased_row(self):
        # (0.5 + 60) e^3 + 60 = 1275 > pi/(2 dy) = 321.7 on the 4096 nodes; unrefused,
        # density_at read 8.09e-9 against 3.07e-12 on 2^19 nodes
        psi = act(GroupElement(60.0, 0.0), make_vacuum())
        assert psi.grid.n == 4096
        with pytest.raises(GridTooNarrow, match="aliases"):
            density_at(build_ml_seed(psi), psi, GroupElement(0.5, -3.0))

    @pytest.mark.parametrize("x0, window, rows_rtol, rtol", [
        (60.0, (-1.0, 1.0, -3.0, -1.0), 2.2e-5, 8e-11),
        (30.0, (-3.0, 3.0, -2.5, 2.5), 7.5e-14, 1.2e-12)], ids=["x0-60", "x0-30"])
    def test_scan_matches_exact(self, x0, window, rows_rtol, rtol):
        # on 65,536 and 32,768 nodes the rows are 7.3e-6 and 2.4e-14 off the exact map,
        # the closed form 2.9e-11 and 4.4e-13; each bound is about 3 times that
        psi = act(GroupElement(x0, 0.0), make_vacuum())
        seed = build_ml_seed(psi)
        rows, m = _scan_rows(seed, psi, window, 24), scan(seed, psi, window, 24)
        exact = exact_map(psi, m)
        assert map_devs(rows.values, exact)[0] <= rows_rtol
        assert map_devs(m.values, exact)[0] <= rtol


class TestRowWidth:
    """A row at r < 0 samples psi(e^{-r} y), whose |psi|^2 std narrows to 0.5 e^{r - z}: the
    scan grid must resolve that width as ``act`` does, not only the row frequency."""

    WINDOW = (-0.01, 0.01, -6.0, -5.0)

    @pytest.mark.parametrize("a, nodes, rows_rtol, rtol", [(0.0, 16384, 3.6e-4, 3e-15),
                                                            (3.0, 32768, 3.4e-3, 6e-14)],
                             ids=["vacuum", "coherent-3"])
    def test_scan_resolves_narrowest_row(self, a, nodes, rows_rtol, rtol):
        # the rows are 1.2e-4 (vacuum) and 1.1e-3 (coherent 3) off the exact map, the
        # closed form 1.1e-15 and 1.9e-14; each bound is about 3 times that
        psi = make_coherent(a)
        seed = build_ml_seed(psi)
        assert _refine_for_window(seed, psi, self.WINDOW)[1].grid.n == nodes
        rows, m = _scan_rows(seed, psi, self.WINDOW, 16), scan(seed, psi, self.WINDOW, 16)
        exact = exact_map(psi, m)
        assert map_devs(rows.values, exact)[0] <= rows_rtol
        assert map_devs(m.values, exact)[0] <= rtol


class TestScanAndArgmax:
    def test_vacuum_peak_off_origin(self, vacuum_map):
        ax, ar, peak = argmax(vacuum_map)
        assert math.hypot(ax, ar) > 0.1
        assert peak > vacuum_map.values.min()

    def test_vacuum_single_peak_shape(self, vacuum_map):
        # one local maximum along the r axis at x ~ 0 (qualitative Fig. 1)
        i0 = int(np.argmin(np.abs(vacuum_map.x_nodes)))
        row = vacuum_map.values[i0]
        k = int(np.argmax(row))
        assert 0 < k < len(row) - 1
        assert np.all(np.diff(row[:k + 1]) > 0)
        assert np.all(np.diff(row[k:]) < 0)

    def test_coh10_peak_near_origin(self, coh10_map):
        ax, ar, _ = argmax(coh10_map)
        assert abs(ax) < 0.05
        assert abs(ar) < 0.01

    def test_values_nonnegative_finite(self, vacuum_map, coh10_map):
        for m in (vacuum_map, coh10_map):
            assert np.all(m.values >= 0)
            assert np.all(np.isfinite(m.values))

    def test_wide_window_memory_bounded(self, vacuum_seed):
        # (+-20, +-6) refines the vacuum grid to 524288 nodes; a dense phase matrix
        # would need more than 1 GB per r row, the rows peak at 59 MB traced.  They are
        # 6.0e-14 off the exact map, and the closed form 3.1e-13
        seed, vac = vacuum_seed
        window = (-20.0, 20.0, -6.0, 6.0)
        assert _refine_for_window(seed, vac, window)[1].grid.n == 524288
        rows, peak = traced(lambda: _scan_rows(seed, vac, window, (128, 16)))
        assert peak < 400 * 2 ** 20
        m, exact = scan(seed, vac, window, (128, 16)), exact_map(vac, rows)
        assert np.all(np.isfinite(rows.values)) and np.all(np.isfinite(m.values))
        assert map_devs(rows.values, exact)[0] <= 1.8e-13
        assert map_devs(m.values, exact)[0] <= 9e-13

    @pytest.mark.parametrize("resolution", [(2048, 1024), 1025])
    def test_map_size_bounded_before_allocation(self, vacuum_seed, resolution):
        # more than MAX_NODES = 2^20 cells; the map alone would take 8 MB or more
        seed, vac = vacuum_seed

        def refused():
            with pytest.raises(ConfigError, match="exceeds 1048576 cells"):
                scan(seed, vac, (-3.0, 3.0, -3.0, 3.0), resolution)
        assert traced(refused)[1] < 2 ** 20

    def test_mass_bounded_and_monotone(self, vacuum_seed, vacuum_map):
        seed, vac = vacuum_seed
        inner = scan(seed, vac, (-1.5, 1.5, -1.5, 1.5), 48)
        assert inner.mass < vacuum_map.mass <= 1.0 + 1e-6

    def test_coh10_mass_near_one(self, coh10_map):
        assert coh10_map.mass == pytest.approx(1.0, abs=1e-2)

    def test_resolution_validation(self, vacuum_seed):
        seed, vac = vacuum_seed
        with pytest.raises(ValueError):
            scan(seed, vac, (-1, 1, -1, 1), 8)
        with pytest.raises(ValueError):
            scan(seed, vac, (1, -1, -1, 1), 32)

    @pytest.mark.parametrize("resolution", [np.int64(16), np.int32(16), (np.int64(16), 16),
                                            np.array([16, 16])],
                             ids=["int64", "int32", "int64-pair", "array"])
    def test_resolution_of_any_integer_type(self, vacuum_seed, resolution):
        seed, vac = vacuum_seed
        window = (-1.5, 1.5, -1.5, 1.5)
        assert np.array_equal(scan(seed, vac, window, resolution).values,
                              scan(seed, vac, window, 16).values)

    @pytest.mark.parametrize("resolution", [16.0, np.float64(16.5), (16, 16.0), "16", None],
                             ids=["float", "numpy-float", "float-in-pair", "str", "none"])
    def test_non_integral_resolution_rejected(self, vacuum_seed, resolution):
        seed, vac = vacuum_seed
        with pytest.raises(ValueError, match="resolution must be an integer"):
            scan(seed, vac, (-1.5, 1.5, -1.5, 1.5), resolution)

    @pytest.mark.parametrize("window, resolution, message", [
        ((-1, 1, -1), 16, "window must be 4 values"),
        ((-1, 1, -1, 1, 0), 16, "window must be 4 values"),
        ((-1, 1, -1, 1), (16, 16, 16), "resolution must be one integer or a pair"),
        ((-1, 1, -1, 1), (16,), "resolution must be one integer or a pair"),
        (((1, 2), 3, 4, 5), 16, "window must be 4 values"),
        (("-1", "1", "-1", "1"), 16, "window must be 4 values"),
        ((-1, 1, -1, 1), ((16, 16), 16), "resolution must be an integer"),
    ], ids=["window-3", "window-5", "resolution-3", "resolution-1", "window-ragged",
            "window-strings", "resolution-ragged"])
    def test_malformed_window_or_resolution_is_config_error(self, vacuum_seed, window,
                                                            resolution, message):
        # each ended in a raw ValueError from unpacking the tuple, or from numpy for a
        # ragged one, or in a TypeError from math.isfinite for strings
        seed, vac = vacuum_seed
        calls = [lambda: scan(seed, vac, window, resolution),
                 lambda: concentration_profile(0.9, 20, window, resolution, tail_tol=None)]
        if resolution == 16:  # the oracles take a window only
            calls += [lambda: normalization_check(seed, vac, window),
                      lambda: group_average_sandwich(vac, vac, vac, vac, window)]
        for call in calls:
            with pytest.raises(ConfigError, match=message):
                call()

    def test_oscillation_auto_refinement(self):
        # a window with large |x| e^{-r} forces the rows onto a finer grid, without which
        # they are wrong at O(peak); from 1024 and 16384 nodes they are 2.8e-11 and
        # 1.8e-12 of the peak off the exact map, the closed form 7.0e-13 relative and
        # 2.2e-15 of the peak
        window = (-30.0, 30.0, -1.0, 1.0)
        for n, refined, rows_peak in ((1024, 8192, 8e-11), (16384, 16384, 5e-12)):
            vac = make_vacuum(default_grid(0.0, n=n))
            seed = build_ml_seed(vac)
            assert _refine_for_window(seed, vac, window)[1].grid.n == refined
            rows, m = _scan_rows(seed, vac, window, 24), scan(seed, vac, window, 24)
            exact = exact_map(vac, m)
            assert map_devs(rows.values, exact)[1] <= rows_peak
            rel, of_peak = map_devs(m.values, exact)
            assert rel <= 2e-12 and of_peak <= 6e-15

    def test_covariance_under_input_shift(self, vacuum_seed):
        seed, vac = vacuum_seed
        h = GroupElement(0.4, 0.3)
        shifted = act(h, vac, grid=vac.grid)
        for g in (IDENTITY, GroupElement(0.5, -0.2), GroupElement(-0.8, 0.6),
                  GroupElement(1.1, 0.9)):
            lhs = density_at(seed, shifted, g)
            rhs = density_at(seed, vac, compose(inverse(h), g))
            assert lhs == pytest.approx(rhs, rel=1e-6)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(a=st.floats(-2.0, 2.0), z=st.floats(-0.4, 0.4),
       hx=st.floats(-1.0, 1.0), hr=st.floats(-0.5, 0.5),
       gx=st.floats(-1.0, 1.0), gr=st.floats(-0.5, 0.5))
def test_covariance_over_random_gaussians(a, z, hx, hr, gx, gr):
    # p'(g) = p(h^{-1} g) for the input shifted by h, with the seed of the
    # unshifted input
    psi = make_displaced_squeezed(a, z)
    seed = build_ml_seed(psi)
    h, g = GroupElement(hx, hr), GroupElement(gx, gr)
    shifted = act(h, psi, grid=psi.grid)
    lhs = density_at(seed, shifted, g)
    rhs = density_at(seed, psi, compose(inverse(h), g))
    assert lhs == pytest.approx(rhs, rel=1e-6)


class TestMoments:
    def test_coh10_widths_match_asymptotics(self, coh10_map):
        stats = moments(coh10_map)
        assert stats.delta_r == pytest.approx(1.0 / math.sqrt(200.0), rel=0.05)
        assert stats.delta_x == pytest.approx(1.0 / math.sqrt(2.0), rel=0.05)
        assert abs(stats.mean_x) < 0.01
        assert abs(stats.mean_r) < 0.01

    def test_isotropic_input(self):
        # a = e^{-2z} with z = -1 gives an isotropic distribution
        a, z = math.exp(2.0), -1.0
        psi = make_displaced_squeezed(a, z)
        seed = build_ml_seed(psi)
        sigma = 1.0 / (math.sqrt(2.0) * a * math.exp(z))
        m = scan(seed, psi, (-2.0, 2.0, -5 * sigma, 5 * sigma), 96)
        stats = moments(m)
        assert stats.delta_x / stats.delta_r == pytest.approx(1.0, abs=0.1)

    def test_insufficient_mass(self, vacuum_map):
        with pytest.raises(InsufficientMass):
            moments(vacuum_map)  # vacuum over +-3 captures only ~0.83

    def test_window_statistics_of_empty_window(self):
        # a window the density underflows on everywhere has no mean to divide out;
        # it used to end in ZeroDivisionError
        from sqdisp.distribution import DensityMap
        empty = DensityMap(np.linspace(-1, 1, 16), np.linspace(-4, -3, 16), np.zeros((16, 16)))
        with pytest.raises(InsufficientMass, match="none"):
            window_statistics(empty)

    def test_model_map_argmax_at_origin(self):
        # analytic Gaussian surface: argmax lands exactly on the 0 node
        from sqdisp.distribution import DensityMap
        xs = np.linspace(-2, 2, 65)
        rs = np.linspace(-1, 1, 65)
        X, R = np.meshgrid(xs, rs, indexing="ij")
        vals = np.exp(-X ** 2 - 10 * R ** 2)
        m = DensityMap(x_nodes=xs, r_nodes=rs, values=vals)
        ax, ar, peak = argmax(m)
        assert ax == pytest.approx(0.0, abs=1e-12)
        assert ar == pytest.approx(0.0, abs=1e-12)
        # the fitted peak value is a quadratic estimate of a Gaussian crest
        assert peak == pytest.approx(1.0, rel=1e-3)

    def test_direct_map_reports_trapezoid_mass(self):
        # p = e^{r} N(x) N(r) over +-5 sigma: p e^{-r} integrates to ~1
        from sqdisp.distribution import DensityMap
        xs = np.linspace(-5.0, 5.0, 81)
        rs = np.linspace(-1.0, 1.0, 65)
        X, R = np.meshgrid(xs, rs, indexing="ij")
        vals = np.exp(R - X ** 2 / 2 - R ** 2 / 0.08) / (2.0 * math.pi * 0.2)
        m = DensityMap(xs, rs, vals)
        by_rows = trapezoid(trapezoid(vals * np.exp(-rs), rs, axis=1), xs)
        assert m.mass == pytest.approx(by_rows, rel=1e-12)
        assert m.mass == pytest.approx(1.0, abs=1e-3)
        stats = moments(m)
        assert stats.mean_x == pytest.approx(0.0, abs=1e-12)
        assert stats.delta_r == pytest.approx(0.2, rel=1e-2)
        # one r node: the trapezoid rule over an r range of zero width gives 0
        line = DensityMap(np.linspace(-1.0, 1.0, 17), np.array([0.3]), np.ones((17, 1)))
        assert line.mass == 0.0

    def test_argmax_twin_peaks_resolve_left(self):
        # a map mirror-symmetric in x peaks on two twin nodes, whose quadratic
        # fits land on either side of x = 0; raising the right twin by
        # round-off must not move the peak off the left one
        from sqdisp.distribution import DensityMap
        half = (np.arange(32) + 0.5) * (2.0 / 32)
        xs = np.concatenate([-half[::-1], half])
        rs = np.linspace(-1, 1, 65)
        X, R = np.meshgrid(xs, rs, indexing="ij")
        vals = np.exp(-X ** 2 - 10 * (R - X ** 2) ** 2)
        left = argmax(DensityMap(x_nodes=xs, r_nodes=rs, values=vals))
        assert left[0] < -1e-4
        for bump, side in ((1e-14, -1.0), (1e-6, +1.0)):
            raised = vals.copy()
            raised[32, 32] *= 1.0 + bump
            ax, ar, _ = argmax(DensityMap(x_nodes=xs, r_nodes=rs, values=raised))
            assert ax * side > 1e-4
            if side < 0:  # the raised node sits in the left twin's fit patch
                assert (ax, ar) == pytest.approx(left[:2], rel=1e-9)



def lstsq_peak(values, i, j, x_nodes, r_nodes):
    """The 3x3 quadratic peak fit by a general least-squares solve (reference)."""
    nx, nr = values.shape
    if not (0 < i < nx - 1 and 0 < j < nr - 1):
        return x_nodes[i], r_nodes[j], values[i, j]
    u, v = (a.ravel() for a in np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], indexing="ij"))
    design = np.stack([np.ones(9), u, v, u * u, v * v, u * v], axis=1)
    c = np.linalg.lstsq(design, values[i - 1:i + 2, j - 1:j + 2].ravel(), rcond=None)[0]
    hess = np.array([[2.0 * c[3], c[5]], [c[5], 2.0 * c[4]]])
    if np.linalg.det(hess) <= 0:
        return x_nodes[i], r_nodes[j], values[i, j]
    su, sv = np.clip(np.linalg.solve(hess, -c[1:3]), -1.0, 1.0)
    peak = c @ np.array([1.0, su, sv, su * su, sv * sv, su * sv])
    return (x_nodes[i] + su * (x_nodes[1] - x_nodes[0]),
            r_nodes[j] + sv * (r_nodes[1] - r_nodes[0]), peak)


class TestQuadraticPeak:
    XS = np.linspace(-1.0, 1.0, 5)
    RS = np.linspace(-2.0, 3.0, 5)

    def test_matches_lstsq_on_random_patches(self):
        rng = np.random.default_rng(2)
        fallbacks = 0
        for _ in range(2000):
            values = rng.normal(size=(5, 5))
            values[2, 2] += rng.uniform(0.0, 4.0)
            got = _quadratic_peak(values, 2, 2, self.XS, self.RS)
            ref = lstsq_peak(values, 2, 2, self.XS, self.RS)
            assert np.allclose(got, ref, rtol=0.0, atol=1e-12)
            fallbacks += got[:2] == (self.XS[2], self.RS[2])
        assert 0 < fallbacks < 2000  # both branches are exercised

    @pytest.mark.parametrize("x0, r0, cross", [(0.1, -0.3, 0.0), (-0.37, 0.8, 0.6),
                                               (0.49, 1.2, -1.1)])
    def test_recovers_quadratic_vertex(self, x0, r0, cross):
        X, R = np.meshgrid(self.XS, self.RS, indexing="ij")
        du, dv = X - x0, R - r0
        values = 7.0 - (3.0 * du ** 2 + 1.5 * dv ** 2 + cross * du * dv)
        i, j = np.unravel_index(int(np.argmax(values)), values.shape)
        ax, ar, peak = _quadratic_peak(values, i, j, self.XS, self.RS)
        assert (ax, ar, peak) == pytest.approx((x0, r0, 7.0), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("form", [lambda u, v: v * v - u * u,  # a saddle, det < 0
                                      lambda u, v: -u * u])       # a ridge, det = 0
    def test_no_proper_maximum_keeps_grid_node(self, form):
        # the ridge's det is exactly 0 here; a general solver rounds it either way
        U, V = np.meshgrid(np.arange(5.0) - 2.0, np.arange(5.0) - 2.0, indexing="ij")
        values = form(U, V)
        assert _quadratic_peak(values, 2, 2, self.XS, self.RS) == (
            self.XS[2], self.RS[2], values[2, 2])

    def test_minimum_shift_is_clipped(self):
        # det > 0 at a minimum too: the stationary point is outside the patch
        U, V = np.meshgrid(np.arange(5.0) - 2.0, np.arange(5.0) - 2.0, indexing="ij")
        values = (U - 3.0) ** 2 + (V + 5.0) ** 2
        got = _quadratic_peak(values, 2, 2, self.XS, self.RS)
        assert got == pytest.approx(lstsq_peak(values, 2, 2, self.XS, self.RS), abs=1e-12)
        assert got[:2] == (self.XS[3], self.RS[1])

    @pytest.mark.parametrize("i, j", [(0, 2), (4, 2), (2, 0), (2, 4), (0, 0)])
    def test_edge_keeps_grid_node(self, i, j):
        values = np.random.default_rng(4).normal(size=(5, 5))
        assert _quadratic_peak(values, i, j, self.XS, self.RS) == (
            self.XS[i], self.RS[j], values[i, j])

class TestNormalization:
    def test_vacuum_completeness(self, vacuum_seed):
        seed, vac = vacuum_seed
        val = normalization_check(seed, vac, (-1000.0, 1000.0, -8.0, 9.0))
        assert val == pytest.approx(1.0, abs=1e-2)

    def test_coherent_completeness(self):
        c2 = make_coherent(2.0)
        seed = build_ml_seed(c2)
        val = normalization_check(seed, c2, (-1000.0, 1000.0, -8.0, 9.0))
        assert val == pytest.approx(1.0, abs=1e-2)

    def test_window_monotone(self):
        c2 = make_coherent(2.0)
        seed = build_ml_seed(c2)
        wide = normalization_check(seed, c2, (-1000.0, 1000.0, -8.0, 9.0))
        narrow = normalization_check(seed, c2, (-1.0, 1.0, -1.0, 1.0))
        assert narrow < wide

    def test_grid_mismatch(self, vacuum_seed):
        seed, _ = vacuum_seed
        with pytest.raises(GridMismatch):
            normalization_check(seed, make_vacuum(grids.QuadratureGrid(10.0, 2048)),
                                (-1.0, 1.0, -1.0, 1.0))


def band_integral(h1, h2, dy, lo, hi):
    """integral_lo^hi FT[h1] conj(FT[h2]) dx as the oracles evaluate it."""
    spectrum = _band_spectrum(len(h1), dy, lo, hi)
    f1 = np.fft.fft(h1, len(spectrum))
    f2 = np.fft.fft(h2, len(spectrum))
    return dy * dy * complex(np.vdot(f2, f1 * spectrum))


def simpson_integral(h1, h2, y, dy, lo, hi, nx=40001):
    """The same integral by composite Simpson over nx x nodes."""
    xs = np.linspace(lo, hi, nx)
    w = np.ones(nx)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    ft = fourier_at(xs, y, np.stack([h1, h2], axis=1) * dy)
    return complex((ft[:, 0] * np.conj(ft[:, 1]) * w).sum() * (xs[1] - xs[0]) / 3.0)


class TestBandIntegral:
    @pytest.fixture(scope="class")
    def kernels(self):
        grid = default_grid(0.0)
        y = grid.nodes
        h1 = np.exp(-(y - 1.0) ** 2 + 6.0j * y)  # transform centred at x = 3
        h2 = y * np.exp(-0.5 * y ** 2 + 4.0j * y)  # and at x = 2
        return y, grid.dy, h1, h2

    @pytest.mark.parametrize("lo, hi, pair", [
        (-1.0, 1.0, "same"),
        (0.5, 4.0, "same"),
        (0.5, 4.0, "mixed"),
        (-2.0, 7.0, "mixed"),
    ], ids=["narrow-symmetric", "offset", "offset-mixed", "wide-mixed"])
    def test_matches_simpson(self, kernels, lo, hi, pair):
        y, dy, h1, h2 = kernels
        other = h1 if pair == "same" else h2
        value = band_integral(h1, other, dy, lo, hi)
        ref = simpson_integral(h1, other, y, dy, lo, hi)
        assert abs(value - ref) <= 1e-10 * abs(ref)

    def test_window_wider_than_band_is_parseval(self, kernels):
        _, dy, h1, h2 = kernels
        parseval = math.pi * dy * complex(np.vdot(h2, h1))
        for lo, hi in ((-math.pi / dy, math.pi / dy), (-1e6, 2e6)):
            value = band_integral(h1, h2, dy, lo, hi)
            assert abs(value - parseval) <= 1e-12 * abs(parseval)

    def test_additive_in_window(self, kernels):
        _, dy, h1, h2 = kernels
        whole = band_integral(h1, h2, dy, -2.0, 7.0)
        split = band_integral(h1, h2, dy, -2.0, 2.5) + band_integral(h1, h2, dy, 2.5, 7.0)
        assert abs(split - whole) <= 1e-12 * abs(whole)

    # windows past the band |x| <= pi/(2 dy) = 2 pi are clipped to it, the
    # last one on both sides, where T(m) = (pi/dy) delta_m0
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("lo, hi", [(-1.5, 1.5), (0.3, 2.5), (-40.0, 2.0), (-1e3, 1e3)],
                             ids=["symmetric", "asymmetric", "clipped-below", "clipped-both"])
    def test_matches_dense_toeplitz(self, n, lo, hi):
        """dy^2 sum F1 conj(F2) K against dy^2 h2^H T h1, with T_lk = T(k - l)
        the integral of e^{-2i x (k - l) dy} over the clipped window."""
        dy = 0.25
        band = math.pi / (2.0 * dy)
        clo, chi = max(lo, -band), min(hi, band)
        rng = np.random.default_rng(n)
        h1, h2 = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        m = np.subtract.outer(np.arange(n), np.arange(n)).T * dy  # (k - l) dy at [l, k]
        with np.errstate(divide="ignore", invalid="ignore"):
            toeplitz = (np.exp(-2j * chi * m) - np.exp(-2j * clo * m)) / (-2j * m)
        toeplitz[m == 0] = chi - clo
        ref = dy * dy * complex(np.conj(h2) @ toeplitz @ h1)
        value = band_integral(h1, h2, dy, lo, hi)
        assert abs(value - ref) <= 1e-13 * abs(ref)

    # the second window reaches past the band |x| <= pi/(2 dy) on one side only
    @pytest.mark.parametrize("window", [(-1.0, 1.0, -1.0, 1.0), (-1.0, 1000.0, -7.0, -5.0)],
                             ids=["narrow", "one-side-clipped"])
    def test_normalization_matches_simpson(self, window):
        c2 = make_coherent(2.0)
        seed = build_ml_seed(c2)
        value = normalization_check(seed, c2, window, r_resolution=8)
        y, dy = c2.grid.nodes, c2.grid.dy
        band = math.pi / (2.0 * dy)
        x_lo, x_hi, r_lo, r_hi = window
        r_nodes = np.linspace(r_lo, r_hi, 8)
        ref = 0.0
        for r, wgt in zip(r_nodes, _trapezoid_weights(r_nodes)):
            scale = math.exp(-r)
            kernel = np.conj(seed.eta.amplitudes) * c2.evaluate_at(scale * y)
            lo, hi = sorted((-scale * x_lo, -scale * x_hi))
            ref += wgt * scale * simpson_integral(kernel, kernel, y, dy, max(lo, -band),
                                                  min(hi, band)).real
        assert value == pytest.approx(ref, rel=1e-9)


class TestGroupAverage:
    def test_odd_state_matches_closed_form(self):
        grid = default_grid(0.0)
        psi = _odd_state(grid)
        num = group_average_sandwich(psi, psi, psi, psi, (-12, 12, -8, 8))
        ref = closed_form_sandwich(psi, psi, psi, psi)
        assert abs(num - ref) / abs(ref) < 0.01
        # closed form for this state is sqrt(2 pi)
        assert ref.real == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-6)

    def test_cross_sector_blocks_vanish(self):
        grid = default_grid(0.0)
        psi = _odd_state(grid)
        u = make_displaced_squeezed(3.0, 0.7, grid=grid)
        v = make_displaced_squeezed(-3.0, 0.7, grid=grid)
        val = group_average_sandwich(psi, psi, u, v, (-12, 12, -8, 8))
        assert abs(val) < 1e-6

    def test_modular_rescaling(self):
        grid = default_grid(0.0)
        psi = _odd_state(grid)
        window = (-12, 12, -8, 8)
        base = group_average_sandwich(psi, psi, psi, psi, window)
        h = GroupElement(0.0, 0.5)
        moved = act(h, psi, grid=grid)
        val = group_average_sandwich(moved, moved, psi, psi, window)
        assert abs(val) / abs(base) == pytest.approx(
            math.exp(0.5), rel=1e-3)

    def test_inadmissible_states_rejected(self):
        vac = make_vacuum()
        with pytest.raises(DivergenceDetected):
            group_average_sandwich(vac, vac, vac, vac, (-12, 12, -8, 8))

    @pytest.mark.parametrize("other", ["phi", "u", "v"])
    def test_grid_mismatch(self, other):
        psi = _odd_state(default_grid(0.0))
        states = dict.fromkeys(("phi", "u", "v"), psi)
        states[other] = _odd_state(grids.QuadratureGrid(10.0, 2048))
        with pytest.raises(GridMismatch):
            group_average_sandwich(psi, *states.values(), (-12, 12, -8, 8))


class TestScreenOncePerPair:
    """group_average_sandwich keeps its admissibility screen for the last
    (phi, psi) pair, so closed_form_sandwich of that pair does not repeat it."""

    @staticmethod
    def count_screen_sums(monkeypatch):
        """Grid sizes of the ``_sector_sum`` calls that ``sector_integral``
        makes; the closed form's own <u| theta(sY) |v> sums are not counted."""
        return spy(monkeypatch, grids, "_sector_sum",
                   lambda phi, psi, grid, sign, power: (grid.n, sign, power))

    def test_oracle_and_closed_form_screen_once(self, monkeypatch):
        grid = default_grid(0.0)
        sizes = self.count_screen_sums(monkeypatch)
        fresh = _odd_state(grid)
        _screened_cross_terms(fresh, fresh)
        single = list(sizes)
        sizes.clear()
        psi = _odd_state(grid)
        group_average_sandwich(psi, psi, psi, psi, (-12, 12, -8, 8), r_resolution=8)
        closed_form_sandwich(psi, psi, psi, psi)
        assert single and sizes == single

    def test_screen_refused_on_the_cap(self, monkeypatch):
        # a start on the cap leaves no doubling for the growth screen
        sizes = self.count_screen_sums(monkeypatch)
        psi = make_vacuum(grids.QuadratureGrid(10.0, grids.MAX_NODES))
        with pytest.raises(GridTooNarrow, match="screening"):
            _screened_cross_terms(psi, psi)
        assert sizes == []

    def test_new_state_or_pair_screens_again(self, monkeypatch):
        grid = default_grid(0.0)
        sizes = self.count_screen_sums(monkeypatch)

        def screens():  # each screen starts with the + sector on the state's grid
            return sizes.count((grid.n, +1, -1))

        psi = _odd_state(grid)
        first = closed_form_sandwich(psi, psi, psi, psi)
        assert closed_form_sandwich(psi, psi, psi, psi) == first and screens() == 1
        other = _odd_state(grid)  # equal samples, another state
        assert closed_form_sandwich(other, other, other, other) == first and screens() == 2
        coherent = make_coherent(3.0, grid=grid)
        closed_form_sandwich(psi, coherent, psi, psi)  # the pair (coherent, psi)
        closed_form_sandwich(coherent, psi, psi, psi)  # and (psi, coherent)
        assert screens() == 4

    def test_cached_terms_read_only(self):
        psi = _odd_state(default_grid(0.0))
        terms = _screened_cross_terms(psi, psi)
        with pytest.raises(TypeError):
            terms[+1] = 0.0
        assert _screened_cross_terms(psi, psi) is terms
        assert closed_form_sandwich(psi, psi, psi, psi).real == pytest.approx(
            math.sqrt(2.0 * math.pi), rel=1e-6)

    def test_divergence_raised_on_every_call(self):
        vac = make_vacuum()
        for _ in range(2):
            with pytest.raises(DivergenceDetected):
                group_average_sandwich(vac, vac, vac, vac, (-12, 12, -8, 8), r_resolution=8)
            with pytest.raises(DivergenceDetected):
                closed_form_sandwich(vac, vac, vac, vac)
