"""Grid construction, Gaussian states, inner products, half-line moments.

Expected values marked as oracle results were computed with
scipy.integrate.quad against the analytic wavefunctions, independently of
the package's midpoint quadrature.
"""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sqdisp import (ConfigError, DivergenceDetected, GaussianStateParams, GridMismatch,
                    GridTooNarrow, QuadratureGrid, StateVector, default_grid,
                    half_line_moment, inner_product, make_coherent,
                    make_displaced_squeezed, make_sampled, make_vacuum, optimal_likelihood)
from sqdisp.distribution import _map_shape
from sqdisp.grids import (_FFT_LENGTHS, _SUM_PASS, MAX_NODES, _chirp, _fft_length,
                          _NotAKnotSpline, _sector_sum, _solve_141, fourier_at, phase_dy,
                          refine_by_doubling, resolving_grid)
from sqdisp.validate import _odd_state

from helpers import spy, traced

VACUUM_PEAK = (2.0 / math.pi) ** 0.25           # 0.8932438417380024
VACUUM_HALF_MOMENT = math.sqrt(2.0 / math.pi) / 4.0  # 0.19947114020071635


def coherent_wave(a):
    return lambda y: (2.0 / math.pi) ** 0.25 * math.exp(-(y - a) ** 2)


class TestQuadratureGrid:
    def test_nodes_symmetric_and_offset(self):
        for y_max, n in ((10.0, 4096), (3.5, 64), (17.0, 1024)):
            g = QuadratureGrid(y_max, n)
            assert np.all(g.nodes + g.nodes[::-1] == 0.0)
            assert not np.any(g.nodes == 0.0)
            assert np.all(np.diff(g.nodes) > 0)
            assert g.nodes[0] == pytest.approx(-y_max + g.dy / 2.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            QuadratureGrid(10.0, 7)
        with pytest.raises(ValueError):
            QuadratureGrid(-1.0, 64)
        with pytest.raises(ConfigError, match="exceeds"):
            QuadratureGrid(10.0, 2 * MAX_NODES)

    @pytest.mark.parametrize("n", [512.0, np.float64(512.0), 512.5, "512"])
    def test_non_integral_n_rejected(self, n):
        # a float n used to pass the parity check and crash in the oracle
        with pytest.raises(ValueError, match="^n must be an integer"):
            QuadratureGrid(10.0, n)

    @pytest.mark.parametrize("n", [np.int64(512), np.int32(512), np.uint16(512)])
    def test_n_of_any_integer_type(self, n):
        from sqdisp import build_ml_seed, normalization_check
        grids = [QuadratureGrid(10.0, size) for size in (512, n)]
        assert grids[0] == grids[1] and type(grids[1].n) is int
        assert np.array_equal(grids[0].nodes, grids[1].nodes) and grids[0].dy == grids[1].dy
        checks = []
        for grid in grids:
            vac = make_vacuum(grid)
            checks.append(normalization_check(build_ml_seed(vac), vac, (-1.0, 1.0, -1.0, 1.0), 16))
        assert checks[0] == checks[1]

    def test_default_grid_sizing(self):
        g = default_grid(10.0)
        assert g.y_max == pytest.approx(20.0)
        g = default_grid(2.0, log_width=-1.0)
        assert g.y_max == pytest.approx(2.0 + 10.0 * math.e / math.sqrt(2.0))

    @pytest.mark.parametrize("z, n", [(0.0, 4096), (5.0, 16384), (9.0, 2**19)])
    def test_default_grid_resolves_squeezing(self, z, n):
        g = default_grid(5.0, z)
        assert g.n == n
        assert g.dy <= 0.5 * math.exp(-z)
        if n > 4096:  # the smallest such power of two
            assert 2.0 * g.dy > 0.5 * math.exp(-z)

    def test_default_grid_rejects_unresolvable_squeezing(self):
        with pytest.raises(GridTooNarrow, match="nodes"):
            default_grid(5.0, 9.5)
        assert default_grid(5.0, 9.5, n=4096).n == 4096

    @pytest.mark.parametrize("n", [3000, 4096])
    def test_resolving_grid_keeps_a_fine_grid(self, n):
        grid = QuadratureGrid(10.0, n)
        assert resolving_grid(grid, 10.0, grid.dy) is grid
        assert resolving_grid(grid, 10.0, 2.0 * grid.dy) is grid

    def test_resolving_grid_takes_next_power_of_two(self):
        grid = QuadratureGrid(10.0, 3000)
        assert resolving_grid(grid, 10.0, 0.9 * grid.dy) == QuadratureGrid(10.0, 4096)
        # a wider window keeps at least grid's spacing: 40 / (20 / 3000) = 6000 nodes
        assert resolving_grid(grid, 20.0, 1.0) == QuadratureGrid(20.0, 8192)
        assert resolving_grid(grid, 10.0, 20.0 / 8192) == QuadratureGrid(10.0, 8192)

    def test_resolving_grid_refuses_past_max_nodes(self):
        grid = QuadratureGrid(10.0, 4096)
        assert resolving_grid(grid, 10.0, 20.0 / MAX_NODES).n == MAX_NODES
        with pytest.raises(GridTooNarrow, match="nodes"):
            resolving_grid(grid, 10.0, 0.99 * 20.0 / MAX_NODES)

    def test_phase_dy_sixteen_nodes_per_period(self):
        # e^{-2i f y} has period pi / |f|; frequencies below 1 get the spacing of 1
        assert phase_dy(0.5) == phase_dy(-1.0) == math.pi / 8.0
        assert phase_dy(-40.0) == math.pi / 320.0


class TestGaussianStates:
    def test_vacuum_peak_value(self):
        vac = make_vacuum()
        assert vac.evaluate_at(np.array([0.0]))[0].real == pytest.approx(
            VACUUM_PEAK, abs=1e-14)

    def test_coherent_norm(self):
        psi = make_coherent(3.0)
        assert abs(psi.norm_certificate - 1.0) < 1e-10

    def test_coherent_mean(self):
        psi = make_coherent(5.0)
        y = psi.grid.nodes
        mean = float(np.sum(y * psi.probability_density()) * psi.grid.dy)
        assert mean == pytest.approx(5.0, abs=1e-10)

    def test_grid_too_narrow(self):
        with pytest.raises(GridTooNarrow):
            make_coherent(5.0, grid=QuadratureGrid(6.0, 256))

    def test_squeezed_reduces_to_coherent_at_z0(self):
        grid = default_grid(1.5)
        a = make_coherent(1.5, grid=grid)
        b = make_displaced_squeezed(1.5, 0.0, grid=grid)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_squeezed_variance(self):
        # oracle: quad of y^2 |psi|^2 for a=0, z=0.5; closed form e^{-1}/4
        z = 0.5
        dens = lambda y: math.sqrt(2.0 * math.exp(2 * z) / math.pi) * math.exp(
            -2.0 * math.exp(2 * z) * y * y)
        oracle = quad(lambda y: y * y * dens(y), -10, 10)[0]
        assert oracle == pytest.approx(math.exp(-1.0) / 4.0, rel=1e-10)
        psi = make_displaced_squeezed(0.0, z)
        var = float(np.sum(psi.grid.nodes ** 2 * psi.probability_density())
                    * psi.grid.dy)
        assert var == pytest.approx(oracle, rel=1e-9)

    def test_squeezed_norm(self):
        psi = make_displaced_squeezed(2.0, -1.0)
        assert abs(psi.norm_certificate - 1.0) < 1e-10

    def test_evaluator_matches_samples(self):
        psi = make_displaced_squeezed(1.0, 0.3)
        direct = psi.evaluator(psi.grid.nodes)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(psi.amplitudes - direct)) <= 1e-12 * scale

    @staticmethod
    def gaussian_reference(p, y, phase=True):
        """(2s/pi)^{1/4} e^{-s (y - a)^2} e^{-2icy} with s = e^{2z}, as written."""
        s = math.exp(2.0 * p.log_width)
        wave = np.exp(-s * (y - p.center) ** 2).astype(complex)
        if phase:
            wave = wave * np.exp(-2.0j * p.linear_phase * y)
        return (2.0 * s / math.pi) ** 0.25 * wave

    def scan_chunks(self):
        # the points a scan chunk evaluates: e^{r'} y, one row per r
        y = default_grid(0.0).nodes
        rng = np.random.default_rng(6)
        for _ in range(40):
            params = GaussianStateParams(rng.uniform(-8, 8), rng.uniform(-1.5, 1.5),
                                         rng.uniform(-5, 5))
            yield params, np.outer(np.exp(rng.uniform(-2, 2, size=3)), y)

    def test_evaluator_without_phase_is_bit_identical(self):
        for params, y in self.scan_chunks():
            params = GaussianStateParams(params.center, params.log_width)
            got = params(y)
            assert got.dtype == complex and got.shape == y.shape
            assert got.tobytes() == self.gaussian_reference(params, y, phase=False).tobytes()

    def test_evaluator_bit_identical_to_its_formula(self):
        # real arithmetic in place, with the phase and amplitude applied in the order
        # of the formula as written, so every value rounds as gaussian_reference's
        rng = np.random.default_rng(26)
        for draw in range(60):
            params = GaussianStateParams(rng.uniform(-8, 8), rng.uniform(-3, 3),
                                         rng.uniform(-5, 5) if draw % 3 else 0.0)
            y = rng.uniform(-12, 12, size=(3, 257))
            assert np.array_equal(params(y), self.gaussian_reference(params, y))

    def test_evaluator_with_phase(self):
        for params, y in self.scan_chunks():
            ref = self.gaussian_reference(params, y)
            normal = np.abs(ref) > 1e-290  # relative error means nothing in subnormals
            got = params(y)
            assert np.all(np.abs(got[~normal]) < 1e-289)
            rel = np.abs(got[normal] - ref[normal]) / np.abs(ref[normal])
            assert rel.max() <= 1e-15

    @pytest.mark.parametrize("z", [-14.0, 14.0, -800.0, 800.0, math.nan])
    def test_log_width_beyond_ln_max_nodes_rejected(self, z):
        # e^{|z|} would exceed the largest grid's node count; default_grid used to
        # raise ZeroDivisionError (z = 800) or OverflowError (z = -800) here
        for grid in (None, QuadratureGrid(10.0, 64)):
            with pytest.raises(ConfigError, match="^z must lie in"):
                make_displaced_squeezed(0.0, z, grid=grid)
        for n in (None, 64):
            with pytest.raises(ConfigError, match="^z must lie in"):
                default_grid(0.0, z, n)

    @pytest.mark.parametrize("center", [math.nan, math.inf])
    def test_non_finite_default_grid_center_rejected(self, center):
        # NaN used to raise a plain ValueError from math.ceil
        for n in (None, 64):
            with pytest.raises(ConfigError, match="^center must be finite"):
                default_grid(center, 0.0, n)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_displacement_rejected(self, a):
        # NaN used to build an all-NaN state on a given grid, which build_ml_seed
        # then refused as EmptySupport; inf ended in GridTooNarrow
        for grid in (None, QuadratureGrid(10.0, 64)):
            with pytest.raises(ConfigError, match="^a must be finite"):
                make_coherent(a, grid=grid)
            with pytest.raises(ConfigError, match="^a must be finite"):
                make_displaced_squeezed(a, 0.3, grid=grid)

    def test_amplitudes_read_only(self):
        psi = make_vacuum()
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0

    def test_amplitudes_of_wrong_length_rejected(self):
        with pytest.raises(ConfigError, match="do not match n = 64"):
            StateVector(QuadratureGrid(10.0, 64), np.ones(62))


class TestInnerProduct:
    def test_self_overlap(self):
        psi = make_displaced_squeezed(1.2, 0.4)
        assert inner_product(psi, psi).real == pytest.approx(1.0, abs=1e-12)

    def test_coherent_overlap_closed_form(self):
        grid = default_grid(0.0)
        c0 = make_coherent(0.0, grid=grid)
        c1 = make_coherent(1.0, grid=grid)
        assert inner_product(c0, c1).real == pytest.approx(
            math.exp(-0.5), rel=1e-10)

    def test_reflection_symmetry(self):
        grid = default_grid(0.0)
        c0 = make_coherent(0.0, grid=grid)
        plus = inner_product(c0, make_coherent(1.0, grid=grid))
        minus = inner_product(c0, make_coherent(-1.0, grid=grid))
        assert plus == pytest.approx(minus, rel=1e-12)

    def test_conjugate_symmetry(self):
        grid = default_grid(0.0)
        a = make_displaced_squeezed(0.5, 0.2, grid=grid)
        b = make_displaced_squeezed(-0.3, -0.1, grid=grid)
        assert inner_product(a, b) == pytest.approx(
            np.conj(inner_product(b, a)), rel=1e-12)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            inner_product(make_vacuum(default_grid(0.0)),
                          make_coherent(0.0, grid=QuadratureGrid(10.0, 2048)))


class TestHalfLineMoments:
    def test_vacuum_first_moment_oracle(self):
        # oracle: quad of y |psi|^2 over y > 0
        oracle = quad(lambda y: y * coherent_wave(0.0)(y) ** 2, 0, 10)[0]
        assert oracle == pytest.approx(VACUUM_HALF_MOMENT, rel=1e-10)
        vac = make_vacuum()
        assert half_line_moment(vac, +1, 1) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("sign", [0, 2, 1.0, -1.0])
    def test_sign_other_than_plus_or_minus_one_rejected(self, sign):
        with pytest.raises(ConfigError, match="^sign must be"):
            half_line_moment(make_vacuum(), sign, 1)

    @pytest.mark.parametrize("sign", [np.int64(1), np.int32(-1), True],
                             ids=["int64", "int32", "bool"])
    def test_sign_of_any_integer_type(self, sign):
        vac = make_vacuum()
        assert half_line_moment(vac, sign, 1) == half_line_moment(vac, int(sign), 1)

    def test_vacuum_sector_symmetry(self):
        vac = make_vacuum()
        wp = _sector_sum(vac, vac, vac.grid, +1, 1)
        wm = _sector_sum(vac, vac, vac.grid, -1, 1)
        assert wp == pytest.approx(wm, rel=1e-12)

    def test_excited_coherent_moments(self):
        c10 = make_coherent(10.0)
        assert half_line_moment(c10, +1, 1) == pytest.approx(10.0, abs=1e-3)
        assert half_line_moment(c10, -1, 1) < 1e-12

    def test_strongly_squeezed_moment(self):
        # the default grid resolves |psi|^2 of std 0.5 e^{-9} = 6e-5
        psi = make_displaced_squeezed(5.0, 9.0)
        assert half_line_moment(psi, +1, 1) == pytest.approx(5.0, rel=1e-9)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(a=st.floats(-12.0, 12.0), z=st.floats(-1.0, 3.0), sign=st.sampled_from([1, -1]))
    def test_displaced_squeezed_first_moment_closed_form(self, a, z, sign):
        # E[|Y|; sY > 0] = sigma phi(a/sigma) + s a Phi(s a/sigma), sigma = e^{-z}/2,
        # in 40 digits: the two terms cancel deep in the far sector, where the library
        # takes Mills' ratio by its continued fraction; what is left, 1.3e-13 at worst
        # on these draws and 2.5e-13 on 3000 others, is e^{-t^2/2} of the rounded
        # t = |a|/sigma, about eps t^2 (1.3e-10 here with the direct difference)
        with mpmath.workdps(40):
            sigma = mpmath.exp(-mpmath.mpf(z)) / 2
            t = mpmath.mpf(a) / sigma
            ref = float(sigma * mpmath.npdf(t) + sign * a * mpmath.ncdf(sign * t))
        if ref >= 1e-290:
            value = half_line_moment(make_displaced_squeezed(a, z), sign, 1)
            assert abs(value - ref) <= 4e-13 * ref, (value, ref)

    @pytest.mark.parametrize("z", [2.0, 4.0])
    def test_squeezed_vacuum_first_moment(self, z):
        # the O(dy^2) endpoint error at y = 0 is extrapolated away below the cap
        sigma = 0.5 * math.exp(-z)
        value = half_line_moment(make_displaced_squeezed(0.0, z), +1, 1)
        assert value == pytest.approx(sigma / math.sqrt(2.0 * math.pi), rel=1e-9)

    def test_partition_identity(self):
        psi = make_displaced_squeezed(0.7, 0.2)
        wp, wm, full = (_sector_sum(psi, psi, psi.grid, s, 1) for s in (+1, -1, 0))
        assert wp + wm == pytest.approx(full, rel=1e-14)

    def test_divergence_detected_for_vacuum_inverse_moment(self):
        with pytest.raises(DivergenceDetected):
            half_line_moment(make_vacuum(), +1, -1)

    def test_inverse_moment_converges_off_origin(self):
        c6 = make_coherent(6.0)
        val = half_line_moment(c6, +1, -1)
        # oracle: quad of |psi|^2 / y
        oracle = quad(lambda y: coherent_wave(6.0)(y) ** 2 / y, 1e-6, 16,
                      limit=200)[0]
        assert val == pytest.approx(oracle, rel=1e-6)

    def test_doubling_stability(self):
        vac = make_vacuum()
        finer = make_vacuum(default_grid(0.0, n=8192))
        a = half_line_moment(vac, +1, 1)
        b = half_line_moment(finer, +1, 1)
        assert a == pytest.approx(b, rel=1e-8)


class TestWorkPerGrid:
    """A doubling sequence evaluates psi once per grid, on the sector's half
    of the nodes: n/2, n, 2n, ... points for a start grid of n nodes."""

    @staticmethod
    def doubling_runs(psi, sizes, call):
        """The doubling runs in ``sizes``, where a spy notes the point count of each
        evaluation of psi that ``call()`` makes."""
        call()
        half = psi.grid.n // 2
        runs = []
        for size in sizes:
            if size == half:
                runs.append(1)
            else:
                assert runs and size == half * 2 ** runs[-1], sizes
                runs[-1] += 1
        return runs

    def test_half_line_moment(self, monkeypatch):
        # a sampled state: a Gaussian's power-1 moment is in closed form, with no grid;
        # each grid reads the spline at its nodes' offsets, none evaluates it pointwise
        psi = _odd_state(default_grid(0.0))
        sizes = spy(monkeypatch, _NotAKnotSpline, "on_refined", lambda _, m, j0, j1: j1 - j0)
        pointwise = spy(monkeypatch, psi, "evaluate_at", np.size)
        runs = self.doubling_runs(psi, sizes, lambda: half_line_moment(psi, +1, 1))
        assert len(runs) == 1 and runs[0] >= 2
        assert max(sizes) <= _SUM_PASS and pointwise == []

    def test_cross_terms(self, monkeypatch):
        from sqdisp.distribution import _screened_cross_terms
        psi = make_displaced_squeezed(4.0, 0.2)
        sizes = spy(monkeypatch, psi, "evaluate_at", np.size)
        runs = self.doubling_runs(psi, sizes, lambda: _screened_cross_terms(psi, psi))
        assert len(runs) == 2 and min(runs) >= 2

    def test_no_grid_above_the_cap(self):
        # off the powers of two, the sequence stops where a doubling would
        # pass MAX_NODES, rather than evaluating a grid above it
        sizes = []
        refine_by_doubling(QuadratureGrid(1.0, 3 * 2**18),
                           lambda grid: sizes.append(grid.n) or float(grid.n))
        assert sizes == [3 * 2**18]


    @pytest.mark.parametrize("kind", ["gaussian", "sampled"])
    def test_half_line_sum_leaves_nodes_unbuilt(self, kind, monkeypatch):
        """A half-line sum reads the halves of ``nodes`` bit for bit, in passes of
        at most _SUM_PASS nodes, and builds no ``nodes``: a Gaussian evaluates them, a
        sampled state reads its spline at their indices (``on_refined``).  It sums to what
        those halves give: exactly on a refined default grid, whose halves are one pass
        each, and to round-off on a grid whose halves take one and a half passes."""
        grid = default_grid(0.0)
        psi = (make_displaced_squeezed(1.0, 0.2, grid) if kind == "gaussian"
               else make_sampled(grid, np.exp(-(grid.nodes - 1.0) ** 2)))
        evaluate = psi.evaluate_at
        if kind == "gaussian":
            seen = spy(monkeypatch, psi, "evaluate_at", np.array)
        else:
            seen = spy(monkeypatch, _NotAKnotSpline, "on_refined",
                       lambda _, m, j0, j1: range(j0, j1))
        cases = [(s, p) for s in (+1, -1) for p in (1, -1)]
        for fine, passes, rtol in ((grid.refined(), 1, 0.0),
                                   (QuadratureGrid(grid.y_max, 3 * _SUM_PASS), 2, 1e-14)):
            seen.clear()
            sums = [_sector_sum(psi, psi, fine, s, p) for s, p in cases]
            assert "nodes" not in vars(fine)
            read = [y if kind == "gaussian" else fine.nodes[y] for y in seen]
            half = fine.n // 2
            for k, ((s, p), total) in enumerate(zip(cases, sums)):
                part = fine.nodes[half:] if s > 0 else fine.nodes[:half]
                runs = read[k * passes:(k + 1) * passes]
                assert max(len(y) for y in runs) <= _SUM_PASS
                assert np.array_equal(np.concatenate(runs), part)
                f = np.abs(evaluate(part)) ** 2 * np.abs(part) ** p
                assert abs(total - float(np.sum(f) * fine.dy)) <= rtol * abs(total)
            assert len(seen) == len(cases) * passes


class TestSplineOnRefinedNodes:
    """``_NotAKnotSpline.on_refined`` reads a sampled state at the nodes of the grid with m n
    nodes on its window by each interval's fixed offsets: what ``evaluate_at`` gives there."""

    @staticmethod
    def state(grid, imaginary):
        y = grid.nodes
        a = np.exp(-(y - 1.0) ** 2) + 0.5 * y * np.exp(-y ** 2)
        return StateVector(grid, a + 0.5j * np.exp(-(y + 1.0) ** 2) if imaginary else a)

    @pytest.mark.parametrize("imaginary", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("m", [2, 4, 64, 256])
    @pytest.mark.parametrize("grid", [QuadratureGrid(10.0, 4096), QuadratureGrid(10.0, 2),
                                      QuadratureGrid(3.0, 6)], ids=lambda g: f"n{g.n}")
    def test_bit_identical_on_dyadic_grids(self, grid, m, imaginary):
        # dy / m exact in binary: every refined node, every y - y_k and so every u of
        # __call__ is exact, and on_refined's Horner runs in __call__'s order
        psi = self.state(grid, imaginary)
        fine = QuadratureGrid(grid.y_max, m * grid.n)
        ref = psi.evaluate_at(fine.nodes)
        got = psi._spline.on_refined(m, 0, fine.n)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        half, n = fine.n // 2, fine.n
        # both end intervals with the nodes outside the file, the interval at y = 0, a run
        # from inside one interval to inside another, and single nodes
        for j0, j1 in ((0, m + 1), (n - m - 1, n), (half - m // 2, half + m // 2),
                       (half - 1, half + 1), (m // 2 + 1, n - m // 2 - 1), (m - 1, m),
                       (half, half + 1)):
            assert np.array_equal(psi._spline.on_refined(m, j0, j1), ref[j0:j1])
        assert np.array_equal(psi.with_grid(fine).amplitudes, ref)

    @pytest.mark.parametrize("grid", [QuadratureGrid(10.0, 4096), QuadratureGrid(10.0, 2)],
                             ids=lambda g: f"n{g.n}")
    def test_own_nodes_are_the_samples(self, grid):
        psi = self.state(grid, True)
        assert np.array_equal(psi._spline.on_refined(1, 0, grid.n), psi.amplitudes)
        assert np.array_equal(psi._at_nodes(grid.nodes, grid, 0), psi.evaluate_at(grid.nodes))

    @pytest.mark.parametrize("imaginary", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("grid, m", [(QuadratureGrid(7.3, 1002), 2),
                                         (QuadratureGrid(7.3, 3000), 256),
                                         (QuadratureGrid(10.7, 1002), 64),
                                         (QuadratureGrid(10.7, 3000), 4),
                                         (QuadratureGrid(10.0, 4096), 24)],
                             ids=lambda v: f"n{v.n}_{v.y_max}" if isinstance(v, QuadratureGrid)
                             else f"m{v}")
    def test_within_rounding_elsewhere(self, grid, m, imaginary):
        # off dyadic grids __call__ rounds u = (y - y_k)/dy from rounded nodes, while
        # on_refined rounds (p + 1/2)/m once; m = 24 is the 3 _SUM_PASS grid of 4096 nodes
        # (measured at most 3.3e-16 of max|a| on these states)
        psi = self.state(grid, imaginary)
        fine = QuadratureGrid(grid.y_max, m * grid.n)
        ref = psi.evaluate_at(fine.nodes)
        bound = 4e-16 * np.max(np.abs(psi.amplitudes))
        assert np.max(np.abs(psi._spline.on_refined(m, 0, fine.n) - ref)) <= bound
        assert np.max(np.abs(psi.with_grid(fine).amplitudes - ref)) <= bound

    @pytest.mark.parametrize("grid", [QuadratureGrid(10.0, 2), QuadratureGrid(10.0, 4),
                                      QuadratureGrid(3.0, 6)], ids=lambda g: f"n{g.n}")
    def test_tiny_grids_cut_their_blocks_inside_an_interval(self, grid, monkeypatch):
        # refined to the largest same-window grid, m = 2^19, 2^18 and 2^17 nodes per
        # interval, more than a pass: each block is the part of an interval that its pass
        # reads, so one sum stays under the 2 MB of every other grid, and on these dyadic
        # grids it is the pointwise spline sum bit for bit
        m = 2 ** (MAX_NODES // grid.n).bit_length() // 2
        fine = QuadratureGrid(grid.y_max, m * grid.n)
        rng = np.random.default_rng(grid.n)
        phi, psi = (StateVector(grid, rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n))
                    for _ in range(2))
        phi._spline, psi._spline  # built outside the traced sums
        cases = [(a, b, s, p) for a, b in ((psi, psi), (phi, psi))
                 for s, p in ((+1, -1), (-1, 1), (0, 0))]
        sizes = spy(monkeypatch, _NotAKnotSpline, "on_refined", lambda _, m, j0, j1: j1 - j0)
        sums = []
        for a, b, s, p in cases:
            total, peak = traced(lambda: _sector_sum(a, b, fine, s, p))
            assert peak < 2e6
            sums.append(total)
        assert m > _SUM_PASS and max(sizes) == _SUM_PASS
        monkeypatch.setattr(StateVector, "_at_nodes", lambda self, y, *_: self.evaluate_at(y))
        assert sums == [_sector_sum(a, b, fine, s, p) for a, b, s, p in cases]


class TestSampledStates:
    def test_normalization_and_interpolation(self):
        grid = default_grid(0.0)
        y = grid.nodes
        psi = make_sampled(grid, y * np.exp(-y ** 2))
        assert abs(psi.norm_certificate - 1.0) < 1e-12
        mid = 0.5 * (y[100] + y[101])
        direct = mid * math.exp(-mid ** 2)
        norm = psi.evaluate_at(np.array([y[100]]))[0].real / (
            y[100] * math.exp(-y[100] ** 2))
        assert psi.evaluate_at(np.array([mid]))[0].real == pytest.approx(
            norm * direct, rel=1e-8)

    def test_zero_outside_window(self):
        grid = QuadratureGrid(5.0, 512)
        psi = make_sampled(grid, np.exp(-grid.nodes ** 2))
        assert psi.evaluate_at(np.array([7.0]))[0] == 0.0

    def test_overflowing_raw_samples_refused(self):
        # the squares of 1e200-scaled samples overflow: a raw state refuses them where it
        # reads them, rather than sum them to inf and nan; make_sampled scales them first,
        # and the squares of 1e150-scaled raw samples still sum finitely
        grid = QuadratureGrid(10.0, 512)
        a = grid.nodes * np.exp(-grid.nodes ** 2)
        with pytest.raises(ConfigError, match="overflow"):
            optimal_likelihood(StateVector(grid, 1e200 * a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_allclose(make_sampled(grid, 1e200 * a).amplitudes,
                                       make_sampled(grid, a).amplitudes, rtol=1e-15, atol=0.0)
            raw = optimal_likelihood(StateVector(grid, 1e150 * a))
            assert raw == pytest.approx(1e300 * optimal_likelihood(StateVector(grid, a)),
                                        rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_amplitudes_rejected(self, bad):
        grid = QuadratureGrid(5.0, 64)
        amps = np.exp(-grid.nodes ** 2).astype(complex)
        amps[20] = bad
        with pytest.raises(ValueError, match="finite"):
            make_sampled(grid, amps)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 66, 68, 70, 132, 4096])
    def test_spline_matches_scipy_not_a_knot(self, n):
        from scipy.interpolate import CubicSpline
        grid = QuadratureGrid(3.0, n)
        rng = np.random.default_rng(n)
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi = StateVector(grid, amps)
        lo, hi = grid.nodes[0], grid.nodes[-1]
        y = np.concatenate([rng.uniform(lo, hi, 20000),      # inside, two chunks
                            rng.uniform(-4.0, 4.0, 2000),    # straddles the window
                            [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                             -3.0, 3.0, np.nan, -np.inf, np.inf]])
        ref = np.nan_to_num(CubicSpline(grid.nodes, amps, extrapolate=False)(y), nan=0.0)
        got = psi.evaluate_at(y)
        assert got.shape == y.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(amps))
        assert np.all(got[-7:] == 0.0)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 66, 68, 70, 132, 4096])
    def test_spline_returns_amplitudes_at_nodes(self, n):
        grid = QuadratureGrid(3.0, n)
        amps = np.exp(-grid.nodes ** 2) * np.exp(1.5j * grid.nodes)
        psi = make_sampled(grid, amps)
        assert np.array_equal(psi.evaluate_at(grid.nodes), psi.amplitudes)

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 4092])
    def test_solve_141_rows_and_ends(self, n):
        # n on both sides of the 64-tap kernel; below it the images wrap
        rng = np.random.default_rng(n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = np.concatenate([[0.0], _solve_141(b), [0.0]])
        residual = x[:-2] + 4.0 * x[1:-1] + x[2:] - b
        assert np.max(np.abs(residual)) <= 1e-14 * np.max(np.abs(b))

    def test_params_object_norm(self):
        p = GaussianStateParams(center=1.0, log_width=0.3, linear_phase=2.0)
        grid = default_grid(1.0, 0.3)
        amps = p(grid.nodes)
        assert float(np.sum(np.abs(amps) ** 2) * grid.dy) == pytest.approx(
            1.0, abs=1e-12)


def dense_fourier(x, y, h, rows=512):
    """sum_k h_k e^{-2i x_j y_k} by explicit phase matrices, ``rows`` x at a time."""
    return np.concatenate([np.exp(-2j * np.outer(x[i:i + rows], y)) @ h
                           for i in range(0, len(x), rows)])


class TestFourierAt:
    # (n, nx, x range, kernel); decreasing ranges are the scan's inverse
    # elements x' = -e^{-r} x, nx = 1 a single-point transform
    @pytest.mark.parametrize("n, nx, x_lo, x_hi, kind", [
        (4096, 128, -4.0, 4.0, "gaussian"),
        (4096, 96, 2.5, -2.5, "gaussian"),
        (8192, 1, 0.7, 0.7, "gaussian"),
        (1024, 1, -3.0, -3.0, "random"),
        (2048, 64, -20.0, 20.0, "stack"),
        (8192, 8192, -30.0, 30.0, "random"),
        (64, 8192, 300.0, -300.0, "stack"),
    ])
    def test_matches_dense_sum(self, n, nx, x_lo, x_hi, kind):
        y = QuadratureGrid(10.0, n).nodes
        x = np.linspace(x_lo, x_hi, nx)
        rng = np.random.default_rng(n + nx)
        if kind == "gaussian":
            h = np.exp(-(y - 1.0) ** 2 - 3.0j * y)
        elif kind == "random":
            h = rng.normal(size=n) + 1j * rng.normal(size=n)
        else:
            h = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        got = fourier_at(x, y, h)
        ref = dense_fourier(x, y, h)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_per_column_grids(self):
        # x of shape (nx, m): column c is its own grid, one of them decreasing
        y = QuadratureGrid(10.0, 2048).nodes
        grids = [(-4.0, 4.0), (2.5, -2.5), (0.3, 7.0)]
        x = np.stack([np.linspace(lo, hi, 96) for lo, hi in grids], axis=1)
        rng = np.random.default_rng(3)
        h = rng.normal(size=(2048, 3)) + 1j * rng.normal(size=(2048, 3))
        got = fourier_at(x, y, h)
        assert got.shape == (96, 3)
        for c in range(3):
            ref = dense_fourier(x[:, c], y, h[:, c])
            assert np.max(np.abs(got[:, c] - ref)) <= 1e-10 * np.max(np.abs(ref))


def smallest_smooth_from(top):
    """For each m <= top, a 2^a 3^b 5^c itself, the smallest 2^a 3^b 5^c >= m: every
    integer up to top divided by 2, 3 and 5 while they divide it, 1 left for those."""
    rest = np.arange(top + 1)
    rest[0] = 7  # 0 is no product of 2, 3 and 5
    for p in (2, 3, 5):
        idx = np.arange(top + 1)
        while len(idx):
            idx = idx[rest[idx] % p == 0]
            rest[idx] //= p
    smooth = np.where(rest == 1, np.arange(top + 1), top)
    return np.minimum.accumulate(smooth[::-1])[::-1]


class TestFftLength:
    def test_matches_brute_force(self):
        smallest = smallest_smooth_from(2**21)
        n = np.concatenate([np.arange(1, 2**16 + 1),
                            np.random.default_rng(28).integers(2**16, 2**21, 5000, endpoint=True)])
        assert [_fft_length(int(k)) for k in n] == smallest[n].tolist()

    def test_table_holds_the_longest_request(self):
        # _row_map transforms nx + n - 1 with nx nr <= MAX_NODES cells, nr >= 16, on
        # n <= MAX_NODES nodes; _group_slices 2n - 1 on n <= MAX_NODES nodes
        nx = MAX_NODES // 16
        assert _map_shape((nx, 16)) == (nx, 16)
        with pytest.raises(ConfigError):
            _map_shape((nx + 1, 16))
        n = QuadratureGrid(1.0, MAX_NODES).n
        with pytest.raises(ConfigError):
            QuadratureGrid(1.0, n + 2)
        longest = max(nx + n - 1, 2 * n - 1)
        assert _fft_length(longest) in _FFT_LENGTHS
        assert _fft_length(longest) >= longest == 2**21 - 1


def exact_chirp(alpha, theta, m):
    """e^{-i (alpha m^2 + theta m)}, its phase reduced modulo one turn in
    rational arithmetic from the doubles alpha/(2 pi) and theta/(2 pi)."""
    turns = (Fraction(alpha / (2.0 * math.pi)) * m * m
             + Fraction(theta / (2.0 * math.pi)) * m) % 1
    return complex(math.cos(2.0 * math.pi * float(turns)),
                   -math.sin(2.0 * math.pi * float(turns)))


CHIRP_POINTS = [0, 1, 63, 64, 65, 4095, 8191, 2**20 - 1]


class TestChirp:
    # alpha m^2 runs far past 2 pi for the larger alpha and m; theta m is the linear
    # phase that fourier_at multiplies into the chirp, _chirp(theta, count, power=1)
    @pytest.mark.parametrize("alpha", [1e-6, 0.0123456, 0.25, 3.7])
    @pytest.mark.parametrize("theta", [0.0, 0.37, -2.9])
    def test_exact_phase(self, alpha, theta):
        chirp, linear = _chirp(alpha, 2**20), _chirp(theta, 2**20, power=1)
        assert chirp.shape == linear.shape == (2**20,)
        for m in CHIRP_POINTS:
            assert abs(chirp[m] - exact_chirp(alpha, 0.0, m)) <= 1e-12
            assert abs(linear[m] - exact_chirp(0.0, theta, m)) <= 1e-12
            assert abs(chirp[m] * linear[m] - exact_chirp(alpha, theta, m)) <= 1e-12

    def test_one_row_per_parameter(self):
        alpha = np.array([1e-6, 0.0123456, 0.25, 3.7])
        theta = np.array([0.37, 0.0, -2.9, 1.1])
        chirp, linear = _chirp(alpha, 8192), _chirp(theta, 8192, power=1)
        assert chirp.shape == linear.shape == (4, 8192)
        for a, t, row, lin in zip(alpha, theta, chirp, linear):
            assert np.max(np.abs(row - _chirp(a, 8192))) <= 1e-15
            assert np.max(np.abs(lin - _chirp(t, 8192, power=1))) <= 1e-15
            for m in CHIRP_POINTS[:-1]:
                assert abs(row[m] * lin[m] - exact_chirp(a, t, m)) <= 1e-12

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("count", [1, 63, 65, 8191])
    def test_counts_off_the_block(self, power, count):
        # a last block of m = B q + p cut short, or the only one
        angle = np.array([0.37, -2.9])
        rows = _chirp(angle, count, power)
        assert rows.shape == (2, count)
        for a, row in zip(angle, rows):
            assert np.array_equal(row, _chirp(a, 8192, power)[:count])
            reference = [exact_chirp(*((a, 0.0) if power == 2 else (0.0, a)), m)
                         for m in range(count)]
            assert np.max(np.abs(row - reference)) <= 1e-12
