"""The one r-slice loop behind both oracles: its input rule, its shortcuts,
the nodes its slices run on, and normalization_check against an exact reference."""

import math

import numpy as np
import pytest

from sqdisp import (ConfigError, QuadratureGrid, default_grid, group_average_sandwich,
                    make_displaced_squeezed, make_vacuum, normalization_check)
from sqdisp import distribution, grids
from sqdisp.distribution import _group_slices
from sqdisp.grids import StateVector
from sqdisp.group import GroupElement, act
from sqdisp.validate import _odd_state

from helpers import spy

NAN, INF = math.nan, math.inf


def normalization(vacuum_seed):
    seed, vac = vacuum_seed
    return lambda window, r_resolution: normalization_check(seed, vac, window, r_resolution)


def group_average(_):
    # a new state per call, so no kept screen hides the screen's own sums
    def call(window, r_resolution):
        psi = _odd_state(default_grid(0.0))
        return group_average_sandwich(psi, psi, psi, psi, window, r_resolution)
    return call


class TestOracleInputs:
    """A bad window or r_resolution raises ValueError before any screen or
    slice runs, by the rule ``scan`` applies to its window; more than
    MAX_NODES slices raise ConfigError there."""

    @pytest.mark.parametrize("oracle", [normalization, group_average],
                             ids=["normalization", "group_average"])
    @pytest.mark.parametrize("window, r_resolution, error", [
        ((-12.0, 12.0, 8.0, -8.0), 16, ValueError),
        ((12.0, -12.0, -8.0, 8.0), 16, ValueError),
        ((-12.0, 12.0, -8.0, -8.0), 16, ValueError),
        ((-12.0, 12.0, NAN, 8.0), 16, ValueError),
        ((-INF, 12.0, -8.0, 8.0), 16, ValueError),
        ((-12.0, 12.0, -8.0, 8.0), 0, ValueError),
        ((-12.0, 12.0, -8.0, 8.0), 1, ValueError),
        ((-12.0, 12.0, -8.0, 8.0), grids.MAX_NODES + 1, ConfigError),
        ((-1.0, 1.0, -1e6, 1e6), 16, ConfigError),
        ((-12.0, 12.0, -8.0, 8.0), 16.5, ValueError),
        ((-12.0, 12.0, -8.0, 8.0), np.float64(16.0), ValueError),
    ], ids=["reversed-r", "reversed-x", "empty-r", "nan", "inf", "r_resolution-0",
            "r_resolution-1", "r_resolution-2^20+1", "r-above-ln-2^20", "r_resolution-16.5",
            "r_resolution-numpy-float"])
    def test_rejected_before_screen(self, monkeypatch, vacuum_seed, oracle, window,
                                    r_resolution, error):
        call = oracle(vacuum_seed)
        sums = spy(monkeypatch, grids, "_sector_sum", lambda *args: args[2].n)
        with pytest.raises(error):
            call(window, r_resolution)
        assert sums == []

    @pytest.mark.parametrize("oracle", [normalization, group_average],
                             ids=["normalization", "group_average"])
    @pytest.mark.parametrize("r_resolution", [np.int64(16), np.int32(16)], ids=["int64", "int32"])
    def test_r_resolution_of_any_integer_type(self, vacuum_seed, oracle, r_resolution):
        call = oracle(vacuum_seed)
        window = (-12.0, 12.0, -8.0, 8.0)
        assert call(window, r_resolution) == call(window, 16)

    def test_inadmissible_pair_with_bad_window_is_value_error(self):
        # the window is checked before the screen would refuse the vacuum
        vac = make_vacuum()
        with pytest.raises(ValueError):
            group_average_sandwich(vac, vac, vac, vac, (-12.0, 12.0, 8.0, -8.0))

    @pytest.mark.parametrize("oracle", [normalization, group_average],
                             ids=["normalization", "group_average"])
    def test_two_slices_accepted(self, vacuum_seed, oracle):
        assert math.isfinite(abs(oracle(vacuum_seed)((-12.0, 12.0, -1.0, 1.0), 2)))


class TestNormalizationExact:
    """normalization_check of the vacuum and its ML seed against a reference
    that shares no kernel with the code.

    With psi = (2/pi)^{1/4} e^{-y^2} and eta = c |y| psi, c = (pi w)^{-1/2},
    w = 1/(2 sqrt(2 pi)): <psi|U_g|eta> = sqrt(2/pi) c e^{3r/2} (1 - 2u D(u))/alpha,
    alpha = 1 + e^{2r}, u = x/sqrt(alpha), D Dawson's function.  So the
    windowed value is  integral dr (2/pi) c^2 e^{2r} alpha^{-3/2}
    integral_{-X/sqrt(alpha)}^{X/sqrt(alpha)} (1 - 2u D(u))^2 du.
    """

    C2 = 2.0 * math.sqrt(2.0 * math.pi) / math.pi  # c^2 = 1/(pi w)

    @staticmethod
    def inner(limit):
        """integral_{-limit}^{limit} (1 - 2u D(u))^2 du; the integrand is even."""
        special = pytest.importorskip("scipy.special")
        from scipy import integrate
        value, _ = integrate.quad(lambda u: (1.0 - 2.0 * u * special.dawsn(u)) ** 2,
                                  0.0, limit, epsabs=0.0, epsrel=1e-13, limit=200)
        return 2.0 * value

    def reference(self, x_max, r_lo, r_hi):
        from scipy import integrate

        def slice_value(r):
            alpha = 1.0 + math.exp(2.0 * r)
            return (2.0 / math.pi * self.C2 * math.exp(2.0 * r) * alpha ** -1.5
                    * self.inner(x_max / math.sqrt(alpha)))

        value, _ = integrate.quad(slice_value, r_lo, r_hi, epsabs=0.0, epsrel=1e-12,
                                  limit=200)
        return value

    def test_formula_is_complete_over_the_group(self):
        from scipy import integrate
        # integral dr e^{2r} alpha^{-3/2} = integral_0^inf dt (1 + t)^{-3/2} / 2 = 1
        r_part, _ = integrate.quad(lambda t: 0.5 * (1.0 + t) ** -1.5, 0.0, math.inf)
        whole = 2.0 / math.pi * self.C2 * self.inner(math.inf) * r_part
        assert whole == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("window, exact", [
        ((-1000.0, 1000.0, -8.0, 9.0), 0.9994766781318699),
        ((-1.0, 1.0, -1.0, 1.0), 0.4644537736892913),
    ], ids=["wide", "narrow"])
    def test_matches_exact(self, vacuum_seed, window, exact):
        x_lo, x_hi, r_lo, r_hi = window
        assert self.reference(x_hi, r_lo, r_hi) == pytest.approx(exact, rel=1e-12)
        seed, vac = vacuum_seed
        value = normalization_check(seed, vac, window, r_resolution=256)
        assert value == pytest.approx(exact, rel=5e-5)


class TestSliceShortcuts:
    """The reuse of psi(e^{r_h} y) for phi and the one FFT for both factors
    give the numbers of the general path, which copies with their own
    identity take."""

    def test_group_average(self):
        psi = _odd_state(default_grid(0.0))
        phi, v = (StateVector(psi.grid, psi.amplitudes) for _ in range(2))
        window = (-12.0, 12.0, -8.0, 8.0)
        fast = group_average_sandwich(psi, psi, psi, psi, window, r_resolution=16)
        general = group_average_sandwich(psi, phi, psi, v, window, r_resolution=16)
        assert abs(general - fast) <= 1e-13 * abs(fast)

    def test_inverse_slices(self, vacuum_seed):
        # the normalization window reaches past the band on its low-r slices,
        # so both the Parseval and the band-spectrum branches run
        seed, vac = vacuum_seed
        window = (-1000.0, 1000.0, -8.0, 9.0)
        eta = seed.eta
        fast = normalization_check(seed, vac, window, r_resolution=16)
        copy = StateVector(vac.grid, vac.amplitudes, vac.evaluator)  # Gaussian
        general = _group_slices(vac, copy, eta,
                                StateVector(eta.grid, eta.amplitudes), window, 16, -1)
        assert abs(general - fast) <= 1e-13 * abs(fast)


class TestSliceSupport:
    """Slices run on the nodes that |u| + |v| occupies, trimmed once per call, and of
    those on the span where psi(e^{sigma r} y) lives, and give the numbers of a dense
    Toeplitz sum over the whole grid."""

    GRID = QuadratureGrid(10.0, 512)  # dy = 5/128: the period |x| <= pi/(2 dy) = 40.2

    @staticmethod
    def dense(psi, phi, u, v, window, r_resolution, sigma):
        """The slice sums written out: dy^2 conj(h2) T h1 with T[j, k] the
        integral of e^{-2i x (k - j) dy} over the x_h band clipped to the period."""
        x_lo, x_hi, r_lo, r_hi = window
        grid = psi.grid
        y, dy, n = grid.nodes, grid.dy, grid.n
        band = math.pi / (2.0 * dy)
        m_dy = (np.arange(n)[None, :] - np.arange(n)[:, None]) * dy
        r_nodes = np.linspace(r_lo, r_hi, r_resolution)
        weights = np.full(r_resolution, r_nodes[1] - r_nodes[0])
        weights[[0, -1]] /= 2.0
        total = 0.0
        for r, wgt in zip(r_nodes, weights):
            c = sigma * math.exp((sigma - 1) * r / 2.0)
            lo, hi = sorted((c * x_lo, c * x_hi))
            lo, hi = max(lo, -band), min(hi, band)
            kernel = (hi - lo) * np.sinc((hi - lo) * m_dy / math.pi) * np.exp(-1j * (hi + lo) * m_dy)
            sy = math.exp(sigma * r) * y
            h1 = np.conj(u.amplitudes) * psi.evaluate_at(sy)
            h2 = np.conj(v.amplitudes) * phi.evaluate_at(sy)
            total += wgt * abs(c) * dy ** 2 * (np.conj(h2) @ kernel @ h1)
        return total

    @pytest.fixture(scope="class")
    def states(self):
        odd = _odd_state(self.GRID)
        u = make_displaced_squeezed(1.0, 0.5, grid=self.GRID)
        v = make_displaced_squeezed(-1.5, -0.3, grid=self.GRID)  # wider than u
        return odd, u, v

    @pytest.mark.parametrize("sigma, window", [
        (+1, (-12.0, 12.0, -2.0, 2.0)),
        (+1, (-100.0, 100.0, -2.0, 2.0)),
        (-1, (-100.0, 100.0, -2.0, 3.0)),
        (+1, (-5.0, 20.0, -2.0, 2.0)),
    ], ids=["plus-band", "plus-period", "minus-both-branches", "plus-asymmetric-band"])
    @pytest.mark.parametrize("shape", ["same", "cross", "phase"])
    def test_matches_dense_reference(self, monkeypatch, states, sigma, window, shape):
        # "phase": u and v with a linear phase take the complex FFT; real factors take rfft,
        # whose folded spectrum has an odd part on a band with x_lo != -x_hi
        odd, u, v = states
        if shape == "same":
            v = u
        if shape == "phase":
            u, v = (act(GroupElement(x, 0.0), s, self.GRID) for x, s in ((1.5, u), (-0.7, v)))
            assert u.amplitudes.imag.any() and v.amplitudes.imag.any()
        sizes = spy(monkeypatch, distribution, "_band_spectrum", lambda n, *args: n)
        got = _group_slices(odd, odd, u, v, window, 9, sigma)
        ref = self.dense(odd, odd, u, v, window, 9, sigma)
        assert abs(got - ref) <= 1e-13 * abs(ref)
        assert all(n < self.GRID.n for n in sizes)
        # on the plus-period window every slice takes the whole-period branch
        assert bool(sizes) == (window[1] < 40.0 or sigma < 0)

    def test_normalization_runs_on_part_of_the_grid(self, monkeypatch, vacuum_seed):
        seed, vac = vacuum_seed
        sizes = spy(monkeypatch, distribution, "_band_spectrum", lambda n, *args: n)
        normalization_check(seed, vac, (-1000.0, 1000.0, -8.0, 9.0), r_resolution=16)
        assert sizes and max(sizes) < vac.grid.n

    @staticmethod
    def slice_nodes(monkeypatch, state, window, r_resolution):
        """The node count of each slice, in r order, of the group average of |state><state|
        between copies of itself: the length of its one evaluation of state per slice."""
        group_average_sandwich(state, state, state, state, window, r_resolution)  # screened
        sizes = spy(monkeypatch, state, "evaluate_at", lambda y: len(y))
        group_average_sandwich(state, state, state, state, window, r_resolution)
        assert len(sizes) == r_resolution
        return sizes

    def test_wide_state_keeps_every_node(self, monkeypatch):
        # psi fills the grid, and psi(e^r y) at r <= 0 is wider still: those slices run on
        # every node
        grid = default_grid(0.0)
        sizes = self.slice_nodes(monkeypatch, _odd_state(grid, 2.5), (-12.0, 12.0, -8.0, 8.0), 4)
        assert sizes[:2] == [grid.n] * 2

    def test_narrow_state_shrinks_its_slices_at_positive_r(self, monkeypatch):
        # r = -2, -1, 0 run on every kept node, r = 1, 2 on at most 2 e^{-r} of them
        sizes = self.slice_nodes(monkeypatch, _odd_state(self.GRID), (-12.0, 12.0, -2.0, 2.0), 5)
        assert sizes[0] == sizes[1] == sizes[2] < self.GRID.n
        assert sizes[2] > sizes[3] > sizes[4]

    @pytest.mark.parametrize("center, evaluated", [(-3.0, 0), (1.0, 7)], ids=["all", "some"])
    def test_slice_off_the_kept_nodes_adds_zero(self, monkeypatch, center, evaluated):
        # psi(e^{-r} y) lives on y in e^r [0.84, 5.14], u on [-5.2, -0.8] or [-1.2, 3.2]: at
        # center 1 the slices r = 1.5, 2 miss it, and at center -3 every slice does
        psi = make_displaced_squeezed(3.0, 1.0, grid=self.GRID)
        u = make_displaced_squeezed(center, 1.0, grid=self.GRID)
        window = (-12.0, 12.0, -2.0, 2.0)
        ref = self.dense(psi, psi, u, u, window, 9, -1)
        sizes = spy(monkeypatch, psi, "evaluate_at", lambda y: len(y))
        got = _group_slices(psi, psi, u, u, window, 9, -1)
        assert len(sizes) == evaluated
        if evaluated:
            assert abs(got - ref) <= 1e-13 * abs(ref)
        else:  # exactly 0, where the whole grid's sum is negligible
            assert got == 0.0 and abs(ref) < 1e-70
