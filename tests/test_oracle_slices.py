"""The one r-slice loop behind both oracles: its input rule, its shortcuts,
and normalization_check against an exact reference."""

import math

import numpy as np
import pytest

from sqdisp import (ConfigError, build_ml_seed, default_grid, group_average_sandwich, make_sampled,
                    make_vacuum, normalization_check)
from sqdisp import grids
from sqdisp.distribution import _group_slices
from sqdisp.grids import StateVector

NAN, INF = math.nan, math.inf


def odd_state(grid):
    y = grid.nodes
    return make_sampled(grid, y * np.exp(-y ** 2))


@pytest.fixture(scope="module")
def vacuum_seed():
    vac = make_vacuum()
    return build_ml_seed(vac), vac


def normalization(vacuum_seed):
    seed, vac = vacuum_seed
    return lambda window, r_resolution: normalization_check(seed, vac, window, r_resolution)


def group_average(_):
    # a new state per call, so no kept screen hides the screen's own sums
    def call(window, r_resolution):
        psi = odd_state(default_grid(0.0))
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
    ], ids=["reversed-r", "reversed-x", "empty-r", "nan", "inf", "r_resolution-0",
            "r_resolution-1", "r_resolution-2^20+1"])
    def test_rejected_before_screen(self, monkeypatch, vacuum_seed, oracle, window,
                                    r_resolution, error):
        call = oracle(vacuum_seed)
        sums = []
        evaluate = grids._sector_sum

        def counting(*args):
            sums.append(args[2].n)
            return evaluate(*args)

        monkeypatch.setattr(grids, "_sector_sum", counting)
        with pytest.raises(error):
            call(window, r_resolution)
        assert sums == []

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
        psi = odd_state(default_grid(0.0))
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
