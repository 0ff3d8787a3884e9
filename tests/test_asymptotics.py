"""Asymptotic Gaussian laws, separate-measurement optima, uncertainty relations."""

import math
import warnings

import numpy as np
import pytest

from sqdisp import asymptotics
from sqdisp import (AsymptoticModel, ConfigError, StateVector, SupportViolation, heisenberg_ratio,
                    isotropic_params, make_coherent, make_displaced_squeezed,
                    model_density, rms_predictions, separate_optima,
                    uncertainty_product_ratio)
# several algebraic-identity tests intentionally probe sub-asymptotic (a, z)
pytestmark = pytest.mark.filterwarnings("ignore:a e.z is small")


class TestModelDensity:
    def test_peak_value(self):
        m = AsymptoticModel(10.0)
        assert model_density(m, 0.0, 0.0) == pytest.approx(10.0 / math.pi)

    def test_x_falloff(self):
        m = AsymptoticModel(10.0)
        assert model_density(m, 1.0, 0.0) == pytest.approx(
            (10.0 / math.pi) * math.exp(-1.0))

    def test_reflection_symmetry(self):
        m = AsymptoticModel(7.0, -0.4)
        assert model_density(m, 0.8, 0.05) == model_density(m, -0.8, -0.05)

    def test_normalized(self):
        for a, z in ((10.0, 0.0), (7.4, -1.0)):
            m = AsymptoticModel(a, z)
            sx = math.exp(z) / math.sqrt(2.0)
            sr = 1.0 / (math.sqrt(2.0) * a * math.exp(z))
            xs = np.linspace(-6 * sx, 6 * sx, 801)
            rs = np.linspace(-6 * sr, 6 * sr, 801)
            X, R = np.meshgrid(xs, rs, indexing="ij")
            vals = (a / math.pi) * np.exp(-(a * math.exp(z) * R) ** 2
                                          - (X * math.exp(-z)) ** 2)
            integral = float(vals.sum()) * (xs[1] - xs[0]) * (rs[1] - rs[0])
            assert integral == pytest.approx(1.0, abs=1e-6)

    def test_requires_positive_amplitude(self):
        with pytest.raises(ValueError):
            AsymptoticModel(-1.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, 1e9])
    def test_log_width_out_of_range_is_config_error(self, z):
        # a NaN z was accepted, and model_density then raised OverflowError on the others
        with pytest.raises(ConfigError, match="z must lie in"):
            AsymptoticModel(10.0, z)


class TestErrorLaws:
    def test_coherent_values(self):
        dx, dr = rms_predictions(10.0)
        assert dx == pytest.approx(1.0 / math.sqrt(2.0))
        assert dr == pytest.approx(1.0 / math.sqrt(200.0))

    @pytest.mark.parametrize("law", [separate_optima, rms_predictions,
                                     uncertainty_product_ratio])
    @pytest.mark.parametrize("a, z", [(1.0, 800.0), (1.0, -14.0), (0.0, 0.0), (-1.0, 0.0),
                                      (math.inf, 0.0), (1e-309, 0.0), (1e308, -13.0)],
                             ids=["z-800", "z-minus-14", "a-0", "a-negative", "a-inf",
                                  "a-1e-309", "a-1e308-z-minus-13"])
    def test_out_of_range_is_config_error(self, law, a, z):
        # z = 800 used to raise OverflowError; refused before the small-a e^z warning.
        # a = inf was accepted: Delta r_opt = 0, and the product ratio divided by zero.
        # Past the float range separate_optima returned (0.5, inf) for a = 1e-309, whose
        # product ratio was nan, and (1.13e-6, 0.0) for a = 1e308, z = -13, where 2a overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError):
                law(a, z)

    def test_separate_optima_values(self):
        assert separate_optima(10.0) == (0.5, 0.05)

    def test_sqrt2_relation_exact(self):
        for a, z in ((10.0, 0.0), (5.0, -0.7), (50.0, 0.3)):
            dx, dr = rms_predictions(a, z)
            ox, orr = separate_optima(a, z)
            assert dx == math.sqrt(2.0) * ox
            assert dr == math.sqrt(2.0) * orr

    def test_product_ratio_is_two(self):
        for a, z in ((10.0, 0.0), (5.0, -0.7), (50.0, 0.3)):
            assert abs(uncertainty_product_ratio(a, z) - 2.0) < 1e-12

    def test_isotropy_choice(self):
        z = -1.0
        a = math.exp(-2.0 * z)
        dx, dr = rms_predictions(a, z)
        assert dx == pytest.approx(dr, rel=1e-12)

    def test_amplitude_scaling(self):
        dx1, dr1 = rms_predictions(10.0)
        dx2, dr2 = rms_predictions(20.0)
        assert dx2 == dx1
        assert dr2 == pytest.approx(dr1 / 2.0)

    def test_warns_outside_asymptotic_regime(self):
        with pytest.warns(UserWarning):
            rms_predictions(1.0, 0.0)


class TestHeisenbergRatio:
    def test_saturation_coherent_like(self):
        psi = make_displaced_squeezed(50.0, 0.0)
        assert heisenberg_ratio(psi, 50.0) == pytest.approx(1.0, abs=0.02)

    def test_saturation_squeezed(self):
        psi = make_displaced_squeezed(50.0, -0.5)
        assert heisenberg_ratio(psi, 50.0) == pytest.approx(1.0, abs=0.02)

    def test_support_violation_near_origin(self):
        with pytest.raises(SupportViolation):
            heisenberg_ratio(make_coherent(2.0), 2.0)

    @pytest.mark.parametrize("a", [0.0, -4.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_a_is_config_error(self, a):
        # these used to warn from log(|y| / a) or return NaN
        with pytest.raises(ConfigError):
            heisenberg_ratio(make_coherent(4.0), a)

    def test_subasymptotic_ratio_exceeds_one(self, monkeypatch):
        # the inequality is strict away from the asymptotic regime
        monkeypatch.setattr(asymptotics, "NEG_MASS_TOL", 1e-3)
        ratio = heisenberg_ratio(make_coherent(2.0), 2.0)
        assert ratio > 1.0

    def test_sampled_state_spectral_path(self):
        gauss = make_displaced_squeezed(50.0, 0.0)
        sampled = StateVector(gauss.grid, gauss.amplitudes)
        assert heisenberg_ratio(sampled, 50.0) == pytest.approx(
            heisenberg_ratio(gauss, 50.0), rel=1e-6)


class TestIsotropicParams:
    def test_nbar_100(self):
        sol = isotropic_params(100.0)
        # exact transcendental root; the quadratic approximation a^2 + a/4
        # gives 9.876, within 0.03 of it
        assert sol.a == pytest.approx(9.899488573994937, rel=1e-10)
        assert abs(sol.a - 9.876) < 0.03
        assert sol.a == pytest.approx(math.exp(-2.0 * sol.z), rel=1e-12)
        assert sol.a ** 2 + math.sinh(sol.z) ** 2 == pytest.approx(100.0,
                                                                   rel=1e-10)

    @pytest.mark.parametrize("nbar", [1e206, 1e300, 1.7e308])
    def test_isotropy_at_huge_photon_number(self, nbar):
        # the cubic's m^3 alone would overflow from nbar ~ 1e206
        sol = isotropic_params(nbar)
        assert sol.a == pytest.approx(math.exp(-2.0 * sol.z), rel=1e-12)
        assert sol.a ** 2 + math.sinh(sol.z) ** 2 == pytest.approx(nbar, rel=1e-10)

    def test_monotone_in_photon_number(self):
        sols = [isotropic_params(nbar) for nbar in (10.0, 100.0, 1000.0)]
        assert sols[0].a < sols[1].a < sols[2].a
        assert sols[0].z > sols[1].z > sols[2].z

    def test_figure_caption_split(self):
        sol = isotropic_params(4000.0)
        assert sol.fig_a ** 2 == pytest.approx(4000.0 - math.sqrt(4000.0))
        assert math.sinh(sol.fig_z) ** 2 == pytest.approx(math.sqrt(4000.0))
        assert sol.fig_z < 0

    def test_rejects_small_nbar(self):
        with pytest.raises(ValueError):
            isotropic_params(0.5)

    @pytest.mark.parametrize("nbar", [math.inf, math.nan])
    def test_rejects_non_finite_nbar(self, nbar):
        # inf used to return NaN fields
        with pytest.raises(ConfigError):
            isotropic_params(nbar)

    @pytest.mark.parametrize("nbar", [1.01, 10.0, 100.0, 4000.0, 1.0001, 1e6, 1e12])
    def test_matches_brentq_root(self, nbar):
        from scipy.optimize import brentq

        def excess(a):
            root = math.sqrt(a)
            return a * a + 0.25 * (root - 1.0 / root) ** 2 - nbar

        ref = brentq(excess, 1.0, math.sqrt(nbar) + 1.0, xtol=1e-14, rtol=1e-15)
        assert isotropic_params(nbar).a == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("nbar", [1.0001, 1.001, 1.01])
    def test_z_near_one_photon(self, nbar):
        """z = -ln(a)/2 to full relative precision where a - 1 is small,
        against the root of the cubic in a at 50 digits."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            nb = mpmath.mpf(nbar)
            a = mpmath.findroot(lambda a: 4 * a ** 3 + a ** 2 - (2 + 4 * nb) * a + 1,
                                1 + (nb - 1) / 2)
            assert a > 1
            z = float(-mpmath.log(a) / 2)
        assert abs(isotropic_params(nbar).z - z) <= 1e-15 * abs(z)
