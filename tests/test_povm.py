"""Optimal, square-root-measurement and parity seeds and their likelihoods."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from sqdisp import grids, validate
from sqdisp import (DomainViolation, EmptySupport, GridTooNarrow, GroupElement,
                    QuadratureGrid, act, build_ml_seed, build_parity_seed, build_srm_seed,
                    default_grid, half_line_moment, make_coherent,
                    make_displaced_squeezed, make_sampled, make_vacuum,
                    optimal_likelihood, seed_overlap_likelihood, srm_likelihood)
from sqdisp.validate import _odd_state, _seed_suite, srm_admissible_suite

from helpers import VACUUM_L_OPT, spy, traced

VACUUM_L_PARITY = VACUUM_L_OPT / 2.0                  # 0.12698727186848196
ODD_L_OPT = 2.0 * math.sqrt(2.0 / math.pi) / math.pi  # 0.50794908747392786
ODD_L_SRM = 1.0 / math.sqrt(2.0 * math.pi)            # 0.3989422804014327
SRM_UNDEFINED = ("vacuum", "dsq(3,-0.4)")  # seed-suite states with psi(0) != 0


class TestMlSeed:
    def test_vacuum_certificates(self):
        seed = build_ml_seed(make_vacuum())
        for v in seed.certificates.values():
            assert v == pytest.approx(1.0, abs=1e-6)

    def test_single_sector_for_excited_state(self):
        seed = build_ml_seed(make_coherent(10.0))
        assert set(seed.sector_coeffs) == {+1}
        assert seed.w_minus <= 1e-12 * seed.w_plus

    def test_empty_support(self):
        grid = default_grid(0.0)
        amps = np.zeros(grid.n, dtype=complex)
        amps[0] = 1.0  # single far-edge node, negligible |Y| weight never > 0
        from sqdisp.grids import StateVector
        tiny = StateVector(grid, amps * 1e-200)
        with pytest.raises(EmptySupport):
            build_ml_seed(tiny)


class TestOptimalLikelihood:
    def test_vacuum_value(self):
        assert optimal_likelihood(make_vacuum()) == pytest.approx(
            VACUUM_L_OPT, abs=1e-4 * VACUUM_L_OPT)

    def test_excited_coherent_limit(self):
        val = optimal_likelihood(make_coherent(10.0))
        assert val == pytest.approx(10.0 / math.pi, rel=1e-3)

    def test_monotone_in_amplitude(self):
        assert optimal_likelihood(make_coherent(5.0)) < optimal_likelihood(
            make_coherent(10.0))

    def test_overlap_consistency(self):
        # L = |<eta|psi>|^2 for every kind, SRM on the states it is defined for
        for name, psi in _seed_suite(default_grid(0.0)) + srm_admissible_suite():
            for build in (build_ml_seed, build_parity_seed, build_srm_seed):
                if build is build_srm_seed and name in SRM_UNDEFINED:
                    continue
                seed = build(psi)
                assert seed_overlap_likelihood(seed) == pytest.approx(
                    seed.likelihood, rel=1e-12), (name, seed.kind)

    def test_displacement_invariance(self):
        psi = make_coherent(3.0)
        moved = act(GroupElement(1.3, 0.0), psi, grid=psi.grid)
        assert optimal_likelihood(moved) == pytest.approx(
            optimal_likelihood(psi), rel=1e-9)

    def test_odd_state_value(self):
        assert optimal_likelihood(_odd_state(default_grid(0.0))) == pytest.approx(
            ODD_L_OPT, rel=1e-8)

    @pytest.mark.parametrize("scale", [1e200, 1e154, 1e-160, 1e-200])
    def test_sampled_state_judged_by_value_not_scale(self, scale):
        # a state and its multiples are one ray; the squares of such raw samples overflow
        # (1e200, 1e154), underflow to zero (1e-200) or lose digits as subnormals (1e-160)
        grid = QuadratureGrid(10.0, 512)
        amps = grid.nodes * np.exp(-grid.nodes ** 2)
        unscaled = optimal_likelihood(make_sampled(grid, amps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = optimal_likelihood(make_sampled(grid, scale * amps))
        assert abs(scaled - unscaled) <= 1e-12 * unscaled


class TestSrmSeed:
    def test_vacuum_domain_violation(self):
        with pytest.raises(DomainViolation):
            build_srm_seed(make_vacuum())
        with pytest.raises(DomainViolation):
            srm_likelihood(make_vacuum())

    def test_coherent_suboptimal(self):
        c6 = make_coherent(6.0)
        seed = build_srm_seed(c6)
        for v in seed.certificates.values():
            assert v == pytest.approx(1.0, abs=1e-6)
        assert srm_likelihood(c6) < optimal_likelihood(c6)
        assert srm_likelihood(c6) == pytest.approx(seed.likelihood, rel=1e-10)

    def test_odd_state_values(self):
        psi = _odd_state(default_grid(0.0))
        l_srm = srm_likelihood(psi)
        l_opt = optimal_likelihood(psi)
        assert l_srm == pytest.approx(ODD_L_SRM, rel=1e-7)
        assert l_srm <= l_opt
        # the ratio is pi/4 for this state
        assert l_srm / l_opt == pytest.approx(math.pi / 4.0, rel=1e-7)

    def test_near_eigenstate_ratio(self):
        # narrow bump at y = 2: approximate |Y| eigenvector saturates Schwartz
        psi = make_displaced_squeezed(2.0, 3.0)
        ratio = srm_likelihood(psi) / optimal_likelihood(psi)
        assert ratio == pytest.approx(1.0, abs=0.03)
        assert ratio <= 1.0 + 1e-12

    def test_positive(self):
        assert srm_likelihood(make_coherent(6.0)) > 0.0

    @settings(max_examples=12, derandomize=True, deadline=None, database=None)
    @given(k=st.integers(1, 6), u=st.floats(0.0, 1.0))
    @example(k=6, u=1.0)
    def test_srm_gap_of_power_gaussians(self, k, u):
        # psi ~ y^k e^{-y^2/w^2}: each sector's <|Y|^p> is N^2 Gamma(q) (w^2/2)^q / 2 with
        # q = k + (p+1)/2, so L_srm / L_opt = Gamma(k+1/2)^2 / (Gamma(k) Gamma(k+1)) at every
        # w, the paper's ML-over-SRM gain as an exact law.  w runs from 0.7, above which the
        # O(dy^4) error of sampling on 4096 nodes is below 1e-10, to where psi at |y| = 10 is
        # 1e-15 of its peak at y = w sqrt(k/2)
        def log_edge_over_peak(w):
            return (k * math.log(10.0) - 100.0 / w ** 2
                    - k / 2.0 * math.log(k * w * w / (2.0 * math.e)))
        w = 0.7 + u * (brentq(lambda w: log_edge_over_peak(w) - math.log(1e-15), 0.7, 5.0) - 0.7)
        grid = QuadratureGrid(10.0, 4096)
        psi = make_sampled(grid, grid.nodes ** k * np.exp(-(grid.nodes / w) ** 2))
        ratio = math.gamma(k + 0.5) ** 2 / (math.gamma(k) * math.gamma(k + 1))
        assert abs(srm_likelihood(psi) / optimal_likelihood(psi) - ratio) <= 1e-9 * ratio

    def test_validate_holds_the_odd_ratio_to_pi_over_4(self, monkeypatch):
        # every margin moved by 1e-7 keeps 4 of 5 above 1 %, yet the odd state's
        # L_srm / L_opt, 3.0e-10 from pi/4 on validate's grid, is then 1e-7 from it
        assert validate.check_srm_suboptimality()[0]
        monkeypatch.setattr(validate, "srm_likelihood",
                            lambda psi: srm_likelihood(psi) + 1e-7 * optimal_likelihood(psi))
        ok, detail = validate.check_srm_suboptimality()
        assert not ok and "strict margins 4/5" in detail and "pi/4 1.0e-07" in detail


class TestDerivedEta:
    def test_replaced_source_gives_its_eta(self):
        seed = build_ml_seed(make_vacuum())
        other = make_coherent(1.0, grid=seed.grid)
        moved = replace(seed, source=other)
        expected = seed.multiplier(other.grid.nodes) * other.amplitudes
        np.testing.assert_array_equal(moved.eta.amplitudes, expected)
        np.testing.assert_array_equal(moved.eta.amplitudes, moved.evaluate_at(other.grid.nodes))


class TestParitySeed:
    def test_vacuum_likelihood(self):
        seed = build_parity_seed(make_vacuum())
        assert seed.likelihood == pytest.approx(VACUUM_L_PARITY, rel=1e-6)
        assert seed.certificates["full"] == pytest.approx(1.0, abs=1e-6)

    def test_half_of_optimal_for_even_states(self):
        for psi in (make_vacuum(), make_displaced_squeezed(0.0, 0.6)):
            parity = build_parity_seed(psi).likelihood
            assert parity == pytest.approx(optimal_likelihood(psi) / 2.0,
                                           rel=1e-9)

    def test_excited_coherent(self):
        seed = build_parity_seed(make_coherent(10.0))
        assert seed.likelihood == pytest.approx(10.0 / math.pi, rel=1e-3)

    def test_likelihood_is_full_line_moment(self):
        # <|Y|> is built as w_+ + w_-; the full-line quadrature must agree
        for name, psi in _seed_suite(default_grid(0.0)) + srm_admissible_suite():
            seed = build_parity_seed(psi)
            full = grids.sector_integral(psi, psi, 0, 1)[0][-1]
            assert seed.likelihood == pytest.approx(full / math.pi, rel=1e-12), name
            t = seed.w_plus + seed.w_minus
            assert seed.sector_coeffs[0] == 1.0 / math.sqrt(math.pi * t), name
            assert seed.likelihood == pytest.approx(t / math.pi, rel=1e-15), name


class TestSeedNodeBudget:
    """Sector sums each seed build evaluates, recorded by wrapping
    ``grids._sector_sum``, through which every sector integral runs."""

    @staticmethod
    def sector_sums(monkeypatch, run, psi):
        """(sign, power, grid size) of each sector sum ``run(psi)`` evaluates."""
        with monkeypatch.context() as patch:
            sums = spy(patch, grids, "_sector_sum",
                       lambda phi, chi, grid, sign, power: (sign, power, grid.n))
            run(psi)
        return sums

    @classmethod
    def grid_sizes(cls, monkeypatch, run, psi):
        return [n for _, _, n in cls.sector_sums(monkeypatch, run, psi)]

    def test_no_sector_integral_twice(self, monkeypatch):
        # a likelihood evaluates exactly its seed's sector sums, and the SRM
        # seed adds only the power-1 half-line weights the ML seed evaluates,
        # which a Gaussian's ML seed takes in closed form, with no sum
        for name, psi in _seed_suite(default_grid(0.0)) + srm_admissible_suite():
            ml = self.sector_sums(monkeypatch, build_ml_seed, psi)
            assert {power for _, power, _ in ml} == (set() if psi.evaluator else {1}), name
            assert self.sector_sums(monkeypatch, optimal_likelihood, psi) == ml, name
            if name not in SRM_UNDEFINED:
                srm = self.sector_sums(monkeypatch, srm_likelihood, psi)
                assert self.sector_sums(monkeypatch, build_srm_seed, psi) == srm + ml, name

    def test_srm_screens_the_lighter_sector_first(self, monkeypatch):
        # dsq(3, -0.4) holds 2.9e-5 of its mass at y < 0, where psi(0) != 0 makes <D_-> grow
        # 15 % per doubling; the + sector's <D_+> grows 3e-4 and would run to the cap first
        def refused(psi):
            with pytest.raises(DomainViolation, match="diverges on sector -"):
                build_srm_seed(psi)
        sums = self.sector_sums(monkeypatch, refused, make_displaced_squeezed(3.0, -0.4))
        assert sums == [(s, 0, n) for s in (+1, -1) for n in (4096, 8192, 16384)] + [
            (-1, -1, n) for n in (4096, 8192, 16384)]

    def test_gaussian_seeds_converge_by_2_16_nodes(self, monkeypatch):
        # ML and parity seeds of a Gaussian make no sector sum, their weights in closed
        # form; the SRM seed sums only powers 0 and -1
        for name, psi in _seed_suite(default_grid(0.0)) + srm_admissible_suite():
            if psi.evaluator is None:
                continue
            for build in (build_ml_seed, build_parity_seed):
                assert self.sector_sums(monkeypatch, build, psi) == [], (name, build.__name__)
            if name in SRM_UNDEFINED:
                with pytest.raises(DomainViolation):
                    build_srm_seed(psi)
                continue
            sums = self.sector_sums(monkeypatch, build_srm_seed, psi)
            assert {power for _, power, _ in sums} <= {0, -1}, name
            assert max(n for _, _, n in sums) <= 2**16, (name, sums)

    def test_unsettled_log_divergence_returns_raw_cap_value(self, monkeypatch):
        # two-bump(3) has psi(0) ~ 1e-4: <D_s> is log-divergent with a
        # coefficient below the growth screen, so no extrapolation settles
        psi = dict(srm_admissible_suite())["two-bump(3)"]
        sizes = self.grid_sizes(monkeypatch, build_srm_seed, psi)
        assert max(sizes) == grids.MAX_NODES
        cap = grids.QuadratureGrid(psi.grid.y_max, grids.MAX_NODES)
        for s in (+1, -1):
            assert half_line_moment(psi, s, -1) == grids._sector_sum(psi, psi, cap, s, -1)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_sums_to_the_cap_keep_memory_bounded(self, sign):
        # the moment above runs to MAX_NODES nodes, where one full-length pass would hold
        # 16 MB of temporaries; each sector sum streams its nodes in bounded passes
        psi = dict(srm_admissible_suite())["two-bump(3)"]
        _, peak = traced(lambda: half_line_moment(psi, sign, -1))
        assert peak < 4e6, f"traced peak {peak / 1e6:.2f} MB"

    @classmethod
    def refused_powers(cls, monkeypatch, measure, psi):
        """Powers of the sector sums ``measure(psi)`` runs before the growth
        screen refuses psi's grid with GridTooNarrow."""
        def refused(psi):
            with pytest.raises(GridTooNarrow, match="screening"):
                measure(psi)
        return [power for _, power, _ in cls.sector_sums(monkeypatch, refused, psi)]

    @pytest.mark.parametrize("measure", [srm_likelihood,
                                         lambda psi: half_line_moment(psi, +1, -1)],
                             ids=["srm_likelihood", "half_line_moment"])
    def test_screened_doubling_stays_within_cap(self, monkeypatch, measure):
        # dsq(5, 9) starts on 2^19 nodes, so the growth screen's third value
        # would need a 2^21-node grid: refused before any power -1 sum
        psi = make_displaced_squeezed(5.0, 9.0)
        assert psi.grid.n == grids.MAX_NODES // 2
        assert -1 not in self.refused_powers(monkeypatch, measure, psi)

    def test_divergence_screened_within_cap(self, monkeypatch):
        # dsq(0, 9) also starts on 2^19 nodes, where <D_+> diverges; with one
        # doubling left under the cap it is refused, not screened
        psi = make_displaced_squeezed(0.0, 9.0)
        assert psi.grid.n == grids.MAX_NODES // 2
        assert -1 not in self.refused_powers(monkeypatch, srm_likelihood, psi)

    def test_screen_refused_on_the_cap(self, monkeypatch):
        # a start on the cap leaves no doubling for the growth screen
        psi = make_vacuum(grids.QuadratureGrid(10.0, grids.MAX_NODES))

        def refused(psi):
            with pytest.raises(GridTooNarrow, match="screening"):
                srm_likelihood(psi)
            with pytest.raises(GridTooNarrow, match="screening"):
                half_line_moment(psi, +1, -1)
        assert set(self.grid_sizes(monkeypatch, refused, psi)) == {grids.MAX_NODES}


class TestSeedSuiteInvariants:
    def test_certificates_all_one(self):
        grid = default_grid(0.0)
        states = [make_vacuum(grid), make_coherent(4.0, grid=grid),
                  make_displaced_squeezed(3.0, -0.4, grid=grid),
                  _odd_state(grid)]
        for psi in states:
            for builder in (build_ml_seed, build_parity_seed):
                for v in builder(psi).certificates.values():
                    assert v == pytest.approx(1.0, abs=1e-6)
        for name, psi in srm_admissible_suite():
            for v in build_srm_seed(psi).certificates.values():
                assert v == pytest.approx(1.0, abs=1e-6), name

    def test_srm_never_beats_optimal(self):
        grid = default_grid(10.0)
        states = [make_coherent(4.0, grid=grid), make_coherent(10.0, grid=grid),
                  make_displaced_squeezed(5.0, -0.2, grid=grid),
                  _odd_state(grid)]
        for psi in states:
            assert srm_likelihood(psi) <= optimal_likelihood(psi) * (1 + 1e-12)

    def test_w_moments_match_halfline(self):
        psi = make_coherent(4.0)
        seed = build_ml_seed(psi)
        assert seed.w_plus == pytest.approx(half_line_moment(psi, +1, 1),
                                            rel=1e-12)
