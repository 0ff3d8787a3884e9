"""DMC operators, optimal and square-root measurement seeds, likelihoods."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sqdisp import grids
from sqdisp import (DivergenceDetected, DomainViolation, EmptySupport,
                    GridTooNarrow, GroupElement, abs_moment, act, build_ml_seed, build_parity_seed,
                    build_srm_seed, default_grid, dmc_apply, dmc_expectation,
                    half_line_moment, make_coherent, make_displaced_squeezed,
                    make_sampled, make_vacuum, optimal_likelihood,
                    seed_overlap_likelihood, srm_likelihood, state_norm)
from sqdisp.validate import _seed_suite, srm_admissible_suite

VACUUM_W = math.sqrt(2.0 / math.pi) / 4.0
VACUUM_L_OPT = math.sqrt(2.0 / math.pi) / math.pi     # 0.25397454373696393
VACUUM_L_PARITY = VACUUM_L_OPT / 2.0                  # 0.12698727186848196
ODD_L_OPT = 2.0 * math.sqrt(2.0 / math.pi) / math.pi  # 0.50794908747392786
ODD_L_SRM = 1.0 / math.sqrt(2.0 * math.pi)            # 0.3989422804014327


def odd_state(grid=None):
    grid = grid or default_grid(0.0)
    y = grid.nodes
    return make_sampled(grid, y * np.exp(-y ** 2))


class TestDmcOperators:
    def test_projection_splits_even_state(self):
        proj = dmc_apply(make_vacuum(), +1, 0.0)
        assert state_norm(proj) ** 2 == pytest.approx(0.5, rel=1e-10)

    def test_inverse_dmc_expectation(self):
        val = dmc_expectation(make_vacuum(), +1, -1.0)
        assert val == pytest.approx(VACUUM_W / math.pi, rel=1e-8)
        assert val == pytest.approx(0.06349363593424097, rel=1e-8)

    def test_dmc_expectation_diverges_on_vacuum(self):
        with pytest.raises(DivergenceDetected):
            dmc_expectation(make_vacuum(), +1, 1.0)

    def test_apply_weights_nodes(self):
        vac = make_vacuum()
        out = dmc_apply(vac, -1, -1.0)
        y = vac.grid.nodes
        mask = y < 0
        expect = np.zeros_like(vac.amplitudes)
        expect[mask] = (np.abs(y[mask]) / math.pi) * vac.amplitudes[mask]
        assert np.max(np.abs(out.amplitudes - expect)) < 1e-15


class TestMlSeed:
    def test_vacuum_certificates(self):
        seed = build_ml_seed(make_vacuum())
        for v in seed.certificates.values():
            assert v == pytest.approx(1.0, abs=1e-6)

    def test_single_sector_for_excited_state(self):
        seed = build_ml_seed(make_coherent(10.0))
        assert set(seed.sector_coeffs) == {+1}
        assert seed.w_minus <= 1e-12 * seed.w_plus

    def test_real_input_phases(self):
        for psi in (make_vacuum(), odd_state()):
            seed = build_ml_seed(psi)
            for phase in seed.sector_phases.values():
                assert phase == 1.0 + 0.0j

    def test_complex_input_phase_is_unit(self):
        psi = act(GroupElement(0.9, 0.0), make_coherent(2.0))
        seed = build_ml_seed(psi)
        for phase in seed.sector_phases.values():
            assert abs(abs(phase) - 1.0) < 1e-12

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
        for psi in (make_vacuum(), make_coherent(4.0), odd_state()):
            seed = build_ml_seed(psi)
            assert seed_overlap_likelihood(seed) == pytest.approx(
                seed.likelihood, rel=1e-8)

    def test_displacement_invariance(self):
        psi = make_coherent(3.0)
        moved = act(GroupElement(1.3, 0.0), psi, grid=psi.grid)
        assert optimal_likelihood(moved) == pytest.approx(
            optimal_likelihood(psi), rel=1e-9)

    def test_odd_state_value(self):
        assert optimal_likelihood(odd_state()) == pytest.approx(
            ODD_L_OPT, rel=1e-8)


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
        psi = odd_state()
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
            assert seed.likelihood == pytest.approx(abs_moment(psi, 1) / math.pi,
                                                    rel=1e-12), name
            assert seed.likelihood == (seed.w_plus + seed.w_minus) / math.pi


class TestSeedNodeBudget:
    """Grid sizes each seed build evaluates, recorded by wrapping
    ``grids._sector_sum``, through which every sector integral runs."""

    @staticmethod
    def grid_sizes(monkeypatch, build, psi):
        sizes = []
        evaluate = grids._sector_sum

        def counting(phi, chi, grid, sign, power):
            sizes.append(grid.n)
            return evaluate(phi, chi, grid, sign, power)

        with monkeypatch.context() as patch:
            patch.setattr(grids, "_sector_sum", counting)
            build(psi)
        return sizes

    def test_gaussian_seeds_converge_by_2_16_nodes(self, monkeypatch):
        for name, psi in _seed_suite(default_grid(0.0)) + srm_admissible_suite():
            if psi.evaluator is None:
                continue
            for build in (build_ml_seed, build_parity_seed, build_srm_seed):
                if build is build_srm_seed and name in ("vacuum", "dsq(3,-0.4)"):
                    with pytest.raises(DomainViolation):
                        build(psi)
                    continue
                sizes = self.grid_sizes(monkeypatch, build, psi)
                assert max(sizes) <= 2**16, (name, build.__name__, sizes)

    def test_unsettled_log_divergence_returns_raw_cap_value(self, monkeypatch):
        # two-bump(3) has psi(0) ~ 1e-4: <D_s> is log-divergent with a
        # coefficient below the growth screen, so no extrapolation settles
        psi = dict(srm_admissible_suite())["two-bump(3)"]
        sizes = self.grid_sizes(monkeypatch, build_srm_seed, psi)
        assert max(sizes) == grids.MAX_NODES
        cap = grids.QuadratureGrid(psi.grid.y_max, grids.MAX_NODES)
        for s in (+1, -1):
            assert half_line_moment(psi, s, -1) == grids._sector_sum(psi, psi, cap, s, -1)

    @staticmethod
    def refused_powers(monkeypatch, measure, psi):
        """Powers of the sector sums ``measure(psi)`` runs before the growth
        screen refuses psi's grid with GridTooNarrow."""
        powers = []
        evaluate = grids._sector_sum

        def counting(phi, chi, grid, sign, power):
            powers.append(power)
            return evaluate(phi, chi, grid, sign, power)

        monkeypatch.setattr(grids, "_sector_sum", counting)
        with pytest.raises(GridTooNarrow, match="screening"):
            measure(psi)
        return powers

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
                  odd_state(grid)]
        for psi in states:
            for builder in (build_ml_seed, build_parity_seed):
                for v in builder(psi).certificates.values():
                    assert v == pytest.approx(1.0, abs=1e-6)

    def test_srm_never_beats_optimal(self):
        grid = default_grid(10.0)
        states = [make_coherent(4.0, grid=grid), make_coherent(10.0, grid=grid),
                  make_displaced_squeezed(5.0, -0.2, grid=grid),
                  odd_state(grid)]
        for psi in states:
            assert srm_likelihood(psi) <= optimal_likelihood(psi) * (1 + 1e-12)

    def test_w_moments_match_halfline(self):
        psi = make_coherent(4.0)
        seed = build_ml_seed(psi)
        assert seed.w_plus == pytest.approx(half_line_moment(psi, +1, 1),
                                            rel=1e-12)
