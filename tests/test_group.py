"""Affine group law, Haar measure, and the unitary action."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqdisp import (IDENTITY, ConfigError, GaussianStateParams, GridTooNarrow, GroupElement,
                    QuadratureGrid, StateVector, act, build_ml_seed, compose, default_grid,
                    density_at, inner_product, inverse, make_coherent, make_displaced_squeezed,
                    make_pointer, make_sampled, make_vacuum, parity_act, pointer_overlap)
from sqdisp.grids import MAX_NODES, phase_dy

# random Gaussian states (center, log-width, linear phase) and group elements
gaussians = st.builds(GaussianStateParams, st.floats(-3.0, 3.0), st.floats(-0.5, 0.5),
                      st.floats(-1.0, 1.0))
elements = st.builds(GroupElement, st.floats(-2.0, 2.0), st.floats(-1.5, 1.5))


class TestGroupLaw:
    def test_translations_add(self):
        g = compose(GroupElement(1.0, 0.0), GroupElement(2.0, 0.0))
        assert (g.x, g.r) == (3.0, 0.0)

    def test_dilations_add(self):
        g = compose(GroupElement(0.0, 0.7), GroupElement(0.0, -0.2))
        assert g.x == 0.0 and g.r == pytest.approx(0.5)

    def test_mixed_composition(self):
        g = compose(GroupElement(1.0, math.log(2.0)), GroupElement(1.0, 0.0))
        assert g.x == pytest.approx(3.0, abs=1e-12)
        assert g.r == pytest.approx(math.log(2.0))

    def test_inverse_identity(self):
        assert inverse(IDENTITY) == IDENTITY

    def test_inverse_example(self):
        gi = inverse(GroupElement(1.0, math.log(2.0)))
        assert gi.x == pytest.approx(-0.5, abs=1e-12)
        assert gi.r == pytest.approx(-math.log(2.0))

    def test_inverse_involution_and_composition(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = GroupElement(rng.uniform(-3, 3), rng.uniform(-2, 2))
            gg = inverse(inverse(g))
            assert gg.x == pytest.approx(g.x, abs=1e-12)
            assert gg.r == pytest.approx(g.r, abs=1e-12)
            e = compose(g, inverse(g))
            assert abs(e.x) < 1e-12 and abs(e.r) < 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g1, g2, g3 = (GroupElement(rng.uniform(-3, 3), rng.uniform(-2, 2))
                          for _ in range(3))
            left = compose(compose(g1, g2), g3)
            right = compose(g1, compose(g2, g3))
            assert left.x == pytest.approx(right.x, abs=1e-12)
            assert left.r == pytest.approx(right.r, abs=1e-12)


class TestHaarWeights:
    def test_left_invariance_by_quadrature(self):
        # 2-D quadrature oracle on a compactly concentrated test function
        h = GroupElement(0.6, 0.5)
        xs = np.linspace(-9, 9, 721)
        rs = np.linspace(-9, 9, 721)
        X, R = np.meshgrid(xs, rs, indexing="ij")
        w = np.exp(-R) * (xs[1] - xs[0]) * (rs[1] - rs[0])
        f = lambda x, r: np.exp(-x ** 2 - r ** 2)
        base = float((f(X, R) * w).sum())
        shifted = float((f(h.x + math.exp(h.r) * X, h.r + R) * w).sum())
        assert shifted == pytest.approx(base, rel=1e-4)


class TestAction:
    def test_identity_action(self):
        psi = make_displaced_squeezed(1.0, 0.2)
        out = act(IDENTITY, psi, grid=psi.grid)
        assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-14

    def test_displacement_is_pure_phase(self):
        psi = make_coherent(1.5)
        out = act(GroupElement(0.8, 0.0), psi, grid=psi.grid)
        assert np.max(np.abs(np.abs(out.amplitudes) ** 2
                             - psi.probability_density())) < 1e-14

    def test_squeeze_matches_squeezed_state(self):
        vac = make_vacuum()
        out = act(GroupElement(0.0, 0.8), vac)
        ref = make_displaced_squeezed(0.0, 0.8, grid=out.grid)
        assert np.max(np.abs(out.amplitudes - ref.amplitudes)) < 1e-12

    def test_homomorphism_on_gaussians(self):
        rng = np.random.default_rng(7)
        psi = make_displaced_squeezed(1.2, 0.3)
        for _ in range(8):
            g1 = GroupElement(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
            g2 = GroupElement(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
            rhs = act(compose(g1, g2), psi)
            lhs = act(g1, act(g2, psi), grid=rhs.grid)
            assert np.max(np.abs(lhs.amplitudes - rhs.amplitudes)) < 1e-9

    def test_unitarity(self):
        rng = np.random.default_rng(9)
        psi = make_displaced_squeezed(0.8, -0.2)
        for _ in range(8):
            g = GroupElement(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert abs(act(g, psi).norm_certificate - 1.0) < 1e-9

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(params=gaussians, g1=elements, g2=elements)
    def test_homomorphism_property(self, params, g1, g2):
        psi = StateVector.from_params(params, default_grid(params.center, params.log_width))
        rhs = act(compose(g1, g2), psi)
        lhs = act(g1, act(g2, psi), grid=rhs.grid)
        assert np.max(np.abs(lhs.amplitudes - rhs.amplitudes)) < 1e-9

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(phi=gaussians, psi=gaussians, g=elements)
    def test_unitarity_property(self, phi, psi, g):
        # U_g keeps norms and inner products, on a grid that holds both states
        grid = QuadratureGrid(16.0, 8192)
        phi, psi = (StateVector.from_params(p, grid) for p in (phi, psi))
        moved = act(g, psi)
        assert abs(moved.norm_certificate - 1.0) < 1e-9
        overlap = inner_product(act(g, phi, grid=moved.grid), moved)
        assert abs(overlap - inner_product(phi, psi)) < 1e-9

    @pytest.mark.parametrize("r", [5.0, 6.0, 7.0])
    def test_strong_squeeze_resolves_new_width(self, r):
        # the vacuum's 4096-node grid is coarser than the squeezed std e^{-r}/2
        out = act(GroupElement(0.0, r), make_vacuum())
        assert out.grid.dy <= 0.5 * math.exp(-r)
        assert abs(out.norm_certificate - 1.0) <= 1e-6

    def test_mild_squeeze_keeps_grid(self):
        vac = make_vacuum()
        assert act(GroupElement(0.0, 4.6), vac).grid == vac.grid

    def test_sampled_action_matches_gaussian(self):
        psi = make_displaced_squeezed(1.5, 0.3)
        sampled = StateVector(psi.grid, psi.amplitudes)
        g = GroupElement(0.5, 0.6)
        out_s = act(g, sampled)
        out_g = act(g, psi, grid=out_s.grid)
        assert np.max(np.abs(out_s.amplitudes - out_g.amplitudes)) < 1e-5

    def test_sampled_action_r_cap(self):
        psi = make_sampled(default_grid(0.0),
                           np.exp(-default_grid(0.0).nodes ** 2))
        from sqdisp.errors import GridTooNarrow
        with pytest.raises(GridTooNarrow):
            act(GroupElement(0.0, 3.5), psi)

    def test_gaussian_parameter_update(self):
        psi = make_displaced_squeezed(2.0, 0.4)
        g = GroupElement(0.7, -0.5)
        out = act(g, psi)
        p = out.evaluator
        assert p.center == pytest.approx(math.exp(0.5) * 2.0)
        assert p.log_width == pytest.approx(-0.1)
        assert p.linear_phase == pytest.approx(0.7)
        back = act(inverse(g), out, grid=psi.grid)
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-12


class TestParity:
    def test_vacuum_invariant(self):
        vac = make_vacuum()
        assert np.max(np.abs(parity_act(vac).amplitudes - vac.amplitudes)) < 1e-14

    def test_coherent_reflection(self):
        grid = default_grid(2.0)
        out = parity_act(make_coherent(2.0, grid=grid))
        ref = make_coherent(-2.0, grid=grid)
        assert np.max(np.abs(out.amplitudes - ref.amplitudes)) < 1e-14

    def test_involution(self):
        psi = make_displaced_squeezed(1.0, 0.5)
        twice = parity_act(parity_act(psi))
        assert np.max(np.abs(twice.amplitudes - psi.amplitudes)) < 1e-14

    def test_sampled_reflection_exact(self):
        grid = default_grid(0.0)
        y = grid.nodes
        psi = make_sampled(grid, y * np.exp(-y ** 2))
        assert np.array_equal(parity_act(psi).amplitudes, psi.amplitudes[::-1])


class TestElementChecks:
    """act, density_at and pointer_overlap refuse a non-finite x or |r| > ln MAX_NODES,
    the bound a scan window's r has, before they evaluate U_g."""

    @pytest.fixture(scope="class")
    def operands(self):
        vac = make_vacuum()
        sampled = make_sampled(vac.grid, vac.amplitudes)
        return vac, sampled, build_ml_seed(vac), make_pointer(0.5, 1, 20)

    @pytest.mark.parametrize("x, r", [(1.0, -800.0), (0.0, 800.0), (0.0, 14.0), (0.0, math.nan),
                                      (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0)])
    def test_refused(self, operands, x, r):
        vac, sampled, seed, pointer = operands
        g = GroupElement(x, r)
        for call in (lambda: act(g, vac), lambda: act(g, sampled),
                     lambda: density_at(seed, vac, g),
                     lambda: pointer_overlap(pointer, g, pointer)):
            with pytest.raises(ConfigError):
                call()

    @pytest.mark.parametrize("r", [-math.log(MAX_NODES), math.log(MAX_NODES)])
    def test_bound_accepted(self, operands, r):
        # density_at's phase is that of g^{-1}, x = -e^{-r} 0.3 e^{r} = -0.3 here;
        # at r = -ln MAX_NODES an x of 0.3 puts it past pi/(2 dy), where it aliases
        vac, _, seed, pointer = operands
        g = GroupElement(0.3, r)
        assert math.isfinite(density_at(seed, vac, GroupElement(0.3 * math.exp(r), r)))
        assert math.isfinite(abs(pointer_overlap(pointer, g, pointer)))
        if r < 0:
            with pytest.raises(GridTooNarrow):
                density_at(seed, vac, g)

    def test_aliasing_phase_refused_on_a_given_grid(self, operands):
        # pi/(2 dy) is 321.7 on the vacuum's grid, where act returned aliased samples;
        # with no grid given, act picks one that resolves the phase
        vac, sampled, seed, pointer = operands
        g = GroupElement(1000.0, 0.0)
        for psi in (vac, sampled):
            with pytest.raises(GridTooNarrow, match="aliases"):
                act(g, psi, grid=vac.grid)
            assert act(g, psi).grid.dy <= phase_dy(1000.0)
        for call in (lambda: density_at(seed, vac, g),
                     lambda: pointer_overlap(pointer, g, pointer)):
            with pytest.raises(GridTooNarrow, match="aliases"):
                call()
