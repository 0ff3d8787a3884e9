"""Affine group law, Haar weights, and the unitary action."""

import math

import numpy as np
import pytest

from sqdisp import (IDENTITY, ExtendedElement, GroupElement, StateVector, act,
                    act_extended, compose, default_grid, inverse, left_haar_weight,
                    make_coherent, make_displaced_squeezed, make_sampled,
                    make_vacuum, parity_act, right_haar_weight)


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
    def test_weight_values(self):
        assert left_haar_weight(GroupElement(2.0, 0.0)) == 1.0
        assert left_haar_weight(GroupElement(0.0, 1.0)) == pytest.approx(
            math.exp(-1.0))
        assert right_haar_weight(GroupElement(5.0, -2.0)) == 1.0

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

    def test_extended_element(self):
        with pytest.raises(ValueError):
            ExtendedElement(2, IDENTITY)
        psi = make_coherent(1.0)
        e = ExtendedElement(1, GroupElement(0.0, 0.0))
        out = act_extended(e, psi, grid=psi.grid)
        ref = make_coherent(-1.0, grid=psi.grid)
        assert np.max(np.abs(out.amplitudes - ref.amplitudes)) < 1e-12
