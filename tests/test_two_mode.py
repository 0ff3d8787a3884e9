"""Two-mode entangled pointer: coefficients, overlaps, delta concentration."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from sqdisp import (ConfigError, CutoffTooSmall, GroupElement, IDENTITY,
                    concentration_profile,
                    hermite_functions, make_pointer, pointer_overlap,
                    raw_pointer_coefficients)
from sqdisp.errors import GridMismatch

# oracle: quad of sqrt(|y|) h_0(y)^2 / sqrt(pi); closed form
# sqrt(2)/pi * 2^{-3/4} Gamma(3/4) = 0.32800194866687643
C00 = 0.32800194866687643


class TestHermiteFunctions:
    def test_orthonormal_on_grid(self):
        from sqdisp.two_mode import _pointer_grid
        grid = _pointer_grid(60)
        H = hermite_functions(60, grid.nodes)
        gram = (H * grid.dy) @ H.T
        assert np.max(np.abs(gram - np.eye(61))) < 1e-8

    def test_ground_state_form(self):
        y = np.linspace(-2, 2, 11)
        h0 = hermite_functions(0, y)[0]
        assert np.max(np.abs(h0 - (2 / math.pi) ** 0.25 * np.exp(-y ** 2))) < 1e-14


class TestPointerCoefficients:
    def test_c00_oracle(self):
        oracle = quad(lambda y: math.sqrt(abs(y)) * math.sqrt(2 / math.pi)
                      * math.exp(-2 * y * y) / math.sqrt(math.pi),
                      -20, 20, limit=400)[0]
        assert oracle == pytest.approx(C00, abs=1e-8)
        C = raw_pointer_coefficients(40)
        assert C[0, 0] == pytest.approx(C00, abs=1e-10)

    def test_parity_selection_exact(self):
        C = raw_pointer_coefficients(40)
        k = np.arange(41)
        odd = (k[:, None] + k[None, :]) % 2 == 1
        assert np.all(C[odd] == 0.0)

    def test_symmetry_plus_pointer(self):
        C = raw_pointer_coefficients(40)
        assert np.max(np.abs(C - C.T)) < 1e-14

    def test_sign_flip_rule(self):
        C = raw_pointer_coefficients(40)
        Cm = raw_pointer_coefficients(40, sign=-1)
        k = np.arange(41)
        assert np.array_equal(Cm, C * ((-1.0) ** k)[None, :])


class TestMakePointer:
    def test_normalized(self):
        for lam in (0.9, 0.95, 0.99):
            p = make_pointer(lam, +1, 60, tail_tol=None)
            assert float((p.coeffs ** 2).sum()) == pytest.approx(1.0, abs=1e-8)

    def test_cutoff_guard(self):
        with pytest.raises(CutoffTooSmall):
            make_pointer(0.95, +1, 60)  # tail ~5e-3 exceeds the 1e-4 default
        with pytest.raises(CutoffTooSmall):
            make_pointer(0.9, +1, 20)
        make_pointer(0.9, +1, 60)  # tail ~1e-5 passes

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_pointer(1.2, +1, 60)
        with pytest.raises(ValueError):
            make_pointer(0.9, +1, 10)
        with pytest.raises(ValueError):
            make_pointer(0.9, 0, 60)
        with pytest.raises(ConfigError, match="exceeds"):
            make_pointer(0.9, +1, 1024)

    def test_energy_increases_with_lambda(self):
        energies = [make_pointer(lam, +1, 60, tail_tol=None).mean_energy
                    for lam in (0.9, 0.95, 0.99)]
        assert energies[0] < energies[1] < energies[2]


class TestPointerOverlap:
    def test_self_overlap_is_one(self):
        p = make_pointer(0.9, +1, 60)
        assert pointer_overlap(p, IDENTITY, p) == pytest.approx(1.0, abs=1e-8)

    def test_cross_sector_small(self):
        p = make_pointer(0.95, +1, 60, tail_tol=None)
        m = make_pointer(0.95, -1, 60, tail_tol=None)
        val = abs(pointer_overlap(m, IDENTITY, p))
        assert val <= 0.05
        assert val == pytest.approx(0.0088937, abs=2e-4)  # frozen regression

    def test_concentration_with_lambda(self):
        g = GroupElement(0.3, 0.2)
        vals = []
        for lam in (0.9, 0.95, 0.99):
            p = make_pointer(lam, +1, 60, tail_tol=None)
            vals.append(abs(pointer_overlap(p, g, p)) ** 2)
        assert vals[0] > vals[1] > vals[2]

    def test_profile_size_bounded_before_allocation(self, monkeypatch):
        from sqdisp import two_mode

        def unexpected(*args, **kwargs):
            raise AssertionError("pointer built for a map over the cell cap")
        monkeypatch.setattr(two_mode, "make_pointer", unexpected)
        with pytest.raises(ConfigError, match="exceeds 1048576 cells"):
            concentration_profile(0.9, 20, (-1.5, 1.5, -1.5, 1.5), (1024, 1025),
                                  tail_tol=None)

    @pytest.mark.parametrize("window, resolution", [
        ((1.5, -1.5, -1.5, 1.5), 16),
        ((-1.5, 1.5, -1.5, math.inf), 16),
        ((-1.5, math.nan, -1.5, 1.5), 16),
        ((-1.5, 1.5, -1.5, 1.5), 15),
    ], ids=["reversed", "infinite", "nan", "resolution-15"])
    def test_bad_window_rejected_as_scan_rejects_it(self, window, resolution):
        from sqdisp import build_ml_seed, make_vacuum, scan
        vac = make_vacuum()
        with pytest.raises(ValueError) as by_scan:
            scan(build_ml_seed(vac), vac, window, resolution)
        with pytest.raises(ValueError) as by_profile:
            concentration_profile(0.9, 20, window, resolution, tail_tol=None)
        assert str(by_profile.value) == str(by_scan.value)

    def test_nmax_convergence(self):
        g = GroupElement(0.3, 0.2)
        p60 = make_pointer(0.9, +1, 60)
        p72 = make_pointer(0.9, +1, 72)
        v60 = pointer_overlap(p60, g, p60)
        v72 = pointer_overlap(p72, g, p72)
        assert abs(v60 - v72) < 1e-4

    def test_mismatched_pointers_rejected(self):
        p60 = make_pointer(0.9, +1, 60)
        p72 = make_pointer(0.9, +1, 72)
        with pytest.raises(GridMismatch):
            pointer_overlap(p60, IDENTITY, p72)


@pytest.fixture(scope="module")
def profiles():
    return {lam: concentration_profile(lam, 60, (-1.5, 1.5, -1.5, 1.5), 41,
                                       tail_tol=None)
            for lam in (0.9, 0.95, 0.99)}


class TestConcentrationProfile:
    def test_peak_at_origin(self, profiles):
        for prof in profiles.values():
            m = prof.map
            i, j = np.unravel_index(np.argmax(m.values), m.values.shape)
            assert abs(m.x_nodes[i]) < 0.1
            assert abs(m.r_nodes[j]) < 0.1

    def test_widths_shrink_towards_delta(self, profiles):
        wx = [profiles[lam].width_x for lam in (0.9, 0.95, 0.99)]
        wr = [profiles[lam].width_r for lam in (0.9, 0.95, 0.99)]
        assert wx[0] > wx[1] > wx[2]
        assert wr[0] > wr[1] > wr[2]

    def test_x_reflection_symmetry(self, profiles):
        # + pointer at r = 0: profile even in x
        m = profiles[0.9].map
        j = int(np.argmin(np.abs(m.r_nodes)))
        col = m.values[:, j]
        assert np.max(np.abs(col - col[::-1])) < 1e-10 * col.max()

    # both cases end on a short chunk: 23 and 19 rows in chunks of 3
    @pytest.mark.parametrize("lam, n_max, resolution", [(0.9, 20, (17, 23)),
                                                         (0.95, 60, (24, 19))])
    def test_map_equals_pointwise_overlaps(self, lam, n_max, resolution):
        from sqdisp import distribution
        from sqdisp.grids import _fft_length
        prof = concentration_profile(lam, n_max, (-1.5, 1.5, -1.5, 1.5), resolution,
                                     tail_tol=None)
        m = prof.map
        nx, nr = resolution
        rows = distribution._SCAN_CHUNK // (2 * _fft_length(nx + prof.plus.grid.n - 1))
        assert rows > 1 and nr % rows != 0
        pointwise = np.array([[sum(abs(pointer_overlap(p, GroupElement(x, r), prof.plus)) ** 2
                                   for p in (prof.plus, prof.minus))
                               for r in m.r_nodes] for x in m.x_nodes])
        assert np.max(np.abs(m.values - pointwise) / pointwise) <= 1e-12
