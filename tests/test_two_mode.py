"""Two-mode entangled pointer: coefficients, overlaps, delta concentration."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from sqdisp import (ConfigError, CutoffTooSmall, GroupElement, IDENTITY,
                    QuadratureGrid, concentration_profile,
                    hermite_functions, make_pointer, pointer_overlap,
                    raw_pointer_coefficients, two_mode)
from sqdisp.errors import GridMismatch, GridTooNarrow

from helpers import chunk_rows, kept, record_chunks, spy, traced

# oracle: quad of sqrt(|y|) h_0(y)^2 / sqrt(pi); closed form
# sqrt(2)/pi * 2^{-3/4} Gamma(3/4) = 0.32800194866687643
C00 = 0.32800194866687643


class TestHermiteFunctions:
    def test_orthonormal_on_grid(self):
        # beyond n ~ 700, h_n oscillates where e^{-y^2} is below the normal range
        for n_max in (60, 1000):
            grid = two_mode._pointer_grid(n_max)
            H = hermite_functions(n_max, grid.nodes)
            gram = (H * grid.dy) @ H.T
            assert np.max(np.abs(gram - np.eye(n_max + 1))) < 1e-8

    def test_ground_state_form(self):
        y = np.linspace(-2, 2, 11)
        h0 = hermite_functions(0, y)[0]
        assert np.max(np.abs(h0 - (2 / math.pi) ** 0.25 * np.exp(-y ** 2))) < 1e-14
        # from h_{-1} = 0 the recurrence gives h_1 = sqrt(2) u h_0 = 2 y h_0, u = sqrt(2) y
        assert np.array_equal(hermite_functions(1, y)[1], math.sqrt(2.0) * (math.sqrt(2.0) * y) * h0)


    def test_table_scaled_in_place(self):
        # the 2^-e scaling, e > 0 past |y| ~ 26.5, runs on the table itself, bit for bit
        # the product it replaces, and the traced peak holds no second table
        n_max, y = 300, np.linspace(-40.0, 40.0, 4096)
        orders = two_mode._hermite_orders(n_max, y)
        e = next(orders)
        product = np.fromiter(orders, np.dtype((float, e.shape)), n_max + 1) * np.exp2(-e)
        H, peak = traced(lambda: hermite_functions(n_max, y))
        assert e.max() > 0 and np.array_equal(H, product)
        assert peak <= 1.25 * H.nbytes


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
        # c^-_11 = (1/sqrt(pi)) integral sqrt(|y|) h_1(y) h_1(-y) dy, h_1(y) = 2y h_0(y),
        # read off the - pointer as coeffs[1, 1] / coeffs[0, 0] = lam^2 c^-_11 / c_00
        oracle = quad(lambda y: -math.sqrt(abs(y)) * 4 * y * y * math.sqrt(2 / math.pi)
                      * math.exp(-2 * y * y) / math.sqrt(math.pi),
                      -20, 20, limit=400)[0]
        assert oracle < 0
        for lam in (0.9, 0.95, 0.99):
            plus = make_pointer(lam, +1, 40, tail_tol=None)
            minus = make_pointer(lam, -1, 40, tail_tol=None)
            assert np.array_equal(minus.coeffs, plus.coeffs * (-1.0) ** np.arange(41))
            c11 = minus.coeffs[1, 1] / minus.coeffs[0, 0] * C00 / lam ** 2
            assert c11 == pytest.approx(oracle, abs=1e-10)


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

    @pytest.mark.parametrize("lam, n_max, tail", [
        (0.9, 60, 9.029e-6), (0.95, 60, 5.297e-3), (0.99, 60, 0.4768), (0.9, 20, 2.613e-2)])
    def test_gate_reads_the_exact_tail(self, lam, n_max, tail):
        # the share of the closed-form mass beyond the shells n + m <= n_max, to 4 digits
        make_pointer(lam, +1, n_max, tail_tol=tail * 1.0002)
        with pytest.raises(CutoffTooSmall, match=f"dropped tail {tail:.3e}"):
            make_pointer(lam, +1, n_max, tail_tol=tail * 0.9998)

    def test_gate_below_the_round_off_of_the_exact_tail(self):
        # 1 - sum/M reads 6e-16 ... 9e-16 for these lam, the round-off of the table's
        # quadrature; the cancellation-free bound puts their tails beyond n + m <= 20 below 2e-20
        for lam in (1e-300, 1e-12, 1e-6, 1e-3, 0.1, 0.3):
            assert two_mode._tail_bound(lam, 20, two_mode._pointer_mass(lam)) < 2e-20, lam
            make_pointer(lam, +1, 20, tail_tol=1e-16)
        with pytest.raises(CutoffTooSmall, match="dropped tail"):
            make_pointer(0.5, +1, 20, tail_tol=1e-16)  # exact tail 3.35e-13, bound 3.9e-11

    @pytest.mark.parametrize("lam, n_max", [
        (0.5, 20), (0.7, 20), (0.7, 40), (0.8, 40), (0.8, 60), (0.9, 60), (0.95, 60)])
    def test_tail_bound_is_above_the_exact_tail(self, lam, n_max):
        # where the exact tail, 3.4e-13 ... 0.21, stands above its 1e-15 round-off
        degrees = two_mode._degrees(n_max)
        mass = (lam ** degrees * raw_pointer_coefficients(n_max)) ** 2
        exact = two_mode._pointer_mass(lam)
        tail = 1.0 - float(mass[degrees <= n_max].sum()) / exact
        assert 1e-13 < tail <= two_mode._tail_bound(lam, n_max, exact)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_pointer(1.2, +1, 60)
        with pytest.raises(ValueError):
            make_pointer(0.9, +1, 10)
        with pytest.raises(ValueError):
            make_pointer(0.9, 0, 60)
        with pytest.raises(ConfigError, match="exceeds"):
            make_pointer(0.9, +1, 1024)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_float_sign_refused(self, sign):
        # was accepted, as 1.0 == 1, and read as sign > 0
        with pytest.raises(ConfigError, match="^sign must be an integer"):
            make_pointer(0.5, sign, 20)

    @pytest.mark.parametrize("sign", [np.int64(-1), True], ids=["int64", "bool"])
    def test_sign_of_any_integer_type(self, sign):
        assert np.array_equal(make_pointer(0.5, sign, 20).coeffs,
                              make_pointer(0.5, int(sign), 20).coeffs)

    @pytest.mark.parametrize("tail_tol", [math.inf, math.nan, 0.0])
    def test_tail_tol_outside_zero_to_inf_refused(self, tail_tol):
        # inf was accepted, and then no tail can fire the gate; the CLI refuses it as not finite
        for call in (lambda: make_pointer(0.9, +1, 60, tail_tol=tail_tol),
                     lambda: concentration_profile(0.9, 60, _WINDOW, 16, tail_tol=tail_tol)):
            with pytest.raises(ConfigError, match="^tail_tol must be positive and finite"):
                call()

    def test_energy_increases_with_lambda(self):
        energies = [make_pointer(lam, +1, 60, tail_tol=None).mean_energy
                    for lam in (0.9, 0.95, 0.99)]
        assert energies[0] < energies[1] < energies[2]


class TestPointerMass:
    """two_mode._pointer_mass, the untruncated mass sum lambda^{2(n+m)} c_nm^2."""

    @staticmethod
    def reference(lam):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            rho = mpmath.mpf(lam) ** 2
            f = mpmath.hyp2f1(-0.25, -0.25, 0.5, (2 * rho / (1 + rho ** 2)) ** 2)
            return float(mpmath.gamma(0.75) ** 2 * mpmath.sqrt(2 * (1 + rho ** 2)) * f
                         / (2 * mpmath.pi ** 2 * (1 - rho ** 2) ** 1.5))

    @pytest.mark.parametrize("lam, rel", [
        *[(lam, 1e-13) for lam in (1e-8, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.97, 0.99)],
        # from lambda ~ 0.9969 the series stops at MAX_NODES terms, and the bound on the
        # terms left out carries the rest
        (0.995, 1e-8), (0.999, 1e-8), (0.9999, 1e-8)])
    def test_matches_hypergeometric_reference(self, lam, rel):
        assert two_mode._pointer_mass(lam) == pytest.approx(self.reference(lam), rel=rel, abs=0)

    @pytest.mark.parametrize("lam", [1e-300, 1.0 - 2.0 ** -52])
    def test_finite_at_the_ends(self, lam):
        assert 0.0 < two_mode._pointer_mass(lam) < math.inf

    @pytest.mark.parametrize("lam, n_max", [(0.9, 200), (0.99, 1000)])
    def test_equals_the_fock_table(self, lam, n_max):
        # what either table leaves out is below the round-off of its sum
        A = lam ** two_mode._degrees(n_max) * raw_pointer_coefficients(n_max)
        assert float((A ** 2).sum()) == pytest.approx(two_mode._pointer_mass(lam), rel=1e-10)


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
        # at the identity the overlap is the Fock sum that `sqdisp two-mode` prints
        assert abs(float(np.sum(m.coeffs * p.coeffs))) == pytest.approx(val, rel=1e-12)

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

    @pytest.mark.parametrize("window, resolution, error", [
        ((1.5, -1.5, -1.5, 1.5), 16, ValueError),
        ((-1.5, 1.5, -1.5, math.inf), 16, ValueError),
        ((-1.5, math.nan, -1.5, 1.5), 16, ValueError),
        ((-1.5, 1.5, -1.5, 1.5), 15, ValueError),
        ((-1.0, 1.0, -1e6, 1e6), 16, ConfigError),
    ], ids=["reversed", "infinite", "nan", "resolution-15", "r-above-ln-2^20"])
    def test_bad_window_rejected_as_scan_rejects_it(self, window, resolution, error):
        from sqdisp import build_ml_seed, make_vacuum, scan
        vac = make_vacuum()
        with pytest.raises(error) as by_scan:
            scan(build_ml_seed(vac), vac, window, resolution)
        with pytest.raises(error) as by_profile:
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

    def test_aliased_phase_refused(self):
        # the n_max 20 pointer grid has pi/(2 dy) = 210; past it e^{-2ixy} aliases
        # (x = 419 returned 0.44, x = 52 2e-16)
        p = make_pointer(0.5, 1, 20)
        with pytest.raises(GridTooNarrow, match="aliases"):
            pointer_overlap(p, GroupElement(419.0, 0.0), p)
        assert abs(pointer_overlap(p, GroupElement(52.0, 0.0), p)) < 1e-12


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

    # both cases end on a short chunk: 23 and 19 rows in folded chunks of 7 and 8, by
    # the longer side of y = 0 of the 2043 and 1800 of the 2048 pointer nodes the
    # weight keeps; each chunk folds the nodes its own kernels keep, no more than those
    @pytest.mark.parametrize("lam, n_max, resolution", [(0.9, 20, (17, 23)),
                                                         (0.95, 60, (24, 19))])
    def test_map_equals_pointwise_overlaps(self, monkeypatch, lam, n_max, resolution):
        calls = record_chunks(monkeypatch)
        prof = concentration_profile(lam, n_max, (-1.5, 1.5, -1.5, 1.5), resolution,
                                     tail_tol=None)
        m = prof.map
        nx, nr = resolution
        nodes, runs = kept(calls)
        assert nodes == {20: 2043, 60: 1800}[n_max]
        rows = chunk_rows(nx, calls, per_row=2, grid_n=2048)
        assert len(runs) == -(-nr // rows)
        assert rows > 1 and nr % rows != 0
        minus = make_pointer(lam, -1, n_max, tail_tol=None)
        pointwise = np.array([[sum(abs(pointer_overlap(p, GroupElement(x, r), prof.plus)) ** 2
                                   for p in (prof.plus, minus))
                               for r in m.r_nodes] for x in m.x_nodes])
        assert np.max(np.abs(m.values - pointwise) / pointwise) <= 1e-12


def test_large_cutoff_profile_converged(monkeypatch):
    # at n_max 1000, h_n oscillates out to |y| ~ 31, where e^{-y^2} underflows,
    # and the pointer grid takes 8192 nodes
    window = (-1.5, 1.5, -1.5, 1.5)
    base = concentration_profile(0.999, 1000, window, 16, tail_tol=None).map.values
    grid = two_mode._pointer_grid
    monkeypatch.setattr(two_mode, "_pointer_grid",
                        lambda n_max: QuadratureGrid(grid(n_max).y_max, 2 * grid(n_max).n))
    monkeypatch.setattr(two_mode, "COEFF_QUAD_NODES", 2 * two_mode.COEFF_QUAD_NODES)
    doubled = concentration_profile(0.999, 1000, window, 16, tail_tol=None).map.values
    assert np.max(np.abs(doubled - base) / base) < 1e-9


class TestProfileRowSums:
    """The profile's rows run the Hermite recurrence once per chunk and sum each
    order into its parity's kernel as it comes, with no per-chunk table."""

    N_MAX = 400  # 2048 pointer nodes, 7 folded rows per chunk of a 16 x 16 map

    def profile(self):
        return concentration_profile(0.999, self.N_MAX, (-1.5, 1.5, -1.5, 1.5), 16,
                                     tail_tol=None)

    def test_two_hermite_tables(self, monkeypatch):
        # the coefficient table's on the t nodes and H's on the pointer grid
        shapes = spy(monkeypatch, two_mode, "hermite_functions", lambda n_max, y: np.shape(y))
        self.profile()
        assert shapes == [(two_mode.COEFF_QUAD_NODES,), (two_mode._pointer_grid(self.N_MAX).n,)]

    def test_peak_memory_below_four_tables(self):
        nodes = two_mode._pointer_grid(self.N_MAX).n
        assert nodes == 2048
        assert traced(self.profile)[1] < 4 * (self.N_MAX + 1) * nodes * 8


_WINDOW = (-1.5, 1.5, -1.5, 1.5)
N_MAX_ENTRY_POINTS = {
    "hermite_functions": lambda n_max: hermite_functions(n_max, np.linspace(-30.0, 30.0, 7)),
    "raw_pointer_coefficients": raw_pointer_coefficients,
    "make_pointer": lambda n_max: make_pointer(0.9, -1, n_max, tail_tol=None).coeffs,
    "concentration_profile": lambda n_max: concentration_profile(
        0.9, n_max, _WINDOW, 16, tail_tol=None).map.values,
}


@pytest.mark.parametrize("entry", N_MAX_ENTRY_POINTS)
@pytest.mark.parametrize("n_max", [np.int64(20), np.int32(20), np.uint16(20)],
                         ids=["int64", "int32", "uint16"])
def test_n_max_of_any_integer_type(entry, n_max):
    call = N_MAX_ENTRY_POINTS[entry]
    assert np.array_equal(call(n_max), call(20))


@pytest.mark.parametrize("entry", N_MAX_ENTRY_POINTS)
@pytest.mark.parametrize("n_max, message", [
    (20.0, "n_max must be an integer"),
    (np.float64(20.5), "n_max must be an integer"),
    ("20", "n_max must be an integer"),
    (-1, "n_max must be at least"),
], ids=["float", "numpy-float", "str", "negative"])
def test_bad_n_max_rejected(entry, n_max, message):
    with pytest.raises(ValueError, match=message):
        N_MAX_ENTRY_POINTS[entry](n_max)


def test_pointer_keeps_int_n_max():
    # the pointer's grid reads n_max.bit_length(), which numpy integers lack
    pointer = make_pointer(0.9, +1, np.int64(20), tail_tol=None)
    assert type(pointer.n_max) is int
    assert pointer.grid == make_pointer(0.9, +1, 20, tail_tol=None).grid
