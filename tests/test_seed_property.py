"""Property test: optimal seeds of random displaced squeezed states.

For psi = make_displaced_squeezed(a, z) the sector weights have the closed
form w_+- = +-a P(+-Y > 0) + sigma phi(a/sigma) with sigma = 1/(2 e^z), the
|psi|^2 standard deviation.  The seed built from the quadrature weights must
match it, certify <eta_s| D_s |eta_s> = 1 on every kept sector, and
reproduce its likelihood as the overlap |<eta|psi>|^2.  A displacement D(x)
multiplies psi by a phase and leaves |psi|^2 unchanged, so the same closed
form and the same equality hold for the complex input D(x) psi, the
equality case of the paper's optimality theorem.  The theorem itself: the
ML seed of any state chi is an admissible seed, so by Cauchy-Schwarz its
likelihood for psi, |<eta_chi|psi>|^2, is at most L_opt(psi).  The
parity-extended and square-root-measurement seeds certify
<eta_s| D_s |eta_s> = 1 as well.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqdisp import (IDENTITY, GroupElement, act, build_ml_seed, build_parity_seed,
                    build_srm_seed, density_at, make_displaced_squeezed, make_sampled,
                    optimal_likelihood, seed_overlap_likelihood, srm_likelihood)
from sqdisp.grids import sector_integral

from helpers import gaussian_weights


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(a=st.floats(-12.0, 12.0), z=st.floats(-0.8, 0.8), x=st.floats(-3.0, 3.0))
def test_ml_seed_of_displaced_squeezed(a, z, x):
    psi = make_displaced_squeezed(a, z)
    seed = build_ml_seed(act(GroupElement(x, 0.0), psi, grid=psi.grid))
    w_plus, w_minus = gaussian_weights(a, z)
    scale = w_plus + w_minus
    assert abs(seed.w_plus - w_plus) <= 1e-8 * scale
    assert abs(seed.w_minus - w_minus) <= 1e-8 * scale
    assert seed.certificates
    for value in seed.certificates.values():
        assert abs(value - 1.0) <= 1e-12
    overlap = seed_overlap_likelihood(seed)
    assert abs(overlap - seed.likelihood) <= 1e-8 * seed.likelihood


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(a=st.floats(-3.0, 3.0), z=st.floats(-0.5, 0.5), center=st.floats(-2.0, 2.0),
       width=st.floats(0.4, 1.5),
       cubic=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=3, max_size=3))
def test_ml_seed_of_any_state_never_beats_optimal(a, z, center, width, cubic):
    # chi = (1 + c_1 u + c_2 u^2 + c_3 u^3) e^{-u^2}, u = (y - center) / width, is
    # complex and never zero; the overlap is the seed's own quadrature against psi
    psi = make_displaced_squeezed(a, z)
    u = (psi.grid.nodes - center) / width
    chi = make_sampled(psi.grid, np.polyval(list(cubic[::-1]) + [1.0], u) * np.exp(-u * u))
    bound = optimal_likelihood(psi)
    for phi in (chi, psi):
        overlap = abs(sector_integral(build_ml_seed(phi), psi, 0, 0)[0]) ** 2
        assert overlap <= bound * (1.0 + 1e-9)
    assert abs(overlap - bound) <= 1e-8 * bound  # equality at chi = psi


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(scale=st.floats(4.5, 9.0), z=st.floats(-0.5, 0.8), sign=st.sampled_from([1, -1]))
def test_srm_never_beats_optimal(scale, z, sign):
    # a e^z >= 4.5 leaves below 1e-14 of the mass in the other sector, so the
    # square-root measurement is defined
    psi = make_displaced_squeezed(sign * scale * math.exp(-z), z)
    assert srm_likelihood(psi) <= optimal_likelihood(psi) * (1.0 + 1e-12)


def assert_certified(seed):
    assert seed.certificates
    for value in seed.certificates.values():
        assert abs(value - 1.0) <= 1e-9


@pytest.mark.parametrize("build", [build_ml_seed, build_parity_seed], ids=["ml", "ml-parity"])
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(a=st.floats(-12.0, 12.0), z=st.floats(-0.8, 0.8))
def test_certificates_equal_one(build, a, z):
    assert_certified(build(make_displaced_squeezed(a, z)))


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(scale=st.floats(4.5, 9.0), z=st.floats(-0.5, 0.8), sign=st.sampled_from([1, -1]))
def test_srm_certificates_equal_one(scale, z, sign):
    # a e^z >= 4.5: the square-root measurement is defined (see above)
    assert_certified(build_srm_seed(make_displaced_squeezed(sign * scale * math.exp(-z), z)))


@pytest.mark.parametrize("build", [build_ml_seed, build_parity_seed], ids=["ml", "ml-parity"])
@settings(max_examples=24, derandomize=True, deadline=None, database=None)
@given(a=st.floats(-3.0, 3.0), z=st.floats(-0.5, 0.5))
def test_density_at_truth_never_beats_optimal(build, a, z):
    # the paper's optimality theorem at the true value: p(e) = |<eta|psi>|^2 <= L_opt,
    # with equality for the ML seed; the midpoint sum's kink term at y = 0 alone would
    # put p(e) up to 1.6e-5 above L_opt on these draws (2.7e-10 with it taken out)
    psi = make_displaced_squeezed(a, z)
    bound = optimal_likelihood(psi)
    density = density_at(build(psi), psi, IDENTITY)
    assert density <= bound * (1.0 + 1e-9)
    if build is build_ml_seed:
        assert density >= bound * (1.0 - 1e-9)
