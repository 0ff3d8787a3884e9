"""Property test: optimal seeds of random displaced squeezed states.

For psi = make_displaced_squeezed(a, z) the sector weights have the closed
form w_+- = +-a P(+-Y > 0) + sigma phi(a/sigma) with sigma = 1/(2 e^z), the
|psi|^2 standard deviation.  The seed built from the quadrature weights must
match it, certify <eta_s| D_s |eta_s> = 1 on every kept sector, and
reproduce its likelihood as the overlap |<eta|psi>|^2.  A displacement D(x)
multiplies psi by a phase and leaves |psi|^2 unchanged, so the same closed
form and the same equality hold for the complex input D(x) psi, the
equality case of the paper's optimality theorem.  The parity-extended
and square-root-measurement seeds certify <eta_s| D_s |eta_s> = 1 as well.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqdisp import (GroupElement, act, build_ml_seed, build_parity_seed, build_srm_seed,
                    make_displaced_squeezed, optimal_likelihood, seed_overlap_likelihood,
                    srm_likelihood)


def gaussian_weights(a, z):
    sigma = 0.5 * math.exp(-z)
    t = a / sigma
    density = sigma * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return (a * 0.5 * math.erfc(-t / math.sqrt(2.0)) + density,
            -a * 0.5 * math.erfc(t / math.sqrt(2.0)) + density)


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
