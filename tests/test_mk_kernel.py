"""The product-form MK kernel and every function built on it, checked
against tuple-by-tuple sums over the exact expansion of ``expand_mk``.

The product form rounds relative to the sum over all 2^m setting tuples of
|c|_max |E_t|, where |E_t| adds the magnitudes of the correlator's product
terms and |c|_max = 2^((3-m)/2) bounds every coefficient; tuples whose
coefficient is zero count too.  That is the scale of every tolerance below.
A sum that cancels far below it is resolved only to that absolute accuracy:
at m = 3, V = 1, W = 3.7e-95 (labeling x-unprimed) the exact sum is 1.1e-94,
dominated by the zero-coefficient tuple V^3 = 1, and the product form gives 0.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellscope.mk import expand_mk, mk_coefficient, mk_sum, mk_sum_scaled
from bellscope.rootbin import (
    LABELINGS,
    RootBinningSpec,
    bell_factor_root,
)
from bellscope.signbin import (
    AngleSettings,
    FockCorrelatedState,
    bell_expectation_sign,
    bell_factor_sign,
    bell_matrix,
    correlator_E,
    ghz_like_angles,
)
from oracles import phi_sum
from physics import (
    class_correlator,
    erased_term_correlator,
    g_rs,
    max_theta_bell,
    noisy_bell_direct,
)

REL = 1e-12
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

expansion = functools.lru_cache(maxsize=None)(expand_mk)

party_counts = st.integers(min_value=1, max_value=10)
angle = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)
unit = st.floats(min_value=0.0, max_value=1.0)


def tolerance(m, magnitude_sum):
    """REL |c|_max sum_t |E_t|, given sum_t |E_t| over all 2^m tuples, with
    a floor where results fall below the normal float range."""
    return REL * 2.0 ** ((3 - m) / 2) * magnitude_sum + 1e-300


@st.composite
def angles_for(draw, m):
    theta = draw(st.lists(angle, min_size=m, max_size=m))
    prime = draw(st.lists(angle, min_size=m, max_size=m))
    return AngleSettings(tuple(theta), tuple(prime))


@st.composite
def states_for(draw, m):
    d = draw(st.integers(min_value=2, max_value=6))
    c = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    norm = np.linalg.norm(c)
    if norm < 0.1:
        c, norm = np.ones(d), math.sqrt(d)
    return FockCorrelatedState(m, c / norm)


@st.composite
def sign_problems(draw):
    m = draw(party_counts)
    return draw(states_for(m)), draw(angles_for(m))


def tuplewise(m, correlator):
    """sum_t c_t E_t, term by term over expand_mk(m)."""
    return math.fsum(float(c) * correlator(t) for t, c in expansion(m).terms.items())


def sign_oracle(state, angles):
    """(<B_m> tuple by tuple, sum_t |E_t|): every sign-binned correlator is
    2^m sum_{r>s} 2 c_r c_s |g_{r,s}| cos((r-s) phi) up to signs."""
    c, m = state.coefficients, state.m
    per_tuple = 2.0**m * sum(
        abs(2.0 * c[r] * c[s] * g_rs(r, s, 0.0, m))
        for r in range(1, c.size)
        for s in range(1 - r % 2, r, 2)
    )
    value = tuplewise(m, lambda t: correlator_E(state, phi_sum(angles, t)))
    return value, 2.0**m * per_tuple  # the same bound for each of the 2^m tuples


@pytest.mark.parametrize("m", range(1, 13))
def test_coefficient_is_exact(m):
    for t, c in expansion(m).terms.items():
        assert mk_coefficient(m, sum(t)) == float(c)
    for k in range(m + 1):
        if not any(sum(t) == k for t in expansion(m).terms):
            assert mk_coefficient(m, k) == 0.0


def test_coefficient_validation():
    with pytest.raises(ValueError):
        mk_coefficient(0, 0)
    with pytest.raises(ValueError):
        mk_coefficient(3, 4)


@st.composite
def factor_lists(draw):
    m = draw(party_counts)
    factors = st.lists(st.complex_numbers(max_magnitude=2.0), min_size=m, max_size=m)
    return draw(factors), draw(factors)


@PROPERTY
@given(factor_lists())
def test_mk_sum_matches_expansion(factors):
    unprimed, primed = factors
    m = len(unprimed)
    expected = sum(
        float(c) * math.prod(primed[j] if t[j] else unprimed[j] for j in range(m))
        for t, c in expansion(m).terms.items()
    )
    magnitude = math.prod(abs(a) + abs(b) for a, b in zip(unprimed, primed))
    assert abs(complex(mk_sum(unprimed, primed)) - expected) <= tolerance(m, magnitude)


def test_mk_sum_batch_axes():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    b = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    batched = mk_sum(a, b)
    assert batched.shape == (3, 2)
    for i, j in itertools.product(range(3), range(2)):
        single = complex(mk_sum(a[:, i, j], b[:, i, j]))
        assert batched[i, j] == pytest.approx(single, rel=1e-14)


def test_mk_sum_rejects_bad_shapes():
    with pytest.raises(ValueError):
        mk_sum([], [])
    with pytest.raises(ValueError):
        mk_sum([1.0, 2.0], [1.0])


def test_mk_sum_large_m_is_scaled_not_overflowed():
    # V = W = 1 saturates the quantum bound 2^((m+1)/2) at every m
    m = 5000
    mantissa, exponent = mk_sum_scaled(np.ones(m), np.full(m, -1j))
    log2_sum = math.log2(abs(complex(mantissa))) + exponent
    assert log2_sum == pytest.approx((m + 1) / 2, rel=1e-14)
    with pytest.raises(OverflowError):
        mk_sum(np.ones(m), np.full(m, -1j))


@PROPERTY
@given(sign_problems())
def test_bell_factor_sign_matches_expansion(problem):
    state, angles = problem
    expected, magnitude = sign_oracle(state, angles)
    error = abs(bell_expectation_sign(state, angles) - expected)
    assert error <= tolerance(state.m, magnitude)
    assert bell_factor_sign(state, angles) == abs(bell_expectation_sign(state, angles))


@PROPERTY
@given(sign_problems())
def test_bell_matrix_quadratic_form_matches_expansion(problem):
    state, angles = problem
    c = state.coefficients
    matrix = bell_matrix(state.m, c.size, angles)
    expected, magnitude = sign_oracle(state, angles)
    assert abs(c @ matrix @ c - expected) <= tolerance(state.m, magnitude)


@PROPERTY
@given(party_counts, unit, unit, angle, st.sampled_from(LABELINGS))
def test_bell_factor_root_matches_expansion(m, v, w, theta, labeling):
    spec = RootBinningSpec(v, w, theta, m)

    def correlator(t):
        primed = sum(t)
        return class_correlator(spec, m - primed if labeling == "x-unprimed" else primed)

    expected = tuplewise(m, correlator)
    error = abs(bell_factor_root(spec, labeling) - abs(expected))
    assert error <= tolerance(m, (v + w) ** m)


@PROPERTY
@given(party_counts, unit, unit, st.sampled_from(LABELINGS))
def test_max_theta_bell_matches_expansion(m, v, w, labeling):
    """The factor is A cos(theta) + B sin(theta), so its maximum over the
    phase is hypot(A, B), with A and B summed tuple by tuple."""
    a = b = 0.0
    for t, c in expansion(m).terms.items():
        primed = sum(t)
        k = m - primed if labeling == "x-unprimed" else primed
        amp = float(c) * v**k * w ** (m - k)
        a += amp * math.cos((m - k) * math.pi / 2)
        b -= amp * math.sin((m - k) * math.pi / 2)
    error = abs(max_theta_bell(v, w, m, labeling) - math.hypot(a, b))
    assert error <= tolerance(m, (v + w) ** m)


@PROPERTY
@given(sign_problems(), unit)
def test_noisy_bell_direct_matches_expansion(problem, p):
    state, angles = problem
    m = state.m
    noisy_part = math.fsum(
        p ** len(pattern) * (1 - p) ** (m - len(pattern))
        * erased_term_correlator(state, pattern, 0.0)
        for j in range(1, m + 1)
        for pattern in itertools.combinations(range(m), j)
    )
    expected = tuplewise(
        m,
        lambda t: (1 - p) ** m * correlator_E(state, phi_sum(angles, t)) + noisy_part,
    )
    _, magnitude = sign_oracle(state, angles)
    magnitude = (1 - p) ** m * magnitude + 2.0**m * abs(noisy_part)
    error = abs(noisy_bell_direct(state, angles, p) - abs(expected))
    assert error <= tolerance(m, magnitude)


@pytest.mark.parametrize("m", (200, 1000, 5000))
def test_ghz_at_large_m(m):
    """No intermediate factor under- or overflows: at m = 1000 the g
    coefficient alone is below the float range and the Bell factor is 4e52."""
    value = bell_factor_sign(FockCorrelatedState.ghz(m), ghz_like_angles(m))
    log_analytic = 0.5 * math.log(2.0) + 0.5 * m * math.log(4.0 / math.pi)
    assert value == pytest.approx(math.exp(log_analytic), rel=1e-10)


def test_ghz_beyond_float_range_is_loud():
    with pytest.raises(OverflowError):
        bell_factor_sign(FockCorrelatedState.ghz(6000), ghz_like_angles(6000))

