"""The array g table of ``bellscope.signbin`` against the g coefficients
built one entry at a time in signed-log arithmetic (``tests/oracles.py``),
and against mpmath at 50 digits.

``bell_matrix``, ``bell_expectation_sign``, ``g_rs`` and
``hermite_halfline_overlap`` keep the oracle's order of operations, so they
must equal it bit for bit.  ``correlator_E`` and ``outcome_probability`` sum
their n pairs with numpy (np.exp, np.cos, np.sum) where the oracle calls
math.exp and math.cos once per pair and adds in a loop.  Each term is then
within a few ulps of the oracle's and each sum within (n - 1) eps of the
exact sum of its terms, so they must agree to 2 (n + 5) eps times the sum of
the absolute terms.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellscope.signbin import (
    AngleSettings,
    FockCorrelatedState,
    _g_log,
    _g_magnitude,
    bell_expectation_sign,
    bell_matrix,
    correlator_E,
    ghz_like_angles,
)
from oracles import (
    bell_expectation_sign_entry,
    bell_matrix_entries,
    bell_matrix_every_entry,
    correlator_E_entry,
    g_magnitude_entry,
    g_rs_entry,
    hermite_halfline_overlap_entry,
    outcome_probability_entry,
)
from physics import g_rs, hermite_halfline_overlap, outcome_probability

EPS = np.finfo(float).eps
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
# the per-entry oracle of a whole d <= 200 matrix takes up to 0.2 s
SLOW_PROPERTY = settings(max_examples=10, deadline=None, derandomize=True)

mode_counts = st.integers(min_value=1, max_value=200)
truncations = st.integers(min_value=2, max_value=200)
angle = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)


@st.composite
def angles_for(draw, m):
    theta = draw(st.lists(angle, min_size=m, max_size=m))
    prime = draw(st.lists(angle, min_size=m, max_size=m))
    return AngleSettings(tuple(theta), tuple(prime))


@st.composite
def states(draw, max_d=200):
    """A normalised state of up to max_d coefficients; hypothesis draws
    exact zeros among them often enough to exercise the skipped pairs."""
    m = draw(mode_counts)
    d = draw(st.integers(min_value=1, max_value=max_d))
    c = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    if np.linalg.norm(c) < 0.1:
        c = np.ones(d)
    return FockCorrelatedState(m, c / np.linalg.norm(c))


@st.composite
def opposite_parity_pairs(draw, bound):
    """(r, s) with bound > r > s >= 0 and r - s odd."""
    r = draw(st.integers(min_value=1, max_value=bound - 1))
    s = draw(st.integers(min_value=0, max_value=(r - 1) // 2)) * 2 + (1 - r % 2)
    return r, s


@SLOW_PROPERTY
@given(st.data(), mode_counts, truncations)
def test_bell_matrix_equals_entry_oracle(data, m, d):
    angles = data.draw(angles_for(m))
    got = bell_matrix(m, d, angles)
    expected = bell_matrix_every_entry(m, d, angles)
    assert np.array_equal(got, expected)


@SLOW_PROPERTY
@given(st.data(), states())
def test_bell_expectation_sign_equals_entry_oracle(data, state):
    angles = data.draw(angles_for(state.m))
    assert bell_expectation_sign(state, angles) == bell_expectation_sign_entry(state, angles)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(opposite_parity_pairs(200), st.integers(0, 199), angle, mode_counts)
def test_g_rs_equals_entry_oracle(pair, same_parity_r, phi, m):
    r, s = pair
    assert g_rs(r, s, phi, m) == g_rs_entry(r, s, phi, m)
    if same_parity_r >= 2:
        s = same_parity_r % 2
        assert g_rs(same_parity_r, s, phi, m) == 0.0 == g_rs_entry(same_parity_r, s, phi, m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 199), st.integers(0, 199))
def test_hermite_halfline_overlap_equals_entry_oracle(r, s):
    """Equal wherever the oracle is finite; beyond the float range the oracle
    gives inf or a bare OverflowError, and the program a message."""
    try:
        expected = hermite_halfline_overlap_entry(r, s)
    except OverflowError:
        expected = math.inf
    if math.isfinite(expected):
        assert hermite_halfline_overlap(r, s) == expected
    else:
        with pytest.raises(OverflowError, match="exceeds the float range"):
            hermite_halfline_overlap(r, s)


def sum_bound(state, log_scale):
    """2 (n + 5) eps times sum_{r>s} 2 |c_r c_s g_{r,s}| e^log_scale over the
    n pairs with g != 0."""
    c, m = state.coefficients, state.m
    terms = [
        2.0 * abs(c[r] * c[s]) * math.exp(g_magnitude_entry(r, s, m).log_magnitude + log_scale)
        for r in range(1, c.size)
        for s in range(1 - r % 2, r, 2)
        if c[r] != 0.0 and c[s] != 0.0
    ]
    return 2.0 * (len(terms) + 5) * EPS * math.fsum(terms)


@PROPERTY
@given(states(max_d=60), angle)
def test_correlator_E_within_rounding_of_entry_oracle(state, phi):
    got = correlator_E(state, phi)
    expected = correlator_E_entry(state, phi)
    assert abs(got - expected) <= sum_bound(state, state.m * math.log(2.0))


@PROPERTY
@given(states(max_d=60), angle, st.data())
def test_outcome_probability_within_rounding_of_entry_oracle(state, phi, data):
    signs = st.lists(st.sampled_from((1, -1)), min_size=state.m, max_size=state.m)
    outcome = tuple(data.draw(signs))
    got = outcome_probability(state, phi, outcome)
    expected = outcome_probability_entry(state, phi, outcome)
    # one more rounding each: the sum with 2^-m
    assert abs(got - expected) <= sum_bound(state, 0.0) + 2.0 * EPS * abs(expected)


@pytest.mark.parametrize("m", (2, 3, 10, 500, 1000))
def test_ghz_correlator_within_rounding_of_entry_oracle(m):
    state = FockCorrelatedState.ghz(m)
    for phi in (0.0, 0.3, 1.1, -2.5):
        got = correlator_E(state, phi)
        expected = correlator_E_entry(state, phi)
        assert abs(got - expected) <= sum_bound(state, m * math.log(2.0))


def exact_log_g(r, s, m):
    """(log |g_{r,s}| without cos, sign, sum of the absolute log parts) at
    50 digits: the parts are log pi, (r+s) log 2, log r!, log s!,
    log |1/Gamma| at both bracket arguments and log |r - s|."""
    with mpmath.workdps(50):
        even, odd = (r, s) if r % 2 == 0 else (s, r)
        rg_even = mpmath.rgamma(mpmath.mpf(1 - even) / 2)
        rg_odd = mpmath.rgamma(mpmath.mpf(-odd) / 2)
        bracket = (1 if r % 2 == 0 else -1) * rg_even * rg_odd / (r - s)
        parts = [
            mpmath.log(mpmath.pi),
            (r + s) * mpmath.log(2),
            mpmath.loggamma(r + 1),
            mpmath.loggamma(s + 1),
            mpmath.log(abs(rg_even)),
            mpmath.log(abs(rg_odd)),
            mpmath.log(r - s),
        ]
        pref = parts[0] + parts[1] - parts[2] - parts[3]
        log_g = m * pref / 2 + m * mpmath.log(abs(bracket))
        sign = 1 if bracket > 0 or m % 2 == 0 else -1
        return log_g, sign, float(sum(abs(p) for p in parts))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(opposite_parity_pairs(400), mode_counts)
def test_log_g_against_mpmath(pair, m):
    """|log |g| - exact| <= 4 eps m sum |log parts|, and the sign is exact."""
    r, s = pair
    log_g, sign_g = _g_log(m, _g_magnitude(400))
    exact, sign, parts = exact_log_g(r, s, m)
    assert sign_g[r, s] == sign
    assert abs(float(log_g[r, s] - exact)) <= 4.0 * EPS * m * parts


def test_g_table_is_read_only_and_zero_at_same_parity():
    """The cached table is shared by every caller, so it must not be
    writable."""
    for part in _g_magnitude(50):
        with pytest.raises(ValueError):
            part[1, 0] = 0.0
    log_g, sign_g = _g_log(3, _g_magnitude(50))
    r, s = np.indices(log_g.shape)
    even = (r - s) % 2 == 0
    assert np.all(sign_g[even] == 0.0)
    assert np.all(log_g[even] == -np.inf)
    assert np.all(np.abs(sign_g[~even]) == 1.0)


def test_d400_bell_matrix_equals_entry_oracle_on_samples():
    """At d = 400 the per-entry oracle of the whole matrix is slow, so 400
    random opposite-parity entries, the corners and 100 same-parity entries
    are compared."""
    angles = ghz_like_angles(3)
    matrix = bell_matrix(3, 400, angles)
    rng = np.random.default_rng(400)
    pairs = [(1, 0), (399, 0), (399, 398), (398, 1)]
    same = []
    while len(pairs) < 404 or len(same) < 100:
        r, s = sorted(int(x) for x in rng.integers(0, 400, 2))[::-1]
        (pairs if (r - s) % 2 else same).append((r, s))
    r, s = np.array(pairs).T
    expected = bell_matrix_entries(3, angles, pairs)
    assert np.array_equal(matrix[r, s], expected)
    assert np.array_equal(matrix[s, r], expected)
    r, s = np.array(same).T
    assert not np.any(matrix[r, s]) and not np.any(matrix[s, r])
