"""The array g table of ``bellscope.signbin`` against the g coefficients
built one entry at a time in signed-log arithmetic (``tests/oracles.py``),
and against mpmath at 50 digits.

``bell_expectation_sign``, ``g_rs`` and ``hermite_halfline_overlap`` keep
the oracle's order of operations, so they must equal it bit for bit.
``correlator_E`` and ``outcome_probability`` sum their n pairs with numpy
(np.exp, np.cos, np.sum) where the oracle calls math.exp and math.cos once
per pair and adds in a loop.  Each term is then within a few ulps of the
oracle's and each sum within (n - 1) eps of the exact sum of its terms, so
they must agree to 2 (n + 5) eps times the sum of the absolute terms.

``bell_matrix`` builds its even/odd block as a row part plus a column part
plus a Toeplitz lag part (``signbin._bell_block``), a regrouping of the
oracles' sum, so it meets them within a band instead of bit for bit.  Both
sum the same parts of log |entry|: the m-weighted log parts of g that
``test_log_g_against_mpmath`` bounds, plus m log 2 and log |MK sum|, whose
float value both share.  Each side's log is therefore within 4 eps S of the
exact one, S = m sum |log parts of g| + m log 2 + |log |MK sum||, the rule
that test checks for the g part extended to the two added terms and checked
against mpmath for whole entries in
``test_separable_block_no_less_accurate_than_the_scatter``.  The two logs
then differ by at most 8 eps S, each exp rounds once more (eps / 2), and an
entry in the subnormal range rounds to a multiple of 2^-1074: so the entries
agree within (8 eps S + 2 eps) |entry| + 2^-1074, with equal signs wherever
the oracle's entry is a normal float, and both are 0 wherever the MK sum is.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellscope.signbin import (
    AngleSettings,
    FockCorrelatedState,
    _bell_block,
    _g_log,
    _g_magnitude,
    bell_expectation_sign,
    bell_matrix,
    correlator_E,
    default_optimizer_angles,
    ghz_like_angles,
)
from oracles import (
    bell_expectation_sign_entry,
    bell_matrix_entries,
    bell_matrix_every_entry,
    bell_matrix_scatter,
    correlator_E_entry,
    g_magnitude_entry,
    g_rs_entry,
    hermite_halfline_overlap_entry,
    mk_cos_sums_per_m,
    outcome_probability_entry,
)
from physics import g_rs, hermite_halfline_overlap, outcome_probability

EPS = np.finfo(float).eps
LN2 = math.log(2.0)
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


def log_rgamma(k):
    """log |1/Gamma(z_k)| in floats, z_k = -k/2 for odd k, (1 - k)/2 for even k."""
    z = -k / 2.0 if k % 2 else (1.0 - k) / 2.0
    return -math.lgamma(z) if z > 0 else math.lgamma(1.0 - z) - math.log(math.pi)


def entry_scale(m, d, angles):
    """S of the module docstring for every entry (r, s) of the d x d Bell
    matrix, from per-degree floats and the per-m MK oracle: m times the sum
    of |log parts| of g (those of ``exact_log_g``), plus m log 2 and
    |log |MK sum||.  inf wherever r - s is even or the MK sum is 0."""
    k = np.arange(d)
    factorial = np.array([math.lgamma(x + 1) for x in k])
    rgamma = np.abs([log_rgamma(x) for x in k])
    log_mk, _ = mk_cos_sums_per_m(angles, k)
    r, s = k[:, None], k
    n = np.abs(r - s)
    parts = (
        math.log(math.pi) + (r + s) * LN2 + factorial[r] + factorial[s]
        + rgamma[r] + rgamma[s] + np.log(np.maximum(n, 1))
    )
    return np.where(n % 2 == 1, m * parts + m * LN2 + np.abs(log_mk[n]), np.inf)


def assert_in_band(got, expected, scale):
    """The band of the module docstring, entry by entry: equal signs where
    the expected entry is a normal float, |got - expected| <= (8 eps S +
    2 eps) |expected| + 2^-1074 where S is finite, and both 0 where not."""
    normal = np.abs(expected) >= np.finfo(float).tiny
    assert np.array_equal(np.sign(got[normal]), np.sign(expected[normal]))
    finite = np.isfinite(scale)
    band = (8.0 * EPS * scale[finite] + 2.0 * EPS) * np.abs(expected[finite]) + math.ulp(0.0)
    assert np.all(np.abs(got[finite] - expected[finite]) <= band)
    assert not np.any(got[~finite]) and not np.any(expected[~finite])


@SLOW_PROPERTY
@given(st.data(), mode_counts, truncations)
def test_bell_matrix_equals_entry_oracle(data, m, d):
    """Within the band of the module docstring."""
    angles = data.draw(angles_for(m))
    got = bell_matrix(m, d, angles)
    expected = bell_matrix_every_entry(m, d, angles)
    assert_in_band(got, expected, entry_scale(m, d, angles))


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
    are compared, within the band of the module docstring."""
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
    scale = entry_scale(3, 400, angles)[r, s]
    assert_in_band(matrix[r, s], expected, scale)
    assert np.array_equal(matrix[s, r], matrix[r, s])
    r, s = np.array(same).T
    assert not np.any(matrix[r, s]) and not np.any(matrix[s, r])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=2, max_value=401),
    st.sampled_from((2, 3, 10, 1000)),
    st.none() | st.integers(0, 2**32 - 1),
)
@example(401, 3, None)
@example(2, 1000, None)
@example(401, 6000, None)
@example(3, 6000, None)
@example(200, 6000, 1)
def test_bell_matrix_block_equals_scatter_oracle(d, m, seed):
    """The separable block build meets the pair-list scatter from the full
    g table within the band of the module docstring, at odd d too, or raises
    the same OverflowError; seed None takes the default optimizer angles, a
    seed random ones.  No m <= 1000 overflows; at m = 6000 the default
    angles do (the largest entry at m = 5873 is 1.66e308), so the examples
    there take that branch."""
    if seed is None:
        angles = default_optimizer_angles(m)
    else:
        rng = np.random.default_rng(seed)
        angles = AngleSettings(*rng.uniform(-2 * math.pi, 2 * math.pi, (2, m)))
    try:
        expected = bell_matrix_scatter(m, d, angles)
    except OverflowError as error:
        with pytest.raises(OverflowError, match=f"^{error}$"):
            bell_matrix(m, d, angles)
    else:
        assert_in_band(bell_matrix(m, d, angles), expected, entry_scale(m, d, angles))


@pytest.mark.parametrize("m, d", ((2, 2), (3, 11), (10, 60), (3, 401)))
def test_bell_matrix_scatters_the_block(m, d):
    """``bell_matrix`` is the optimizer's block and its transpose, bit for
    bit, and zeros."""
    angles = default_optimizer_angles(m)
    block, matrix = _bell_block(m, d, angles), bell_matrix(m, d, angles)
    assert np.array_equal(matrix[0::2, 1::2], block)
    assert np.array_equal(matrix[1::2, 0::2], block.T)
    assert not np.any(matrix[0::2, 0::2]) and not np.any(matrix[1::2, 1::2])


def log_errors(block, m, d, angles, rows, cols):
    """|log |B_ij| - exact| / (eps S) at the entries (rows, cols) of an
    even/odd block, the exact log at 50 digits from the same parts as the
    program's, with log |MK sum| taken as exact."""
    log_mk, _ = mk_cos_sums_per_m(angles, np.arange(d))
    with mpmath.workdps(50):
        ln2 = mpmath.log(2)

        def half(k):
            z = mpmath.mpf(-k) / 2 if k % 2 else mpmath.mpf(1 - k) / 2
            return m * (k * ln2 - mpmath.loggamma(k + 1)) / 2 + m * mpmath.log(abs(mpmath.rgamma(z)))

        def lag(n):
            return m * (mpmath.log(mpmath.pi) / 2 + ln2 - mpmath.log(n)) + mpmath.mpf(float(log_mk[n]))

        scale = entry_scale(m, d, angles)
        errors = []
        for i, j in zip(rows.tolist(), cols.tolist()):
            r, s = 2 * i, 2 * j + 1
            exact = half(r) + half(s) + lag(abs(r - s))
            got = mpmath.log(abs(mpmath.mpf(float(block[i, j]))))
            errors.append(float(abs(got - exact)) / (EPS * scale[r, s]))
    return np.array(errors)


@pytest.mark.parametrize("m, d", ((2, 101), (3, 401), (10, 401), (100, 201), (1467, 401)))
def test_separable_block_no_less_accurate_than_the_scatter(m, d):
    """Both builds of the block against 50-digit logs, at the default angles,
    over up to 400 random entries of normal magnitude (at m = 1467, d = 401
    all 400 there are): every entry of each lies within 4 eps S of the
    exact log, and the separable block's mean and largest errors are no
    larger than the scatter's."""
    angles = default_optimizer_angles(m)
    new = _bell_block(m, d, angles)
    old = bell_matrix_scatter(m, d, angles)[0::2, 1::2]
    rows, cols = np.nonzero(np.abs(old) >= np.finfo(float).tiny)
    pick = np.random.default_rng(m + d).permutation(rows.size)[:400]
    rows, cols = rows[pick], cols[pick]
    new_errors = log_errors(new, m, d, angles, rows, cols)
    old_errors = log_errors(old, m, d, angles, rows, cols)
    assert new_errors.max() <= 4.0 and old_errors.max() <= 4.0
    assert new_errors.mean() <= old_errors.mean()
    assert new_errors.max() <= old_errors.max()
