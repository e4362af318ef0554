import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellscope.mk import expand_mk, mk_class_sum, mk_coefficient, quantum_bound
from oracles import bell_factor, coefficients_by_primed_count, mk_sum_tuple_by_tuple, primed_twin
from physics import classical_bound_exhaustive

U, P = False, True


def closed_form_coefficient(setting_tuple):
    """Independent oracle for the expansion coefficients.

    Writing z_m = (B_m + i B'_m)/2 turns the recursion into a plain product:
    party 1 contributes 1 (unprimed) or i (primed), every later party
    (1 -/+ i)/2, and the coefficient in B_m is 2 Re of the product.  Exact
    Gaussian-rational arithmetic keeps the comparison meaningful.
    """
    re, im = Fraction(1), Fraction(0)
    if setting_tuple[0]:
        re, im = Fraction(0), Fraction(1)
    half = Fraction(1, 2)
    for primed in setting_tuple[1:]:
        # multiply by (1 + i)/2 for primed, (1 - i)/2 for unprimed
        b = half if primed else -half
        re, im = re * half - im * b, re * b + im * half
    return 2 * re


def test_base_case():
    e = expand_mk(1)
    assert e.terms == {(U,): Fraction(2)}


def test_chsh_structure():
    e = expand_mk(2)
    assert e.terms == {
        (U, U): Fraction(1),
        (U, P): Fraction(1),
        (P, U): Fraction(1),
        (P, P): Fraction(-1),
    }


def test_three_party_structure():
    e = expand_mk(3)
    assert e.terms == {
        (U, U, P): Fraction(1),
        (U, P, U): Fraction(1),
        (P, U, U): Fraction(1),
        (P, P, P): Fraction(-1),
    }


def test_invalid_party_count():
    with pytest.raises(ValueError):
        expand_mk(0)
    with pytest.raises(ValueError):
        quantum_bound(0)


@pytest.mark.parametrize("m", range(1, 9))
def test_closed_form_oracle(m):
    e = expand_mk(m)
    for t in itertools.product((U, P), repeat=m):
        assert e.terms.get(t, Fraction(0)) == closed_form_coefficient(t)


@pytest.mark.parametrize("m", range(2, 7))
def test_recursion_consistency(m):
    """One recursion step applied externally reproduces expand_mk(m)."""
    prev = expand_mk(m - 1)
    twin = primed_twin(prev)
    half = Fraction(1, 2)
    combined = {}
    for t, c in prev.terms.items():
        for primed in (U, P):
            combined[t + (primed,)] = combined.get(t + (primed,), Fraction(0)) + c * half
    for t, c in twin.terms.items():
        for primed in (U, P):
            sign = -1 if primed else 1
            key = t + (primed,)
            combined[key] = combined.get(key, Fraction(0)) + sign * c * half
    combined = {t: c for t, c in combined.items() if c != 0}
    assert combined == dict(expand_mk(m).terms)


def test_primed_twin_flips_all():
    e = expand_mk(3)
    twin = primed_twin(e)
    assert twin.terms[(P, P, U)] == Fraction(1)
    assert twin.terms[(U, U, U)] == Fraction(-1)
    assert primed_twin(twin).terms == e.terms


def test_alpha_by_primed_count():
    assert coefficients_by_primed_count(expand_mk(3)) == {1: Fraction(3), 3: Fraction(-1)}
    assert coefficients_by_primed_count(expand_mk(4)) == {
        0: Fraction(-1, 2),
        1: Fraction(2),
        2: Fraction(3),
        3: Fraction(-2),
        4: Fraction(-1, 2),
    }


def test_alpha_collapse_matches_bell_factor():
    rng = np.random.default_rng(11)
    for m in (2, 3, 4, 5):
        e = expand_mk(m)
        values = rng.uniform(-1, 1, m + 1)
        direct = bell_factor(e, lambda t: values[sum(t)])
        by_count = coefficients_by_primed_count(e)
        collapsed = abs(sum(float(c) * values[k] for k, c in by_count.items()))
        assert direct == pytest.approx(collapsed, abs=1e-12)


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_classical_bound_is_two(m):
    assert classical_bound_exhaustive(expand_mk(m)) == 2.0


def test_classical_bound_refuses_beyond_limit():
    with pytest.raises(ValueError, match="refusing"):
        classical_bound_exhaustive(expand_mk(5))
    # a raised limit is honored
    assert classical_bound_exhaustive(expand_mk(5), limit=5) == 2.0


def test_quantum_bound_values():
    assert quantum_bound(1) == pytest.approx(2.0)
    assert quantum_bound(2) == pytest.approx(2.0 * math.sqrt(2.0))
    assert quantum_bound(3) == pytest.approx(4.0)


def test_bell_factor_zero_correlator():
    assert bell_factor(expand_mk(4), lambda t: 0.0) == 0.0


def test_bell_factor_cosine_tsirelson():
    # a Tsirelson configuration for E = cos of the angle sum: the three
    # positive terms sit at +/- pi/4 and the negative one at -3 pi/4
    theta = ((0.0, math.pi / 4), (-math.pi / 2, -math.pi / 4))

    def correlator(t):
        return math.cos(sum(theta[1 if primed else 0][i] for i, primed in enumerate(t)))

    assert bell_factor(expand_mk(2), correlator) == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-12
    )


def test_bell_factor_cosine_three_party():
    # GHZ-like angles with E = cos reach the m = 3 quantum bound of 4
    base = (0.0, math.pi / 6, math.pi / 3)

    def correlator(t):
        return math.cos(
            sum(base[i] + (math.pi / 2 if primed else 0.0) for i, primed in enumerate(t))
        )

    assert bell_factor(expand_mk(3), correlator) == pytest.approx(4.0, abs=1e-12)


def test_bell_factor_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        bell_factor(expand_mk(2), lambda t: math.nan)


def test_cosine_correlators_respect_quantum_bound():
    """Random angle configurations with cosine correlators never beat the
    quantum bound."""
    rng = np.random.default_rng(3)
    for m in (2, 3, 4, 5):
        e = expand_mk(m)
        bound = quantum_bound(m)
        for _ in range(50):
            theta = rng.uniform(0, 2 * math.pi, m)
            theta_p = rng.uniform(0, 2 * math.pi, m)

            def correlator(t):
                return math.cos(
                    sum(theta_p[i] if primed else theta[i] for i, primed in enumerate(t))
                )

            assert bell_factor(e, correlator) <= bound + 1e-9


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
# Signed zeros, subnormals, the least normal float, values near 1e300 and
# thirds, which round on every multiplication by 3.
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
           1e300, -1e300, 1.7e300, 1.0 / 3.0, -1.0 / 3.0)
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL)


@st.composite
def three_party_classes(draw):
    """E_0..E_3 as arrays; E_3 sometimes cancels 3 E_1 to the last bit or to one ulp."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = [np.array(draw(st.lists(finite, min_size=n, max_size=n))) for _ in range(4)]
    if draw(st.booleans()):
        rows[3] = np.nextafter(3.0 * rows[1], draw(st.sampled_from((0.0, math.inf, -math.inf))))
    return rows


@PROPERTY
@given(three_party_classes())
def test_class_sum_rounds_as_the_tuple_loop_at_three_parties(rows):
    """At m = 3 the class sum RN(RN(3 E_1) - E_3) is the sum over the setting
    tuples in ``expand_mk``'s order bit for bit, as arrays and one by one;
    past the float range both reach the same inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        assert mk_class_sum(rows).tobytes() == mk_sum_tuple_by_tuple(rows).tobytes()
        for column in zip(*(row.tolist() for row in rows)):
            got, expected = mk_class_sum(column), mk_sum_tuple_by_tuple(column)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()


EXPANSIONS = {m: expand_mk(m) for m in range(1, 9)}


@PROPERTY
@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda m: st.lists(st.floats(-1e300, 1e300) | st.sampled_from(SPECIAL[:6]), min_size=m + 1, max_size=m + 1)
))
def test_class_sum_is_within_a_few_ulps_of_the_exact_sum(values):
    """Against the exact rational sum over every setting tuple: at most
    m + 2 ulps of sum_t |c_t E(k(t))|, the scale its m + 1 roundings are
    relative to."""
    m = len(values) - 1
    terms = EXPANSIONS[m].terms.items()
    exact = sum(c * Fraction(values[sum(t)]) for t, c in terms)
    scale = sum(abs(float(c) * values[sum(t)]) for t, c in terms)
    assert abs(Fraction(mk_class_sum(values)) - exact) <= (m + 2) * Fraction(math.ulp(scale))


def test_class_weights_are_exact_up_to_56_parties():
    """C(m, k) c_k is a float without rounding while C(m, k) < 2^53."""
    for m in range(1, 57):
        for k in range(m + 1):
            c = mk_coefficient(m, k)
            assert Fraction(math.comb(m, k) * c) == math.comb(m, k) * Fraction(c)
