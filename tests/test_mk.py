import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bellscope.mk import expand_mk, quantum_bound
from oracles import bell_factor, coefficients_by_primed_count, primed_twin
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
