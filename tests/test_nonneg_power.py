"""The non-negative optimum: the power steps and support finish of
``max_eigenpair(..., constraint="nonnegative")``, and the sign skip of
``optimize_state``, which passes each sign of the even/odd block to the
block solve ``numerics._solve_block``, against two oracles in ``oracles.py``.

``projected_ascent_optimum`` is the package's first solver: projected ascent
with a support polish from 35 starts, 32 of them random.
``power_steps_nonneg_optimum`` is the solver the support finish replaced:
the same power steps and starts, every start run to 1e-14 or 1,000 steps,
with no finish; ``both_signs_nonneg_optimum`` solves both signs of a Bell
matrix with it, as ``optimize_state`` did before the sign skip.

All are local searches on a non-convex problem, so none bounds another on
every matrix.  Every solve must return a non-negative unit vector whose
stationarity (KKT) residual is <= 1e-8.  On random bipartite matrices the
new value must reach both oracles'.  On Bell matrices the value
``optimize_state`` reports must reach projected ascent's best over both
signs, and equal the power-step oracle's, coefficients included.

The sign skip rests on x.T B y <= sigma_max(max(B, 0)) for non-negative
unit x and y, and ``signbin._clipped_norm_bound`` must bound that norm from
above on every block, empty and non-positive ones included.  At the default
angles it rules the losing sign out: at m = 3, d = 60 the norm is 0.143
there, against 2.2046 on the winning sign, so the losing sign, whose local
optima the solvers disagree on, is not solved.
"""

import math
import warnings
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellscope import signbin
from bellscope.numerics import _solve_block, _support_finish, max_eigenpair
from bellscope.signbin import (
    AngleSettings,
    _clipped_norm_bound,
    bell_matrix,
    default_optimizer_angles,
    optimize_state,
)
from oracles import (
    bipartite,
    both_signs_nonneg_optimum,
    power_steps_nonneg_optimum,
    projected_ascent_optimum,
    stationarity_residual,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
# projected ascent takes up to 0.5 s on each sign of a d = 60 Bell matrix
SLOW_PROPERTY = settings(max_examples=8, deadline=None, derandomize=True)

angle = st.floats(min_value=-math.pi, max_value=math.pi)
random_matrix = st.builds(
    lambda n, seed: bipartite(
        np.random.default_rng(seed).standard_normal(((n + 1) // 2, n // 2))
    ),
    st.integers(min_value=1, max_value=40),
    st.integers(0, 2**32 - 1),
)


def check(matrix, lam, v):
    """Feasibility, lam = v.T M v and the KKT residual of a solution on M."""
    assert v.min() >= 0.0
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert stationarity_residual(matrix, v, lam) <= 1e-8
    assert abs(lam - v @ matrix @ v) <= 1e-12 * (1.0 + abs(lam))


def solve(matrix):
    """The constrained value, after checking the solution."""
    lam, v = max_eigenpair(matrix, constraint="nonnegative")
    check(matrix, lam, v)
    return lam


def reported(m, d, matrix):
    """The value ``optimize_state`` reports for a Bell matrix, given its
    even/odd block, after checking its state as a solution on the sign of
    the matrix that produced it."""
    solved = []

    def recorded(signed, constraint=None):
        lam, v = _solve_block(signed, constraint)
        solved.append((signed, lam, v))
        return lam, v

    with mock.patch.object(signbin, "_solve_block", recorded):
        lam, state = optimize_state(m, d, None, "nonnegative", matrix[0::2, 1::2])
    signed = next(
        signed
        for signed, value, v in solved
        if value == lam and np.array_equal(v / np.linalg.norm(v), state.coefficients)
    )
    check(bipartite(signed), lam, state.coefficients)
    return lam


def clipped_norm(matrix, sign):
    """sigma_max(max(sign B, 0)) for the even/odd block B of the matrix."""
    return np.linalg.norm(np.maximum(sign * matrix[0::2, 1::2], 0.0), 2)


@PROPERTY
@given(matrix=random_matrix)
def test_random_bipartite_reaches_old_solver(matrix):
    assert solve(matrix) >= projected_ascent_optimum(matrix)[0] - 1e-12


@SLOW_PROPERTY
@given(
    m=st.sampled_from((2, 3, 4)),
    d=st.integers(min_value=2, max_value=60),
    drawn=st.none() | st.lists(angle, min_size=8, max_size=8),
)
def test_bell_matrix_both_signs_reach_old_solver(m, d, drawn):
    if drawn is None:
        angles = default_optimizer_angles(m)
    else:
        angles = AngleSettings(drawn[:m], drawn[4:4 + m])
    matrix = bell_matrix(m, d, angles)
    old = max(projected_ascent_optimum(matrix)[0], projected_ascent_optimum(-matrix)[0])
    assert reported(m, d, matrix) >= old - 1e-12


@PROPERTY
@given(matrix=random_matrix)
def test_random_bipartite_reaches_power_steps_oracle(matrix):
    assert solve(matrix) >= power_steps_nonneg_optimum(matrix)[0] - 1e-12


@PROPERTY
@given(m=st.sampled_from((2, 3, 4)), d=st.integers(min_value=2, max_value=60))
def test_bell_optimum_equals_power_steps_oracle(m, d):
    matrix = bell_matrix(m, d, default_optimizer_angles(m))
    lam, state = optimize_state(m, d, None, "nonnegative", matrix[0::2, 1::2])
    oracle_lam, oracle_v = both_signs_nonneg_optimum(matrix)
    assert abs(lam - oracle_lam) <= 1e-12 * abs(oracle_lam)
    # the benchmark's band for coefficient columns
    assert np.all(np.abs(state.coefficients - oracle_v) <= 1e-9 * np.abs(oracle_v) + 1e-12)


@PROPERTY
@given(matrix=random_matrix)
def test_clipped_norm_bounds_each_sign_and_the_skip_loses_nothing(matrix):
    values = {s: solve(s * matrix) for s in (1, -1)}
    for s, value in values.items():
        bound = clipped_norm(matrix, s)
        assert value <= bound + 1e-12 * (1.0 + bound)
    lam, _ = optimize_state(1, matrix.shape[0], None, "nonnegative", matrix[0::2, 1::2])
    assert lam == max(values.values())


@st.composite
def blocks(draw):
    """A random p x q block, q = 0 allowed, scaled by 10^k for |k| <= 300,
    with some rows and columns zeroed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p, q = draw(st.integers(1, 40)), draw(st.integers(0, 40))
    b = rng.standard_normal((p, q)) * 10.0 ** draw(st.integers(-300, 300))
    zeroed = draw(st.sampled_from((0.0, 0.3)))
    b[rng.random(p) < zeroed] = 0.0
    b[:, rng.random(q) < zeroed] = 0.0
    return b


@settings(max_examples=200, deadline=None, derandomize=True)
@given(blocks())
@example(np.zeros((1, 0)))
@example(np.zeros((3, 4)))
@example(-np.ones((3, 2)))
@example(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]))
@example(np.array([[1e-300, 0.0], [0.0, 1e300]]))
@example(np.array([[1e-300, -1e300]]))  # block / max(B) would overflow
def test_clipped_norm_bound_is_an_upper_bound(block):
    """The bound reaches numpy's 2-norm of max(+-B, 0) on each sign, with no
    RuntimeWarning, also for empty, all-zero, non-positive blocks and zero
    rows or columns; it is 0 where that norm is."""
    for sign in (1, -1):
        clipped = np.maximum(sign * block, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bound = _clipped_norm_bound(sign * block)
        if not np.any(clipped):
            assert bound == 0.0
        else:
            assert bound >= np.linalg.norm(clipped, 2)


@PROPERTY
@given(matrix=random_matrix, k=st.sampled_from((-600, -60)))  # 2^k M, k > 0, fails KKT: 1e-8 is absolute
def test_nonneg_solve_is_exact_under_powers_of_two(matrix, k):
    """The steps run on the block scaled exactly by a power of two, so 2^k M
    gives 2^k times the value and the same vector, bit for bit, and at
    2^-600 no square of a step underflows (it did before the scaling)."""
    lam, v = max_eigenpair(matrix, constraint="nonnegative")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled_lam, scaled_v = max_eigenpair(np.ldexp(matrix, k), constraint="nonnegative")
    assert scaled_lam == math.ldexp(lam, k)
    assert np.array_equal(scaled_v, v)


def test_step_whose_squares_underflow_is_normalised_again():
    """With B = diag(1, 2^-300) the start on the second row has value
    2^-300, and its first step's entries, near 2^-600, have squares below
    the least float: the plain norm of that column is 0.  The column is
    normalised again instead of turning into nan, with no RuntimeWarning,
    and the start on the first row wins."""
    matrix = bipartite([[1.0, 0.0], [0.0, 2.0**-300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lam, v = max_eigenpair(matrix, constraint="nonnegative")
    assert lam == 1.0
    assert np.array_equal(v, np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0))


def counting_solver(monkeypatch):
    """Replace the block solve ``optimize_state`` calls with one that
    records the block of every call."""
    calls = []

    def counted(block, constraint=None):
        calls.append(block)
        return _solve_block(block, constraint)

    monkeypatch.setattr(signbin, "_solve_block", counted)
    return calls


def test_losing_sign_is_not_solved(monkeypatch):
    calls = counting_solver(monkeypatch)
    for m, d in ((2, 30), (3, 60), (3, 400)):
        angles = default_optimizer_angles(m)
        matrix = bell_matrix(m, d, angles)
        calls.clear()
        lam, _ = optimize_state(m, d, angles, "nonnegative", matrix[0::2, 1::2])
        assert len(calls) == 1
        sign = 1 if np.array_equal(calls[0], matrix[0::2, 1::2]) else -1
        assert clipped_norm(matrix, -sign) < lam
        assert abs(lam - both_signs_nonneg_optimum(matrix)[0]) <= 1e-12 * lam


def test_tie_solves_both_signs_and_keeps_plus(monkeypatch):
    """-B is B with its columns swapped, so both signs reach the same value."""
    matrix = bipartite([[1.0, -1.0], [-1.0, 1.0]])
    lam_pos, v_pos = max_eigenpair(matrix, constraint="nonnegative")
    lam_neg, v_neg = max_eigenpair(-matrix, constraint="nonnegative")
    assert lam_pos == lam_neg == 1.0
    assert not np.array_equal(v_pos, v_neg)
    calls = counting_solver(monkeypatch)
    block = matrix[0::2, 1::2]
    lam, state = optimize_state(2, 4, None, "nonnegative", block)
    assert len(calls) == 2
    assert np.array_equal(calls[0], block) and np.array_equal(calls[1], -block)
    assert lam == 1.0
    assert np.array_equal(state.coefficients, v_pos / np.linalg.norm(v_pos))


def test_support_finish_needs_kkt_off_the_support():
    """On B = ones((2, 2)) a start on the first row and column alone has a
    positive top pair on its support, but B y > 0 off it: no finish.  On the
    full support the finish is the top singular pair, of value 2."""
    b = np.ones((2, 2))
    on_first = np.array([[1.0], [0.0]])
    assert _support_finish(b, on_first, on_first, np.array([1.0])) is None
    uniform = np.full((2, 1), math.sqrt(0.5))
    x, y, value = _support_finish(b, uniform, uniform, np.array([2.0]))
    assert np.allclose(x, uniform[:, 0]) and np.allclose(y, uniform[:, 0])
    assert abs(value - 2.0) <= 1e-15
