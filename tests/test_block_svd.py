"""The unconstrained ``max_eigenpair``, the top singular pair of the even/odd
block B of M = [[0, B], [B.T, 0]] from ``numerics._top_pair`` (the top
eigenvector of B's smaller Gram matrix, B.T B or B B.T), against full
eigensolves of M; and that kernel against ``np.linalg.svd``, the oracle.

Both solvers are backward stable for the top pair: each returns the exact
answer for a matrix within about n eps |M| of M (n the dimension, eps the
machine epsilon, |M| the spectral norm).  So the two largest eigenvalues
agree within 2 n eps |M|; the worst seen over 780 random bipartite matrices,
n = 2..40, was 1.09 n eps |M|.  By Davis-Kahan each unit eigenvector turns
by at most its perturbation over the spectral gap, so on Bell matrices the
optimal-state coefficients agree within 4 d eps |M| / gap, with gap the
distance from the largest eigenvalue to the next one; the worst seen over
1,180 Bell matrices (m in {2, 3, 4, 5, 10}, d = 2..60, default and random
angles) was 1.54 d eps |M| / gap.  The parity twin is an O(1) move, so
agreement within that bound also means ``optimize_state`` picked the same
twin as the two-eigh optimizer it replaced (``oracles.two_eigh_optimum``).

The kernel scales B by a power of two before it squares it: unscaled, the
Gram matrix of entries near 1e160 or 1e300 overflows (eigh fails to
converge) and that of entries near 1e-160 or 1e-300 underflows (sigma off
by 1e-5 or entirely).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellscope.numerics import _residual, _top_pair, max_eigenpair
from bellscope.signbin import (
    AngleSettings,
    bell_matrix,
    default_optimizer_angles,
    optimize_state,
)
from oracles import bipartite, stationarity_residual, two_eigh_optimum

EPS = np.finfo(float).eps
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)

angle = st.floats(min_value=-math.pi, max_value=math.pi)


def first_significant(v):
    return next(x for x in v if abs(x) > 1e-12)


@PROPERTY
@given(n=st.integers(min_value=2, max_value=40), seed=st.integers(0, 2**32 - 1))
def test_random_bipartite_matches_full_eigh(n, seed):
    """Odd n gives a rectangular block with one more row than columns."""
    rng = np.random.default_rng(seed)
    matrix = bipartite(rng.standard_normal(((n + 1) // 2, n // 2)))
    lam, v = max_eigenpair(matrix)
    norm = np.linalg.norm(matrix, 2)
    assert abs(lam - np.linalg.eigh(matrix)[0][-1]) <= 2 * n * EPS * norm
    assert np.linalg.norm(matrix @ v - lam * v) <= 1e-10 * max(1.0, lam)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert first_significant(v) > 0.0


@PROPERTY
@given(
    m=st.sampled_from((2, 3, 4, 10)),
    d=st.integers(min_value=2, max_value=60),
    drawn=st.none() | st.lists(angle, min_size=20, max_size=20),
)
def test_optimize_state_matches_two_eigh(m, d, drawn):
    if drawn is None:
        angles = default_optimizer_angles(m)
    else:
        angles = AngleSettings(drawn[:m], drawn[10:10 + m])
    lam, state = optimize_state(m, d, angles)
    lam_oracle, c_oracle = two_eigh_optimum(m, d, angles)
    assert abs(lam - lam_oracle) <= 1e-13 * abs(lam_oracle)
    w = np.linalg.eigvalsh(bell_matrix(m, d, angles))
    bound = 4 * d * EPS * max(abs(w[0]), abs(w[-1])) / (w[-1] - w[-2])
    assert np.abs(np.asarray(state.coefficients) - c_oracle).max() <= bound


def check_top_pair(b):
    """``_top_pair`` against ``np.linalg.svd``: sigma within (p + q) eps
    relative, unit vectors, and residuals |B v - s u|, |B.T u - s v| at the
    (p + q) eps sigma level (on B / sigma, so that no norm over- or
    underflows)."""
    u, s, v = _top_pair(b)
    p, q = b.shape
    tol = (p + q) * EPS
    sigma = np.linalg.svd(b, compute_uv=False)[0]
    assert abs(s - sigma) <= tol * sigma
    assert u.shape == (p,) and v.shape == (q,)
    assert abs(np.linalg.norm(u) - 1.0) <= tol and abs(np.linalg.norm(v) - 1.0) <= tol
    if sigma:
        a, t = b / sigma, s / sigma
        assert np.linalg.norm(a @ v - t * u) <= tol
        assert np.linalg.norm(a.T @ u - t * v) <= tol
    return s


@pytest.mark.parametrize("shape", ((1, 1), (3, 3), (4, 3), (3, 4)))
def test_top_pair_of_a_zero_block(shape):
    assert check_top_pair(np.zeros(shape)) == 0.0


@pytest.mark.parametrize("n", (1, 2, 5))
def test_top_pair_of_a_repeated_top_value(n):
    assert abs(check_top_pair(np.eye(n)) - 1.0) <= 2 * n * EPS


@pytest.mark.parametrize("shape", ((5, 1), (1, 5), (6, 4), (4, 6)))
def test_top_pair_of_a_rank_one_block(shape):
    rng = np.random.default_rng(sum(shape))
    left, right = rng.standard_normal(shape[0]), rng.standard_normal(shape[1])
    s = check_top_pair(np.outer(left, right))
    assert abs(s - np.linalg.norm(left) * np.linalg.norm(right)) <= 4 * sum(shape) * EPS * s


@pytest.mark.parametrize("scale", (1.0, 1e150, 1e-150, 1e160, 1e-160, 1e300, 1e-300))
@pytest.mark.parametrize("shape", ((7, 4), (4, 7), (6, 6)))
def test_top_pair_at_extreme_scales(shape, scale):
    b = np.random.default_rng(7).standard_normal(shape) * scale
    assert np.isfinite(check_top_pair(b))


@PROPERTY
@given(p=st.integers(1, 40), q=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_top_pair_of_random_blocks(p, q, seed):
    """Both orientations: the Gram matrix is taken on the shorter side."""
    check_top_pair(np.random.default_rng(seed).standard_normal((p, q)))


@pytest.mark.parametrize("n", (2, 3, 8, 9))
def test_zero_bipartite_matrix(n):
    """lam = 0 with a unit vector; the residual certificate raises nothing."""
    lam, v = max_eigenpair(np.zeros((n, n)))
    assert lam == 0.0
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-15


@st.composite
def blocks_and_vectors(draw):
    """A random block or a Bell block (odd d included), with a vector of
    the matrix's dimension."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=40))
        b = rng.standard_normal(((n + 1) // 2, n // 2))
    else:
        m, n = draw(st.sampled_from((2, 3, 10))), draw(st.integers(min_value=2, max_value=61))
        b = bell_matrix(m, n, default_optimizer_angles(m))[0::2, 1::2]
    return b, rng.standard_normal(n)


@PROPERTY
@given(blocks_and_vectors())
def test_block_residuals_agree_with_full_matrix_residuals(problem):
    """The eigen and KKT residuals read from the block (``_residual``, M v as
    (B y, B.T x)) against the same residuals on the full matrix, at the
    solver's answers and at a random pair: within rounding.  Each entry of
    either product M v is off by at most n eps (|M| |v|)_i, and a norm by
    at most n eps of itself."""
    b, v = problem
    matrix = bipartite(b)
    n = v.size
    pairs = [max_eigenpair(matrix, constraint="nonnegative"), (float(v @ matrix @ v), v)]
    if n >= 2:
        pairs.append(max_eigenpair(matrix))
    for lam, x in pairs:
        slack = 2 * n * EPS * (np.linalg.norm(np.abs(matrix) @ np.abs(x)) + abs(lam) * np.linalg.norm(x))
        for nonnegative in (False, True):
            block_res = _residual(b, x, lam, nonnegative)
            grad = matrix @ x - lam * x
            full_res = stationarity_residual(matrix, x, lam) if nonnegative else np.linalg.norm(grad)
            assert abs(block_res - full_res) <= slack + 2 * n * EPS * max(block_res, full_res)
