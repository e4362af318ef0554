"""The alternating power steps of ``max_eigenpair(..., constraint="nonnegative")``
against the solver they replaced: projected ascent with a support polish
from 35 starts, 32 of them random (``oracles.projected_ascent_optimum``).

Both are local searches on a non-convex problem, so neither bounds the other
on every matrix.  Every solve must return a non-negative unit vector whose
stationarity (KKT) residual is <= 1e-8.  On random bipartite matrices the new
value must reach the old one.  On Bell matrices the larger of the two signs,
the value ``optimize_state`` reports, must reach the old one.  One sign alone
is not enough: on the losing sign of the GHZ-like angles at m = 3 (0.1404,
against 2.2046 on the other sign) a random start of the old solver finds a
better local optimum at 7 of the truncations d = 2..60, by at most 6.7e-5.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bellscope.numerics import max_eigenpair
from bellscope.signbin import AngleSettings, bell_matrix, default_optimizer_angles
from oracles import bipartite, projected_ascent_optimum, stationarity_residual

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
# the old solver takes up to 0.5 s on each sign of a d = 60 Bell matrix
SLOW_PROPERTY = settings(max_examples=8, deadline=None, derandomize=True)

angle = st.floats(min_value=-math.pi, max_value=math.pi)


def solve(matrix):
    """The constrained value, after checking feasibility and the KKT residual."""
    lam, v = max_eigenpair(matrix, constraint="nonnegative")
    assert v.min() >= 0.0
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert stationarity_residual(matrix, v, lam) <= 1e-8
    assert abs(lam - v @ matrix @ v) <= 1e-12 * (1.0 + abs(lam))
    return lam


@PROPERTY
@given(n=st.integers(min_value=1, max_value=40), seed=st.integers(0, 2**32 - 1))
def test_random_bipartite_reaches_old_solver(n, seed):
    rng = np.random.default_rng(seed)
    matrix = bipartite(rng.standard_normal(((n + 1) // 2, n // 2)))
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
    new = max(solve(matrix), solve(-matrix))
    old = max(projected_ascent_optimum(matrix)[0], projected_ascent_optimum(-matrix)[0])
    assert new >= old - 1e-12
