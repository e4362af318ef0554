"""Batched quadrature, shared mode tables and the Gram-matrix inner product,
each against the one-at-a-time form it replaced (``tests/oracles.py``).

Batching changes how often an integrand is called, never a result: values,
and the error estimate an ``IntegrationError`` carries, must be equal with
``==``.  That is what keeps the psi3 curve's rounding-noise column, which
the benchmark pins at relative 1e-9, where it is.

The oracle integrator shares the program's ``np.vecdot`` panel sums, so
those comparisons do not depend on the numpy build.  That ``np.vecdot``
rounds like the ``@`` of the integrator before batching does depend on it
(the numpy/BLAS build picks the dot kernel); ``test_vecdot_rounds_like_matmul``
checks that one fact on its own.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellscope.catprep import (
    CoherentSuperposition,
    bs_transform,
    homodyne_project,
    scs_state,
    tensor,
)
from bellscope.numerics import _GK_WG, _GK_WK, IntegrationError, integrate_segments
from bellscope.rootbin import binned_product_probabilities, cat_pair, psi3_bell_report
from oracles import (
    binned_probabilities_every_entry,
    cat_state_terms,
    inner_product_loop,
    integrate_segments_one_panel_at_a_time,
    psi3_report_every_entry,
)

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)
SLOW_PROPERTY = settings(max_examples=12, deadline=None, derandomize=True)

# Integrand families (location p, scale q); the kinked and peaked ones make
# the integrator bisect, the last two are complex.
INTEGRANDS = {
    "gauss": lambda p, q: lambda x: np.exp(-q * (x - p) ** 2),
    "kink": lambda p, q: lambda x: q * np.abs(x - p),
    "peak": lambda p, q: lambda x: 1.0 / (1e-3 + q * (x - p) ** 2),
    "wave": lambda p, q: lambda x: np.sin(10.0 * q * x + p),
    "chirp": lambda p, q: lambda x: np.exp(-x * x) * np.exp(8j * q * x),
    "complex-kink": lambda p, q: lambda x: np.abs(x - p) * np.exp(1j * p * x),
}

edge = st.floats(min_value=-6.0, max_value=6.0)
segment_lists = st.lists(st.tuples(edge, edge), max_size=8)


def outcome(integrator, f, segments, tol, max_intervals):
    """(result, its type) or the IntegrationError's message and error."""
    try:
        value = integrator(f, segments, tol=tol, max_intervals=max_intervals)
    except IntegrationError as exc:
        return "error", str(exc), exc.achieved_error
    return "value", value, type(value)


@PROPERTY
@given(
    kind=st.sampled_from(sorted(INTEGRANDS)),
    p=st.floats(min_value=-3.0, max_value=3.0),
    q=st.floats(min_value=0.1, max_value=5.0),
    segments=segment_lists,
    tol=st.sampled_from((1e-4, 1e-8, 1e-12)),
    max_intervals=st.integers(min_value=1, max_value=64),
)
@example(kind="peak", p=0.3, q=5.0, segments=[(-6.0, 6.0)], tol=1e-12, max_intervals=64)
@example(kind="chirp", p=0.0, q=5.0, segments=[(-4.0, 0.0), (0.0, 4.0)], tol=1e-12,
         max_intervals=4096)
@example(kind="kink", p=0.1, q=1.0, segments=[(1.0, 1.0), (2.0, -1.0)], tol=1e-10,
         max_intervals=4096)
def test_integrate_segments_matches_one_panel_at_a_time(
    kind, p, q, segments, tol, max_intervals
):
    f = INTEGRANDS[kind](p, q)
    batched = outcome(integrate_segments, f, segments, tol, max_intervals)
    single = outcome(integrate_segments_one_panel_at_a_time, f, segments, tol, max_intervals)
    assert batched == single


@pytest.mark.parametrize("dtype", (float, complex))
def test_vecdot_rounds_like_matmul(dtype):
    """Batched panel sums ``np.vecdot(W, ys)`` equal the per-panel ``W @ y``
    of the integrator before batching, bit for bit.  numpy does not promise
    this: it holds when both reach the same dot kernel of the numpy/BLAS
    build.  Where it fails, quadrature results and the psi3 curve's pinned
    rounding-noise column can move in the last bits."""
    rng = np.random.default_rng(5)
    ys = rng.standard_normal((2000, 15)) * 10.0 ** rng.uniform(-8, 8, (2000, 1))
    if dtype is complex:
        ys = ys + 1j * rng.standard_normal((2000, 15))
    for weights in (_GK_WK, _GK_WG):
        batched = np.vecdot(weights, ys).tolist()
        assert batched == [weights @ row for row in ys]


def test_non_finite_integrand_rejected_in_a_batch():
    def f(x):
        return np.where(x > 1.9, np.inf, x)

    for integrator in (integrate_segments, integrate_segments_one_panel_at_a_time):
        with pytest.raises(IntegrationError, match="non-finite"):
            integrator(f, [(0.0, 1.0), (1.0, 2.0)])


def test_one_integrand_call_per_batch():
    """All initial segments in one call, then one call per bisection with
    the nodes of both halves."""
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.abs(x - 0.3)

    integrate_segments(f, [(-1.0, 0.0), (0.0, 1.0), (1.0, 2.0)], tol=1e-12)
    assert sizes[0] == 3 * 15
    assert len(sizes) > 1 and set(sizes[1:]) == {2 * 15}


@SLOW_PROPERTY
@given(alpha=st.floats(min_value=0.3, max_value=4.0))
@example(alpha=0.5)  # bell_x_unprimed is rounding noise here
@example(alpha=1.1)
@example(alpha=3.0)
def test_psi3_report_equals_every_entry_integrated(alpha):
    shared = psi3_bell_report(alpha)
    direct = psi3_report_every_entry(alpha)
    assert shared.bell_x_unprimed == direct.bell_x_unprimed
    assert shared.bell_p_unprimed == direct.bell_p_unprimed
    assert shared.correlators == direct.correlators
    assert shared.probability_sums == direct.probability_sums
    assert shared.min_probability == direct.min_probability


@SLOW_PROPERTY
@given(
    alpha=st.floats(min_value=0.4, max_value=3.0),
    theta=st.floats(min_value=-math.pi, max_value=math.pi),
    settings_=st.text(alphabet="xp", min_size=1, max_size=3),
)
def test_binned_probabilities_equal_every_entry_integrated(alpha, theta, settings_):
    terms = cat_state_terms(alpha, len(settings_), theta)
    pair = cat_pair(alpha)
    assert binned_product_probabilities(
        terms, settings_, pair
    ) == binned_probabilities_every_entry(terms, settings_, pair)


amplitude = st.floats(min_value=-3.0, max_value=3.0)
weight = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def superposition_pairs(draw):
    n_modes = draw(st.integers(min_value=1, max_value=4))

    def state():
        terms = draw(st.lists(
            st.tuples(weight, st.lists(amplitude, min_size=n_modes, max_size=n_modes)),
            min_size=1,
            max_size=6,
        ))
        return CoherentSuperposition(*zip(*terms))

    return state(), state()


@PROPERTY
@given(superposition_pairs())
def test_inner_product_matches_loop(states):
    """Within 1e-13 of the sum of |w_i w_j <a_i|b_j>|, the scale that the
    rounding of either form is relative to."""
    left, right = states
    scale = sum(
        abs(w_i * w_j) * math.exp(-0.5 * sum((a - b) ** 2 for a, b in zip(a_i, a_j)))
        for w_i, a_i in zip(left.weights, left.amplitudes)
        for w_j, a_j in zip(right.weights, right.amplitudes)
    )
    assert abs(left.inner_product(right) - inner_product_loop(left, right)) <= 1e-13 * scale


@pytest.mark.parametrize("alpha", (1.0, 2.5, 4.0))
def test_pipeline_norms_match_loop(alpha):
    """The conditional states of the preparation network, relative 1e-13."""
    mixed = bs_transform(bs_transform(tensor(*(scs_state(alpha),) * 4), 0, 1), 2, 3)
    for x0 in (-math.sqrt(2.0) * alpha, 0.0, 0.7):
        state, _ = homodyne_project(mixed, 0, x0)
        assert state.norm_squared() == pytest.approx(
            inner_product_loop(state, state).real, rel=1e-13
        )
