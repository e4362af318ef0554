"""Batched quadrature, the lockstep batch of many integrals, shared mode
tables, the psi3 grid and the Gram-matrix inner product, each against the
one-at-a-time form it replaced (``tests/oracles.py``).

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

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellscope.catprep import CoherentSuperposition, bs_transform, scs_state, tensor
from bellscope import cli, numerics, rootbin
from bellscope.numerics import (
    _GK_NODES,
    _GK_WG,
    _GK_WK,
    IntegrationError,
    integrate_batch,
    integrate_segments,
)
from bellscope.rootbin import binned_product_probabilities, psi3_bell_report
from oracles import (
    binned_probabilities_every_entry,
    cat_state_terms,
    homodyne_project,
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


location = st.floats(min_value=-3.0, max_value=3.0)
scale = st.floats(min_value=0.1, max_value=5.0)
# One family: an INTEGRANDS kind and its integrals as (p, q, segments).
family = st.tuples(
    st.sampled_from(sorted(INTEGRANDS)),
    st.lists(st.tuples(location, scale, segment_lists), max_size=4),
)


def flat(segment_lists):
    """(segments, owner, n): one (a, b) row per segment of the n lists, and
    each row's list, the layout ``integrate_batch`` takes."""
    owner = [i for i, segments in enumerate(segment_lists) for _ in segments]
    rows = [row for segments in segment_lists for row in segments]
    return np.array(rows, dtype=float).reshape(-1, 2), np.array(owner, dtype=int), len(segment_lists)


def family_integrand(kind, members):
    """f(x, owner) of a family: each integral's (p, q) broadcast per node."""
    p = np.array([m[0] for m in members])
    q = np.array([m[1] for m in members])
    return lambda x, owner: INTEGRANDS[kind](p[owner], q[owner])(x)


@PROPERTY
@given(
    families=st.lists(family, min_size=1, max_size=3),
    tol=st.sampled_from((1e-4, 1e-8, 1e-12)),
    max_intervals=st.integers(min_value=1, max_value=64),
)
@example(  # empty lists, zero-length segments, one converged at round 0
    families=[
        ("gauss", [(0.0, 1.0, []), (0.3, 2.0, [(1.0, 1.0)]), (0.1, 0.5, [(-1.0, 1.0)])]),
        ("complex-kink", [(0.5, 1.0, [(-2.0, 0.0), (0.0, 0.0), (0.0, 2.0)]), (0.0, 1.0, [])]),
        ("chirp", []),
    ],
    tol=1e-4,
    max_intervals=4096,
)
@example(  # two members exhaust their subdivisions, in different rounds
    families=[
        ("peak", [(0.3, 5.0, [(-6.0, 6.0)]), (0.2, 1.0, [(-6.0, 0.0), (0.0, 6.0)])]),
        ("kink", [(0.1, 1.0, [(-1.0, 2.0)])]),
    ],
    tol=1e-12,
    max_intervals=8,
)
@example(  # two members exhaust their subdivisions in the same round
    families=[("peak", [(0.3, 5.0, [(-6.0, 6.0)]), (-0.4, 2.0, [(-6.0, 6.0)])])],
    tol=1e-12,
    max_intervals=8,
)
def test_batch_matches_each_integral_one_panel_at_a_time(families, tol, max_intervals):
    """Member by member ``==`` with the one-at-a-time integrator.  The batch
    raises exactly when some member does alone; the member that raises is
    the first by (round, position), and the error carries its estimate."""
    singles, first_failure = [], None
    for kind, members in families:
        for p, q, segments in members:
            single = outcome(
                integrate_segments_one_panel_at_a_time,
                INTEGRANDS[kind](p, q), segments, tol, max_intervals,
            )
            singles.append(single)
            if single[0] == "error":
                # a member with n nonzero segments raises in round
                # max_intervals - n, before any bisection if that is <= 0
                n = sum(b != a for a, b in segments)
                key = (max(max_intervals - n, 0), len(singles))
                first_failure = min(first_failure or (key, single), (key, single))
    try:
        results = integrate_batch(
            [(family_integrand(kind, members), *flat([m[2] for m in members]))
             for kind, members in families],
            tol=tol, max_intervals=max_intervals,
        )
    except IntegrationError as exc:
        assert first_failure is not None
        assert ("error", str(exc), exc.achieved_error) == first_failure[1]
        return
    assert first_failure is None
    batched = [("value", v, type(v)) for values in results for v in values]
    assert batched == singles


# Integrands that bisect hundreds of times at tol = 1e-12 (a comb of narrow
# peaks about 860 times on (-6, 6)), and a narrow spike and a kink that
# bisect tens of times.
DEEP = {
    "comb": lambda p, q: lambda x: 1.0 / (1e-4 + q * np.sin(5.0 * (x - p)) ** 2),
    "wave": lambda p, q: lambda x: np.sin(40.0 * q * x + p),
    "complex-comb": lambda p, q: lambda x: (
        np.exp(4j * x) / (1e-3 + q * np.sin(3.0 * (x - p)) ** 2)
    ),
    "spike": lambda p, q: lambda x: 1.0 / (1e-6 + q * (x - p) ** 2),
    "kink": lambda p, q: lambda x: q * np.abs(x - p),
}


def owner_dispatch(integrands):
    """f(x, owner) of a family: integral i's nodes go to integrands[i]."""
    def f(x, owner):
        parts = [np.asarray(g(x[owner == i])) for i, g in enumerate(integrands)]
        out = np.zeros(x.shape, dtype=np.result_type(*parts))
        for i, part in enumerate(parts):
            out[owner == i] = part
        return out
    return f


def assert_batch_matches_alone(families, tol, max_intervals):
    """``integrate_batch`` over families of (integrand, segments) members
    against each member integrated alone by the one-panel-at-a-time oracle:
    values, their types, and the error text and estimate of the first
    member (by round, then position) to run out of subdivisions, all with
    ``==``.  Returns the oracle's stopping rule of each member."""
    alone, stops, first_failure = [], [], None
    for members in families:
        for f, segments in members:
            single = outcome(
                functools.partial(integrate_segments_one_panel_at_a_time, stops=stops),
                f, segments, tol, max_intervals,
            )
            alone.append(single)
            if single[0] == "error":
                key = (max(max_intervals - sum(b != a for a, b in segments), 0), len(alone))
                first_failure = min(first_failure or (key, single), (key, single))
    try:
        results = integrate_batch(
            [(owner_dispatch([f for f, _ in members]), *flat([s for _, s in members]))
             for members in families],
            tol=tol, max_intervals=max_intervals,
        )
    except IntegrationError as exc:
        assert first_failure is not None and type(exc.achieved_error) is float
        assert ("error", str(exc), exc.achieved_error) == first_failure[1]
        return stops
    assert first_failure is None
    assert [("value", v, type(v)) for values in results for v in values] == alone
    return stops


deep_member = st.tuples(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.5, max_value=4.0),
    st.lists(st.tuples(edge, edge), min_size=1, max_size=3),
)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    families=st.lists(
        st.tuples(st.sampled_from(sorted(DEEP)), st.lists(deep_member, min_size=1, max_size=3)),
        min_size=1, max_size=2,
    ),
    max_intervals=st.sampled_from((128, 1024, 4096)),
)
@example(families=[("comb", [(0.1, 2.0, [(-6.0, 6.0)]), (-0.3, 1.0, [(-6.0, 0.3), (0.3, 5.0)])]),
                   ("complex-comb", [(0.2, 1.5, [(-6.0, 6.0)])])],
         max_intervals=4096)
def test_deep_bisection_matches_one_panel_at_a_time(families, max_intervals):
    """Integrals bisected hundreds of times, past the 64 intervals of the
    properties above, grow each row of panels by hundreds of columns."""
    assert_batch_matches_alone(
        [[(DEEP[kind](p, q), segments) for p, q, segments in members] for kind, members in families],
        1e-12, max_intervals,
    )


def nodes(a, b):
    """The 15 nodes of the panel (a, b), as the integrator computes them."""
    return 0.5 * (a + b) + 0.5 * (b - a) * _GK_NODES


def on_nodes(panels):
    """An integrand equal to ``y`` on the nodes of each panel (a, b) of
    ``panels`` (a dict (a, b) -> y) and 0 everywhere else."""
    table = {}
    for (a, b), y in panels.items():
        table.update(zip(nodes(a, b).tolist(), y))
    return lambda x: np.array([table.get(v, 0.0) for v in x.tolist()])


ZERO_ERROR_SEGMENTS = [(-1.0, 0.3), (0.3, 2.0)]
# (families, tol, max_intervals, the oracle's stopping rule of each member)
STOPPING_RULES = {
    "tolerance": ([[(DEEP["wave"](0.2, 1.0), [(-6.0, 6.0)])]], 1e-12, 4096, ["tolerance"]),
    # with tol = 0 only the floor 64 eps sum |values| can stop the spike
    "sum floor": ([[(DEEP["spike"](0.1, 2.0), [(-6.0, 6.0)])]], 0.0, 4096, ["sum floor"]),
    # both initial panels bisected, the summed error is 7e-18 of rounding
    # left over while every panel left has error 0
    # (nonzero only on the initial nodes, so every half has error 0)
    "zero-error panel": (
        [[(on_nodes({s: 0.1 * np.sin(40.0 * nodes(*s)) for s in ZERO_ERROR_SEGMENTS}),
           ZERO_ERROR_SEGMENTS)]],
        0.0, 4096, ["zero-error panel"],
    ),
    # one member of each of two families runs out in round 39; the first
    # family's raises
    "same-round exhaustion": (
        [[(DEEP["comb"](0.1, 2.0), [(-6.0, 6.0)])], [(DEEP["wave"](0.2, 1.0), [(-6.0, 6.0)])]],
        1e-12, 40, ["exhausted", "exhausted"],
    ),
}


def test_an_initial_panel_beats_a_half_with_an_equal_error():
    """(1, 2) and the half (0, 0.5) of (0, 1) have the same error estimate
    (twice the values on half the width); the initial panel is bisected
    first, as the heap's insertion order has it.  Its halves carry error and
    the other's do not, so the estimate at the fourth interval tells."""
    unit = np.eye(15)[0]
    f = on_nodes({(0.0, 1.0): 100.0 * unit, (1.0, 2.0): unit, (0.0, 0.5): 2.0 * unit,
                  (1.0, 1.5): 0.3 * unit, (1.5, 2.0): 0.7 * unit})
    assert assert_batch_matches_alone([[(f, [(0.0, 1.0), (1.0, 2.0)])]], 1e-20, 4) == ["exhausted"]


@pytest.mark.parametrize("rule", sorted(STOPPING_RULES))
def test_each_stopping_rule_matches_one_panel_at_a_time(rule):
    families, tol, max_intervals, stops = STOPPING_RULES[rule]
    assert assert_batch_matches_alone(families, tol, max_intervals) == stops


def test_hypot_rounds_like_complex_abs():
    """Initial panel errors and running sums take the abs of complex arrays
    with np.hypot, which must round as Python's complex abs does; numpy's
    complex abs does not always."""
    rng = np.random.default_rng(3)
    z = rng.standard_normal(20000) * 10.0 ** rng.uniform(-30, 30, 20000)
    z = z + 1j * rng.standard_normal(20000) * 10.0 ** rng.uniform(-30, 30, 20000)
    assert numerics._abs(z).tolist() == [abs(c) for c in z.tolist()]


def test_psi3_curve_exits_3_when_the_batch_fails(tmp_path, monkeypatch, capsys):
    """Two intervals per integral are too few at alpha = 0.5: the batch that
    ``_mode_tables`` runs raises IntegrationError with the error estimate of
    its first failing integral, as before the tables came from flat arrays,
    and the CLI reports a numerical failure."""
    errors = []

    def batch(*args, **kwargs):
        try:
            return numerics.integrate_batch(*args, **kwargs, max_intervals=2)
        except IntegrationError as exc:
            errors.append(exc.achieved_error)
            raise

    monkeypatch.setattr(rootbin, "integrate_batch", batch)
    assert cli.main(["psi3-curve", "--alpha", "0.5", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "bellscope: numerical failure: no convergence after 2 intervals "
        "(error estimate 2.789e-08, tol 5.000e-10)\n"
    )
    assert errors == [2.7889423134211608e-08]
    assert not (tmp_path / "psi3-curve.csv").exists()


def test_smallest_amplitude_warns_nothing(tmp_path):
    """At alpha = 5e-324 the root spacing pi/(2 mu) overflows to inf, where
    0 * spacing would be nan: the array pass that cuts the partitions guards
    both, so the run warns nothing with every warning an error.  Its bytes
    are pinned in tests/test_golden_csv.py."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["psi3-curve", "--alpha", "5e-324", "--out", str(tmp_path)]) == 0
        assert rootbin._runs(np.array([5e-324])) == [(0, 1)]


def test_ungrouped_owner_raises():
    """A family's segment rows come grouped by integral, in order; rows of
    an integral split by another's, or an owner out of range, are a
    ValueError before any integrand call."""
    def f(x, owner):
        raise AssertionError("integrand called")

    rows = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
    for owner, n in (([0, 1, 0], 2), ([1, 1, 0], 2), ([0, 0, 2], 2), ([-1, 0, 0], 2)):
        with pytest.raises(ValueError, match="grouped by integral"):
            integrate_batch([(f, rows, owner, n)])
    assert integrate_batch([(lambda x, owner: x, rows, [0, 0, 2], 4)])[0] == pytest.approx([2.0, 0.0, 2.5, 0.0])


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
    (shared,) = psi3_bell_report([alpha])
    direct = psi3_report_every_entry(alpha)
    assert shared.bell_x_unprimed == direct.bell_x_unprimed
    assert shared.bell_p_unprimed == direct.bell_p_unprimed
    assert shared.correlators == direct.correlators
    assert shared.probability_sums == direct.probability_sums
    assert shared.min_probability == direct.min_probability


def test_psi3_grid_equals_every_entry_integrated():
    """One lockstep batch for an unsorted grid with a duplicate, from the
    smallest amplitude the curve is run at to where the p partition first
    differs from the callable pair's (6.85) and beyond; each report equals
    the one-amplitude oracle in every field."""
    grid = [6.85, 1e-9, 12.0, 0.05, 1.1, 0.05]
    oracle = {alpha: psi3_report_every_entry(alpha) for alpha in set(grid)}
    reports = psi3_bell_report(grid)
    assert [r.alpha for r in reports] == grid
    for report in reports:
        direct = oracle[report.alpha]
        assert report.bell_x_unprimed == direct.bell_x_unprimed
        assert report.bell_p_unprimed == direct.bell_p_unprimed
        assert report.correlators == direct.correlators
        assert report.probability_sums == direct.probability_sums
        assert report.min_probability == direct.min_probability


def p_widths(alphas):
    """Each amplitude's p pieces, as ``_pieces`` cuts them."""
    return np.bincount(rootbin._pieces(alphas, np.ones(alphas.size, dtype=bool))[1], minlength=alphas.size)


def assert_runs_bound_the_padding(alphas):
    """The runs of a grid cover it in order, and a run of more than one
    amplitude times its widest p partition is at most _P_PIECES_PER_BATCH:
    every integral of a family is padded to the widest row of panels."""
    runs = rootbin._runs(alphas)
    assert [i for start, stop in runs for i in range(start, stop)] == list(range(alphas.size))
    widths = p_widths(alphas)
    for start, stop in runs:
        assert stop - start == 1 or (stop - start) * widths[start:stop].max() <= rootbin._P_PIECES_PER_BATCH
    return runs


def test_psi3_grid_runs_bound_the_batch_and_move_no_result(monkeypatch):
    """A grid is cut into consecutive runs that bound the padded panels of
    each lockstep batch; the benchmark grid is one run, and cutting every
    amplitude into its own run moves no field of any report."""
    assert len(assert_runs_bound_the_padding(np.array([1.0, 30.0, 2.0, 12.0, 20.0, 25.0, 21.0, 0.5]))) > 2
    benchmark = np.array(cli.parse_range("0.5:3.0:0.05"))
    assert rootbin._runs(benchmark) == [(0, benchmark.size)]

    alphas = [0.7, 1e-9, 3.0, 0.05, 2.2, 0.7]
    whole = psi3_bell_report(alphas)
    monkeypatch.setattr(rootbin, "_P_PIECES_PER_BATCH", 1)
    assert rootbin._runs(np.array(alphas)) == [(i, i + 1) for i in range(6)]
    assert psi3_bell_report(alphas) == whole


def test_tiny_amplitudes_and_a_wide_one_share_no_run():
    """1,500 tiny amplitudes (2 p pieces each) and alpha = 30 (5,016): in
    total p pieces, 8,018 as the count bounds them, they would fit one run, whose padded panels
    (6,004 p integrals, each row as wide as 30's widest) would take about
    0.6 GB.  Counted padded, 30 runs alone, after the tiny ones or before
    them.  Only the run bounds are checked; nothing is integrated."""
    tiny = [1e-3] * 1500
    widths = p_widths(np.array(tiny + [30.0]))
    assert widths[0] == 2 and widths[-1] == 5016
    assert assert_runs_bound_the_padding(np.array(tiny + [30.0])) == [(0, 1500), (1500, 1501)]
    assert assert_runs_bound_the_padding(np.array([30.0] + tiny)) == [(0, 1), (1, 1501)]


@pytest.mark.parametrize("alphas", ("30", "0.05:12:0.25"))
def test_psi3_memory_stays_bounded(alphas):
    """alpha = 30 alone is the widest batch the curve runs (5,016 p pieces)
    and 0.05:12:0.25 a grid of two runs (traced peaks of about 10 and
    15 MB).  The quadrature pads each integral's row of panels to the
    longest of its family; the bound keeps that padding from undoing the
    cap on a run's p pieces."""
    grid = cli.parse_range(alphas)
    psi3_bell_report(grid)  # warm: the peak below is the batch's own
    tracemalloc.start()
    try:
        psi3_bell_report(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32_000_000


@SLOW_PROPERTY
@given(
    alpha=st.floats(min_value=0.4, max_value=3.0),
    theta=st.floats(min_value=-math.pi, max_value=math.pi),
    settings_=st.text(alphabet="xp", min_size=1, max_size=3),
)
def test_binned_probabilities_equal_every_entry_integrated(alpha, theta, settings_):
    terms = cat_state_terms(alpha, len(settings_), theta)
    assert binned_product_probabilities(
        terms, settings_, alpha
    ) == binned_probabilities_every_entry(terms, settings_, alpha)


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
