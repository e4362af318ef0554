"""The scans in m against their one-m-at-a-time oracles in ``tests/oracles.py``,
compared with ``==``.

``signbin.ghz_bell_factors`` evaluates a whole noise-sweep scan as padded
batches of MK sums (``mk.mk_sum_scaled`` with ``parties``), and
``rootbin._mk_class_sums`` takes root-max's products as scalar powers.  Both
must give every bit that one array MK sum per m gave.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellscope import mk, rootbin, signbin
from bellscope.rootbin import LABELINGS, RootBinningSpec, bell_factor_root, optimal_phase
from bellscope.signbin import AngleSettings, FockCorrelatedState, bell_expectation_sign
from oracles import (
    bell_expectation_sign_per_m,
    bell_factor_root_per_m,
    ghz_bell_factor_per_m,
    mk_class_sums_per_m,
    mk_sum_scaled_per_m,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def test_ghz_bell_factors_equal_the_per_m_oracle():
    """The batch writes the GHZ-like angles itself; the oracle takes them
    from ``ghz_like_angles``."""
    ms = range(2, 1101)
    assert signbin.ghz_bell_factors(ms) == [ghz_bell_factor_per_m(m) for m in ms]


@pytest.mark.parametrize(
    "ms",
    (
        [5],
        [256, 257, 512, 513, 255, 2, 1100],  # every batch a different block count
        list(range(530, 249, -10)),
        [1500, 2048, 5873],
    ),
    ids=("one", "block-edges", "descending", "large"),
)
def test_any_list_of_m_equals_the_per_m_oracle(ms):
    assert signbin.ghz_bell_factors(ms) == [ghz_bell_factor_per_m(m) for m in ms]


def test_batches_share_a_block_count_and_stay_bounded(monkeypatch):
    batches = []
    batched = signbin._bell_expectations

    def spy(c, parties, angles):
        batches.append((list(parties), angles.shape))
        return batched(c, parties, angles)

    monkeypatch.setattr(signbin, "_bell_expectations", spy)
    ms = [*range(2, 1101), 3000]
    signbin.ghz_bell_factors(ms)
    # the batches run from the largest m down; put back in the order of ms they are ms
    assert [max(p) for p, _ in batches] == sorted((max(p) for p, _ in batches), reverse=True)
    in_order = sorted(batches, key=lambda batch: ms.index(batch[0][0]))
    assert [m for parties, _ in in_order for m in parties] == ms
    for parties, shape in batches:
        assert shape == (2, max(parties), len(parties))
        assert len({-(-m // mk._BLOCK) for m in parties}) == 1
        assert len(parties) == 1 or shape[1] * shape[2] <= signbin._SLOTS_PER_BATCH
    assert ([3000], (2, 3000, 1)) in batches


def first_overflow(ms):
    """The OverflowError of the per-m oracle run over ms in order."""
    for m in ms:
        try:
            ghz_bell_factor_per_m(m)
        except OverflowError as error:
            return str(error)
    return None


def test_a_scan_past_the_float_range_fails_before_the_smaller_m(monkeypatch):
    """The batches run from m = 6000 down and stop at the first one that
    fits, m = 5873, so no batch of a smaller m runs before the
    OverflowError; its message is that of m = 5874, the first failure in
    the order of ms, as CI pins for ``noise-sweep --m 5872:5876:1``."""
    batches = []
    batched = signbin._bell_expectations

    def spy(c, parties, angles):
        batches.append(list(parties))
        return batched(c, parties, angles)

    monkeypatch.setattr(signbin, "_bell_expectations", spy)
    with pytest.raises(OverflowError) as error:
        signbin.ghz_bell_factors(range(2, 6001))
    assert min(m for parties in batches for m in parties) == 5873
    assert str(error.value) == first_overflow([5874]) == "Bell value e^709.821 exceeds the float range"


@pytest.mark.parametrize(
    "ms", ([5872, 5873, 5874, 5875, 5876], [5880, 5874, 3], [3, 6000, 5874, 5873], [5873, 300])
)
def test_the_first_failure_in_the_order_of_ms_is_raised(ms):
    expected = first_overflow(ms)
    if expected is None:
        assert signbin.ghz_bell_factors(ms) == [ghz_bell_factor_per_m(m) for m in ms]
    else:
        with pytest.raises(OverflowError) as error:
            signbin.ghz_bell_factors(ms)
        assert str(error.value) == expected


def test_ghz_bell_factors_reject_one_party():
    with pytest.raises(ValueError, match="m >= 2"):
        signbin.ghz_bell_factors([3, 1])


def test_ghz_bell_factors_read_any_iterable_once():
    """A generator is read once, not drained by the range check; no m, no
    values."""
    assert signbin.ghz_bell_factors(m for m in (3, 4, 300)) == signbin.ghz_bell_factors([3, 4, 300])
    assert signbin.ghz_bell_factors(iter(())) == []


@st.composite
def states_and_angles(draw):
    m = draw(st.integers(2, 40))
    c = np.array(draw(st.lists(st.floats(-1, 1), min_size=1, max_size=12)))
    if not np.any(np.abs(c) > 1e-3):
        c = np.append(c, 1.0)
    angle = st.floats(-2 * math.pi, 2 * math.pi)
    theta = draw(st.lists(angle, min_size=m, max_size=m))
    theta_prime = draw(st.lists(angle, min_size=m, max_size=m))
    return FockCorrelatedState(m, c / np.linalg.norm(c)), AngleSettings(theta, theta_prime)


@PROPERTY
@given(states_and_angles())
def test_bell_expectation_sign_equals_the_per_m_oracle(problem):
    state, angles = problem
    assert bell_expectation_sign(state, angles) == bell_expectation_sign_per_m(state, angles)


def test_padded_sums_keep_every_bit_within_one_block_count():
    """Sums padded to the longest of their batch equal each sum alone, where
    all fill the same number of mk._BLOCK blocks."""
    rng = np.random.default_rng(3)
    for ms in ([1, 7, 256], [257, 300, 512], [513, 700]):
        longest = max(ms)
        a = rng.normal(size=(longest, len(ms), 2)) + 1j * rng.normal(size=(longest, len(ms), 2))
        b = rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape)
        mantissa, exponent = mk.mk_sum_scaled(a, b, np.array(ms)[:, None])
        for i, m in enumerate(ms):
            alone = mk_sum_scaled_per_m(a[:m, i], b[:m, i])
            assert np.array_equal(mantissa[i], alone[0])
            assert np.array_equal(exponent[i], alone[1])


def test_a_lone_sum_rounds_like_one_in_a_batch():
    """The product sides are the kernel's last axis, so numpy multiplies
    party by party for every batch shape, a single sum included."""
    rng = np.random.default_rng(5)
    for m in (3, 16, 300, 700):
        a = rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3))
        b = rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape)
        mantissa, exponent = mk.mk_sum_scaled(a, b)
        for i in range(3):
            assert mk.mk_sum_scaled(a[:, i], b[:, i]) == (mantissa[i], exponent[i])


@pytest.mark.parametrize("parties", (0, 4, [1, 4]))
def test_party_counts_must_fit_axis_0(parties):
    with pytest.raises(ValueError, match="party counts"):
        mk.mk_sum_scaled(np.ones((3, 2)), np.ones((3, 2)), parties)


def test_root_max_values_equal_the_per_m_oracle():
    """m = 2..2046, the whole range below the float limit, at the optimal
    phase and a fixed one of either sign, for every labeling."""
    for m in range(2, 2047):
        class_sums = mk_class_sums_per_m(1.0, 1.0, m)
        assert rootbin._mk_class_sums(1.0, 1.0, m) == class_sums
        for theta in (optimal_phase(m), 0.3, -0.3):
            spec = RootBinningSpec(1.0, 1.0, theta, m)
            for labeling in (*LABELINGS, "best"):
                expected = bell_factor_root_per_m(class_sums, theta, labeling)
                assert bell_factor_root(spec, labeling) == expected


@PROPERTY
@given(st.floats(0, 1), st.floats(0, 1), st.integers(1, 1200))
def test_class_sums_off_v_w_1_within_rounding_of_the_oracle(v, w, m):
    """Below V = W = 1 the powers round differently from the running product,
    by a few m ulps of the largest |c_t| times sum_t |E_t|."""
    scale = 2.0**1.5 * ((v + w) / math.sqrt(2.0)) ** m  # 2^((3-m)/2) (v+w)^m
    for new, old in zip(rootbin._mk_class_sums(v, w, m), mk_class_sums_per_m(v, w, m)):
        assert abs(new - old) <= 1e-15 * m * scale + 1e-300


def test_class_sums_overflow_where_the_oracle_does():
    with pytest.raises(OverflowError, match="^Mermin-Klyshko sum exceeds the float range$"):
        rootbin._mk_class_sums(1.0, 1.0, 2047)
    with pytest.raises(OverflowError, match="^Mermin-Klyshko sum exceeds the float range$"):
        mk_class_sums_per_m(1.0, 1.0, 2047)
    assert all(map(math.isfinite, (abs(z) for z in rootbin._mk_class_sums(1.0, 1.0, 2046))))
