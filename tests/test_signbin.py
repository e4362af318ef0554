import math

import numpy as np
import pytest

from bellscope.signbin import (
    AngleSettings,
    FockCorrelatedState,
    bell_factor_sign,
    bell_matrix,
    chsh_angles,
    converged_optimum,
    correlator_E,
    default_optimizer_angles,
    ghz_like_angles,
    optimize_state,
)

from oracles import (
    oracle_probability,
    phi_sum,
    quadrature_halfline,
    quadrature_halfline_window,
)
from physics import g_rs, hermite_halfline_overlap, outcome_probability

TWO_OVER_PI = 2.0 / math.pi


def random_state(rng, m, d):
    c = rng.standard_normal(d)
    return FockCorrelatedState(m, c / np.linalg.norm(c))


class TestState:
    def test_ghz(self):
        s = FockCorrelatedState.ghz(3)
        np.testing.assert_allclose(s.coefficients, [2 ** -0.5] * 2)
        assert s.dimension == 2

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            FockCorrelatedState(2, [1.0, 1.0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            FockCorrelatedState(0, [1.0])
        with pytest.raises(ValueError):
            FockCorrelatedState(2, [])
        with pytest.raises(ValueError):
            FockCorrelatedState(2, [math.nan])

    def test_coefficients_frozen(self):
        s = FockCorrelatedState.ghz(2)
        with pytest.raises(ValueError):
            s.coefficients[0] = 0.0


class TestHalflineOverlap:
    def test_reference_values(self):
        assert hermite_halfline_overlap(0, 0) == pytest.approx(
            math.sqrt(math.pi) / 2, rel=1e-14
        )
        assert hermite_halfline_overlap(1, 0) == pytest.approx(1.0, rel=1e-12)
        assert hermite_halfline_overlap(2, 0) == 0.0
        assert hermite_halfline_overlap(3, 0) == pytest.approx(-2.0, rel=1e-12)

    def test_symmetric_in_arguments(self):
        assert hermite_halfline_overlap(5, 2) == pytest.approx(
            hermite_halfline_overlap(2, 5), rel=1e-13
        )

    @pytest.mark.parametrize("r", range(9))
    @pytest.mark.parametrize("s", range(9))
    def test_against_quadrature(self, r, s):
        closed = hermite_halfline_overlap(r, s)
        oracle = quadrature_halfline(r, s)
        scale = math.sqrt(
            (2.0 ** r * math.factorial(r)) * (2.0 ** s * math.factorial(s))
        ) * math.sqrt(math.pi)
        assert abs(closed - oracle) <= 1e-10 * scale

    @pytest.mark.parametrize("r,s", [(20, 19), (40, 39), (45, 38), (59, 58)])
    def test_large_indices_against_quadrature(self, r, s):
        """The log-space route stays accurate across the index range the
        d = 60 optimizer uses, where the raw factors span ~1e95."""
        closed = hermite_halfline_overlap(r, s)
        width = math.sqrt(2 * r + 1) + 10.0
        oracle = quadrature_halfline_window(r, s, width, rel=1e-11)
        assert closed == pytest.approx(oracle, rel=1e-11)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            hermite_halfline_overlap(-1, 0)

    @pytest.mark.parametrize("r,s", [(200, 200), (201, 200)])
    def test_beyond_float_range_raises(self, r, s):
        """Neither a bare math range error nor inf: an OverflowError that
        says so, as from the Bell sums."""
        with pytest.raises(OverflowError, match="exceeds the float range"):
            hermite_halfline_overlap(r, s)


class TestG:
    def test_first_pair_closed_form(self):
        for m in (1, 2, 3, 6):
            for phi in (0.0, 0.4, math.pi):
                assert g_rs(1, 0, phi, m) == pytest.approx(
                    (2.0 * math.pi) ** (-m / 2.0) * math.cos(phi), rel=1e-12
                )

    def test_parity_selection_rule(self):
        for r in range(1, 21):
            for s in range(r % 2, r, 2):  # even r - s
                assert g_rs(r, s, 0.7, 3) == 0.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            g_rs(1, 1, 0.0, 2)
        with pytest.raises(ValueError):
            g_rs(0, 1, 0.0, 2)
        with pytest.raises(ValueError):
            g_rs(2, 1, 0.0, 0)

    @pytest.mark.parametrize("r,s", [(3, 0), (5, 2), (4, 1), (9, 2)])
    def test_against_product_of_quadratures(self, r, s):
        """g equals the m-th power of the quadrature half-line integral with
        the per-mode normalization, times the cosine factor."""
        m, phi = 3, math.pi
        i_half = quadrature_halfline(r, s)
        norm = (
            math.pi * 2.0 ** (r + s) * math.factorial(r) * math.factorial(s)
        ) ** (m / 2.0)
        expected = i_half ** m / norm * math.cos(phi * (r - s))
        assert g_rs(r, s, phi, m) == pytest.approx(expected, rel=1e-9, abs=1e-18)


class TestCorrelator:
    def test_ghz_closed_form(self):
        for m in range(2, 7):
            state = FockCorrelatedState.ghz(m)
            for phi in (0.0, 0.3, 2.0):
                assert correlator_E(state, phi) == pytest.approx(
                    TWO_OVER_PI ** (m / 2.0) * math.cos(phi), rel=1e-12, abs=1e-15
                )

    @pytest.mark.parametrize("m", (2, 10, 500, 1000))
    def test_ghz_closed_form_at_large_m(self, m):
        """2^m g_{1,0} underflows when formed as 2^m times g; the factor 2^m
        has to join g in log space.  At m = 1000 the value is 8.32e-99."""
        value = correlator_E(FockCorrelatedState.ghz(m), 0.3)
        assert value == pytest.approx(TWO_OVER_PI ** (m / 2.0) * math.cos(0.3), rel=1e-10)

    def test_single_excitation_vanishes(self):
        state = FockCorrelatedState(3, [0.0, 0.0, 1.0])
        for phi in (0.0, 1.0):
            assert correlator_E(state, phi) == 0.0

    def test_ghz_node(self):
        assert correlator_E(FockCorrelatedState.ghz(3), math.pi / 2) == pytest.approx(
            0.0, abs=1e-16
        )

    def test_single_parity_state_vanishes(self):
        c = np.array([0.6, 0.0, 0.8])  # support on even photon numbers only
        state = FockCorrelatedState(3, c)
        assert correlator_E(state, 0.9) == 0.0


class TestOutcomeProbability:
    def test_ghz3_all_plus(self):
        p = outcome_probability(FockCorrelatedState.ghz(3), 0.0, (1, 1, 1))
        assert p == pytest.approx(0.125 + (2 * math.pi) ** -1.5, rel=1e-12)

    def test_flat_at_node(self):
        state = FockCorrelatedState.ghz(3)
        for outcome in [(1, 1, 1), (1, -1, 1), (-1, -1, -1)]:
            assert outcome_probability(state, math.pi / 2, outcome) == pytest.approx(
                0.125, abs=1e-16
            )

    def test_total_probability_is_one(self):
        import itertools

        rng = np.random.default_rng(8)
        state = random_state(rng, 3, 4)
        probs = [
            outcome_probability(state, 0.6, d)
            for d in itertools.product((1, -1), repeat=3)
        ]
        assert sum(probs) == pytest.approx(1.0, abs=1e-13)
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_validation(self):
        state = FockCorrelatedState.ghz(2)
        with pytest.raises(ValueError):
            outcome_probability(state, 0.0, (1,))
        with pytest.raises(ValueError):
            outcome_probability(state, 0.0, (1, 0))

    def test_diagnostic_on_invalid_family(self):
        # smuggle in an inconsistent coefficient vector to trip the diagnostic
        state = FockCorrelatedState.ghz(1)
        object.__setattr__(state, "coefficients", np.array([2.0, 2.0]))
        with pytest.warns(RuntimeWarning, match="outside"):
            outcome_probability(state, 0.0, (1,))

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_quadrature_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 4))
        d = int(rng.integers(2, 5))
        state = random_state(rng, m, d)
        for phi in (0.0, 1.1):
            for outcome in [(1,) * m, (1, -1) + (1,) * (m - 2), (-1,) * m]:
                closed = outcome_probability(state, phi, outcome)
                oracle = oracle_probability(state, phi, outcome)
                assert closed == pytest.approx(oracle, abs=1e-6)


class TestAngles:
    def test_ghz_like_m3(self):
        a = ghz_like_angles(3)
        np.testing.assert_allclose(a.theta, (0.0, math.pi / 6, math.pi / 3), atol=1e-15)
        np.testing.assert_allclose(
            np.subtract(a.theta_prime, a.theta), math.pi / 2, atol=1e-15
        )

    def test_ghz_like_m2_sign(self):
        a = ghz_like_angles(2)
        np.testing.assert_allclose(a.theta, (0.0, -math.pi / 4), atol=1e-15)

    def test_ghz_like_m4(self):
        a = ghz_like_angles(4)
        np.testing.assert_allclose(
            a.theta, tuple(-math.pi * k / 8 for k in range(4)), atol=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ghz_like_angles(1)
        with pytest.raises(ValueError):
            AngleSettings((0.0,), (0.0, 1.0))
        with pytest.raises(ValueError):
            AngleSettings((math.inf,), (0.0,))

    def test_phi_sum(self):
        a = AngleSettings((0.1, 0.2), (1.1, 1.2))
        assert phi_sum(a, (False, True)) == pytest.approx(0.1 + 1.2)

    def test_chsh_family_combination(self):
        """The chsh_angles tuples realize 3 E(phi) - E(3 phi) for any state."""
        a = chsh_angles()
        state = FockCorrelatedState.ghz(2)
        expected = abs(
            3 * correlator_E(state, math.pi / 4) - correlator_E(state, 3 * math.pi / 4)
        )
        assert bell_factor_sign(state, a) == pytest.approx(expected, rel=1e-12)


class TestBellFactor:
    def test_ghz3_reference(self):
        value = bell_factor_sign(FockCorrelatedState.ghz(3), ghz_like_angles(3))
        assert value == pytest.approx(4 * TWO_OVER_PI ** 1.5, rel=1e-12)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_ghz_scaling(self, m):
        value = bell_factor_sign(FockCorrelatedState.ghz(m), ghz_like_angles(m))
        assert value == pytest.approx(
            math.sqrt(2) * (4 / math.pi) ** (m / 2.0), abs=1e-12
        )

    def test_ghz2_below_local_bound(self):
        value = bell_factor_sign(FockCorrelatedState.ghz(2), ghz_like_angles(2))
        assert value == pytest.approx(1.8006326323142122, rel=1e-12)
        assert value < 2.0

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError):
            bell_factor_sign(FockCorrelatedState.ghz(3), ghz_like_angles(2))


class TestBellMatrix:
    def test_parity_zeros_and_symmetry(self):
        m = bell_matrix(3, 8, ghz_like_angles(3))
        np.testing.assert_allclose(m, m.T)
        for r in range(8):
            for s in range(8):
                if (r - s) % 2 == 0:
                    assert m[r, s] == 0.0

    def test_quadratic_form_matches_bell_factor(self):
        rng = np.random.default_rng(21)
        for m_count, angles in ((3, ghz_like_angles(3)), (2, chsh_angles())):
            matrix = bell_matrix(m_count, 6, angles)
            for _ in range(5):
                state = random_state(rng, m_count, 6)
                c = state.coefficients
                assert abs(c @ matrix @ c) == pytest.approx(
                    bell_factor_sign(state, angles), abs=1e-9
                )

    def test_d2_quadratic_form_value(self):
        matrix = bell_matrix(3, 2, ghz_like_angles(3))
        ghz = FockCorrelatedState.ghz(3).coefficients
        assert abs(ghz @ matrix @ ghz) == pytest.approx(4 * TWO_OVER_PI ** 1.5, rel=1e-12)

    def test_chsh_family_quadratic_form(self):
        matrix = bell_matrix(2, 2, chsh_angles())
        ghz = FockCorrelatedState.ghz(2).coefficients
        state = FockCorrelatedState.ghz(2)
        expected = 3 * correlator_E(state, math.pi / 4) - correlator_E(
            state, 3 * math.pi / 4
        )
        assert ghz @ matrix @ ghz == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            bell_matrix(3, 1, ghz_like_angles(3))
        with pytest.raises(ValueError):
            bell_matrix(3, 4, ghz_like_angles(2))


class TestOptimizeState:
    def test_d2_recovers_ghz(self):
        bell, state = optimize_state(3, 2, ghz_like_angles(3))
        assert bell == pytest.approx(4 * TWO_OVER_PI ** 1.5, abs=1e-9)
        np.testing.assert_allclose(state.coefficients, [2 ** -0.5] * 2, atol=1e-9)

    def test_d20_reference(self):
        bell, _ = optimize_state(3, 20, ghz_like_angles(3))
        assert bell == pytest.approx(2.204, abs=2e-3)

    def test_eigen_consistency(self):
        bell, state = optimize_state(3, 12, ghz_like_angles(3))
        assert bell_factor_sign(state, ghz_like_angles(3)) == pytest.approx(
            bell, abs=1e-9
        )

    def test_monotone_in_truncation(self):
        values = [
            optimize_state(3, d, ghz_like_angles(3))[0] for d in (2, 4, 8, 12, 20)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_two_party_unconstrained(self):
        bell, _ = optimize_state(2, 30, chsh_angles())
        assert bell == pytest.approx(2.100, abs=2e-3)

    def test_constrained_stays_nonnegative_and_below_unconstrained(self):
        bell_c, state = optimize_state(2, 12, chsh_angles(), constraint="nonnegative")
        bell_u, _ = optimize_state(2, 12, chsh_angles())
        assert state.coefficients.min() >= 0.0
        assert bell_c <= bell_u + 1e-9
        assert bell_c > 2.0

    def test_constrained_handles_sign_orientation(self):
        """The three-party matrix at GHZ-like angles is negatively oriented
        (the GHZ direction carries the minimal eigenvalue), and the
        constrained search still reports the Bell factor 2.032 there."""
        bell, state = optimize_state(3, 2, ghz_like_angles(3), constraint="nonnegative")
        assert bell == pytest.approx(4 * TWO_OVER_PI ** 1.5, abs=1e-8)
        np.testing.assert_allclose(state.coefficients, [2 ** -0.5] * 2, atol=1e-6)

    def test_unknown_constraint(self):
        with pytest.raises(ValueError):
            optimize_state(2, 4, chsh_angles(), constraint="positive")
        # the library has one spelling; the CLI maps --constraint nonneg to it
        with pytest.raises(ValueError, match="unknown constraint"):
            optimize_state(2, 4, chsh_angles(), constraint="nonneg")

    def test_converged_optimum(self):
        result = converged_optimum(3, ghz_like_angles(3), d=30, d_step=10)
        assert result.converged
        assert result.delta >= 0.0
        assert result.bell == pytest.approx(2.2046, abs=1e-3)

    @pytest.mark.parametrize("m, d", ((2, 12), (3, 50), (10, 60), (5, 33)))
    @pytest.mark.parametrize("constraint", (None, "nonnegative"))
    def test_converged_optimum_block_equals_own_matrix(self, m, d, constraint):
        """The leading block of the d-matrix gives the d - 10 optimum bit for
        bit, as a Bell matrix built at d - 10 does."""
        angles = default_optimizer_angles(m)
        np.testing.assert_array_equal(
            bell_matrix(m, d, angles)[: d - 10, : d - 10], bell_matrix(m, d - 10, angles)
        )
        result = converged_optimum(m, angles, d=d, d_step=10, constraint=constraint)
        bell_lo, _ = optimize_state(m, d - 10, angles, constraint=constraint)
        bell_hi, state = optimize_state(m, d, angles, constraint=constraint)
        assert result.delta == bell_hi - bell_lo
        assert result.bell == bell_hi
        np.testing.assert_array_equal(result.state.coefficients, state.coefficients)

    @pytest.mark.parametrize("d, d_step", ((11, 10), (2, 1), (30, 29)))
    def test_converged_optimum_rejects_small_previous_truncation(self, d, d_step):
        with pytest.raises(ValueError, match="must be >= 2"):
            converged_optimum(3, ghz_like_angles(3), d=d, d_step=d_step)

    def test_default_angles_switch(self):
        assert default_optimizer_angles(2) == chsh_angles()
        assert default_optimizer_angles(3) == ghz_like_angles(3)


class TestParityNull:
    def test_odd_m_flip_invariant_state(self):
        """States with flip-invariant joint density have vanishing sign-binned
        correlators; verified through the quadrature oracle, not the closed
        form being tested elsewhere."""
        rng = np.random.default_rng(4)
        c = np.zeros(4)
        c[[0, 2]] = rng.standard_normal(2)  # even support only
        state = FockCorrelatedState(3, c / np.linalg.norm(c))
        corr = 0.0
        import itertools

        for outcome in itertools.product((1, -1), repeat=3):
            sign = outcome[0] * outcome[1] * outcome[2]
            corr += sign * oracle_probability(state, 0.8, outcome, tol=1e-10)
        assert abs(corr) < 1e-9
        assert correlator_E(state, 0.8) == 0.0
