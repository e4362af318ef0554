import math

import numpy as np
import pytest

from bellscope import numerics
from bellscope.numerics import (
    IntegrationError,
    hermite_eval,
    integrate_segments,
    max_eigenpair,
)
from oracles import (
    LogSignedReal,
    bipartite,
    integrate_1d,
    reciprocal_gamma,
    rgamma_log,
)


class TestLogSignedReal:
    def test_roundtrip(self):
        for x in (3.5, -0.001, 1e-200, -1e200):
            assert LogSignedReal.from_float(x).value() == pytest.approx(x, rel=1e-13)

    def test_zero_semantics(self):
        z = LogSignedReal(123.0, 0)
        assert z.value() == 0.0
        assert (z * LogSignedReal.from_float(5.0)).sign == 0

    def test_multiplication(self):
        a = LogSignedReal.from_float(-2.0)
        b = LogSignedReal.from_float(3.0)
        assert (a * b).value() == pytest.approx(-6.0)

    def test_power(self):
        a = LogSignedReal.from_float(-2.0)
        assert a.power(3).value() == pytest.approx(-8.0)
        assert a.power(2).value() == pytest.approx(4.0)
        with pytest.raises(ValueError):
            a.power(0.5)
        assert LogSignedReal.from_float(4.0).power(1.5).value() == pytest.approx(8.0)
        assert LogSignedReal(0.0, 0).power(2).value() == 0.0
        with pytest.raises(ValueError):
            LogSignedReal(0.0, 0).power(0)

    def test_overflow_to_inf(self):
        assert LogSignedReal(1e4, 1).value() == math.inf
        assert LogSignedReal(1e4, -1).value() == -math.inf


class TestReciprocalGamma:
    def test_half_integer_values(self):
        assert reciprocal_gamma(0.5) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-14)
        assert reciprocal_gamma(-0.5) == pytest.approx(
            -1 / (2 * math.sqrt(math.pi)), rel=1e-14
        )

    @pytest.mark.parametrize("z", (0.0, -1.0, -2.0, -17.0))
    def test_poles_give_exact_zero(self, z):
        assert reciprocal_gamma(z) == 0.0
        assert rgamma_log(z).sign == 0

    def test_positive_axis_against_gamma(self):
        for z in np.linspace(0.1, 50.0, 197):
            assert reciprocal_gamma(float(z)) == pytest.approx(
                1.0 / math.gamma(float(z)), rel=1e-12
            )

    def test_reflection_identity(self):
        """rgamma(z) rgamma(1-z) = sin(pi z)/pi away from integers."""
        for z in np.linspace(-24.3, 24.7, 99):
            z = float(z)
            if abs(z - round(z)) < 1e-9:
                continue
            lhs = reciprocal_gamma(z) * reciprocal_gamma(1.0 - z)
            rhs = math.sin(math.pi * z) / math.pi
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            reciprocal_gamma(math.inf)


class TestHermite:
    def test_low_orders(self):
        assert hermite_eval(0, 2.7) == 1.0
        assert hermite_eval(1, 3.0) == 6.0
        assert hermite_eval(4, 1.0) == -20.0

    def test_array_input(self):
        x = np.array([0.0, 1.0, -1.0])
        np.testing.assert_allclose(hermite_eval(2, x), 4 * x * x - 2)

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            hermite_eval(-1, 0.0)

    @pytest.mark.parametrize("r", range(7))
    @pytest.mark.parametrize("s", range(7))
    def test_orthogonality_by_quadrature(self, r, s):
        integral = integrate_1d(
            lambda x: np.exp(-x * x) * hermite_eval(r, x) * hermite_eval(s, x),
            -math.inf,
            math.inf,
            tol=1e-11,
        )
        norm_r = 2.0 ** r * math.factorial(r) * math.sqrt(math.pi)
        expected = norm_r if r == s else 0.0
        scale = math.sqrt(
            norm_r * 2.0 ** s * math.factorial(s) * math.sqrt(math.pi)
        )
        assert abs(integral - expected) <= 1e-10 * scale


class TestIntegrate1d:
    def test_gaussian_over_reals(self):
        value = integrate_1d(lambda x: np.exp(-x * x), -math.inf, math.inf, tol=1e-10)
        assert value == pytest.approx(math.sqrt(math.pi), abs=1e-10)

    def test_halfline_with_antiderivative(self):
        value = integrate_1d(lambda x: 2 * x * np.exp(-x * x), 0.0, math.inf, tol=1e-10)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_kinked_integrand_is_dominated(self):
        value = integrate_1d(
            lambda x: np.abs(np.cos(x) * np.sin(x)) * np.exp(-x * x),
            -math.inf,
            math.inf,
            tol=1e-9,
        )
        assert 0.0 < value < math.sqrt(math.pi)

    def test_polynomial_exact(self):
        value = integrate_1d(lambda x: x ** 3 - 2 * x + 1, -1.0, 2.0, tol=1e-12)
        assert value == pytest.approx(3.75, abs=1e-12)

    def test_lower_infinite(self):
        value = integrate_1d(lambda x: np.exp(x), -math.inf, 0.0, tol=1e-10)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_orientation_and_degenerate(self):
        assert integrate_1d(lambda x: x, 1.0, 1.0) == 0.0
        forward = integrate_1d(lambda x: x * x, 0.0, 1.0)
        assert integrate_1d(lambda x: x * x, 1.0, 0.0) == pytest.approx(-forward)

    def test_reversed_limits_keep_initial_splits(self):
        # a spike of width 1e-3 that the default 8 panels never sample, but
        # 64 initial panels do: the split count changes the result
        def spike(x):
            return np.exp(-(((x - 0.3) / 1e-3) ** 2))

        fine = integrate_1d(spike, 0.0, 10.0, initial_splits=64)
        assert fine == pytest.approx(math.sqrt(math.pi) * 1e-3, rel=1e-9)
        assert integrate_1d(spike, 0.0, 10.0) != fine
        for n in (1, 8, 64):
            assert integrate_1d(spike, 10.0, 0.0, initial_splits=n) == -integrate_1d(
                spike, 0.0, 10.0, initial_splits=n
            )

    def test_complex_integrand(self):
        value = integrate_segments(
            lambda x: np.exp(-x * x) * np.exp(1j * x), [(-10.0, 10.0)], tol=1e-12
        )
        expected = math.sqrt(math.pi) * math.exp(-0.25)
        assert value == pytest.approx(expected + 0j, abs=1e-11)

    def test_failure_reports_achieved_error(self):
        with pytest.raises(IntegrationError) as err:
            integrate_1d(
                lambda x: np.sin(1e6 * x),
                0.0,
                1.0,
                tol=1e-13,
                max_intervals=8,
            )
        assert err.value.achieved_error is not None
        assert err.value.achieved_error > 1e-13

    def test_non_finite_integrand_rejected(self):
        with np.errstate(divide="ignore", over="ignore"):
            with pytest.raises(IntegrationError, match="non-finite"):
                integrate_1d(lambda x: 1.0 / x, 0.0, 1.0, tol=1e-8)


def char_poly_roots_2x2(m):
    tr, det = m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = math.sqrt(tr * tr - 4 * det)
    return max((tr + disc) / 2, (tr - disc) / 2)


def char_poly_roots_3x3(m):
    # coefficients of lambda^3 - c2 lambda^2 + c1 lambda - c0
    c2 = np.trace(m)
    c1 = 0.5 * (np.trace(m) ** 2 - np.trace(m @ m))
    c0 = np.linalg.det(m)
    roots = np.roots([1.0, -c2, c1, -c0])
    return float(np.max(roots.real))


class TestMaxEigenpair:
    def test_swap_matrix(self):
        lam, v = max_eigenpair([[0.0, 1.0], [1.0, 0.0]])
        assert lam == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(v, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_diagonal(self):
        lam, v = max_eigenpair(bipartite(np.diag([2.0, 3.0])))
        assert lam == pytest.approx(3.0)
        np.testing.assert_allclose(v, [0.0, 0.0, 1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)

    def test_residual_contract(self):
        rng = np.random.default_rng(0)
        m = bipartite(rng.standard_normal((4, 4)))
        lam, v = max_eigenpair(m)
        assert np.linalg.norm(m @ v - lam * v) <= 1e-10

    @pytest.mark.parametrize("n", (2, 3))
    def test_against_characteristic_polynomial(self, n):
        """The oracle takes the roots of the characteristic polynomial of
        the full n x n matrix, not of its off-diagonal block."""
        rng = np.random.default_rng(n)
        for _ in range(20):
            m = bipartite(rng.standard_normal(((n + 1) // 2, n // 2)))
            lam, _ = max_eigenpair(m)
            oracle = char_poly_roots_2x2(m) if n == 2 else char_poly_roots_3x3(m)
            assert lam == pytest.approx(oracle, abs=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            max_eigenpair(np.zeros((0, 0)))
        with pytest.raises(ValueError):
            max_eigenpair([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            max_eigenpair([[math.nan]])
        with pytest.raises(ValueError, match="even with odd"):
            max_eigenpair([[2.0, 0.0], [0.0, 3.0]])
        with pytest.raises(ValueError):
            max_eigenpair([[0.0]])
        with pytest.raises(ValueError):
            max_eigenpair([[0.0, 1.0], [1.0, 0.0]], constraint="bogus")
        with pytest.raises(ValueError, match="unknown constraint"):
            max_eigenpair([[0.0, 1.0], [1.0, 0.0]], constraint="nonneg")

    def test_constrained_negative_coupling(self):
        """v M v = -2 v1 v2 <= 0 on the orthant, so the optimum sits on an
        axis, far below the unconstrained eigenvalue 1."""
        m = np.array([[0.0, -1.0], [-1.0, 0.0]])
        lam, v = max_eigenpair(m, constraint="nonnegative")
        assert lam == pytest.approx(0.0, abs=1e-12)
        assert v.min() >= 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        lam_free, _ = max_eigenpair(m)
        assert lam_free == pytest.approx(1.0, abs=1e-12)

    def test_constrained_matches_quarter_circle_grid(self):
        """For M = [[0, B], [B.T, 0]] the optimum is max x.T B y over unit
        x = (cos a, sin a), y = (cos b, sin b) with a, b in [0, pi/2], or 0
        (v on one parity alone) when that is negative."""
        rng = np.random.default_rng(12)
        angles = np.linspace(0.0, math.pi / 2, 4001)
        grid = np.stack([np.cos(angles), np.sin(angles)])
        for _ in range(10):
            b = rng.standard_normal((2, 2))
            lam, _ = max_eigenpair(bipartite(b), constraint="nonnegative")
            by = b @ grid
            brute = max(
                [0.0] + [float(np.max(grid[:, i:i + 500].T @ by)) for i in range(0, 4001, 500)]
            )
            assert lam == pytest.approx(brute, abs=1e-6)
            assert lam >= brute - 1e-9  # certified lower bound

    def test_constrained_never_beats_unconstrained(self):
        rng = np.random.default_rng(2)
        for n in (3, 5):
            for _ in range(5):
                m = bipartite(rng.standard_normal(((n + 1) // 2, n // 2)))
                lam_c, v = max_eigenpair(m, constraint="nonnegative")
                lam_u, _ = max_eigenpair(m)
                assert lam_c <= lam_u + 1e-10
                assert v.min() >= 0.0

    def test_constrained_certificate_is_loud(self, monkeypatch):
        """A solve cut short of a stationary point raises instead of
        returning it."""
        monkeypatch.setattr(numerics, "_POWER_STEPS", 1)
        m = bipartite(np.random.default_rng(3).standard_normal((8, 8)))
        with pytest.raises(ArithmeticError, match="not stationary"):
            max_eigenpair(m, constraint="nonnegative")

    def test_constrained_rejects_same_parity_coupling(self):
        with pytest.raises(ValueError, match="even with odd"):
            max_eigenpair([[1.0, 0.0], [0.0, 0.0]], constraint="nonnegative")
        m = bipartite(np.ones((2, 1)))
        m[1, 1] = 0.5
        with pytest.raises(ValueError, match="even with odd"):
            max_eigenpair(m, constraint="nonnegative")
