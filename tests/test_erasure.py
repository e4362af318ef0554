import itertools
import math

import numpy as np
import pytest

from bellscope.erasure import noisy_bell_factor, p_max_ghz
from bellscope.numerics import integrate_segments
from bellscope.signbin import FockCorrelatedState, bell_factor_sign, ghz_like_angles
from oracles import callable_cat_pair
from physics import erased_term_correlator, noisy_bell_direct


def ghz_clean_bell(m):
    return bell_factor_sign(FockCorrelatedState.ghz(m), ghz_like_angles(m))


class TestNoisyBellFactor:
    def test_identity_channel(self):
        assert noisy_bell_factor(2.5, 0.0, 3) == 2.5

    def test_full_erasure(self):
        assert noisy_bell_factor(2.5, 1.0, 3) == 0.0

    def test_ghz_closed_form(self):
        for m in (2, 3, 5):
            clean = math.sqrt(2.0) * (4.0 / math.pi) ** (m / 2.0)
            for p in (0.1, 0.4):
                assert noisy_bell_factor(clean, p, m) == pytest.approx(
                    (1 - p) ** m * clean, rel=1e-14
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            noisy_bell_factor(-1.0, 0.1, 2)
        with pytest.raises(ValueError):
            noisy_bell_factor(2.0, 1.5, 2)
        with pytest.raises(ValueError):
            noisy_bell_factor(2.0, 0.1, 0)


class TestPMax:
    def test_two_modes_clamped(self):
        result = p_max_ghz(2)
        assert result.p_max == 0.0
        assert result.clamped
        assert ghz_clean_bell(2) < 2.0  # no violation even noise-free

    def test_three_modes_positive(self):
        result = p_max_ghz(3)
        assert not result.clamped
        assert 0.0 < result.p_max < 0.01

    def test_formula_value_m10(self):
        assert p_max_ghz(10).p_max == pytest.approx(
            1.0 - 0.5 * math.sqrt(math.pi) * 2.0 ** 0.05, rel=1e-14
        )

    @pytest.mark.parametrize("m", range(3, 13))
    def test_closure_at_threshold(self, m):
        """(1 - p_max)^m B_m = 2 exactly at the threshold."""
        result = p_max_ghz(m)
        clean = math.sqrt(2.0) * (4.0 / math.pi) ** (m / 2.0)
        assert noisy_bell_factor(clean, result.p_max, m) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_root_finding_cross_check(self):
        """Bisection on the noisy Bell factor reproduces the closed form."""
        m = 10
        clean = ghz_clean_bell(m)
        lo, hi = 0.0, 0.5
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if noisy_bell_factor(clean, mid, m) > 2.0:
                lo = mid
            else:
                hi = mid
        assert p_max_ghz(m).p_max == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_monotone_and_limit(self):
        values = [p_max_ghz(m).p_max for m in range(3, 51)]
        assert all(b > a for a, b in zip(values, values[1:]))
        limit = 1.0 - math.sqrt(math.pi) / 2.0
        assert limit == pytest.approx(0.11377, abs=5e-6)
        assert all(v < limit for v in values)
        assert p_max_ghz(500).p_max == pytest.approx(limit, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            p_max_ghz(0)


class TestErasedTermCorrelator:
    def test_ghz_single_erasure(self):
        state = FockCorrelatedState.ghz(3)
        for mode in range(3):
            for phi in (0.0, 0.7, math.pi):
                assert abs(erased_term_correlator(state, mode, phi)) < 1e-9

    def test_random_state_single_erasure(self):
        rng = np.random.default_rng(17)
        c = rng.standard_normal(4)
        state = FockCorrelatedState(3, c / np.linalg.norm(c))
        assert abs(erased_term_correlator(state, 1, 0.3)) < 1e-9

    def test_double_erasure(self):
        state = FockCorrelatedState.ghz(3)
        for pair in itertools.combinations(range(3), 2):
            assert abs(erased_term_correlator(state, pair, 0.5)) < 1e-9

    def test_validation(self):
        state = FockCorrelatedState.ghz(3)
        with pytest.raises(ValueError):
            erased_term_correlator(state, 3, 0.0)
        with pytest.raises(ValueError):
            erased_term_correlator(state, (0, 0), 0.0)
        with pytest.raises(ValueError):
            erased_term_correlator(state, (), 0.0)


class TestNoisyBellDirect:
    @pytest.mark.parametrize("p", (0.0, 0.05, 0.1, 0.3))
    def test_matches_analytic_scaling_ghz(self, p):
        state = FockCorrelatedState.ghz(3)
        angles = ghz_like_angles(3)
        direct = noisy_bell_direct(state, angles, p)
        analytic = noisy_bell_factor(bell_factor_sign(state, angles), p, 3)
        assert direct == pytest.approx(analytic, abs=1e-6)

    def test_matches_analytic_scaling_random_state(self):
        rng = np.random.default_rng(23)
        c = rng.standard_normal(4)
        state = FockCorrelatedState(3, c / np.linalg.norm(c))
        angles = ghz_like_angles(3)
        clean = bell_factor_sign(state, angles)
        for p in (0.1, 0.5):
            assert noisy_bell_direct(state, angles, p) == pytest.approx(
                (1 - p) ** 3 * clean, abs=1e-6
            )

    def test_reference_arithmetic(self):
        state = FockCorrelatedState.ghz(3)
        angles = ghz_like_angles(3)
        assert noisy_bell_direct(state, angles, 0.1) == pytest.approx(
            0.9 ** 3 * 2.0318, abs=1e-3
        )
        assert noisy_bell_direct(state, angles, 0.5) == pytest.approx(
            0.125 * 2.0318, abs=1e-3
        )

    def test_large_m_beyond_integer_to_float_range(self):
        """C(1100, j) exceeds the float range; the weights C(m, j) p^j
        (1-p)^(m-j) do not."""
        m = 1100
        state, angles = FockCorrelatedState.ghz(m), ghz_like_angles(m)
        expected = noisy_bell_factor(bell_factor_sign(state, angles), 0.05, m)
        assert expected == pytest.approx(2.2235e33, rel=1e-4)
        assert noisy_bell_direct(state, angles, 0.05) == pytest.approx(expected, rel=1e-9)

    def test_end_probabilities_are_exact(self):
        """p = 0 leaves the clean value untouched; p = 1 keeps only the
        fully erased term, whose correlator is quadrature noise."""
        state, angles = FockCorrelatedState.ghz(3), ghz_like_angles(3)
        assert noisy_bell_direct(state, angles, 0.0) == bell_factor_sign(state, angles)
        assert noisy_bell_direct(state, angles, 1.0) < 1e-12

    def test_validation(self):
        state = FockCorrelatedState.ghz(3)
        with pytest.raises(ValueError):
            noisy_bell_direct(state, ghz_like_angles(3), 1.2)
        with pytest.raises(ValueError):
            noisy_bell_direct(state, ghz_like_angles(2), 0.1)


class TestRootBinningErasure:
    def test_cat_family_erased_terms_vanish(self):
        """Tracing any mode out of the cat product state leaves per-mode
        densities that are even, so the root-binned correlators of every
        noisy term vanish as well."""
        alpha = 1.5
        pair = callable_cat_pair(alpha)

        def signed_moment(density, segments, tol=1e-10):
            total = 0.0
            for a, b, sign in segments:
                total += sign * integrate_segments(density, [(a, b)], tol=tol)
            return total

        def vacuum_density(x):
            return math.pi ** -0.5 * np.exp(-x * x)

        x_segs, p_segs = pair.x_segments(), pair.p_segments()
        moments = {
            ("f", "x"): signed_moment(lambda x: pair.f(x) ** 2, x_segs),
            ("g", "x"): signed_moment(lambda x: pair.g(x) ** 2, x_segs),
            ("f", "p"): signed_moment(lambda p: pair.f_tilde(p) ** 2, p_segs),
            ("g", "p"): signed_moment(lambda p: pair.h_tilde(p) ** 2, p_segs),
            ("vac", "x"): signed_moment(vacuum_density, x_segs),
            ("vac", "p"): signed_moment(vacuum_density, p_segs),
        }
        for value in moments.values():
            assert abs(value) < 1e-9
        # assemble the correlator of the erased mixture for every setting
        # pattern: (1/2)[product over f-marginals + product over g-marginals]
        for settings in ("xxp", "xpp", "ppp", "xxx"):
            for erased in range(3):
                corr = 0.0
                for branch in ("f", "g"):
                    prod = 1.0
                    for t, setting in enumerate(settings):
                        key = "vac" if t == erased else branch
                        prod *= moments[(key, setting)]
                    corr += 0.5 * prod
                assert abs(corr) < 1e-9
