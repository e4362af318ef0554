import itertools
import math

import numpy as np
import pytest

from bellscope import cli
from bellscope.rootbin import (
    RootBinningSpec,
    _mode_tables,
    _pieces,
    bell_factor_root,
    binned_product_probabilities,
    optimal_phase,
    overlaps_VW,
    psi3_bell_report,
    psi3_prime_terms,
)
from oracles import (
    ParityFunctionPair,
    binned_product_correlator,
    callable_cat_pair,
    cat_segments_alone,
    cat_state_terms,
    integrate_1d,
    quadrature_overlaps_VW,
)
from physics import (
    class_correlator,
    direct_bell_psi3,
    max_theta_bell,
    maximal_violation_curve,
)


class TestSpecValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RootBinningSpec(1.2, 0.5, 0.0, 3)
        with pytest.raises(ValueError):
            RootBinningSpec(0.5, -0.2, 0.0, 3)
        with pytest.raises(ValueError):
            RootBinningSpec(0.5, 0.5, 0.0, 0)
        with pytest.raises(ValueError):
            RootBinningSpec(0.5, 0.5, math.nan, 2)

    def test_pair_requires_sorted_roots(self):
        with pytest.raises(ValueError):
            ParityFunctionPair(
                f=lambda x: x,
                g=lambda x: x,
                f_tilde=lambda p: p,
                h_tilde=lambda p: p,
                x_roots=(1.0, 0.0),
                p_roots=(),
                x_window=5.0,
                p_window=5.0,
            )


class TestClassCorrelator:
    def test_reference_values(self):
        assert class_correlator(RootBinningSpec(1, 1, 0.0, 3), 3) == pytest.approx(1.0)
        assert class_correlator(RootBinningSpec(1, 1, 0.0, 3), 2) == pytest.approx(
            0.0, abs=1e-16
        )
        assert class_correlator(
            RootBinningSpec(1.0, 0.64, 0.0, 3), 1
        ) == pytest.approx(-0.4096, abs=1e-12)

    def test_bounds_check(self):
        with pytest.raises(ValueError):
            class_correlator(RootBinningSpec(1, 1, 0.0, 3), 4)


class TestBellFactorRoot:
    @pytest.mark.parametrize("m", range(2, 9))
    def test_maximal_violation(self, m):
        spec = RootBinningSpec(1.0, 1.0, optimal_phase(m), m)
        assert bell_factor_root(spec, "x-unprimed") == pytest.approx(
            2.0 ** ((m + 1) / 2.0), abs=1e-10
        )

    @pytest.mark.parametrize("m", range(2, 9))
    def test_swapped_labeling_has_shifted_optimal_phase(self, m):
        """The swapped labeling evaluates the primed-twin operator, which
        peaks at -(m+1) pi/4 instead of (1-m) pi/4."""
        twin_phase = -(m + 1) * math.pi / 4.0
        spec = RootBinningSpec(1.0, 1.0, twin_phase, m)
        assert bell_factor_root(spec, "p-unprimed") == pytest.approx(
            2.0 ** ((m + 1) / 2.0), abs=1e-10
        )

    def test_recursion_ratio(self):
        curve = maximal_violation_curve(8)
        for (m_lo, b_lo), (m_hi, b_hi) in zip(curve, curve[1:]):
            assert b_hi == pytest.approx(math.sqrt(2.0) * b_lo, abs=1e-12)

    def test_three_party_theta_zero_values(self):
        # at theta = 0 one labeling sees nothing, the other |3 V W^2 + V^3|
        w = 0.64
        spec = RootBinningSpec(1.0, w, 0.0, 3)
        assert bell_factor_root(spec, "x-unprimed") == pytest.approx(0.0, abs=1e-15)
        assert bell_factor_root(spec, "p-unprimed") == pytest.approx(
            3 * w * w + 1.0, rel=1e-12
        )
        assert bell_factor_root(spec, "best") == pytest.approx(3 * w * w + 1.0)

    def test_labeling_symmetry_at_equal_overlaps(self):
        """Exchanging X and P amounts to a phase shift of the state, so at
        V = W the phase-maximized Bell factor is labeling invariant and the
        fixed-phase values map onto each other under that shift."""
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = float(rng.uniform(0, 1))
            theta = float(rng.uniform(0, 2 * math.pi))
            m = int(rng.integers(2, 6))
            assert max_theta_bell(v, v, m, "x-unprimed") == pytest.approx(
                max_theta_bell(v, v, m, "p-unprimed"), abs=1e-12
            )
            spec = RootBinningSpec(v, v, theta, m)
            shifted = RootBinningSpec(v, v, -theta - m * math.pi / 2.0, m)
            assert bell_factor_root(spec, "x-unprimed") == pytest.approx(
                bell_factor_root(shifted, "p-unprimed"), abs=1e-12
            )

    def test_quantum_bound_respected_on_grid(self):
        for m in range(2, 7):
            bound = 2.0 ** ((m + 1) / 2.0)
            for v in np.linspace(0.0, 1.0, 6):
                for w in np.linspace(0.0, 1.0, 6):
                    for theta in np.linspace(0.0, 2 * math.pi, 9):
                        spec = RootBinningSpec(float(v), float(w), float(theta), m)
                        assert bell_factor_root(spec, "best") <= bound + 1e-9

    def test_unknown_labeling(self):
        with pytest.raises(ValueError):
            bell_factor_root(RootBinningSpec(1, 1, 0.0, 2), "sideways")


class TestMaxTheta:
    def test_matches_hand_formula_two_party(self):
        # B_2(theta) = (V^2 + W^2) cos(theta) - 2 V W sin(theta)
        for v, w in ((1.0, 2 / math.pi), (0.8, 0.5)):
            expected = math.hypot(v * v + w * w, 2 * v * w)
            assert max_theta_bell(v, w, 2, "x-unprimed") == pytest.approx(
                expected, rel=1e-12
            )

    def test_matches_numerical_theta_scan(self):
        v, w, m = 0.9, 0.55, 3
        analytic = max_theta_bell(v, w, m, "best")
        grid = max(
            bell_factor_root(RootBinningSpec(v, w, float(t), m), "best")
            for t in np.linspace(0, 2 * math.pi, 40001)
        )
        assert analytic == pytest.approx(grid, abs=1e-7)

    def test_two_party_cat_limit_no_violation(self):
        assert max_theta_bell(1.0, 2 / math.pi, 2, "best") == pytest.approx(
            1.90, abs=1e-2
        )
        assert max_theta_bell(1.0, 2 / math.pi, 2, "best") < 2.0


class TestOptimalPhase:
    def test_values(self):
        assert optimal_phase(1) == 0.0
        assert optimal_phase(2) == pytest.approx(-math.pi / 4)
        assert optimal_phase(3) == pytest.approx(-math.pi / 2)

    def test_is_the_argmax(self):
        for m in (2, 3, 5):
            spec_opt = RootBinningSpec(1.0, 1.0, optimal_phase(m), m)
            best = bell_factor_root(spec_opt, "x-unprimed")
            for theta in np.linspace(0, 2 * math.pi, 601):
                spec = RootBinningSpec(1.0, 1.0, float(theta), m)
                assert bell_factor_root(spec, "x-unprimed") <= best + 1e-9


def segments(alpha, on_p):
    """The package's pieces of the cat pair at one amplitude: a batch of one."""
    return _pieces(np.array([alpha]), on_p)[0]


class TestCatPair:
    def test_normalization(self):
        for alpha in (0.7, 2.0):
            pair = callable_cat_pair(alpha)
            w = pair.x_window
            for fn in (pair.f, pair.g, pair.f_tilde, pair.h_tilde):
                norm = integrate_1d(lambda x: fn(x) ** 2, -w, w, tol=1e-10)
                assert norm == pytest.approx(1.0, abs=1e-8)

    def test_parity_on_grid(self):
        pair = callable_cat_pair(1.3)
        x = np.linspace(-4.0, 4.0, 101)
        np.testing.assert_allclose(pair.f(-x), pair.f(x), atol=1e-14)
        np.testing.assert_allclose(pair.g(-x), -pair.g(x), atol=1e-14)
        np.testing.assert_allclose(pair.f_tilde(-x), pair.f_tilde(x), atol=1e-14)
        np.testing.assert_allclose(pair.h_tilde(-x), -pair.h_tilde(x), atol=1e-14)

    def test_root_structure(self):
        alpha = 2.0
        pair = callable_cat_pair(alpha)
        assert pair.x_roots == (0.0,)
        spacing = math.pi / (2 * math.sqrt(2) * alpha)
        diffs = np.diff(pair.p_roots)
        np.testing.assert_allclose(diffs, spacing, rtol=1e-12)
        assert 0.0 in pair.p_roots

    def test_p_signs_follow_minus_sin_and_tables_match_the_callable_pair(self):
        """Every p piece is signed like f~*h~ ~ -e^{-p^2} sin(2 mu p).  The
        callable pair takes the sign from the product itself, whose e^{-p^2}
        underflows to 0 (binned +1) beyond |p| of about 27, first at alpha
        6.85; those pieces carry no weight, so every mode-table entry of the
        two pairs is equal."""
        for alpha in (7.0, 9.0, 12.0):
            mu = math.sqrt(2.0) * alpha
            for a, b, sign in segments(alpha, True):
                assert sign == (1 if -math.sin(mu * (a + b)) >= 0.0 else -1)
        for alpha in (0.5, 3.0, 6.85, 12.0):
            oracle = callable_cat_pair(alpha)
            for on_p in (False, True):
                tables = [
                    _mode_tables(rows, np.zeros(len(rows), dtype=int), np.array([-alpha, alpha]),
                                 np.array([2]), on_p, 1e-9).tolist()
                    for rows in (segments(alpha, on_p), oracle.p_segments() if on_p else oracle.x_segments())
                ]
                assert tables[0] == tables[1]

    @pytest.mark.parametrize("grid", (
        "0.5:3.0:0.05", "0.05:12:0.25", "1e-9", "30", "5e-324", "24.4", "0.05:12:0.05",
    ))
    def test_batched_pieces_equal_each_amplitude_alone(self, grid):
        """One ``_pieces`` pass per setting over a golden grid equals bit for
        bit the amplitude-by-amplitude partitions: ``_pieces`` on that
        amplitude alone and the scalar build it replaced."""
        alphas = cli.parse_range(grid)
        for on_p in (False, True):
            rows, owner = _pieces(np.array(alphas), on_p)
            assert np.all(owner[1:] >= owner[:-1])
            for r, alpha in enumerate(alphas):
                alone = segments(alpha, on_p).tolist()
                assert rows[owner == r].tolist() == alone == cat_segments_alone(alpha, on_p).tolist()

    def test_rejects_nonpositive_amplitude(self):
        """0, -1, inf and nan are refused before any work, by the closed form
        and by every amplitude of a psi3 grid."""
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^amplitude must be finite and > 0$"):
                overlaps_VW(bad)
            with pytest.raises(ValueError, match="^amplitude must be finite and > 0$"):
                psi3_bell_report([1.0, bad, 2.0])

    def test_large_amplitude_overlaps(self):
        v, w = overlaps_VW(6.0)
        assert v >= 0.999
        assert w == pytest.approx(2 / math.pi, abs=5e-3)

    def test_closed_form_v(self):
        # V = erf(sqrt(2) alpha) / sqrt(1 - e^{-4 alpha^2}) for this pair
        for alpha in (0.5, 1.0, 2.5):
            v, w = overlaps_VW(alpha)
            expected = math.erf(math.sqrt(2) * alpha) / math.sqrt(
                1 - math.exp(-4 * alpha * alpha)
            )
            assert v == pytest.approx(expected, abs=1e-9)
            assert 0.0 < w < 1.0

    def test_matched_magnitudes_give_unit_overlap(self):
        """When |g| = |f| everywhere, the absolute overlap is the norm: 1."""
        gauss = lambda x: math.pi ** -0.25 * np.exp(-0.5 * x * x)
        signed = lambda x: np.sign(x) * gauss(x)
        pair = ParityFunctionPair(
            f=gauss,
            g=signed,
            f_tilde=gauss,
            h_tilde=signed,
            x_roots=(0.0,),
            p_roots=(0.0,),
            x_window=10.0,
            p_window=10.0,
        )
        v, w = quadrature_overlaps_VW(pair)
        assert v == pytest.approx(1.0, abs=1e-9)
        assert w == pytest.approx(1.0, abs=1e-9)

    def test_brute_force_quadrature_oracle(self):
        """V and W from a single absolute-value integral with no use of the
        root partition, at tight tolerance."""
        pair = callable_cat_pair(1.0)
        w_lim = pair.x_window
        v_brute = integrate_1d(
            lambda x: np.abs(pair.f(x) * pair.g(x)), -w_lim, w_lim, tol=1e-12,
            max_intervals=20000,
        )
        w_brute = integrate_1d(
            lambda p: np.abs(pair.f_tilde(p) * pair.h_tilde(p)),
            -w_lim,
            w_lim,
            tol=1e-12,
            max_intervals=20000,
        )
        v, w = overlaps_VW(1.0)
        assert v == pytest.approx(v_brute, abs=1e-9)
        assert w == pytest.approx(w_brute, abs=1e-9)


class TestDirectIntegrationEngine:
    @pytest.mark.parametrize("alpha", (1.0, 2.0, 4.0))
    def test_class_collapse_three_party(self, alpha):
        """Direct domain integration for the cat-pair product state matches
        the closed-form class correlator."""
        v, w = overlaps_VW(alpha)
        terms = cat_state_terms(alpha, 3, theta=0.0)
        for k in range(4):
            settings = "x" * k + "p" * (3 - k)
            direct = binned_product_correlator(terms, settings, alpha)
            closed = class_correlator(RootBinningSpec(v, w, 0.0, 3), k)
            assert direct == pytest.approx(closed, abs=1e-6)

    def test_class_collapse_two_party_nonzero_phase(self):
        alpha, theta = 1.5, 0.9
        v, w = overlaps_VW(alpha)
        terms = cat_state_terms(alpha, 2, theta=theta)
        for k in range(3):
            settings = "x" * k + "p" * (2 - k)
            direct = binned_product_correlator(terms, settings, alpha)
            closed = class_correlator(RootBinningSpec(v, w, theta, 2), k)
            assert direct == pytest.approx(closed, abs=1e-6)

    def test_even_terms_contribute_nothing(self):
        """The diagonal |f><f| and |g><g| parts alone carry no correlations
        under root binning."""
        alpha = 1.2
        a2 = alpha * alpha
        c_plus = 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-2.0 * a2)))
        c_minus = 1.0 / math.sqrt(2.0 * (1.0 - math.exp(-2.0 * a2)))
        even_terms = tuple(
            (c_plus ** 3, tuple(s * alpha for s in signs))
            for signs in itertools.product((1, -1), repeat=3)
        )
        odd_terms = tuple(
            (c_minus ** 3 * np.prod(signs), tuple(s * alpha for s in signs))
            for signs in itertools.product((1, -1), repeat=3)
        )
        for terms in (even_terms, odd_terms):
            for settings in ("xxp", "ppp", "xpp"):
                corr = binned_product_correlator(terms, settings, alpha)
                assert abs(corr) < 1e-8

    def test_settings_validation(self):
        terms = psi3_prime_terms(1.0)
        with pytest.raises(ValueError):
            binned_product_probabilities(terms, "xy z", 1.0)
        with pytest.raises(ValueError):
            binned_product_probabilities(terms, "xx", 1.0)

    def test_cat_state_terms_normalized(self):
        for alpha, m, theta in ((0.8, 2, 0.0), (1.5, 3, 0.9)):
            terms = cat_state_terms(alpha, m, theta)
            gram = 0.0 + 0.0j
            for w_i, a_i in terms:
                for w_j, a_j in terms:
                    ov = 1.0
                    for t in range(m):
                        ov *= math.exp(
                            -0.5 * (a_i[t] ** 2 + a_j[t] ** 2) + a_i[t] * a_j[t]
                        )
                    gram += complex(w_i).conjugate() * w_j * ov
            assert gram.real == pytest.approx(1.0, abs=1e-12)
            assert abs(gram.imag) < 1e-12
        with pytest.raises(ValueError):
            cat_state_terms(0.0, 3)


class TestPsi3:
    def test_normalization_constant(self):
        for alpha in (0.4, 1.0, 3.0):
            terms = psi3_prime_terms(alpha)
            gram = 0.0
            for w_i, a_i in terms:
                for w_j, a_j in terms:
                    ov = 1.0
                    for t in range(3):
                        ov *= math.exp(
                            -0.5 * (a_i[t] ** 2 + a_j[t] ** 2) + a_i[t] * a_j[t]
                        )
                    gram += w_i * w_j * ov
            assert gram == pytest.approx(1.0, abs=1e-12)

    def test_probability_sanity(self):
        (report,) = psi3_bell_report([1.5])
        for total in report.probability_sums.values():
            assert total == pytest.approx(1.0, abs=1e-8)
        assert report.min_probability >= -1e-9

    def test_bell_p_scales_as_alpha_cubed_near_0(self):
        """A metamorphic check: doubling a small amplitude multiplies the
        p-unprimed Bell factor by 8 (4.0636 alpha^3), while the x-unprimed
        one stays at rounding noise."""
        reports = psi3_bell_report([1e-3, 2e-3, 1e-2, 2e-2])
        ratios = [r.bell_p_unprimed / r.alpha ** 3 for r in reports]
        assert max(ratios) / min(ratios) - 1.0 < 1e-6
        assert max(r.bell_x_unprimed for r in reports) < 1e-15

    @pytest.mark.parametrize("alphas", ("0.5:3:0.05", "0.05:12:0.25", "1e-9", "30"))
    @pytest.mark.parametrize("tol", (1e-9, 1e-6))
    def test_odd_p_correlators_vanish(self, alphas, tol):
        """Flipping every P outcome conjugates the real-amplitude
        wavefunction, and the P bins follow the odd sign of -sin(2 mu p), so
        every correlator with an odd number of P settings is 0: one P
        (correlators[2]) and three (correlators[0]), keyed by X count.  These
        are the only two MK classes of bell_x_unprimed at m = 3.  What is left
        is rounding noise of O(1) probabilities, at most 1.4e-16 measured;
        the bound is 8 eps."""
        for report in psi3_bell_report(cli.parse_range(alphas), tol):
            assert abs(report.correlators[2]) <= 8 * np.finfo(float).eps
            assert abs(report.correlators[0]) <= 8 * np.finfo(float).eps

    def test_small_amplitude_no_violation(self):
        assert direct_bell_psi3(0.5) < 2.0

    def test_violation_onset(self):
        assert direct_bell_psi3(1.0) < 2.0
        assert direct_bell_psi3(1.2) > 2.0

    def test_plateau_value(self):
        assert direct_bell_psi3(3.0) == pytest.approx(2.2159, abs=1e-3)

    def test_agrees_with_class_correlator_at_large_amplitude(self):
        """At alpha = 6 the candidate state and the cat product state are
        indistinguishable, so direct integration must match the closed-form
        correlator route."""
        alpha = 6.0
        v, w = overlaps_VW(alpha)
        closed = bell_factor_root(RootBinningSpec(v, w, 0.0, 3), "best")
        assert direct_bell_psi3(alpha) == pytest.approx(closed, abs=1e-6)

    def test_three_dimensional_quadrature_oracle(self):
        """One full 3-d tensor quadrature of the joint density at a small
        amplitude, with no per-mode factorization of the state."""
        alpha = 0.5
        terms = psi3_prime_terms(alpha)
        settings = "xxp"

        def axis_quadrature(setting):
            segs = cat_segments_alone(alpha, setting == "p")
            nodes, weights, signs = [], [], []
            glx, glw = np.polynomial.legendre.leggauss(48)
            for a, b, sign in segs:
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                nodes.append(mid + half * glx)
                weights.append(half * glw)
                signs.append(np.full(glx.size, sign))
            return np.concatenate(nodes), np.concatenate(weights), np.concatenate(signs)

        axes = [axis_quadrature(s) for s in settings]

        def mode_wave(amplitude, setting, coord):
            if setting == "x":
                return math.pi ** -0.25 * np.exp(
                    -0.5 * (coord - math.sqrt(2) * amplitude) ** 2
                )
            return (
                math.pi ** -0.25
                * np.exp(-0.5 * coord ** 2)
                * np.exp(-1j * math.sqrt(2) * amplitude * coord)
            )

        x1, x2, p3 = (ax[0] for ax in axes)
        amp = np.zeros((x1.size, x2.size, p3.size), dtype=complex)
        for weight, amps in terms:
            amp += (
                weight
                * mode_wave(amps[0], "x", x1)[:, None, None]
                * mode_wave(amps[1], "x", x2)[None, :, None]
                * mode_wave(amps[2], "p", p3)[None, None, :]
            )
        density = np.abs(amp) ** 2

        w1, w2, w3 = (ax[1] for ax in axes)
        s1, s2, s3 = (ax[2] for ax in axes)
        probs = binned_product_probabilities(terms, settings, alpha)
        for outcome in itertools.product((1, -1), repeat=3):
            masks = [
                w * (s == d) for w, s, d in zip((w1, w2, w3), (s1, s2, s3), outcome)
            ]
            oracle = float(
                np.einsum("i,j,k,ijk->", masks[0], masks[1], masks[2], density)
            )
            assert probs[outcome] == pytest.approx(oracle, abs=1e-6)

    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError):
            psi3_prime_terms(0.0)
