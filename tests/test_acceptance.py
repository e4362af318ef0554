"""Acceptance suite: one test per criterion, each printing one PASS/FAIL
line with the computed numbers.  Every tolerance is pinned here, not tuned.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; on failures pytest shows the captured output either way.
"""

import itertools
import math
import time

import numpy as np

from bellscope.erasure import noisy_bell_factor, p_max_ghz
from bellscope.mk import expand_mk
from bellscope.rootbin import (
    RootBinningSpec,
    bell_factor_root,
    optimal_phase,
    overlaps_VW,
    psi3_bell_report,
)
from bellscope.signbin import (
    FockCorrelatedState,
    bell_factor_sign,
    bell_matrix,
    chsh_angles,
    converged_optimum,
    ghz_like_angles,
    optimize_state,
)
from bellscope.catprep import PREP_NETWORKS, generation_pipeline, scs_state, tensor
from oracles import (
    integrate_1d,
    oracle_nonneg_optimum,
    oracle_probability,
    projected_ascent_optimum,
)
from physics import (
    classical_bound_exhaustive,
    direct_bell_psi3,
    erased_term_correlator,
    g_rs,
    hermite_eval,
    max_theta_bell,
    noisy_bell_direct,
    outcome_probability,
)


def conclude(criterion, checks):
    """checks: list of (ok, description).  Prints one line, then asserts."""
    ok = all(flag for flag, _ in checks)
    details = "; ".join(desc for _flag, desc in checks)
    line = f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {details}"
    print(line)
    assert ok, line


def test_criterion_01_ghz3_sign_binning():
    started = time.perf_counter()
    bell = bell_factor_sign(FockCorrelatedState.ghz(3), ghz_like_angles(3))
    elapsed = time.perf_counter() - started
    target = 4.0 * (2.0 / math.pi) ** 1.5
    conclude(
        1,
        [
            (abs(bell - target) <= 1e-3, f"GHZ_3 Bell {bell:.6f} = 2.0320 +/- 0.001"),
            (elapsed < 1.0, f"runtime {elapsed:.3f}s < 1s"),
        ],
    )


def test_criterion_02_ghz_scaling():
    values = {
        m: bell_factor_sign(FockCorrelatedState.ghz(m), ghz_like_angles(m))
        for m in range(2, 11)
    }
    worst_abs = max(
        abs(v - math.sqrt(2.0) * (4.0 / math.pi) ** (m / 2.0))
        for m, v in values.items()
    )
    ratio_target = 2.0 / math.sqrt(math.pi)
    worst_ratio = max(
        abs(values[m] / values[m - 1] - ratio_target) for m in range(3, 11)
    )
    conclude(
        2,
        [
            (worst_abs <= 1e-9, f"closed-form deviation {worst_abs:.2e} <= 1e-9"),
            (worst_ratio <= 1e-9, f"ratio deviation {worst_ratio:.2e} <= 1e-9"),
        ],
    )


def test_criterion_03_optimal_state_eigenproblem():
    started = time.perf_counter()
    bell_2, state_2 = optimize_state(3, 2, ghz_like_angles(3))
    bell_20, _ = optimize_state(3, 20, ghz_like_angles(3))
    result_60 = converged_optimum(3, ghz_like_angles(3), d=60, d_step=10)
    elapsed = time.perf_counter() - started
    target_d2 = 4.0 * (2.0 / math.pi) ** 1.5
    vec_err = float(
        np.max(np.abs(state_2.coefficients - np.array([2 ** -0.5, 2 ** -0.5])))
    )
    conclude(
        3,
        [
            (abs(bell_2 - target_d2) <= 1e-6, f"d=2 Bell {bell_2:.6f}"),
            (vec_err <= 1e-6, f"d=2 eigenvector error {vec_err:.2e} <= 1e-6"),
            (abs(bell_20 - 2.204) <= 2e-3, f"d=20 Bell {bell_20:.6f} = 2.204 +/- 0.002"),
            (
                abs(result_60.bell - 2.205) <= 2e-3,
                f"d=60 Bell {result_60.bell:.6f} = 2.205 +/- 0.002",
            ),
            (result_60.converged, f"convergence delta {result_60.delta:.2e} < 5e-4"),
            (elapsed < 10.0, f"runtime {elapsed:.2f}s < 10s"),
        ],
    )


def test_criterion_04_two_party_optimizer():
    angles = chsh_angles()
    bell_free, _ = optimize_state(2, 30, angles)
    bell_nonneg, state = optimize_state(2, 30, angles, constraint="nonnegative")
    matrix = bell_matrix(2, 30, angles)
    bell_oracle = oracle_nonneg_optimum(matrix)
    # the package's solver before the alternating power steps, on both signs
    bell_ascent = max(projected_ascent_optimum(s * matrix)[0] for s in (1.0, -1.0))
    # Lower bound: the top eigenvector at d = 5 is strictly positive, so it is
    # the d = 5 optimum; padded with zeros it stays feasible at every d >= 5.
    _, vecs = np.linalg.eigh(bell_matrix(2, 5, angles))
    witness = vecs[:, -1] if vecs[:, -1].sum() > 0 else -vecs[:, -1]
    witness_state = FockCorrelatedState(2, witness)

    def correlator(phi):
        return sum(
            outcome[0] * outcome[1] * oracle_probability(witness_state, phi, outcome)
            for outcome in itertools.product((1, -1), repeat=2)
        )

    # the CHSH combination of chsh_angles, by quadrature of the density
    bell_witness = 3.0 * correlator(math.pi / 4.0) - correlator(3.0 * math.pi / 4.0)
    conclude(
        4,
        [
            (
                abs(bell_free - 2.100) <= 2e-3,
                f"unconstrained d=30 Bell {bell_free:.6f} = 2.100 +/- 0.002",
            ),
            (state.coefficients.min() >= 0.0, "constrained optimum is nonnegative"),
            (
                abs(bell_nonneg - 2.0847) <= 2e-3,
                f"constrained d=30 Bell {bell_nonneg:.6f} = 2.0847 +/- 0.002",
            ),
            (
                abs(bell_nonneg - bell_oracle) <= 1e-9,
                f"independent solver {bell_oracle:.12f}, "
                f"gap {abs(bell_nonneg - bell_oracle):.1e} <= 1e-9",
            ),
            (
                abs(bell_nonneg - bell_ascent) <= 1e-9,
                f"projected ascent from 35 starts {bell_ascent:.12f}, "
                f"gap {abs(bell_nonneg - bell_ascent):.1e} <= 1e-9",
            ),
            (
                witness.min() > 0.0
                and bell_witness > 2.076 + 2e-3
                and bell_nonneg >= bell_witness - 1e-9,
                f"lower bound: positive d=5 witness {bell_witness:.7f} by quadrature, "
                "above the quoted 2.076 +/- 0.002",
            ),
            (
                bell_nonneg <= bell_free,
                f"upper bound: unconstrained {bell_free:.6f}",
            ),
        ],
    )


def test_criterion_05_root_binning_maximal_violation():
    values = {}
    for m in range(2, 9):
        spec = RootBinningSpec(1.0, 1.0, optimal_phase(m), m)
        values[m] = bell_factor_root(spec, "x-unprimed")
    worst = max(abs(values[m] - 2.0 ** ((m + 1) / 2.0)) for m in values)
    worst_recursion = max(
        abs(values[m] - math.sqrt(2.0) * values[m - 1]) for m in range(3, 9)
    )
    conclude(
        5,
        [
            (worst <= 1e-10, f"quantum-bound deviation {worst:.2e} <= 1e-10"),
            (
                worst_recursion <= 1e-12,
                f"recursion deviation {worst_recursion:.2e} <= 1e-12",
            ),
        ],
    )


def test_criterion_06_cat_state_overlaps():
    v6, w6 = overlaps_VW(6.0)
    # the two-party and three-party reference numbers are quoted for the
    # large-amplitude overlaps V = 1, W = 0.64
    bell_2 = max_theta_bell(1.0, 0.64, 2, "best")
    bell_3 = bell_factor_root(RootBinningSpec(1.0, 0.64, 0.0, 3), "best")
    conclude(
        6,
        [
            (v6 >= 0.999, f"V(6) = {v6:.6f} >= 0.999"),
            (abs(w6 - 0.6366) <= 5e-3, f"W(6) = {w6:.6f} = 0.6366 +/- 0.005"),
            (abs(bell_2 - 1.90) <= 1e-2, f"two-party max-theta Bell {bell_2:.4f} = 1.90 +/- 0.01"),
            (abs(bell_3 - 2.23) <= 1e-2, f"three-party theta=0 Bell {bell_3:.4f} = 2.23 +/- 0.01"),
        ],
    )


def test_criterion_07_psi3_direct_integration():
    started = time.perf_counter()
    alphas = [0.5 + 0.05 * k for k in range(50)]
    reports = psi3_bell_report(alphas)
    elapsed = time.perf_counter() - started
    crossing = next(
        (a for a, rep in zip(alphas, reports) if rep.bell_best >= 2.0), None
    )
    bell_3 = direct_bell_psi3(3.0)
    worst_prob = max(
        abs(s - 1.0) for rep in reports for s in rep.probability_sums.values()
    )
    conclude(
        7,
        [
            (
                crossing is not None and 1.0 <= crossing <= 1.3,
                f"crossing at alpha = {crossing}",
            ),
            (2.15 <= bell_3 <= 2.25, f"Bell(3.0) = {bell_3:.4f} in [2.15, 2.25]"),
            (worst_prob <= 1e-8, f"probability-sum error {worst_prob:.2e} <= 1e-8"),
            (elapsed < 60.0, f"50-point sweep {elapsed:.1f}s < 60s"),
        ],
    )


def test_criterion_08_noise_model():
    state = FockCorrelatedState.ghz(3)
    angles = ghz_like_angles(3)
    clean = bell_factor_sign(state, angles)
    worst_mixture = max(
        abs(noisy_bell_direct(state, angles, p) - noisy_bell_factor(clean, p, 3))
        for p in (0.05, 0.1, 0.3)
    )
    worst_closure = 0.0
    for m in range(3, 13):
        result = p_max_ghz(m)
        clean_m = math.sqrt(2.0) * (4.0 / math.pi) ** (m / 2.0)
        worst_closure = max(
            worst_closure, abs(noisy_bell_factor(clean_m, result.p_max, m) - 2.0)
        )
    limit = 1.0 - math.sqrt(math.pi) / 2.0
    sequence = [p_max_ghz(m).p_max for m in range(3, 60)]
    monotone = all(b > a for a, b in zip(sequence, sequence[1:]))
    approach = abs(p_max_ghz(4000).p_max - limit)
    worst_erased = 0.0
    rng = np.random.default_rng(31)
    c = rng.standard_normal(4)
    random_state = FockCorrelatedState(3, c / np.linalg.norm(c))
    for test_state in (state, random_state):
        for erased in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
            worst_erased = max(
                worst_erased, abs(erased_term_correlator(test_state, erased, 0.4))
            )
    conclude(
        8,
        [
            (worst_mixture <= 1e-6, f"mixture-vs-analytic {worst_mixture:.2e} <= 1e-6"),
            (worst_closure <= 1e-10, f"threshold closure {worst_closure:.2e} <= 1e-10"),
            (
                monotone and approach <= 1e-4,
                f"p_max monotone, limit gap {approach:.2e} (-> {limit:.5f})",
            ),
            (
                worst_erased <= 1e-9,
                f"largest erased-term correlator {worst_erased:.2e} <= 1e-9",
            ),
        ],
    )


def test_criterion_09_property_suite():
    parity_ok = all(
        g_rs(r, s, 0.37, 3) == 0.0
        for r in range(1, 21)
        for s in range(r % 2, r, 2)
    )
    worst_orth = 0.0
    for r in range(11):
        for s in range(r + 1):
            closed = 2.0 ** r * math.factorial(r) * math.sqrt(math.pi) if r == s else 0.0
            full_line = integrate_1d(
                lambda x, r=r, s=s: np.exp(-x * x)
                * hermite_eval(r, x)
                * hermite_eval(s, x),
                -math.inf,
                math.inf,
                tol=1e-11,
            )
            scale = math.sqrt(
                2.0 ** r * math.factorial(r) * 2.0 ** s * math.factorial(s)
            ) * math.sqrt(math.pi)
            worst_orth = max(worst_orth, abs(full_line - closed) / scale)
    bounds_ok = all(
        classical_bound_exhaustive(expand_mk(m)) == 2.0 for m in range(1, 5)
    )
    rng = np.random.default_rng(47)
    worst_prob = 0.0
    for _ in range(4):
        m = int(rng.integers(2, 4))
        d = int(rng.integers(2, 5))
        c = rng.standard_normal(d)
        st = FockCorrelatedState(m, c / np.linalg.norm(c))
        for phi in (0.0, 1.1):
            for outcome in [(1,) * m, (1, -1) + (1,) * (m - 2)]:
                worst_prob = max(
                    worst_prob,
                    abs(
                        outcome_probability(st, phi, outcome)
                        - oracle_probability(st, phi, outcome)
                    ),
                )
    c = np.zeros(5)
    c[[0, 2, 4]] = rng.standard_normal(3)  # even support: flip-invariant density
    parity_state = FockCorrelatedState(3, c / np.linalg.norm(c))
    parity_corr = sum(
        outcome[0] * outcome[1] * outcome[2]
        * oracle_probability(parity_state, 0.8, outcome, tol=1e-10)
        for outcome in itertools.product((1, -1), repeat=3)
    )
    conclude(
        9,
        [
            (parity_ok, "g_{r,s} = 0 for even r - s, r,s <= 20"),
            (worst_orth <= 1e-8, f"Hermite orthogonality {worst_orth:.2e} <= 1e-8"),
            (bounds_ok, "classical bound = 2 by exhaustion for m <= 4"),
            (worst_prob <= 1e-6, f"probability oracle {worst_prob:.2e} <= 1e-6"),
            (
                abs(parity_corr) <= 1e-9,
                f"odd-m parity-null correlator {abs(parity_corr):.2e} <= 1e-9",
            ),
        ],
    )


def test_criterion_10_generation_pipeline():
    def best_fidelity(alpha):
        center = -math.sqrt(2.0) * alpha
        grid = np.linspace(center - 1.5, center + 1.5, 31).tolist()
        return max(generation_pipeline(alpha, grid).fidelity)

    fidelities = {alpha: best_fidelity(alpha) for alpha in (1.0, 2.0, 3.0, 4.0)}
    monotone = all(
        fidelities[a] < fidelities[b] for a, b in ((1.0, 2.0), (2.0, 3.0), (3.0, 4.0))
    )
    source = tensor(*(scs_state(2.0) for _ in range(4)))
    worst_unitarity = max(
        abs(network.apply(source).norm_squared() - source.norm_squared())
        for network in PREP_NETWORKS.values()
    )
    conclude(
        10,
        [
            (
                fidelities[3.0] >= 0.99,
                f"fidelity at alpha=3, optimal x0: {fidelities[3.0]:.6f} >= 0.99",
            ),
            (monotone, f"monotone over alpha 1..4: {sorted(fidelities.values())}"),
            (
                worst_unitarity <= 1e-10,
                f"beam-splitter unitarity {worst_unitarity:.2e} <= 1e-10",
            ),
        ],
    )
