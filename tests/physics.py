"""Physics that only the tests call.

No CLI command reaches these functions; they state results of the paper in
their textbook form, so the tests can check the engine against them:

- the exhaustive classical bound of a Mermin-Klyshko expansion
- the erasure mixture term by term, with each noisy term's correlator
  integrated rather than assumed zero
- the Hermite recurrence, per-pair g coefficients and the closed-form
  binned outcome probabilities of sign binning
- the class correlator, the phase-maximized Bell factor and the V = W = 1
  curve of root binning, and the Bell factor of the three-mode candidate
  state maximized over the two labelings
"""

import itertools
import math
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np

from bellscope.mk import MKExpansion, mk_sum
from bellscope.numerics import integrate_segments
from bellscope.rootbin import (
    RootBinningSpec,
    _labeling_values,
    _mk_class_sums,
    bell_factor_root,
    optimal_phase,
    psi3_bell_report,
)
from bellscope.signbin import (
    _LOG_FLOAT_MAX,
    AngleSettings,
    FockCorrelatedState,
    _g_log,
    _g_parts,
    _g_sum,
    bell_expectation_sign,
)


# -- Mermin-Klyshko ------------------------------------------------------------


def classical_bound_exhaustive(expansion: MKExpansion, limit: int = 4) -> float:
    """Max of |<B_m>| over all deterministic +/-1 strategies, by exhaustion.

    The search space is 4^m strategies (each party assigns +/-1 to both of
    its observables), so the party count is capped; beyond ``limit`` the
    call refuses rather than subsampling.
    """
    m = expansion.m
    if m > limit:
        raise ValueError(
            f"exhaustive bound limited to m <= {limit} (got m = {m}); "
            "refusing to subsample"
        )
    items = list(expansion.terms.items())
    best = Fraction(0)
    for strategy in itertools.product(((1, 1), (1, -1), (-1, 1), (-1, -1)), repeat=m):
        value = Fraction(0)
        for t, c in items:
            product = 1
            for party, primed in enumerate(t):
                product *= strategy[party][1 if primed else 0]
            value += c * product
        best = max(best, abs(value))
    return float(best)


# -- Hermite polynomials and sign binning ----------------------------------------


def hermite_eval(n: int, x):
    """Physicists' Hermite polynomial H_n(x) by the three-term recurrence
    H_{k+1} = 2x H_k - 2k H_{k-1}.  Works elementwise on numpy arrays.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    xa = np.asarray(x, dtype=float)
    h_prev = np.ones_like(xa)
    if n == 0:
        return h_prev if xa.ndim else 1.0
    h = 2.0 * xa
    for k in range(1, n):
        h, h_prev = 2.0 * xa * h - 2.0 * k * h_prev, h
    return h if xa.ndim else float(h)


def hermite_halfline_overlap(r: int, s: int) -> float:
    """int_0^inf e^{-x^2} H_r(x) H_s(x) dx in closed form.

    A value beyond the float range raises OverflowError.
    """
    if r < 0 or s < 0:
        raise ValueError("degrees must be >= 0")
    if r == s:
        log, factor = (r - 1) * math.log(2.0) + math.lgamma(r + 1), math.sqrt(math.pi)
    else:
        _, log_b, sign = _g_parts([r], [s])
        log = math.log(math.pi) + (r + s) * math.log(2.0) + float(log_b[0, 0])
        factor = float(sign[0, 0])
    if log <= _LOG_FLOAT_MAX:
        value = factor * math.exp(log)
        if math.isfinite(value):
            return value
    raise OverflowError(f"half-line integral e^{log:.6g} exceeds the float range")


def g_rs(r: int, s: int, phi: float, m: int) -> float:
    """The g coefficient for a (r, s) Fock pair; zero whenever r - s is even."""
    if not (r > s >= 0):
        raise ValueError("need r > s >= 0")
    if m < 1:
        raise ValueError("mode count must be >= 1")
    log_g, sign_g = _g_log(m, _g_parts([r], [s]))
    return float(sign_g[0, 0]) * math.exp(log_g[0, 0]) * math.cos(phi * (r - s))


def outcome_sign(outcome) -> int:
    """Product of the +/-1 entries of a binned outcome."""
    sign = 1
    for d in outcome:
        if d not in (1, -1):
            raise ValueError("binned outcomes are +/-1")
        sign *= d
    return sign


def outcome_probability(state: FockCorrelatedState, phi: float, outcome) -> float:
    """Probability of one binned outcome: 1/2^m + sign(outcome) * G(phi, m).

    All 2^m outcome probabilities sum to 1 by construction.  A value below
    -1e-12 cannot come from a state in this family and is reported as a
    diagnostic warning.
    """
    if len(outcome) != state.m:
        raise ValueError("outcome length must match the mode count")
    p = 2.0 ** (-state.m) + outcome_sign(outcome) * _g_sum(state, phi)
    if p < -1e-12 or p > 1.0 + 1e-12:
        warnings.warn(
            f"outcome probability {p!r} outside [0, 1]; the coefficient vector "
            "violates this formula's assumptions",
            RuntimeWarning,
            stacklevel=2,
        )
    return p


# -- Root binning ----------------------------------------------------------------


def class_correlator(spec: RootBinningSpec, k: int) -> float:
    """Correlator when k parties measure X and m-k measure P."""
    if not 0 <= k <= spec.m:
        raise ValueError("k must lie between 0 and m")
    return (
        spec.V ** k
        * spec.W ** (spec.m - k)
        * math.cos(spec.theta + (spec.m - k) * math.pi / 2.0)
    )


def max_theta_bell(v: float, w: float, m: int, labeling: str = "x-unprimed") -> float:
    """Bell factor maximized analytically over the state phase.

    As a function of theta the factor is |Re(e^{i theta} S)| for the
    complex MK sum S, so the maximum is |S|; no numerical search involved.
    """
    return _labeling_values([abs(z) for z in _mk_class_sums(v, w, m)], labeling)


def maximal_violation_curve(m_max: int):
    """(m, Bell factor) at V = W = 1 and the optimal phase, for m = 2..m_max.
    Each value equals the quantum bound 2^((m+1)/2)."""
    if m_max < 2:
        raise ValueError("need m_max >= 2")
    return [
        (m, bell_factor_root(RootBinningSpec(1.0, 1.0, optimal_phase(m), m)))
        for m in range(2, m_max + 1)
    ]


def direct_bell_psi3(alpha: float, tol: float = 1e-9) -> float:
    """Bell factor of the three-mode candidate state, maximized over the two
    X/P labelings of the measurement settings."""
    return psi3_bell_report(alpha, tol).bell_best


# -- Erasure noise ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _signed_fock_moment(r: int, tol: float = 1e-11) -> float:
    """int sign(x) |<x|r>|^2 dx by quadrature; zero by parity, but computed.

    |<x|r>|^2 = e^{-x^2} H_r(x)^2 / (2^r r! sqrt(pi)) for any quadrature
    angle, since Fock states pick up only a phase under rotation.
    """
    norm = math.exp(-(r * math.log(2.0) + math.lgamma(r + 1))) / math.sqrt(math.pi)

    def density(x):
        h = hermite_eval(r, x)
        return norm * np.exp(-x * x) * h * h

    w = math.sqrt(2.0 * r + 1.0) + 8.0
    plus = integrate_segments(density, [(0.0, w)], tol=tol)
    minus = integrate_segments(density, [(-w, 0.0)], tol=tol)
    return plus - minus


def erased_term_correlator(state: FockCorrelatedState, erased_mode, phi: float) -> float:
    """Sign-binned m-mode correlator of the mixture term with the given
    mode(s) traced out and replaced by vacuum.

    The reduced state is Fock diagonal, so each mode contributes the signed
    integral of an even density; the result is zero within quadrature noise
    regardless of ``phi`` (accepted to mirror the correlator interface).
    """
    erased = (erased_mode,) if isinstance(erased_mode, int) else tuple(erased_mode)
    if not erased:
        raise ValueError("need at least one erased mode")
    if len(set(erased)) != len(erased):
        raise ValueError("erased modes must be distinct")
    if any(not 0 <= t < state.m for t in erased):
        raise ValueError("erased mode index out of range")
    del phi  # Fock-diagonal mixtures have angle-independent statistics
    n_erased = len(erased)
    n_kept = state.m - n_erased
    vacuum_moment = _signed_fock_moment(0)
    total = 0.0
    for r, c in enumerate(state.coefficients):
        if c == 0.0:
            continue
        total += c * c * _signed_fock_moment(r) ** n_kept * vacuum_moment ** n_erased
    return total


def _binomial_weights(m: int, p: float) -> list:
    """C(m, j) p^j (1-p)^(m-j) for j = 0..m, built in log space so that no
    m overflows; p = 0 and p = 1 give exact unit weights."""
    if p == 0.0 or p == 1.0:
        return [1.0 if j == m * p else 0.0 for j in range(m + 1)]
    log_p, log_q = math.log(p), math.log1p(-p)
    log_m = math.lgamma(m + 1)
    return [
        math.exp(
            log_m - math.lgamma(j + 1) - math.lgamma(m - j + 1)
            + j * log_p + (m - j) * log_q
        )
        for j in range(m + 1)
    ]


def noisy_bell_direct(state: FockCorrelatedState, angles: AngleSettings, p: float) -> float:
    """Bell factor of the full erasure mixture, by linearity over its terms.

    Every erasure pattern S gets weight p^|S| (1-p)^(m-|S|); the correlator
    of each noisy term is evaluated through ``erased_term_correlator`` (not
    assumed zero).  That correlator depends only on |S| and not on the
    angles, so the patterns are summed by size and the noisy part enters the
    MK sum through sum_t c_t.  Agrees with noisy_bell_factor of the clean
    value.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("erasure probability must lie in [0, 1]")
    if angles.m != state.m:
        raise ValueError("state and angles disagree on the party count")
    m = state.m
    noisy_part = sum(
        weight * erased_term_correlator(state, range(j), 0.0)
        for j, weight in enumerate(_binomial_weights(m, p))
        if j > 0
    )
    coefficient_sum = float(mk_sum(np.ones(m), np.ones(m)).real)
    clean = bell_expectation_sign(state, angles)
    return abs((1.0 - p) ** m * clean + noisy_part * coefficient_sum)
