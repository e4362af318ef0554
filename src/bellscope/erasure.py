"""Probabilistic erasure noise for the binned Bell tests.

Each mode is independently replaced by vacuum with probability p.  For
photon-number-correlated states every term with at least one erased mode is
diagonal in the Fock basis, its quadrature statistics are even in every
outcome, and its sign-binned correlators vanish; only the erasure-free term
survives, so the noisy Bell factor is (1-p)^m times the clean one.  The
vanishing is verified here by quadrature rather than assumed.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .mk import mk_sum
from .numerics import hermite_eval, integrate_segments
from .signbin import AngleSettings, FockCorrelatedState, bell_expectation_sign

__all__ = [
    "noisy_bell_factor",
    "PMaxResult",
    "p_max_ghz",
    "erased_term_correlator",
    "noisy_bell_direct",
]


def noisy_bell_factor(bell_m: float, p: float, m: int) -> float:
    """Bell factor after independent per-mode erasure: (1-p)^m * B_m."""
    if bell_m < 0:
        raise ValueError("Bell factor must be >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("erasure probability must lie in [0, 1]")
    if m < 1:
        raise ValueError("mode count must be >= 1")
    return (1.0 - p) ** m * bell_m


class PMaxResult(NamedTuple):
    p_max: float
    clamped: bool  # True when the clean Bell factor never exceeds 2


def p_max_ghz(m: int) -> PMaxResult:
    """Largest erasure probability at which the m-mode GHZ state still
    violates: 1 - (sqrt(pi)/2) 2^(1/(2m)), the root of (1-p)^m B_m = 2.

    Where the clean factor sqrt(2) (4/pi)^(m/2) is already <= 2 the formula
    goes negative; the value is clamped to 0 and flagged.
    """
    if m < 1:
        raise ValueError("mode count must be >= 1")
    p = 1.0 - 0.5 * math.sqrt(math.pi) * 2.0 ** (1.0 / (2.0 * m))
    if p <= 0.0:
        return PMaxResult(0.0, True)
    return PMaxResult(p, False)


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
