"""Probabilistic erasure noise for the binned Bell tests.

Each mode is independently replaced by vacuum with probability p.  For
photon-number-correlated states every term with at least one erased mode is
diagonal in the Fock basis, its quadrature statistics are even in every
outcome, and its sign-binned correlators vanish; only the erasure-free term
survives, so the noisy Bell factor is (1-p)^m times the clean one.  The
tests verify the vanishing by quadrature rather than assume it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "noisy_bell_factor",
    "PMaxResult",
    "p_max_ghz",
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
