"""Mermin-Klyshko Bell operators for m parties.

Each party t has two dichotomic observables O_t and O_t'.  The Bell
operator family is defined by the recursion

    B_t = (B_{t-1}/2) (x) (O_t + O_t') + (B'_{t-1}/2) (x) (O_t - O_t'),

with B_1 = 2 O_1 and B_1' = 2 O_1', where B' swaps primed and unprimed
observables everywhere.  Local realism bounds |<B_m>| by 2; quantum
mechanics allows up to 2^((m+1)/2).

A setting tuple is an m-tuple of booleans, True meaning the primed setting.
The coefficient of a tuple depends only on its primed count k:

    c_k = 2^((3-m)/2) cos((m-1) pi/4 - k pi/2).

So for a correlator that is a product over parties, with f_j(unprimed) = a_j
and f_j(primed) = b_j, the 2^m-term sum collapses to the complex-product
form of Mermin (PRL 65, 1838, 1990) and Belinskii & Klyshko (Phys. Usp. 36,
653, 1993):

    sum_t c_t prod_j f_j(t_j)
        = 2^((3-m)/2) (1/2) [e^{-i beta} prod_j (a_j + i b_j)
                             + e^{i beta} prod_j (a_j - i b_j)],

with beta = (m-1) pi/4.  ``mk_sum_scaled`` evaluates it in O(m) work, and
``mk_class_sum`` sums a correlator of k alone over the m + 1 classes of k.
``expand_mk`` keeps the full expansion as exact dyadic rationals; it is the
oracle the fast evaluator is tested against, and no CLI command calls it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "quantum_bound",
    "mk_coefficient",
    "mk_sum_scaled",
    "mk_class_sum",
]

# e^{i j pi/4} for j = 0..7, with the odd j multiplied by sqrt(2): Gaussian
# integers, so every phase of the product form is exact.
_EIGHTH_TURNS = (1 + 0j, 1 + 1j, 1j, -1 + 1j, -1 + 0j, -1 - 1j, -1j, 1 - 1j)
_OMEGAS = np.array(_EIGHTH_TURNS)
_SIDES = np.array([1j, -1j])
# Factors normalised to modulus [1/2, 1) multiply in blocks of this many
# without leaving the normal float range (2^-256 is far above 2^-1022).
_BLOCK = 256


# The exact expansion below (``_sorted_terms``, ``MKExpansion``, ``expand_mk``)
# serves only the tests; it stays here because perfbench/tracing.py wraps
# ``mk.expand_mk`` by name.
def _sorted_terms(terms):
    return dict(sorted(terms.items()))


class MKExpansion(NamedTuple):
    """Signed rational coefficients of B_m over the 2^m setting tuples.

    ``terms`` is pruned of exact zeros and iterates in lexicographic order
    (unprimed before primed), so downstream output is reproducible.
    """

    m: int
    terms: dict


def expand_mk(m: int) -> MKExpansion:
    """Fully expanded Bell operator B_m as a map setting tuple -> coefficient."""
    from fractions import Fraction  # no command expands B_m, so the CLI never loads it

    if m < 1:
        raise ValueError("party count must be >= 1")
    terms = {(False,): Fraction(2)}
    twin = {(True,): Fraction(2)}
    half = Fraction(1, 2)
    for _ in range(1, m):
        new_terms: dict = {}
        new_twin: dict = {}
        # B_t  = (B/2)(O + O') + (B'/2)(O - O')
        # B'_t = (B'/2)(O + O') + (B/2)(O' - O)   [primes swapped]
        for t, c in terms.items():
            for primed in (False, True):
                key = t + (primed,)
                new_terms[key] = new_terms.get(key, Fraction(0)) + c * half
        for t, c in twin.items():
            for primed in (False, True):
                key = t + (primed,)
                sign = -1 if primed else 1
                new_terms[key] = new_terms.get(key, Fraction(0)) + sign * c * half
        for t, c in twin.items():
            for primed in (False, True):
                key = t + (primed,)
                new_twin[key] = new_twin.get(key, Fraction(0)) + c * half
        for t, c in terms.items():
            for primed in (False, True):
                key = t + (primed,)
                sign = 1 if primed else -1
                new_twin[key] = new_twin.get(key, Fraction(0)) + sign * c * half
        terms = {t: c for t, c in new_terms.items() if c != 0}
        twin = {t: c for t, c in new_twin.items() if c != 0}
    return MKExpansion(m, _sorted_terms(terms))


def quantum_bound(m: int) -> float:
    """Largest |<B_m>| quantum mechanics allows: 2^((m+1)/2)."""
    if m < 1:
        raise ValueError("party count must be >= 1")
    return 2.0 ** ((m + 1) / 2.0)


def mk_coefficient(m: int, k: int) -> float:
    """Coefficient in B_m of every setting tuple with k primed settings,
    2^((3-m)/2) cos((m-1) pi/4 - k pi/2), exactly.

    The cosine is taken from (m-1-2k) mod 8 rather than computed, so the
    zeros are exact zeros and every other value is a signed power of two.
    """
    if m < 1:
        raise ValueError("party count must be >= 1")
    if not 0 <= k <= m:
        raise ValueError("primed count must lie between 0 and m")
    return math.ldexp(_EIGHTH_TURNS[(m - 1 - 2 * k) % 8].real, 1 - m // 2)


def _ldexp(z, exponent):
    """z * 2**exponent for complex z, exactly, subnormal z or results
    included: ldexp acts on the (real, imaginary) float pairs."""
    pairs = np.ldexp(z.reshape(-1, 1).view(float), np.reshape(exponent, (-1, 1)))
    return pairs.view(complex).reshape(z.shape)


def _normalised(z):
    """z = mantissa * 2**exponent elementwise, |mantissa| in [1/2, 1) or 0."""
    _, exponent = np.frexp(np.abs(z))
    return _ldexp(z, -exponent), exponent


def _scaled_product(factors, pad):
    """Product over axis 0 as (mantissa, exponent): product = mantissa *
    2**exponent.  Up to m = _BLOCK the mantissa rounds exactly like the
    plain product would without over- or underflow.  A factor where ``pad``
    is True counts as mantissa 1, exponent 0, so it changes no bit."""
    mantissas, exponents = _normalised(factors)
    mantissas, exponents = np.where(pad, 1.0, mantissas), np.where(pad, 0, exponents)
    exponent = exponents.sum(axis=0)
    while len(mantissas) > _BLOCK:
        blocks = [mantissas[i : i + _BLOCK].prod(axis=0) for i in range(0, len(mantissas), _BLOCK)]
        mantissas, exponents = _normalised(np.stack(blocks))
        exponent = exponent + exponents.sum(axis=0)
    return mantissas.prod(axis=0), exponent


def mk_sum_scaled(unprimed, primed, parties=None):
    """sum_t c_t prod_j f_j(t_j) over the 2^m setting tuples of B_m, in O(m).

    ``unprimed[j]`` is f_j at party j's unprimed setting and ``primed[j]``
    at its primed one, complex, with the party on axis 0 and any trailing
    batch axes.  Returns (mantissa, exponent) with the sum equal to
    mantissa * 2**exponent and |mantissa| < 4, so nothing over- or
    underflows, whatever m is.

    ``parties`` (default: the length of axis 0), broadcastable to the batch
    axes, gives each sum its own m: its first m entries on axis 0 are its
    parties, the rest padding that changes no bit where m and the padded
    length fill the same number of ``_BLOCK``-party blocks.

    The rounding error is a few m ulps of 2^((3-m)/2) prod_j (|a_j| + |b_j|),
    the largest |c_t| times the sum over all 2^m tuples of |prod_j f_j(t_j)|.
    A sum that cancels far below that, with the tuples of coefficient zero
    carrying the weight, is resolved only to that absolute accuracy.
    """
    a = np.asarray(unprimed, dtype=complex)
    b = np.asarray(primed, dtype=complex)
    if a.shape != b.shape or a.ndim == 0 or a.shape[0] < 1:
        raise ValueError("need one unprimed and one primed factor per party")
    m = np.asarray(a.shape[0] if parties is None else parties)
    if m.min(initial=1) < 1 or m.max(initial=1) > a.shape[0]:
        raise ValueError("party counts must lie between 1 and the length of axis 0")
    pad = (np.arange(a.shape[0]).reshape((-1,) + (1,) * (a.ndim - 1)) >= m)[..., None]
    # axis 0: the parties; last axis: prod (a_j + i b_j), prod (a_j - i b_j)
    products, exponents = _scaled_product(a[..., None] + _SIDES * b[..., None], pad)
    top = np.maximum(exponents[..., 0], exponents[..., 1])
    # 2^((3-m)/2) e^{i beta} / 2 = 2^(-floor(m/2)) omega, omega a Gaussian integer
    omega = _OMEGAS[(m - 1) % 8]
    aligned = products * np.ldexp(1.0, exponents - top[..., None])  # scales <= 1
    return np.conj(omega) * aligned[..., 0] + omega * aligned[..., 1], top - m // 2


def mk_class_sum(by_primed_count):
    """sum_t c_t E(k(t)) for a correlator E that depends only on the primed
    count k, given as ``by_primed_count[k]`` for k = 0..m (or arrays of it),
    as sum_k C(m, k) c_k E_k in order of k over the classes with c_k != 0.
    Each C(m, k) c_k is exact while C(m, k) < 2^53 (m <= 56).  At m = 3 the
    sum is RN(RN(3 E_1) - E_3), bit for bit the sum over the setting tuples
    in the order of ``expand_mk``, since E_1 + E_1 is exact.
    """
    m = len(by_primed_count) - 1
    total = 0.0
    for k in range(m + 1):
        c = math.comb(m, k) * mk_coefficient(m, k)
        if c:
            total += c * by_primed_count[k]
    return total
