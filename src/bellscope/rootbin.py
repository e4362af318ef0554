"""Root-binned homodyne Bell tests built on an even/odd function pair.

The states are (|f>^(x m) + e^{i theta} |g>^(x m)) / sqrt(2) with f real and
even, g real and odd, both unit norm.  f has a real even Fourier transform
f~; g's Fourier transform is i h~ with h~ real and odd.  Each party measures
X or P and the outcome is binned by the sign of f*g (for X) or f~*h~ (for
P); the partitions are known from the roots of those products, hence "root
binning".

The correlator then depends only on how many parties measured X:

    E(k, m-k) = V^k W^(m-k) cos[theta + (m-k) pi/2],
    V = int |f g| dx,   W = int |f~ h~| dp,

and the Bell factor follows from the Mermin-Klyshko expansion.  V = W = 1
with theta = (1-m) pi/4 saturates the quantum bound 2^((m+1)/2).

The module also evaluates Bell factors by direct domain integration for
finite superpositions of products of coherent states, which covers the
three-mode coherent-superposition candidate state and serves as the
independent cross-check of the closed-form correlator.

Wavefunction convention: <x|n> ~ H_n(x) e^{-x^2/2}, so a coherent state of
real amplitude a is a unit-width Gaussian centred at sqrt(2)*a, and the
momentum-side roots of the coherent-pair products sit at multiples of
pi / (2 sqrt(2) a).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .mk import mk_sum, mk_sum_tuplewise
from .numerics import integrate_segments

__all__ = [
    "ParityFunctionPair",
    "RootBinningSpec",
    "LABELINGS",
    "overlaps_VW",
    "class_correlator",
    "bell_factor_root",
    "max_theta_bell",
    "optimal_phase",
    "maximal_violation_curve",
    "cat_norms",
    "cat_pair",
    "psi3_prime_terms",
    "binned_product_probabilities",
    "Psi3Report",
    "psi3_bell_report",
    "direct_bell_psi3",
]

LABELINGS = ("x-unprimed", "p-unprimed")


@dataclass(frozen=True)
class ParityFunctionPair:
    """Even f / odd g with their Fourier-side partners and sign-root lists.

    ``x_roots`` are the points where f*g changes sign, ``p_roots`` where
    f~*h~ does; both sorted strictly increasing.  The windows bound the
    quadrature range; tails beyond them must be negligible.
    """

    f: Callable
    g: Callable
    f_tilde: Callable
    h_tilde: Callable
    x_roots: tuple
    p_roots: tuple
    x_window: float
    p_window: float

    def __post_init__(self):
        for name in ("x_roots", "p_roots"):
            roots = tuple(float(r) for r in getattr(self, name))
            if any(b <= a for a, b in zip(roots, roots[1:])):
                raise ValueError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, roots)

    def x_segments(self):
        return _signed_segments(
            lambda x: self.f(x) * self.g(x), self.x_roots, self.x_window
        )

    def p_segments(self):
        return _signed_segments(
            lambda p: self.f_tilde(p) * self.h_tilde(p), self.p_roots, self.p_window
        )


@dataclass(frozen=True)
class RootBinningSpec:
    """Abstract root-binning inputs: the two overlaps, the state phase, and
    the party count.  V and W live in [0, 1] by Cauchy-Schwarz."""

    V: float
    W: float
    theta: float
    m: int

    def __post_init__(self):
        if not (-1e-9 <= self.V <= 1.0 + 1e-9 and -1e-9 <= self.W <= 1.0 + 1e-9):
            raise ValueError("V and W must lie in [0, 1]")
        if self.m < 1:
            raise ValueError("party count must be >= 1")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")


def _signed_segments(product_fn, roots, window):
    """Partition (-window, window) at the roots and attach the sign of the
    product on each piece, evaluated at the midpoints in one call."""
    edges = [-window]
    edges.extend(r for r in roots if -window < r < window)
    edges.append(window)
    pieces = list(zip(edges, edges[1:]))
    mids = np.array([0.5 * (a + b) for a, b in pieces])
    signs = np.where(product_fn(mids) >= 0.0, 1, -1).tolist()
    return tuple((a, b, sign) for (a, b), sign in zip(pieces, signs))


def overlaps_VW(pair: ParityFunctionPair, tol: float = 1e-9):
    """V = int |f g| dx and W = int |f~ h~| dp, each one quadrature over
    the pieces of its root partition, so every panel sees a smooth
    integrand."""

    def absolute_overlap(product_fn, segments):
        return integrate_segments(
            lambda x: np.abs(product_fn(x)), [(a, b) for a, b, _ in segments], tol=tol
        )

    v = absolute_overlap(lambda x: pair.f(x) * pair.g(x), pair.x_segments())
    w = absolute_overlap(
        lambda p: pair.f_tilde(p) * pair.h_tilde(p), pair.p_segments()
    )
    return v, w


def class_correlator(spec: RootBinningSpec, k: int) -> float:
    """Correlator when k parties measure X and m-k measure P."""
    if not 0 <= k <= spec.m:
        raise ValueError("k must lie between 0 and m")
    return (
        spec.V ** k
        * spec.W ** (spec.m - k)
        * math.cos(spec.theta + (spec.m - k) * math.pi / 2.0)
    )


@lru_cache(maxsize=256)
def _mk_class_sums(v: float, w: float, m: int) -> tuple:
    """sum_t c_t V^k (iW)^(m-k) over the MK expansion, k the number of
    parties measuring X, for the labelings in ``LABELINGS`` order.

    E(k, m-k) is the real part of e^{i theta} V^k (iW)^(m-k), a product over
    parties, so each labeling is one product-form MK sum.  The sums do not
    depend on theta, so a scan over the state phase computes them once.
    """
    x_then_p = np.array([[complex(v), 1j * w]] * m)
    return tuple(mk_sum(x_then_p, x_then_p[:, ::-1]).tolist())


def _labeling_values(values, labeling: str) -> float:
    if labeling == "best":
        return max(values)
    if labeling not in LABELINGS:
        raise ValueError(f"unknown labeling: {labeling!r}")
    return values[LABELINGS.index(labeling)]


def bell_factor_root(spec: RootBinningSpec, labeling: str = "x-unprimed") -> float:
    """|<B_m>| from the class correlators.

    ``labeling`` decides whether the unprimed setting measures X or P;
    "best" evaluates both and returns the larger.
    """
    cos_t, sin_t = math.cos(spec.theta), math.sin(spec.theta)
    sums = _mk_class_sums(spec.V, spec.W, spec.m)
    values = [abs(cos_t * z.real - sin_t * z.imag) for z in sums]
    return _labeling_values(values, labeling)


def max_theta_bell(v: float, w: float, m: int, labeling: str = "x-unprimed") -> float:
    """Bell factor maximized analytically over the state phase.

    As a function of theta the factor is |Re(e^{i theta} S)| for the
    complex MK sum S, so the maximum is |S|; no numerical search involved.
    """
    return _labeling_values([abs(z) for z in _mk_class_sums(v, w, m)], labeling)


def optimal_phase(m: int) -> float:
    """State phase maximizing the Bell factor at V = W = 1: (1-m) pi/4."""
    if m < 1:
        raise ValueError("party count must be >= 1")
    return (1 - m) * math.pi / 4.0


def maximal_violation_curve(m_max: int):
    """(m, Bell factor) at V = W = 1 and the optimal phase, for m = 2..m_max.
    Each value equals the quantum bound 2^((m+1)/2)."""
    if m_max < 2:
        raise ValueError("need m_max >= 2")
    return [
        (m, bell_factor_root(RootBinningSpec(1.0, 1.0, optimal_phase(m), m)))
        for m in range(2, m_max + 1)
    ]


def cat_norms(alpha: float):
    """(c_+, c_-): normalisations of the even and odd cat states
    c_+/- (|alpha> +/- |-alpha>),

        c_+^2 = 1/[2(1 + e^{-2 a^2})],   c_-^2 = 1/[2(1 - e^{-2 a^2})].
    """
    if alpha <= 0:
        raise ValueError("amplitude must be > 0")
    a2 = alpha * alpha
    return (
        1.0 / math.sqrt(2.0 * (1.0 + math.exp(-2.0 * a2))),
        1.0 / math.sqrt(2.0 * (1.0 - math.exp(-2.0 * a2))),
    )


def cat_pair(alpha: float) -> ParityFunctionPair:
    """Even and odd superpositions of |alpha> and |-alpha> as a parity pair:

        f(x) = c_+ [ <x|alpha> + <x|-alpha> ]
        g(x) = c_- [ <x|alpha> - <x|-alpha> ]

    with c_+/- from ``cat_norms``.  f*g has its only sign change at x = 0;
    f~*h~ ~ -e^{-p^2} sin(2 sqrt(2) alpha p) changes sign at every multiple
    of pi/(2 sqrt(2) alpha).
    """
    c_plus, c_minus = cat_norms(alpha)
    mu = math.sqrt(2.0) * alpha
    quartic = math.pi ** -0.25

    def f(x):
        return c_plus * quartic * (
            np.exp(-0.5 * (x - mu) ** 2) + np.exp(-0.5 * (x + mu) ** 2)
        )

    def g(x):
        return c_minus * quartic * (
            np.exp(-0.5 * (x - mu) ** 2) - np.exp(-0.5 * (x + mu) ** 2)
        )

    def f_tilde(p):
        return 2.0 * c_plus * quartic * np.exp(-0.5 * p ** 2) * np.cos(mu * p)

    def h_tilde(p):
        return -2.0 * c_minus * quartic * np.exp(-0.5 * p ** 2) * np.sin(mu * p)

    window = 8.0 + 2.0 * mu
    spacing = math.pi / (2.0 * mu)
    k_max = int(window / spacing)
    p_roots = tuple(k * spacing for k in range(-k_max, k_max + 1))
    return ParityFunctionPair(
        f=f,
        g=g,
        f_tilde=f_tilde,
        h_tilde=h_tilde,
        x_roots=(0.0,),
        p_roots=p_roots,
        x_window=window,
        p_window=window,
    )


def psi3_prime_terms(alpha: float):
    """The large-amplitude three-mode candidate state: an equal-weight sum of
    |a,a,a>, |a,-a,-a>, |-a,a,-a>, |-a,-a,a> with c'^2 = 1/[4(1+3e^{-4a^2})]."""
    if alpha <= 0:
        raise ValueError("amplitude must be > 0")
    weight = 1.0 / (2.0 * math.sqrt(1.0 + 3.0 * math.exp(-4.0 * alpha * alpha)))
    patterns = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
    return tuple(
        (weight, tuple(s * alpha for s in signs)) for signs in patterns
    )


def _coherent_cross_x(a: float, b: float):
    """<x|a> <x|b> for real amplitudes: both wavefunctions are real Gaussians."""
    mu_a = math.sqrt(2.0) * a
    mu_b = math.sqrt(2.0) * b

    def cross(x):
        return (math.pi ** -0.5) * np.exp(
            -0.5 * (x - mu_a) ** 2 - 0.5 * (x - mu_b) ** 2
        )

    return cross


def _coherent_cross_p(a: float, b: float):
    """<p|a> conj(<p|b>) = pi^{-1/2} e^{-p^2} e^{-i sqrt(2) (a-b) p}."""
    delta = math.sqrt(2.0) * (a - b)

    def cross(p):
        return (math.pi ** -0.5) * np.exp(-p * p) * np.exp(-1j * delta * p)

    return cross


def _mode_table(pair, setting, amplitudes, tol):
    """Per-mode integrals of every coherent cross term over the two binning
    domains.  Returns {(a, b): (I_plus, I_minus)}.

    Each distinct integral is computed once.  <x|a><x|b> is symmetric in
    (a, b); <p|a><p|b>* depends on a - b alone, and swapping a and b
    conjugates it.  Both hold bit for bit in floating point, so every entry
    equals its direct quadrature exactly.
    """
    if setting == "x":
        segments = pair.x_segments()
        make_cross = _coherent_cross_x
    elif setting == "p":
        segments = pair.p_segments()
        make_cross = _coherent_cross_p
    else:
        raise ValueError(f"setting must be 'x' or 'p', got {setting!r}")
    plus = [(a, b) for a, b, s in segments if s > 0]
    minus = [(a, b) for a, b, s in segments if s < 0]
    per_call = max(tol / 2.0, 1e-14)
    distinct = {}
    table = {}
    for a, b in itertools.product(sorted(set(amplitudes)), repeat=2):
        if setting == "x":
            key, swapped = (min(a, b), max(a, b)), False
        else:
            key, swapped = abs(a - b), a < b
        if key not in distinct:
            cross = make_cross(*((b, a) if swapped else (a, b)))
            distinct[key] = (
                integrate_segments(cross, plus, tol=per_call) if plus else 0.0,
                integrate_segments(cross, minus, tol=per_call) if minus else 0.0,
            )
        i_plus, i_minus = distinct[key]
        if swapped:
            i_plus, i_minus = i_plus.conjugate(), i_minus.conjugate()
        table[(a, b)] = (i_plus, i_minus)
    return table


def _joint_probabilities(terms, tables):
    """All 2^m binned outcome probabilities from one mode table per mode."""
    # Per pair of terms: the weight product and each mode's (I_plus, I_minus).
    pairs = [
        (
            w_i * complex(w_j).conjugate(),
            [table[(a_i[t], a_j[t])] for t, table in enumerate(tables)],
        )
        for w_i, a_i in terms
        for w_j, a_j in terms
    ]
    probabilities = {}
    for outcome in itertools.product((1, -1), repeat=len(tables)):
        sides = [0 if d == 1 else 1 for d in outcome]
        total = 0.0 + 0.0j
        for factor, integrals in pairs:
            for pair_integrals, side in zip(integrals, sides):
                factor *= pair_integrals[side]
            total += factor
        if abs(total.imag) > 1e-10:
            raise ArithmeticError(
                f"probability came out non-real ({total!r}); inconsistent terms"
            )
        probabilities[outcome] = total.real
    return probabilities


def binned_product_probabilities(terms, settings, pair, tol=1e-9):
    """Joint probabilities of all 2^m binned outcomes for a superposition of
    products of coherent states, measured along ``settings`` ('x'/'p' per
    mode) and binned by the pair's root partitions.

    Every domain integral factorizes into per-mode one-dimensional integrals
    of Gaussian cross terms over the root intervals.
    """
    m = len(settings)
    if any(len(amps) != m for _w, amps in terms):
        raise ValueError("term amplitude vectors must match the settings length")
    tables = [
        _mode_table(pair, setting, [amps[t] for _w, amps in terms], tol)
        for t, setting in enumerate(settings)
    ]
    return _joint_probabilities(terms, tables)


@dataclass(frozen=True)
class Psi3Report:
    """Direct-integration results for the three-mode candidate state."""

    alpha: float
    bell_x_unprimed: float
    bell_p_unprimed: float
    correlators: dict  # X-measurement count -> correlator
    probability_sums: dict  # X-measurement count -> sum of the 8 outcome probs
    min_probability: float

    @property
    def bell_best(self) -> float:
        return max(self.bell_x_unprimed, self.bell_p_unprimed)


def psi3_bell_report(alpha: float, tol: float = 1e-9) -> Psi3Report:
    """Bell factor of the three-mode coherent-superposition state by direct
    domain integration of its binned joint probabilities.

    The state is permutation symmetric, so each correlator depends only on
    how many parties measured X; the four values cover both labelings.
    Every mode carries the amplitudes +/-alpha, so one x table and one p
    table serve all of them.
    """
    pair = cat_pair(alpha)
    terms = psi3_prime_terms(alpha)
    tables = {s: _mode_table(pair, s, (-alpha, alpha), tol) for s in "xp"}
    correlators = {}
    probability_sums = {}
    min_probability = math.inf
    for n_x in range(4):
        settings = "x" * n_x + "p" * (3 - n_x)
        probs = _joint_probabilities(terms, [tables[s] for s in settings])
        probability_sums[n_x] = sum(probs.values())
        min_probability = min(min_probability, min(probs.values()))
        correlators[n_x] = sum(
            (outcome[0] * outcome[1] * outcome[2]) * p for outcome, p in probs.items()
        )
    # The tuple-by-tuple sum keeps the rounding of the reference curve where
    # one labeling cancels to noise.
    bells = {
        "x-unprimed": abs(mk_sum_tuplewise([correlators[3 - k] for k in range(4)])),
        "p-unprimed": abs(mk_sum_tuplewise([correlators[k] for k in range(4)])),
    }
    return Psi3Report(
        alpha=alpha,
        bell_x_unprimed=bells["x-unprimed"],
        bell_p_unprimed=bells["p-unprimed"],
        correlators=correlators,
        probability_sums=probability_sums,
        min_probability=min_probability,
    )


def direct_bell_psi3(alpha: float, tol: float = 1e-9) -> float:
    """Bell factor of the three-mode candidate state, maximized over the two
    X/P labelings of the measurement settings."""
    return psi3_bell_report(alpha, tol).bell_best
