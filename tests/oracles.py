"""Oracles shared between test modules.

These deliberately avoid the closed forms they are used to check: joint
probabilities come from direct numerical integration of the Hermite-Gaussian
density, not from the Gamma-function identities, and Mermin-Klyshko sums
walk the exact expansion of ``expand_mk`` tuple by tuple instead of using
the product form.  The g coefficients are the exception: they keep the
closed form and are built one entry at a time in signed-log arithmetic
instead of as one array table.
"""

import cmath
import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from bellscope.mk import MKExpansion, mk_sum_tuplewise
from bellscope.numerics import (
    _GK_NODES,
    _GK_WG,
    _GK_WK,
    IntegrationError,
    _canonical_sign,
    integrate_segments,
)
from bellscope.rootbin import (
    Psi3Report,
    _coherent_cross_p,
    _coherent_cross_x,
    binned_product_probabilities,
    cat_norms,
    cat_pair,
    psi3_prime_terms,
)
from bellscope.signbin import _exp_sum, _mk_cos_sums, bell_matrix
from physics import hermite_eval

_LN2 = math.log(2.0)


def bell_factor(expansion, correlator):
    """|sum of coefficient * correlator(setting tuple)| over the expansion.

    ``correlator`` maps a setting tuple to the expectation value of the
    corresponding product observable; non-finite values are an error.
    """
    total = 0.0
    for t, c in expansion.terms.items():
        e = correlator(t)
        if not math.isfinite(e):
            raise ValueError(f"correlator returned non-finite value {e!r} at {t}")
        total += float(c) * e
    return abs(total)


def primed_twin(expansion):
    """Expansion of B'_m: every tuple with primed/unprimed flipped."""
    flipped = {tuple(not choice for choice in t): c for t, c in expansion.terms.items()}
    return MKExpansion(expansion.m, dict(sorted(flipped.items())))


def coefficients_by_primed_count(expansion):
    """Coefficients collapsed by primed count.

    Valid as a summary only when the correlators depend on nothing but how
    many parties used the primed setting.
    """
    out = {}
    for t, c in expansion.terms.items():
        k = sum(t)
        out[k] = out.get(k, Fraction(0)) + c
    return {k: c for k, c in sorted(out.items()) if c != 0}


def quadrature_halfline(r, s, tol=1e-12):
    return integrate_1d(
        lambda x: np.exp(-x * x) * hermite_eval(r, x) * hermite_eval(s, x),
        0.0,
        math.inf,
        tol=tol,
    )


def quadrature_halfline_window(r, s, width, rel=1e-11):
    """Half-line Hermite integral on a finite window with a scale-relative
    tolerance, usable at large degrees where the value is astronomically big."""
    probe = integrate_1d(
        lambda x: np.exp(-x * x) * hermite_eval(r, x) * hermite_eval(s, x),
        0.0,
        width,
        tol=1.0,
        max_intervals=20000,
    )
    return integrate_1d(
        lambda x: np.exp(-x * x) * hermite_eval(r, x) * hermite_eval(s, x),
        0.0,
        width,
        tol=abs(probe) * rel + 1e-300,
        max_intervals=20000,
    )


def oracle_probability(state, phi, outcome, tol=1e-12):
    """Binned outcome probability by direct quadrature of the joint-density
    series over orthant domains."""
    m, c = state.m, state.coefficients
    total = 0.0
    for r in range(c.size):
        for s in range(c.size):
            if c[r] == 0.0 or c[s] == 0.0:
                continue
            prod = 1.0
            for d_t in outcome:
                lo, hi = (0.0, 12.0) if d_t == 1 else (-12.0, 0.0)
                prod *= integrate_1d(
                    lambda x, r=r, s=s: np.exp(-x * x)
                    * hermite_eval(r, x)
                    * hermite_eval(s, x),
                    lo,
                    hi,
                    tol=tol,
                )
            log_norm = 0.5 * m * (
                math.log(math.pi)
                + (r + s) * math.log(2.0)
                + math.lgamma(r + 1)
                + math.lgamma(s + 1)
            )
            total += c[r] * c[s] * math.cos(phi * (r - s)) * prod * math.exp(-log_norm)
    return total


def oracle_nonneg_optimum(matrix):
    """max v.T M v over non-negative unit vectors v, for a Bell matrix M, taken
    over both signs of M.

    Uses no code from ``bellscope.numerics``.  ``max_eigenpair`` runs the
    same alternating steps from fixed starts, so criterion 4 also checks both
    against ``projected_ascent_optimum`` below.  A Bell matrix couples only
    even with odd Fock indices, M = [[0, B], [B.T, 0]], so the optimum equals
    max x.T B y over non-negative unit x and y.  Alternating non-negative power
    steps x <- (B y)_+ / |.|, y <- (B.T x)_+ / |.| never decrease x.T B y; they
    run from 8 fixed-seed random starts for each sign of B.  Every start ends
    at a feasible pair, so each value is a lower bound; a start that creeps
    along a face without settling in 2000 steps still counts as one, but at
    least one start must settle.
    """
    matrix = np.asarray(matrix, dtype=float)
    if np.any(matrix[0::2, 0::2]) or np.any(matrix[1::2, 1::2]):
        raise ValueError("matrix is not bipartite between even and odd indices")
    block = matrix[0::2, 1::2]
    rng = np.random.default_rng(0)
    best, settled = -math.inf, False
    for b in (block, -block):
        for _ in range(8):
            y = np.abs(rng.standard_normal(b.shape[1]))
            y /= np.linalg.norm(y)
            for _ in range(2000):
                x = np.maximum(b @ y, 0.0)
                if not np.any(x):
                    break  # x.T B y <= 0 for every feasible x
                x /= np.linalg.norm(x)
                y_next = np.maximum(b.T @ x, 0.0)
                if not np.any(y_next):
                    break
                y_next /= np.linalg.norm(y_next)
                step = np.linalg.norm(y_next - y)
                y = y_next
                if step <= 1e-13:
                    settled = True
                    break
            if np.any(x):
                best = max(best, float(x @ b @ y))
    if not settled:
        raise ArithmeticError("no start of the alternating power steps settled")
    return best


def bipartite(block):
    """The symmetric matrix M with M[0::2, 1::2] = block that couples only
    even with odd indices, as every Bell matrix does; block has
    ceil(n / 2) rows and floor(n / 2) columns for an n x n M."""
    block = np.asarray(block, dtype=float)
    n = sum(block.shape)
    matrix = np.zeros((n, n))
    matrix[0::2, 1::2] = block
    matrix[1::2, 0::2] = block.T
    return matrix


# The package's non-negative solver before the alternating power steps
# replaced it: projected gradient ascent with a step-size search and a
# support polish, from 35 starts, on any symmetric matrix.


def stationarity_residual(m, v, lam):
    grad = m @ v - lam * v
    active = v <= 1e-10
    res = np.where(active, np.maximum(grad, 0.0), grad)
    return float(np.linalg.norm(res))


def projected_ascent(m, v0, max_steps=500):
    v = v0 / np.linalg.norm(v0)
    lam = float(v @ m @ v)
    eta = 1.0
    for _ in range(max_steps):
        grad = m @ v - lam * v
        if stationarity_residual(m, v, lam) < 1e-12:
            break
        improved = False
        while eta > 1e-16:
            w = np.maximum(v + eta * grad, 0.0)
            norm_w = np.linalg.norm(w)
            if norm_w > 0.0:
                w = w / norm_w
                lam_w = float(w @ m @ w)
                if lam_w > lam + 1e-15:
                    v, lam = w, lam_w
                    eta *= 1.3
                    improved = True
                    break
            eta *= 0.5
        if not improved:
            break
    return v, lam


def support_polish(m, v, lam):
    """On the converged support, the maximizer is an eigenvector of the
    restricted matrix; take it when it stays in the non-negative orthant."""
    support = np.flatnonzero(v > 1e-10)
    if support.size == 0:
        return v, lam
    sub = m[np.ix_(support, support)]
    w, vecs = np.linalg.eigh(sub)
    top = _canonical_sign(vecs[:, -1])
    if top.min() < -1e-12:
        return v, lam
    candidate = np.zeros_like(v)
    candidate[support] = np.maximum(top, 0.0)
    candidate /= np.linalg.norm(candidate)
    lam_c = float(candidate @ m @ candidate)
    if lam_c >= lam - 1e-12:
        return candidate, lam_c
    return v, lam


def projected_ascent_optimum(matrix, seed=0, restarts=32):
    """(max v.T M v, v) over non-negative unit vectors v: projected ascent
    plus support polish from the uniform vector, the clipped +/- top
    eigenvector and ``restarts`` seeded random starts; the best start wins,
    ties going to the smaller stationarity residual, which must be <= 1e-8."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    rng = np.random.default_rng(seed)
    starts = [np.full(n, 1.0 / math.sqrt(n))]
    _, vecs = np.linalg.eigh(m)
    for cand in (vecs[:, -1], -vecs[:, -1]):
        clipped = np.maximum(cand, 0.0)
        norm = np.linalg.norm(clipped)
        if norm > 1e-12:
            starts.append(clipped / norm)
    for _ in range(restarts):
        x = np.abs(rng.standard_normal(n))
        starts.append(x / np.linalg.norm(x))

    best_v, best_lam, best_res = None, -math.inf, math.inf
    for v0 in starts:
        v, lam = projected_ascent(m, v0)
        v, lam = support_polish(m, v, lam)
        res = stationarity_residual(m, v, lam)
        if lam > best_lam + 1e-14 or (abs(lam - best_lam) <= 1e-14 and res < best_res):
            best_v, best_lam, best_res = v, lam, res
    if best_res > 1e-8:
        raise ArithmeticError(
            f"constrained maximizer not stationary (residual {best_res:.3e})"
        )
    return best_lam, best_v


# The package's unconstrained optimizer before one thin SVD of the even/odd
# block replaced it: a full eigh of the Bell matrix and of its negative, the
# larger value winning, then the parity twin with the larger component sum.


def eigh_max_eigenpair(matrix):
    """Largest eigenvalue and canonical unit eigenvector by a full eigh."""
    w, vecs = np.linalg.eigh(matrix)
    return float(w[-1]), _canonical_sign(np.array(vecs[:, -1]))


def two_eigh_optimum(m, d, angles):
    """(bell value, coefficients) of the unconstrained optimal state."""
    matrix = bell_matrix(m, d, angles)
    lam_pos, v_pos = eigh_max_eigenpair(matrix)
    lam_neg, v_neg = eigh_max_eigenpair(-matrix)
    lam, v = (lam_neg, v_neg) if lam_neg > lam_pos else (lam_pos, v_pos)
    twin = v.copy()
    twin[1::2] = -twin[1::2]
    twin = _canonical_sign(twin)
    if float(np.sum(twin)) > float(np.sum(v)) + 1e-12:
        v = twin
    return lam, v / np.linalg.norm(v)


def panel_one_at_a_time(f, a, b):
    """One Gauss-Kronrod panel, one integrand call: (kronrod value,
    |K - G| error guess).

    The weighted sums use the program's ``np.vecdot`` reduction, so the
    comparison with ``integrate_segments`` tests the batching and the heap
    and not the numpy build.  The integrator before batching used
    ``_GK_WK @ ys``; ``test_vecdot_rounds_like_matmul`` checks separately
    that the two round alike.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    ys = np.asarray(f(mid + half * _GK_NODES))
    if not np.all(np.isfinite(ys)):
        raise IntegrationError("integrand returned a non-finite value")
    k = half * np.vecdot(_GK_WK, ys)
    g = half * np.vecdot(_GK_WG, ys)
    return k, abs(k - g)


def integrate_segments_one_panel_at_a_time(f, segments, tol=1e-10, max_intervals=4096):
    """The greedy Gauss-Kronrod integrator with one integrand call per panel:
    the worst segment is bisected until the summed error estimate drops
    below max(tol, 64 eps sum |values|).  ``integrate_segments`` must agree
    with it bit for bit."""
    entries = []  # heap of (-err, tiebreak, a, b, value, err)
    counter = 0
    total = 0.0
    total_err = 0.0
    total_abs = 0.0
    for a, b in segments:
        if b == a:
            continue
        val, err = panel_one_at_a_time(f, a, b)
        heapq.heappush(entries, (-err, counter, a, b, val, err))
        counter += 1
        total = total + val
        total_err += err
        total_abs += abs(val)

    while total_err > max(tol, 64.0 * np.finfo(float).eps * total_abs):
        if len(entries) >= max_intervals:
            raise IntegrationError(
                f"no convergence after {max_intervals} intervals "
                f"(error estimate {total_err:.3e}, tol {tol:.3e})",
                achieved_error=total_err,
            )
        neg_err, _, a, b, val, err = heapq.heappop(entries)
        if err == 0.0:
            heapq.heappush(entries, (neg_err, counter, a, b, val, err))
            break
        total = total - val
        total_err -= err
        total_abs -= abs(val)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            val2, err2 = panel_one_at_a_time(f, lo, hi)
            heapq.heappush(entries, (-err2, counter, lo, hi, val2, err2))
            counter += 1
            total = total + val2
            total_err += err2
            total_abs += abs(val2)

    if isinstance(total, complex) or np.iscomplexobj(total):
        return complex(total)
    return float(total)


def binned_probabilities_every_entry(terms, settings, pair, tol=1e-9):
    """``binned_product_probabilities`` with no shared work: every mode gets
    its own table, and every (a, b) entry of it its own pair of
    one-panel-at-a-time quadratures."""
    per_call = max(tol / 2.0, 1e-14)
    tables = []
    for t, setting in enumerate(settings):
        if setting == "x":
            segments, make_cross = pair.x_segments(), _coherent_cross_x
        else:
            segments, make_cross = pair.p_segments(), _coherent_cross_p
        plus = [(a, b) for a, b, s in segments if s > 0]
        minus = [(a, b) for a, b, s in segments if s < 0]
        amplitudes = sorted({amps[t] for _w, amps in terms})
        table = {}
        for a, b in itertools.product(amplitudes, repeat=2):
            cross = make_cross(a, b)
            table[(a, b)] = tuple(
                integrate_segments_one_panel_at_a_time(cross, part, tol=per_call)
                if part
                else 0.0
                for part in (plus, minus)
            )
        tables.append(table)
    probabilities = {}
    for outcome in itertools.product((1, -1), repeat=len(settings)):
        total = 0.0 + 0.0j
        for w_i, amps_i in terms:
            for w_j, amps_j in terms:
                factor = w_i * complex(w_j).conjugate()
                for t, table in enumerate(tables):
                    factor *= table[(amps_i[t], amps_j[t])][outcome[t] != 1]
                total += factor
        probabilities[outcome] = total.real
    return probabilities


def psi3_report_every_entry(alpha, tol=1e-9):
    """``psi3_bell_report`` built on ``binned_probabilities_every_entry``."""
    pair = cat_pair(alpha)
    terms = psi3_prime_terms(alpha)
    correlators, probability_sums = {}, {}
    min_probability = math.inf
    for n_x in range(4):
        settings = "x" * n_x + "p" * (3 - n_x)
        probs = binned_probabilities_every_entry(terms, settings, pair, tol)
        probability_sums[n_x] = sum(probs.values())
        min_probability = min(min_probability, min(probs.values()))
        correlators[n_x] = sum(
            (outcome[0] * outcome[1] * outcome[2]) * p for outcome, p in probs.items()
        )
    return Psi3Report(
        alpha=alpha,
        bell_x_unprimed=abs(mk_sum_tuplewise([correlators[3 - k] for k in range(4)])),
        bell_p_unprimed=abs(mk_sum_tuplewise([correlators[k] for k in range(4)])),
        correlators=correlators,
        probability_sums=probability_sums,
        min_probability=min_probability,
    )


@dataclass(frozen=True)
class ParityFunctionPair:
    """Even f / odd g with their Fourier-side partners and sign-root lists:
    the oracle for the package's closed-form ``CatPair``.

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


def quadrature_overlaps_VW(pair, tol=1e-9):
    """V = int |f g| dx and W = int |f~ h~| dp by one quadrature each over
    the pieces of the pair's root partition, so every panel sees a smooth
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


def callable_cat_pair(alpha):
    """The cat pair as wavefunctions with their root lists:

        f(x) = c_+ [ <x|alpha> + <x|-alpha> ]
        g(x) = c_- [ <x|alpha> - <x|-alpha> ]

    f*g has its only sign change at x = 0; f~*h~ ~ -e^{-p^2} sin(2 sqrt(2)
    alpha p) changes sign at every multiple of pi/(2 sqrt(2) alpha).  Its
    p signs come from the product itself, which underflows to 0 (binned +1)
    beyond |p| of about 27.
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


def cat_state_terms(alpha, m, theta=0.0):
    """(|f>^m + e^{i theta} |g>^m)/sqrt(2) for the cat pair, expanded into
    coherent product terms: one weight per sign pattern of the amplitudes."""
    c_plus, c_minus = cat_norms(alpha)
    w_even = c_plus ** m / math.sqrt(2.0)
    w_odd = cmath.exp(1j * theta) * c_minus ** m / math.sqrt(2.0)
    terms = []
    for signs in itertools.product((1, -1), repeat=m):
        parity = 1
        for s in signs:
            parity *= s
        weight = w_even + w_odd * parity
        terms.append((weight, tuple(s * alpha for s in signs)))
    return tuple(terms)


def binned_product_correlator(terms, settings, pair, tol=1e-9):
    """Full correlator sum_d sign(d) P_d for the binned product state."""
    probabilities = binned_product_probabilities(terms, settings, pair, tol)
    total = 0.0
    for outcome, p in probabilities.items():
        sign = 1
        for d in outcome:
            sign *= d
        total += sign * p
    return total


def coherent_overlap(a, b):
    """<a|b> for real coherent amplitudes."""
    return math.exp(-0.5 * (a * a + b * b) + a * b)


def inner_product_loop(left, right):
    """<left|right> for coherent superpositions, one coherent overlap per
    mode and pair of terms."""
    total = 0.0 + 0.0j
    for w_i, a_i in zip(left.weights.tolist(), left.amplitudes.tolist()):
        for w_j, a_j in zip(right.weights.tolist(), right.amplitudes.tolist()):
            ov = 1.0
            for a, b in zip(a_i, a_j):
                ov *= coherent_overlap(a, b)
            total += w_i.conjugate() * w_j * ov
    return total


# The package's cat-state preparation before its states became a weight
# vector and an amplitude matrix: every state a tuple of (complex weight,
# amplitude tuple) pairs, rebuilt and validated one float at a time.


@dataclass(frozen=True)
class TupleSuperposition:
    """Weighted superposition of products of coherent states.

    ``terms`` holds (weight, per-mode amplitude vector) pairs; weights may
    be complex (homodyne conditioning can introduce phases for complex
    amplitudes, though everything stays real in this module's use).
    """

    n_modes: int
    terms: tuple

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("need at least one mode")
        cleaned = []
        for weight, amps in self.terms:
            amps = tuple(float(a) for a in amps)
            if len(amps) != self.n_modes:
                raise ValueError("amplitude vector length must equal the mode count")
            cleaned.append((complex(weight), amps))
        if not cleaned:
            raise ValueError("empty superposition")
        object.__setattr__(self, "terms", tuple(cleaned))

    def inner_product(self, other: "TupleSuperposition") -> complex:
        """<self|other> = w^H exp(E) w' for the Gram matrix of exponents
        E_ij = sum_t [a_it b_jt - (a_it^2 + b_jt^2)/2], one exponential per
        pair of terms."""
        if other.n_modes != self.n_modes:
            raise ValueError("mode counts differ")
        w_a, a = _tuple_as_arrays(self.terms)
        w_b, b = _tuple_as_arrays(other.terms)
        exponent = a @ b.T - 0.5 * ((a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1))
        return complex(w_a.conj() @ np.exp(exponent) @ w_b)

    def norm_squared(self) -> float:
        return self.inner_product(self).real

    def normalized(self) -> "TupleSuperposition":
        norm = math.sqrt(self.norm_squared())
        if norm < 1e-150:
            raise ArithmeticError("cannot normalize a (numerically) null state")
        return TupleSuperposition(
            self.n_modes, tuple((w / norm, a) for w, a in self.terms)
        )


def _tuple_as_arrays(terms):
    """(weights, amplitude matrix with one row per term) of a term tuple."""
    return (
        np.array([w for w, _ in terms]),
        np.array([amps for _, amps in terms], dtype=float),
    )


def tuple_scs_state(alpha):
    """Single-mode even cat state c_+ (|alpha> + |-alpha>)."""
    c_plus, _ = cat_norms(alpha)
    return TupleSuperposition(1, ((c_plus, (alpha,)), (c_plus, (-alpha,))))


def tuple_tensor(*states):
    """Tensor product of coherent superpositions."""
    n_modes = sum(s.n_modes for s in states)
    terms = []
    for combo in itertools.product(*(s.terms for s in states)):
        weight = 1.0 + 0.0j
        amps = ()
        for w, a in combo:
            weight *= w
            amps += a
        terms.append((weight, amps))
    return TupleSuperposition(n_modes, tuple(terms))


def tuple_bs_transform(state, a, b):
    """Balanced beam splitter on modes a and b: amplitudes (x, y) become
    ((x+y)/sqrt(2), (x-y)/sqrt(2)); weights and norm are untouched."""
    if a == b:
        raise ValueError("beam splitter needs two distinct modes")
    for idx in (a, b):
        if not 0 <= idx < state.n_modes:
            raise ValueError(f"mode index {idx} out of range")
    inv = 1.0 / math.sqrt(2.0)
    new_terms = []
    for w, amps in state.terms:
        amps = list(amps)
        amps[a], amps[b] = (amps[a] + amps[b]) * inv, (amps[a] - amps[b]) * inv
        new_terms.append((w, tuple(amps)))
    return TupleSuperposition(state.n_modes, tuple(new_terms))


def _tuple_position_amplitude(x0, a):
    """<x0|a> for a real coherent amplitude."""
    return math.pi ** -0.25 * math.exp(-0.5 * (x0 - math.sqrt(2.0) * a) ** 2)


def tuple_homodyne_project(state, mode, x0):
    """Project ``mode`` onto the quadrature eigenvalue x0 and drop it:
    (normalized conditional state, outcome probability density at x0)."""
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode index {mode} out of range")
    if state.n_modes == 1:
        raise ValueError("cannot drop the only mode")
    new_terms = []
    for w, amps in state.terms:
        w_new = w * _tuple_position_amplitude(x0, amps[mode])
        new_terms.append((w_new, amps[:mode] + amps[mode + 1 :]))
    unnormalized = TupleSuperposition(state.n_modes - 1, tuple(new_terms))
    density = unnormalized.norm_squared()
    if density < 1e-300:
        raise ArithmeticError(
            f"conditional state at x0 = {x0!r} has vanishing density"
        )
    return unnormalized.normalized(), density


def tuple_fidelity(state, target):
    """|<target|state>|^2 for normalized coherent superpositions."""
    if state.n_modes != target.n_modes:
        raise ValueError("mode counts differ")
    for s in (state, target):
        if abs(s.norm_squared() - 1.0) > 1e-8:
            raise ValueError("fidelity expects normalized states")
    return abs(target.inner_product(state)) ** 2


def tuple_generation_pipeline(alpha, x0, pairs):
    """(fidelity, density) of the conditional state after four cat states
    pass the beam splitters ``pairs`` and mode 0 is measured at x0."""
    state = tuple_tensor(*(tuple_scs_state(alpha) for _ in range(4)))
    for a, b in pairs:
        state = tuple_bs_transform(state, a, b)
    conditional, density = tuple_homodyne_project(state, 0, x0)
    target = TupleSuperposition(3, psi3_prime_terms(alpha))
    return tuple_fidelity(conditional, target), density


def integrate_1d(f, a, b, tol=1e-10, max_intervals=4096, initial_splits=8):
    """Adaptive Gauss-Kronrod quadrature of f over (a, b) to absolute
    tolerance ``tol``.

    Infinite endpoints are mapped to a finite parameter first:
    both infinite   x = t/(1-t^2)   on t in (-1, 1),
    upper infinite  x = a + t/(1-t) on t in (0, 1),
    lower infinite  x = b - t/(1-t) on t in (0, 1).
    The integrand must accept numpy arrays.
    """
    if a == b:
        return 0.0
    if a > b:
        return -integrate_1d(
            f, b, a, tol=tol, max_intervals=max_intervals, initial_splits=initial_splits
        )

    neg_inf = math.isinf(a) and a < 0
    pos_inf = math.isinf(b) and b > 0
    if neg_inf and pos_inf:
        def g(t):
            denom = 1.0 - t * t
            return f(t / denom) * (1.0 + t * t) / (denom * denom)

        lo, hi = -1.0, 1.0
    elif pos_inf:
        def g(t):
            denom = 1.0 - t
            return f(a + t / denom) / (denom * denom)

        lo, hi = 0.0, 1.0
    elif neg_inf:
        def g(t):
            denom = 1.0 - t
            return f(b - t / denom) / (denom * denom)

        lo, hi = 0.0, 1.0
    else:
        g, lo, hi = f, a, b

    edges = np.linspace(lo, hi, initial_splits + 1)
    segments = list(zip(edges[:-1], edges[1:]))
    return integrate_segments(g, segments, tol=tol, max_intervals=max_intervals)


def phi_sum(angles, setting_tuple):
    """Sum of the chosen angle over all parties for one setting tuple."""
    return sum(
        angles.theta_prime[t] if primed else angles.theta[t]
        for t, primed in enumerate(setting_tuple)
    )


# The g coefficients one entry at a time, in signed-log arithmetic: the code
# that the array g table of ``bellscope.signbin`` replaced, kept frozen.  The
# table must equal it bit for bit wherever the program keeps its order of
# operations (``bell_matrix``, ``bell_expectation_sign``, ``g_rs``,
# ``hermite_halfline_overlap``).


@dataclass(frozen=True)
class LogSignedReal:
    """A real number stored as a sign and the natural log of its magnitude.

    Products whose factors span hundreds of orders of magnitude stay
    representable this way; the value is exponentiated once, at the end.
    ``sign == 0`` means exactly zero, whatever ``log_magnitude`` holds.
    """

    log_magnitude: float
    sign: int

    @classmethod
    def from_float(cls, x: float) -> "LogSignedReal":
        if x == 0.0:
            return cls(0.0, 0)
        return cls(math.log(abs(x)), 1 if x > 0 else -1)

    def __mul__(self, other: "LogSignedReal") -> "LogSignedReal":
        if self.sign == 0 or other.sign == 0:
            return LogSignedReal(0.0, 0)
        return LogSignedReal(
            self.log_magnitude + other.log_magnitude, self.sign * other.sign
        )

    def __neg__(self) -> "LogSignedReal":
        return LogSignedReal(self.log_magnitude, -self.sign)

    def scaled(self, factor: float) -> "LogSignedReal":
        return self * LogSignedReal.from_float(factor)

    def power(self, exponent: float) -> "LogSignedReal":
        """Raise to a real power.  Negative bases need an integer exponent."""
        if self.sign == 0:
            if exponent <= 0:
                raise ValueError("zero cannot be raised to a non-positive power")
            return LogSignedReal(0.0, 0)
        if self.sign < 0:
            if exponent != int(exponent):
                raise ValueError("negative base needs an integer exponent")
            sign = -1 if int(exponent) % 2 else 1
            return LogSignedReal(self.log_magnitude * exponent, sign)
        return LogSignedReal(self.log_magnitude * exponent, 1)

    def value(self) -> float:
        """Back to an ordinary float; underflows to 0.0, overflows to +/-inf."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_magnitude)
        except OverflowError:
            return self.sign * math.inf


def _sinpi(z: float) -> float:
    """sin(pi*z) with the argument reduced before multiplying by pi."""
    n = round(z)
    r = z - n
    s = math.sin(math.pi * r)
    return -s if n % 2 else s


def rgamma_log(z: float) -> LogSignedReal:
    """1/Gamma(z) as a signed log value; exactly zero at the poles of Gamma.

    For z <= 0 the reflection formula 1/Gamma(z) = Gamma(1-z) sin(pi z)/pi
    keeps lgamma's argument positive.
    """
    if not math.isfinite(z):
        raise ValueError("argument must be finite")
    if z > 0:
        return LogSignedReal(-math.lgamma(z), 1)
    if z == math.floor(z):
        return LogSignedReal(0.0, 0)
    s = _sinpi(z)
    sign = 1 if s > 0 else -1
    log_mag = math.log(abs(s)) - math.log(math.pi) + math.lgamma(1.0 - z)
    return LogSignedReal(log_mag, sign)


def reciprocal_gamma(z: float) -> float:
    """1/Gamma(z), total on the reals: returns 0.0 at non-positive integers."""
    return rgamma_log(z).value()


def f_difference(r, s):
    """F(r,s) - F(s,r) with 1/F(r,s) = Gamma((1-r)/2) Gamma(-s/2).

    The Gamma poles kill one of the two terms for every integer pair, so the
    difference never needs a genuine signed-log subtraction.
    """
    fa = rgamma_log((1.0 - r) / 2.0) * rgamma_log(-s / 2.0)
    if fa.sign != 0:
        return fa
    fb = rgamma_log((1.0 - s) / 2.0) * rgamma_log(-r / 2.0)
    return -fb


def hermite_halfline_overlap_entry(r, s):
    """int_0^inf e^{-x^2} H_r(x) H_s(x) dx in closed form, in signed-log
    arithmetic; beyond the float range the result is +/-inf or
    OverflowError."""
    if r == s:
        return math.exp((r - 1) * math.log(2.0) + math.lgamma(r + 1)) * math.sqrt(math.pi)
    pref = LogSignedReal(math.log(math.pi) + (r + s) * math.log(2.0), 1)
    return (pref * f_difference(r, s).scaled(1.0 / (r - s))).value()


@functools.lru_cache(maxsize=None)
def g_magnitude_entry(r, s, m):
    """g_{r,s} without its cos(phi (r-s)) factor, in signed-log form."""
    pref_log = (
        math.log(math.pi)
        + (r + s) * math.log(2.0)
        - math.lgamma(r + 1)
        - math.lgamma(s + 1)
    )
    pref = LogSignedReal(pref_log, 1).power(m / 2.0)
    bracket = f_difference(r, s).scaled(1.0 / (r - s))
    return pref * bracket.power(m)


def g_rs_entry(r, s, phi, m):
    return g_magnitude_entry(r, s, m).value() * math.cos(phi * (r - s))


def g_sum_entry(state, phi, log_scale=0.0):
    """2 e^log_scale sum_{r>s} c_r c_s g_{r,s}(phi, m), one pair at a time."""
    c = state.coefficients
    scale = LogSignedReal(log_scale, 1)
    total = 0.0
    for r in range(1, c.size):
        if c[r] == 0.0:
            continue
        for s in range(1 - (r % 2), r, 2):  # opposite parity only
            if c[s] == 0.0:
                continue
            g = g_magnitude_entry(r, s, state.m) * scale
            total += c[r] * c[s] * g.value() * math.cos(phi * (r - s))
    return 2.0 * total


def correlator_E_entry(state, phi):
    return g_sum_entry(state, phi, state.m * _LN2)


def outcome_probability_entry(state, phi, outcome):
    sign = 1
    for d in outcome:
        sign *= d
    return 2.0 ** (-state.m) + sign * g_sum_entry(state, phi)


def pair_terms_entry(m, angles, pairs):
    """(log |.|, sign) of 2^m g_{r,s}(phi) summed over the MK expansion for
    each pair, with g built one entry at a time."""
    r, s = np.array(pairs).T
    log_mk, sign_mk = _mk_cos_sums(angles, np.arange(r.max() + 1))
    g = [g_magnitude_entry(a, b, m) for a, b in pairs]
    log_g = np.array([x.log_magnitude for x in g])
    sign_g = np.array([x.sign for x in g])
    return log_g + m * _LN2 + log_mk[r - s], sign_g * sign_mk[r - s]


def bell_expectation_sign_entry(state, angles):
    c = state.coefficients
    pairs = [
        (r, s)
        for r in range(1, c.size)
        if c[r] != 0.0
        for s in range(1 - (r % 2), r, 2)
        if c[s] != 0.0
    ]
    if not pairs:
        return 0.0
    logs, signs = pair_terms_entry(state.m, angles, pairs)
    weights = np.array([2.0 * c[r] * c[s] for r, s in pairs])
    with np.errstate(divide="ignore"):
        log_weights = np.log(np.abs(weights))
    return _exp_sum(logs + log_weights, signs * np.sign(weights))


def bell_matrix_entries(m, angles, pairs):
    """The Bell-matrix entries at the given (r, s) pairs, r > s of opposite
    parity; an entry beyond the float range raises OverflowError."""
    logs, signs = pair_terms_entry(m, angles, pairs)
    if np.any(logs[signs != 0] > math.log(np.finfo(float).max)):
        raise OverflowError("Bell matrix entries exceed the float range")
    return signs * np.exp(np.where(signs != 0, logs, -np.inf))


def bell_matrix_every_entry(m, d, angles):
    """``bell_matrix`` with g built one entry at a time."""
    pairs = [(r, s) for r in range(1, d) for s in range(1 - (r % 2), r, 2)]
    values = bell_matrix_entries(m, angles, pairs)
    r, s = np.array(pairs).T
    matrix = np.zeros((d, d))
    matrix[r, s] = values
    matrix[s, r] = values
    return matrix
