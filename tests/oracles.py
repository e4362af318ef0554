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
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from bellscope.catprep import (
    PREP_NETWORKS,
    CoherentSuperposition,
    psi3_prime_state,
    scs_state,
    tensor,
)
from bellscope.mk import (
    _EIGHTH_TURNS,
    _SIDES,
    MKExpansion,
    _normalised,
    expand_mk,
    mk_sum_scaled,
)
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
    binned_product_probabilities,
    cat_norms,
    psi3_prime_terms,
)
from bellscope.signbin import (
    FockCorrelatedState,
    _exp_sum,
    _g_log,
    _g_magnitude,
    _pairs,
    bell_matrix,
    ghz_like_angles,
)
from physics import hermite_eval, mk_sum

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


# The package's non-negative solver before the support finish and the sign
# skip: alternating power steps run every start to 1e-14 (at most 1,000
# steps), and both signs of the Bell matrix are solved.


def power_steps_nonneg_optimum(matrix):
    """(max v.T M v, v) over non-negative unit vectors v, for M that couples
    only even with odd indices: max x.T B y over non-negative unit x, y with
    B = M[0::2, 1::2], by alternating steps y <- (B.T (B y)_+)_+ / |.| from
    the uniform vector, the clipped +/- top right singular vector of B and
    (B.T e_i)_+ for every row i.  Every start runs until no component of any
    y moves by more than 1e-14 in a step, or for 1,000 steps; the best start
    wins, and a stationarity residual above 1e-8 raises ArithmeticError."""
    m = np.asarray(matrix, dtype=float)
    b = m[0::2, 1::2]
    v = np.zeros(m.shape[0])
    if not np.any(b > 0.0):
        v[0], lam = 1.0, 0.0
    else:
        top = np.linalg.svd(b)[2][0]
        y = np.maximum(np.column_stack([np.ones(b.shape[1]), top, -top, b.T]), 0.0)
        y = y[:, np.any(b @ y > 0.0, axis=0)]
        y /= np.linalg.norm(y, axis=0)
        for _ in range(1000):
            y_next = np.maximum(b.T @ np.maximum(b @ y, 0.0), 0.0)
            y_next /= np.linalg.norm(y_next, axis=0)
            step = np.abs(y_next - y).max()
            y = y_next
            if step <= 1e-14:
                break
        x = np.maximum(b @ y, 0.0)
        x /= np.linalg.norm(x, axis=0)
        values = np.einsum("ik,ik->k", x, b @ y)
        best = int(np.argmax(values))
        v[0::2], v[1::2] = x[:, best], y[:, best]
        v /= math.sqrt(2.0)
        lam = float(values[best])
    res = stationarity_residual(m, v, lam)
    if res > 1e-8:
        raise ArithmeticError(f"constrained maximizer not stationary (residual {res:.3e})")
    return lam, v


def both_signs_nonneg_optimum(matrix):
    """(bell value, unit coefficients) of the non-negative optimal state:
    ``power_steps_nonneg_optimum`` on M and on -M, the + sign winning
    unless the - sign is strictly larger."""
    lam_pos, v_pos = power_steps_nonneg_optimum(matrix)
    lam_neg, v_neg = power_steps_nonneg_optimum(-np.asarray(matrix, dtype=float))
    lam, v = (lam_neg, v_neg) if lam_neg > lam_pos else (lam_pos, v_pos)
    return lam, v / np.linalg.norm(v)


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
    comparison with ``integrate_segments`` tests the batching and the
    bisection order and not the numpy build.  The integrator before batching used
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


def integrate_segments_one_panel_at_a_time(
    f, segments, tol=1e-10, max_intervals=4096, stops=None
):
    """The greedy Gauss-Kronrod integrator with one integrand call per panel:
    the worst segment is bisected until the summed error estimate drops
    below max(tol, 64 eps sum |values|).  ``integrate_segments`` must agree
    with it bit for bit.  A list passed as ``stops`` gets the rule that
    ended the loop: "tolerance", "sum floor", "zero-error panel" or
    "exhausted"."""
    stops = [] if stops is None else stops
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
            stops.append("exhausted")
            raise IntegrationError(
                f"no convergence after {max_intervals} intervals "
                f"(error estimate {total_err:.3e}, tol {tol:.3e})",
                achieved_error=total_err,
            )
        neg_err, _, a, b, val, err = heapq.heappop(entries)
        if err == 0.0:
            heapq.heappush(entries, (neg_err, counter, a, b, val, err))
            stops.append("zero-error panel")
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
    else:
        stops.append("tolerance" if not total_err > tol else "sum floor")

    if isinstance(total, complex) or np.iscomplexobj(total):
        return complex(total)
    return float(total)


def _coherent_cross_x(a, b):
    """<x|a> <x|b> for real amplitudes: both wavefunctions are real Gaussians."""
    mu_a = math.sqrt(2.0) * a
    mu_b = math.sqrt(2.0) * b

    def cross(x):
        return (math.pi ** -0.5) * np.exp(
            -0.5 * (x - mu_a) ** 2 - 0.5 * (x - mu_b) ** 2
        )

    return cross


def _coherent_cross_p(a, b):
    """<p|a> conj(<p|b>) = pi^{-1/2} e^{-p^2} e^{-i sqrt(2) (a-b) p}."""
    delta = math.sqrt(2.0) * (a - b)

    def cross(p):
        return (math.pi ** -0.5) * np.exp(-p * p) * np.exp(-1j * delta * p)

    return cross


def binned_probabilities_every_entry(terms, settings, alpha, tol=1e-9):
    """``binned_product_probabilities`` with no shared work: every mode gets
    its own table, and every (a, b) entry of it its own pair of
    one-panel-at-a-time quadratures over the pieces of ``cat_segments_alone``."""
    per_call = max(tol / 2.0, 1e-14)
    tables = []
    for t, setting in enumerate(settings):
        segments = cat_segments_alone(alpha, setting == "p")
        make_cross = _coherent_cross_p if setting == "p" else _coherent_cross_x
        plus = [(a, b) for a, b, s in segments.tolist() if s > 0]
        minus = [(a, b) for a, b, s in segments.tolist() if s < 0]
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


def mk_sum_tuple_by_tuple(by_primed_count):
    """sum_t c_t E(k(t)) for E given by the primed count k, as
    ``by_primed_count[k]`` (floats or arrays), added one setting tuple at a
    time in the lexicographic order of ``expand_mk``'s terms."""
    total = 0.0
    for t, c in expand_mk(len(by_primed_count) - 1).terms.items():
        total += float(c) * by_primed_count[sum(t)]
    return total


def psi3_report_every_entry(alpha, tol=1e-9):
    """``psi3_bell_report`` built on ``binned_probabilities_every_entry``,
    its MK sums on ``mk_sum_tuple_by_tuple``."""
    terms = psi3_prime_terms(alpha)
    correlators, probability_sums = {}, {}
    min_probability = math.inf
    for n_x in range(4):
        settings = "x" * n_x + "p" * (3 - n_x)
        probs = binned_probabilities_every_entry(terms, settings, alpha, tol)
        # Left to right from 0.0, as the builtin sum adds floats up to
        # Python 3.11 (3.12 compensates it); spelled out so that the
        # comparison does not depend on the interpreter.
        probability_sums[n_x] = functools.reduce(operator.add, probs.values(), 0.0)
        min_probability = min(min_probability, min(probs.values()))
        correlators[n_x] = functools.reduce(operator.add, (
            (outcome[0] * outcome[1] * outcome[2]) * p for outcome, p in probs.items()
        ), 0.0)
    return Psi3Report(
        alpha=alpha,
        bell_x_unprimed=abs(mk_sum_tuple_by_tuple([correlators[3 - k] for k in range(4)])),
        bell_p_unprimed=abs(mk_sum_tuple_by_tuple([correlators[k] for k in range(4)])),
        correlators=correlators,
        probability_sums=probability_sums,
        min_probability=min_probability,
    )


@dataclass(frozen=True)
class ParityFunctionPair:
    """Even f / odd g with their Fourier-side partners and sign-root lists:
    the oracle for the package's closed-form cat pair.

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
    product on each piece, evaluated at the midpoints in one call: rows
    (a, b, sign), as ``rootbin._pieces`` gives them."""
    edges = [-window]
    edges.extend(r for r in roots if -window < r < window)
    edges.append(window)
    a, b = np.array(edges[:-1]), np.array(edges[1:])
    return np.stack([a, b, np.where(product_fn(0.5 * (a + b)) >= 0.0, 1.0, -1.0)], axis=1)


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


def cat_segments_alone(alpha, on_p):
    """The pieces of the cat pair at one amplitude, p (``on_p``) or x, in the
    scalar build that ``rootbin._pieces`` replaced: rows (a, b, sign)."""
    mu = math.sqrt(2.0) * alpha
    window = 8.0 + 2.0 * mu
    if not on_p:
        return np.array([(-window, 0.0, -1.0), (0.0, window, 1.0)])
    spacing = math.pi / (2.0 * mu)
    k_max = int(window / spacing)
    # 0 is a root on its own: once spacing overflows to inf, 0 * spacing is nan
    positive = np.arange(1, k_max + 1) * spacing
    roots = np.concatenate((-positive[::-1], [0.0], positive))
    edges = np.concatenate(([-window], roots[np.abs(roots) < window], [window]))
    a, b = edges[:-1], edges[1:]
    return np.array([a, b, np.where(np.sin(2.0 * mu * (0.5 * (a + b))) <= 0.0, 1.0, -1.0)]).T


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


def binned_product_correlator(terms, settings, alpha, tol=1e-9):
    """Full correlator sum_d sign(d) P_d for the binned product state."""
    probabilities = binned_product_probabilities(terms, settings, alpha, tol)
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


# The package's per-x0 cat-state preparation before ``generation_pipeline``
# took a whole x0 grid: one projection, one normalisation and two norm checks
# per x0, each a fresh ``CoherentSuperposition``.  The batch must give the
# same floats bit for bit.


def homodyne_project(state, mode, x0):
    """Project ``mode`` onto the quadrature eigenvalue x0 and drop it.

    Returns (normalized conditional state on the remaining modes, outcome
    probability density at x0).  A conditional state of negligible norm
    (density below 1e-300) is an error rather than a garbage state.
    """
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode index {mode} out of range")
    if state.n_modes == 1:
        raise ValueError("cannot drop the only mode")
    weights = state.weights * np.array([
        math.pi ** -0.25 * math.exp(-0.5 * (x0 - math.sqrt(2.0) * a) ** 2)
        for a in state.amplitudes[:, mode].tolist()
    ])
    amplitudes = np.delete(state.amplitudes, mode, axis=1)
    density = CoherentSuperposition(weights, amplitudes).norm_squared()
    if density < 1e-300:
        raise ArithmeticError(
            f"conditional state at x0 = {x0!r} has vanishing density"
        )
    normalized = (weights.view(float) / math.sqrt(density)).view(complex)
    return CoherentSuperposition(normalized, amplitudes), density


def fidelity(state, target):
    """|<target|state>|^2 for normalized coherent superpositions."""
    if state.n_modes != target.n_modes:
        raise ValueError("mode counts differ")
    for s in (state, target):
        if abs(s.norm_squared() - 1.0) > 1e-8:
            raise ValueError("fidelity expects normalized states")
    return abs(target.inner_product(state)) ** 2


def per_x0_generation_pipeline(alpha, x0, wiring="sum-first"):
    """(fidelity, density) at one x0, from the package's states."""
    mixed = PREP_NETWORKS[wiring].apply(tensor(*(scs_state(alpha) for _ in range(4))))
    conditional, density = homodyne_project(mixed, 0, x0)
    return fidelity(conditional, psi3_prime_state(alpha)), density


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
        E_ij = -sum_t (a_it - b_jt)^2 / 2, one exponential per pair of terms."""
        if other.n_modes != self.n_modes:
            raise ValueError("mode counts differ")
        w_a, a = _tuple_as_arrays(self.terms)
        w_b, b = _tuple_as_arrays(other.terms)
        exponent = -0.5 * np.square(a[:, None, :] - b).sum(axis=2)
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
# operations (``bell_expectation_sign``, ``g_rs``,
# ``hermite_halfline_overlap``); ``bell_matrix``, which regroups the sum,
# must meet it within the band of ``tests/test_g_table.py``.


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
    log_mk, sign_mk = mk_cos_sums_per_m(angles, np.arange(r.max() + 1))
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


# The Bell matrix as it was built before only its even/odd block was: every
# pair r > s of opposite parity, its g entry taken from one d x d table whose
# per-degree values are computed for the rows and for the columns apart, and
# the entries scattered into both triangles.  ``bell_matrix`` must meet it
# within the band of ``tests/test_g_table.py``, and raise the same
# OverflowError.


def g_parts_outer(rows, cols):
    """``signbin._g_parts`` on the outer grid rows x cols (sequences of
    degrees), as len(rows) x len(cols) arrays."""
    log_pi, log_2 = math.log(math.pi), math.log(2.0)

    def per_degree(ks):
        """log k!, log |1/Gamma(z_k)| and the sign of 1/Gamma(z_k)."""
        z = [-k / 2.0 if k % 2 else (1.0 - k) / 2.0 for k in ks]
        return (
            np.array([math.lgamma(k + 1) for k in ks]),
            np.array([-math.lgamma(x) if x > 0 else math.lgamma(1.0 - x) - log_pi for x in z]),
            np.array([-1.0 if (k + 1) // 2 % 2 else 1.0 for k in ks]),
        )

    factorial_r, rgamma_r, sign_r = per_degree(rows)
    factorial_s, rgamma_s, sign_s = per_degree(cols)
    r, s = np.array(rows)[:, None], np.array(cols)
    diff = r - s
    far = max(max(rows) - min(cols), max(cols) - min(rows))
    log_inverse = [0.0] + [math.log(1.0 / n) for n in range(1, far + 1)]
    odd = diff % 2 == 1
    pref = ((log_pi + (r + s) * log_2) - factorial_r[:, None]) - factorial_s
    log_b = np.where(
        odd, (rgamma_r[:, None] + rgamma_s) + np.take(log_inverse, np.abs(diff)), -np.inf
    )
    row_sign = np.where(r % 2, -sign_r[:, None], sign_r[:, None])
    sign = np.where(odd, row_sign * sign_s * np.sign(diff), 0.0)
    return pref, log_b, sign


def bell_matrix_scatter(m, d, angles):
    """``signbin.bell_matrix(m, d, angles)`` from the pair list and the d x d
    table of ``g_parts_outer``."""
    k = np.arange(d)
    diff = k[:, None] - k
    r, s = np.nonzero((diff > 0) & (diff % 2 == 1))
    parties = np.array([m])[:, None]
    unprimed, primed = np.exp(1j * (angles.column[..., None] * np.arange(1.0, r.max() + 1.0, 2.0)))
    mantissa, exponent = mk_sum_scaled(unprimed, primed, parties)
    with np.errstate(divide="ignore"):
        log_mk = np.log(np.abs(mantissa.real)) + exponent * _LN2
    table = g_parts_outer(range(d), range(d))
    log_g, sign_g = _g_log(parties, [part.take(r * d + s) for part in table])
    index = (r - s) // 2
    logs = (log_g + parties * _LN2 + log_mk[:, index])[0]
    signs = (sign_g * np.sign(mantissa.real)[:, index])[0]
    if np.any(logs[signs != 0] > math.log(np.finfo(float).max)):
        raise OverflowError("Bell matrix entries exceed the float range")
    values = signs * np.exp(np.where(signs != 0, logs, -np.inf))
    matrix = np.zeros((d, d))
    matrix[r, s] = values
    matrix[s, r] = values
    return matrix


# One m at a time: the sign-binned Bell value and the root-binning class sums
# as they were before the scans in m were batched, on the MK kernel of one
# party count (``mk.mk_sum_scaled`` without its ``parties`` padding).  The
# batched and scalar code must equal them bit for bit.


def mk_sum_scaled_per_m(unprimed, primed):
    """(mantissa, exponent) of the MK sum of all the parties on axis 0."""
    a = np.asarray(unprimed, dtype=complex)
    b = np.asarray(primed, dtype=complex)
    m = a.shape[0]
    batch = (1,) * (a.ndim - 1)
    mantissas, exponents = _normalised(a + _SIDES.reshape((2, 1) + batch) * b)
    exponent = exponents.sum(axis=1)
    while mantissas.shape[1] > 256:
        blocks = [mantissas[:, i : i + 256].prod(axis=1) for i in range(0, mantissas.shape[1], 256)]
        mantissas, exponents = _normalised(np.stack(blocks, axis=1))
        exponent = exponent + exponents.sum(axis=1)
    products = mantissas.prod(axis=1)
    top = exponent.max(axis=0)
    omega = complex(_EIGHTH_TURNS[(m - 1) % 8])
    weights = np.array([omega.conjugate(), omega]).reshape((2,) + batch)
    aligned = products * np.ldexp(1.0, exponent - top)
    return (weights * aligned).sum(axis=0), top - m // 2


def mk_cos_sums_per_m(angles, orders):
    n = np.asarray(orders, dtype=float)
    mantissa, exponent = mk_sum_scaled_per_m(
        np.exp(1j * np.outer(angles.theta, n)),
        np.exp(1j * np.outer(angles.theta_prime, n)),
    )
    with np.errstate(divide="ignore"):
        log = np.log(np.abs(mantissa.real)) + exponent * _LN2
    return log, np.sign(mantissa.real)


def bell_expectation_sign_per_m(state, angles):
    c, m = state.coefficients, state.m
    r, s = _pairs(c)
    if r.size == 0:
        return 0.0
    log_mk, sign_mk = mk_cos_sums_per_m(angles, np.arange(r.max() + 1))
    log_g, sign_g = _g_log(m, _g_magnitude(c.size))
    logs = log_g[r, s] + m * _LN2 + log_mk[r - s]
    signs = sign_g[r, s] * sign_mk[r - s]
    weights = 2.0 * c[r] * c[s]
    with np.errstate(divide="ignore"):
        log_weights = np.log(np.abs(weights))
    return _exp_sum(logs + log_weights, signs * np.sign(weights))


def ghz_bell_factor_per_m(m):
    return abs(bell_expectation_sign_per_m(FockCorrelatedState.ghz(m), ghz_like_angles(m)))


def mk_class_sums_per_m(v, w, m):
    """The root-binning class sums for both labelings from one array MK sum."""
    x_then_p = np.full((m, 2), [v, 1j * w])
    return tuple(mk_sum(x_then_p, x_then_p[:, ::-1], mk_sum_scaled_per_m).tolist())


def bell_factor_root_per_m(class_sums, theta, labeling):
    """``rootbin.bell_factor_root`` from the class sums of ``mk_class_sums_per_m``."""
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    values = [abs(cos_t * z.real - sin_t * z.imag) for z in class_sums]
    return max(values) if labeling == "best" else values[("x-unprimed", "p-unprimed").index(labeling)]
