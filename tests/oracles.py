"""Oracles shared between test modules.

These deliberately avoid the closed forms they are used to check: joint
probabilities come from direct numerical integration of the Hermite-Gaussian
density, not from the Gamma-function identities, and Mermin-Klyshko sums
walk the exact expansion of ``expand_mk`` tuple by tuple instead of using
the product form.
"""

import cmath
import heapq
import itertools
import math
from fractions import Fraction

import numpy as np

from bellscope.mk import MKExpansion, mk_sum_tuplewise
from bellscope.numerics import (
    _GK_NODES,
    _GK_WG,
    _GK_WK,
    IntegrationError,
    hermite_eval,
    integrate_1d,
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

    Avoids every solver in ``bellscope.numerics`` (no eigen-decomposition, no
    projected ascent, no support polish).  A Bell matrix couples only even with
    odd Fock indices, M = [[0, B], [B.T, 0]], so the optimum equals
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
    for w_i, a_i in left.terms:
        for w_j, a_j in right.terms:
            ov = 1.0
            for a, b in zip(a_i, a_j):
                ov *= coherent_overlap(a, b)
            total += w_i.conjugate() * w_j * ov
    return total
