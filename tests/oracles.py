"""Oracles shared between test modules.

These deliberately avoid the closed forms they are used to check: joint
probabilities come from direct numerical integration of the Hermite-Gaussian
density, not from the Gamma-function identities, and Mermin-Klyshko sums
walk the exact expansion of ``expand_mk`` tuple by tuple instead of using
the product form.
"""

import math
from fractions import Fraction

import numpy as np

from bellscope.mk import MKExpansion
from bellscope.numerics import hermite_eval, integrate_1d


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
