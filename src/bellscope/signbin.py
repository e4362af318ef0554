"""Sign-binned homodyne Bell tests on photon-number-correlated states.

The states are sum_r c_r |r>|r>...|r> over m modes with real c_r.  Party t
measures one of two quadratures X(theta_t), X(theta_t') and the continuous
outcome is binned to +/-1 by its sign.  The binned statistics reduce to
half-line integrals of Hermite-polynomial products:

    int_0^inf e^{-x^2} H_r H_s dx = pi 2^{r+s} [F(r,s) - F(s,r)] / (r - s),
    1/F(r,s) = Gamma((1-r)/2) Gamma(-s/2),            for r != s,
    int_0^inf e^{-x^2} H_r^2 dx  = 2^{r-1} r! sqrt(pi).

Everything downstream (correlators, Bell factors, the optimal-state
eigenproblem) is assembled from the g coefficients

    g_{r,s}(phi, m) = (pi 2^{r+s} / (r! s!))^{m/2}
                      ([F(r,s) - F(s,r)] / (r - s))^m cos(phi (r - s)),

whose prefactor and bracket span hundreds of orders of magnitude.  Their
logs and signs come from O(d) lgamma values, gathered at a state's nonzero
pairs (r, s), or, for the even/odd block of the Bell matrix, which the
optimizer solves without forming the matrix, summed as a row part, a column
part and a Toeplitz part in r - s; each entry is exponentiated once, at the
end.  phi is always the sum of the chosen angles over all parties.  The MK
sums behind a Bell value are one batch over the odd orders r - s and over
party counts, so a scan in m (``ghz_bell_factors``) is a few array passes.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .mk import _BLOCK, mk_sum_scaled
from .numerics import _canonical_sign, _solve_block

__all__ = [
    "FockCorrelatedState",
    "AngleSettings",
    "ghz_like_angles",
    "chsh_angles",
    "default_optimizer_angles",
    "bell_expectation_sign",
    "bell_factor_sign",
    "ghz_bell_factors",
    "optimize_state",
    "ConvergedOptimum",
    "converged_optimum",
]

_LN2 = math.log(2.0)
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# Padded party slots in one batch of MK sums: arrays of a few hundred kB.
_SLOTS_PER_BATCH = 1 << 12
# Party-order slots per chunk of a Bell block's MK sums (~130 B each at the
# peak): the fastest of 2^12..2^16 at m = 300..6000, d = 2000.
_SLOTS_PER_CHUNK = 1 << 15


class FockCorrelatedState:
    """sum_r c_r |r>^(x m) with real coefficients and unit norm."""

    __slots__ = ("m", "coefficients")

    def __init__(self, m: int, coefficients):
        if m < 1:
            raise ValueError("mode count must be >= 1")
        coeffs = np.array(coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        norm_sq = float(coeffs @ coeffs)
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"coefficients not normalized: sum c_r^2 = {norm_sq!r}")
        coeffs.flags.writeable = False
        self.m, self.coefficients = m, coeffs

    @property
    def dimension(self) -> int:
        return self.coefficients.size

    @classmethod
    def ghz(cls, m: int) -> "FockCorrelatedState":
        """(|0...0> + |1...1>)/sqrt(2)."""
        return cls(m, np.array([1.0, 1.0]) / math.sqrt(2.0))


class AngleSettings:
    """Per-party quadrature angles (theta_t, theta_t'), in radians, stored
    as two read-only float64 arrays of one length, one entry per party."""

    __slots__ = ("theta", "theta_prime")

    def __init__(self, theta, theta_prime):
        theta, theta_prime = np.array(theta, dtype=float), np.array(theta_prime, dtype=float)
        if theta.ndim != 1 or theta.shape != theta_prime.shape or not theta.size:
            raise ValueError("theta and theta_prime must have equal nonzero length")
        if not (np.isfinite(theta).all() and np.isfinite(theta_prime).all()):
            raise ValueError("angles must be finite")
        theta.flags.writeable = theta_prime.flags.writeable = False
        self.theta, self.theta_prime = theta, theta_prime

    @property
    def m(self) -> int:
        return self.theta.size

    @property
    def column(self) -> np.ndarray:  # (theta, theta') as a batch of one, shape (2, m, 1)
        return np.array((self.theta, self.theta_prime))[..., None]


def _degree_tables(n: int):
    """log k!, log |1/Gamma(z_k)| and its sign (``_g_parts``), log(1/k) (0 at 0), k < n."""
    log_pi = math.log(math.pi)
    z = [-k / 2.0 if k % 2 else (1.0 - k) / 2.0 for k in range(n)]
    factorial = np.array([math.lgamma(k + 1) for k in range(n)])
    rgamma = np.array([-math.lgamma(x) if x > 0 else math.lgamma(1.0 - x) - log_pi for x in z])
    gamma_sign = np.array([-1.0 if (k + 1) // 2 % 2 else 1.0 for k in range(n)])
    log_inverse = np.array([0.0] + [math.log(1.0 / k) for k in range(1, n)])
    return factorial, rgamma, gamma_sign, log_inverse


def _g_parts(r, s):
    """The parts of log |g_{r,s}| that do not depend on m, at broadcastable
    integer index arrays r and s of degrees: log(pi 2^(r+s) / (r! s!)),
    log |[F(r,s) - F(s,r)] / (r - s)| and the sign of that bracket, which
    is 0 (and its log -inf) wherever r - s is even.

    The Gamma poles kill one F term of every opposite-parity pair: F(r,s)
    survives for even r, -F(s,r) for odd r.  So the bracket is
    (-1)^r 1/Gamma(z_r) 1/Gamma(z_s) / (r - s), with z_k = (1 - k)/2 for
    even k and -k/2 for odd k.  At a negative half-integer z the reflection
    formula 1/Gamma(z) = Gamma(1 - z) sin(pi z)/pi has |sin(pi z)| = 1, so
    log |1/Gamma(z)| = lgamma(1 - z) - log pi, and 1/Gamma(z_k) has the
    sign (-1)^((k + 1) // 2).  ``_degree_tables`` are gathered at r and s;
    each entry is summed in a fixed order (so (r, s) and (s, r) can differ in
    the last bit) that does not depend on the others.
    """
    r, s = np.asarray(r), np.asarray(s)
    factorial, rgamma, gamma_sign, log_inverse = _degree_tables(int(max(r.max(), s.max())) + 1)
    diff = r - s
    odd = diff % 2 == 1
    pref = ((math.log(math.pi) + (r + s) * _LN2) - factorial[r]) - factorial[s]
    log_b = np.where(odd, (rgamma[r] + rgamma[s]) + log_inverse[np.abs(diff)], -np.inf)
    row_sign = np.where(r % 2, -gamma_sign[r], gamma_sign[r])
    sign = np.where(odd, row_sign * gamma_sign[s] * np.sign(diff), 0.0)
    return pref, log_b, sign


@lru_cache(maxsize=8)
def _g_magnitude(d: int):
    """``_g_parts`` for every r, s < d, as read-only d x d arrays, for ``_g_sum``.

    Cached per d, not per (d, m): the m-free parts serve every m.  The
    cache misses count the tables built (``perfbench/tracing.py`` reads
    them as ``signbin.g_table.misses``).
    """
    table = _g_parts(np.arange(d)[:, None], np.arange(d))
    for part in table:
        part.flags.writeable = False
    return table


def _g_log(m, parts):
    """log |g_{r,s}| without its cos(phi (r-s)) factor, and its sign, for
    mode counts m (broadcast against them) from the ``_g_parts`` arrays."""
    pref, log_b, sign = parts
    return pref * (m / 2.0) + log_b * m, np.where(m % 2, sign, np.abs(sign))


def _pairs(c: np.ndarray):
    """Index arrays (r, s), row by row, of the pairs r > s of opposite
    parity whose coefficients are both nonzero: the only pairs with g != 0."""
    nonzero = c != 0.0
    k = np.arange(c.size)
    diff = k[:, None] - k
    return np.nonzero((diff > 0) & (diff % 2 == 1) & nonzero[:, None] & nonzero)


# ``_g_sum`` and ``correlator_E`` serve only the tests; they stay here because
# perfbench/tracing.py counts ``signbin.correlator_E`` by name.
def _g_sum(state: FockCorrelatedState, phi: float, log_scale: float = 0.0) -> float:
    """2 e^log_scale sum_{r>s} c_r c_s g_{r,s}(phi, m).

    The scale joins each g in log space before it is exponentiated, so a
    product that fits a float is not lost to an underflowing factor.
    """
    c = state.coefficients
    r, s = _pairs(c)
    log_g, sign_g = _g_log(state.m, _g_magnitude(c.size))
    g = sign_g[r, s] * np.exp(log_g[r, s] + log_scale)
    return 2.0 * float(np.sum(c[r] * c[s] * g * np.cos(phi * (r - s))))


def correlator_E(state: FockCorrelatedState, phi: float) -> float:
    """Sign-binned full correlator E(phi, m) = 2^m * 2 sum_{r>s} c_r c_s g_{r,s}."""
    return _g_sum(state, phi, state.m * _LN2)


def ghz_like_angles(m: int) -> AngleSettings:
    """theta_k = (-1)^(m+1) pi (k-1) / (2m), primed angles shifted by pi/2."""
    if m < 2:
        raise ValueError("angle family defined for m >= 2")
    sign = 1.0 if m % 2 else -1.0
    theta = sign * math.pi * np.arange(m) / (2.0 * m)
    return AngleSettings(theta, theta + math.pi / 2.0)


def chsh_angles(phi: float = math.pi / 4.0) -> AngleSettings:
    """Two-party settings whose CHSH combination is 3 E(phi) - E(3 phi).

    The split of phi across the parties is fixed by theta_1 = 0.
    """
    return AngleSettings((0.0, phi), (-2.0 * phi, -phi))


def default_optimizer_angles(m: int) -> AngleSettings:
    """Angle family used by the state optimizer: the CHSH phi = pi/4 family
    for two parties, the GHZ-like family otherwise."""
    return chsh_angles() if m == 2 else ghz_like_angles(m)


def _mk_logs(parties, angles, orders):
    """(log |.|, sign) of the MK sums of cos(n phi_t) = Re prod_j e^{i n theta_j},
    a row per m of ``parties``, a column per order n.  ``angles`` stacks theta
    and theta', shape (2, largest m, len(parties)), column i the i-th m's
    parties, then padding.  The orders run in chunks of ``_SLOTS_PER_CHUNK``
    slots, one order at least: each is its own column, so no bit moves."""
    size = max(1, _SLOTS_PER_CHUNK // angles[0].size)
    logs, signs = [], []
    for start in range(0, orders.size, size):
        unprimed, primed = np.exp(1j * (angles[..., None] * orders[start : start + size]))
        mantissa, exponent = mk_sum_scaled(unprimed, primed, np.asarray(parties)[:, None])
        with np.errstate(divide="ignore"):
            logs.append(np.log(np.abs(mantissa.real)) + exponent * _LN2)
        signs.append(np.sign(mantissa.real))
    return np.hstack(logs), np.hstack(signs)


def _exp_sum(logs, signs) -> float:
    """sum of signs * exp(logs), exponentiated once.

    Terms far outside the float range still combine to the right total; a
    total beyond it raises OverflowError instead of becoming inf.
    """
    keep = signs != 0
    if not np.any(keep):
        return 0.0
    logs, signs = logs[keep], signs[keep]
    top = float(logs.max())
    scaled = float(np.sum(signs * np.exp(logs - top)))
    if scaled == 0.0:
        return 0.0
    log_total = top + math.log(abs(scaled))
    if log_total > _LOG_FLOAT_MAX:
        raise OverflowError(f"Bell value e^{log_total:.6g} exceeds the float range")
    return math.copysign(math.exp(log_total), scaled)


def _bell_expectations(c, parties, angles) -> list:
    """<B_m> with its sign for the state sum_r c_r |r>^(x m) under sign
    binning, for each m of ``parties`` (angles as in ``_mk_logs``).

    The correlator is the Fourier sum 2^m sum_{r>s} 2 c_r c_s g_{r,s}(phi),
    so the MK sum is taken once per odd order r - s (g = 0 at even ones) and
    m.  All factors meet in log space, so any m whose value fits a float is
    evaluated correctly.
    """
    r, s = _pairs(c)
    if r.size == 0:
        return [0.0] * len(parties)
    m = np.asarray(parties)[:, None]
    log_mk, sign_mk = _mk_logs(parties, angles, np.arange(1.0, r.max() + 1.0, 2.0))
    log_g, sign_g = _g_log(m, _g_parts(r, s))
    index = (r - s) // 2
    logs, signs = log_g + m * _LN2 + log_mk[:, index], sign_g * sign_mk[:, index]
    weights = 2.0 * c[r] * c[s]
    with np.errstate(divide="ignore"):  # a weight that underflows to 0 drops out
        log_weights = np.log(np.abs(weights))
    return [_exp_sum(*terms) for terms in zip(logs + log_weights, signs * np.sign(weights))]


def bell_expectation_sign(state: FockCorrelatedState, angles: AngleSettings) -> float:
    """<B_m> with its sign for the state under sign binning: a batch of one."""
    if angles.m != state.m:
        raise ValueError("state and angles disagree on the party count")
    return _bell_expectations(state.coefficients, [state.m], angles.column)[0]


def bell_factor_sign(state: FockCorrelatedState, angles: AngleSettings) -> float:
    """|<B_m>| for the state under sign binning at the given angles."""
    return abs(bell_expectation_sign(state, angles))


def ghz_bell_factors(ms) -> list:
    """``bell_factor_sign`` of the m-mode GHZ state at ``ghz_like_angles(m)``
    for each m of the iterable ms, the same floats, from batches of MK sums:
    runs of consecutive m that fill one number of ``mk._BLOCK`` blocks (so
    padding keeps every bit), at most ``_SLOTS_PER_BATCH`` padded party
    slots each.  An empty ms gives an empty list.  The value grows with m, so
    the batches run from the largest m down, to the first that fits once one
    fails: the OverflowError the order of ms meets first, sooner."""
    ms = list(ms)
    if min(ms, default=2) < 2:
        raise ValueError("angle family defined for m >= 2")
    c, batches = FockCorrelatedState.ghz(2).coefficients, []
    for _, run in itertools.groupby(ms, key=lambda m: -(-m // _BLOCK)):
        run = list(run)
        size = max(1, _SLOTS_PER_BATCH // max(run))
        batches += (run[i : i + size] for i in range(0, len(run), size))
    # failed: the first failing batch in the order of ms (only it keeps its traceback)
    values, failed = {}, (len(batches), None)
    for k in sorted(range(len(batches)), key=lambda k: -max(batches[k])):
        # column i: ghz_like_angles(batches[k][i]).theta, run on to the largest m
        m = np.array(batches[k])
        theta = np.where(m % 2, math.pi, -math.pi) * np.arange(m.max())[:, None] / (2.0 * m)
        try:
            values[k] = _bell_expectations(c, batches[k], np.array((theta, theta + math.pi / 2.0)))
        except OverflowError as error:
            if k < failed[0]:
                failed = k, error
        else:
            if failed[1]:
                break
    if failed[1]:
        raise failed[1]
    return [abs(v) for k in range(len(batches)) for v in values[k]]


def _bell_block(m: int, d: int, angles: AngleSettings) -> np.ndarray:
    """B = ``bell_matrix(m, d, angles)[0::2, 1::2]`` from O(d) logs: with
    r = 2i, s = 2j + 1, log |B_ij| is (m/2)(k log 2 - log k!) + m log
    |1/Gamma(z_k)| at k = r plus the same at k = s plus a Toeplitz part in
    i - j, m (log(pi)/2 + log 2 - log |r - s|) + log |MK sum|; the sign is a
    row, a column and a lag sign, sign(r - s), by ``_g_log``'s m % 2 rule,
    times the MK sum's.  An entry beyond the float range raises OverflowError."""
    if d < 2:
        raise ValueError("truncation must be >= 2")
    if angles.m != m:
        raise ValueError("angles do not match the party count")
    factorial, rgamma, gamma_sign, log_inverse = _degree_tables(d)
    log_half, sign_half = _g_log(m, (np.arange(d) * _LN2 - factorial, rgamma, gamma_sign))
    lag = np.arange(1 - d // 2, (d + 1) // 2)  # i - j
    n = np.abs(2 * lag - 1)  # |r - s|
    log_mk, sign_mk = (x[0, n // 2] for x in _mk_logs([m], angles.column, np.arange(1.0, d, 2.0)))
    log_lag, sign_lag = _g_log(m, (math.log(math.pi), log_inverse[n], np.where(lag > 0, 1.0, -1.0)))
    lag_parts = np.array((log_lag + m * _LN2 + log_mk, sign_lag * sign_mk))
    # (log, sign) at i - j: reversed windows of the lag vectors, a view
    toeplitz = np.lib.stride_tricks.sliding_window_view(lag_parts, d // 2, axis=1)[..., ::-1]
    logs = log_half[0::2, None] + log_half[1::2] + toeplitz[0]
    if logs.max() > _LOG_FLOAT_MAX:  # a zero MK sum has log -inf
        raise OverflowError("Bell matrix entries exceed the float range")
    return np.exp(logs) * (sign_half[0::2, None] * sign_half[1::2]) * toeplitz[1]


def bell_matrix(m: int, d: int, angles: AngleSettings) -> np.ndarray:
    """Symmetric d x d matrix whose quadratic form in the coefficient vector
    gives <B_m>; entry (r, s) is 2^m g_{r,s} summed over the MK expansion.

    The diagonal is exactly zero and so is every same-parity pair, which
    makes the matrix bipartite between even and odd Fock indices.  Its
    block B = M[0::2, 1::2] is ``_bell_block``, which the optimizer takes
    alone; the rest is B.T and zeros.  An entry beyond the float range
    raises OverflowError.
    """
    block = _bell_block(m, d, angles)
    matrix = np.zeros((d, d))
    matrix[0::2, 1::2] = block
    matrix[1::2, 0::2] = block.T
    return matrix


def _clipped_norm_bound(block) -> float:
    """An upper bound on sigma_max(max(B, 0)) for a p x q block B, no SVD.

    For C = P.T P, P = max(B, 0) / max(B), and any y > 0, lambda_max(C) <=
    max_j (C y)_j / y_j (Collatz-Wielandt; Horn & Johnson, Matrix Analysis,
    sec. 8.1); y = C^4 1, normalised to max 1 and floored at 2^-500, is near
    the top eigenvector.  C y sums non-negative terms, so each entry is off
    by about (p + q) eps relative plus about pq 2^-575 from underflow, while
    lambda_max(C) >= 1: a margin of (p + q + 4) eps covers it.
    """
    top = block.max(initial=0.0)
    if top == 0.0:  # also an empty block
        return 0.0
    # clipped before the division, so a huge negative entry cannot overflow
    b, y = np.maximum(block, 0.0) / top, np.ones(block.shape[1])
    for _ in range(4):
        y = b.T @ (b @ y)
        y = np.maximum(y / y.max(), 2.0**-500)
    ratio = float(((b.T @ (b @ y)) / y).max())
    return top * math.sqrt(ratio) * (1.0 + (sum(b.shape) + 4) * np.finfo(float).eps)


def optimize_state(
    m: int, d: int, angles: AngleSettings, constraint=None, block=None
):
    """State maximizing |<B_m>| at fixed angles over truncation d.

    Unconstrained this is the top eigenpair of the Bell matrix, from the
    solve of ``max_eigenpair`` on its even/odd block B.  The matrix couples
    only opposite parities, so its spectrum is symmetric: the top
    eigenvector of -M is that of M with its odd components negated, the
    parity twin, and both reach the same |<B_m>|.  Of the two the one with
    the larger component sum is reported (ties keep the eigenvector).

    With ``constraint="nonnegative"`` the quadratic form is maximized over
    the non-negative orthant instead, by the power steps and support finish
    of ``max_eigenpair``, on each sign of B that can win.  For non-negative
    unit x and y, x.T B y <= sigma_max(max(B, 0)), the largest singular
    value of the clipped block, so ``_clipped_norm_bound`` caps each sign's
    optimum.  The sign with the larger bound is solved first (+ on a tie),
    and the other only when its bound reaches the first one's value: a sign
    skipped cannot win, so a looser bound only adds a solve.  Of two solves
    the + sign wins unless the - sign is strictly larger.

    ``block`` is ``_bell_block(m, d, angles)`` when the caller has it; no
    d x d matrix is built.  Returns (bell value, FockCorrelatedState).
    """
    if block is None:
        block = _bell_block(m, d, angles)
    if constraint is None:
        lam, v = _solve_block(block)
        twin = _canonical_sign(np.where(np.arange(d) % 2, -v, v))
        if float(np.sum(twin)) > float(np.sum(v)) + 1e-12:
            v = twin
    else:
        bound = {s: _clipped_norm_bound(s * block) for s in (1, -1)}
        first = 1 if bound[1] >= bound[-1] else -1
        solved = {first: _solve_block(first * block, constraint)}
        if bound[-first] >= solved[first][0]:
            solved[-first] = _solve_block(-first * block, constraint)
        # a tie goes to the + sign
        lam, v = max(solved.items(), key=lambda item: (item[1][0], item[0]))[1]
    v = v / np.linalg.norm(v)
    return lam, FockCorrelatedState(m, v)


class ConvergedOptimum(NamedTuple):
    bell: float
    state: FockCorrelatedState
    converged: bool
    delta: float


def converged_optimum(
    m: int,
    angles: AngleSettings,
    d: int = 60,
    d_step: int = 10,
    threshold: float = 5e-4,
    constraint=None,
) -> ConvergedOptimum:
    """Optimum at truncation d plus a convergence flag: the gain from the
    previous truncation (d - d_step) must stay below ``threshold``.  Its
    Bell block is the leading block of the one at d."""
    lo = d - d_step
    if lo < 2:
        raise ValueError(f"previous truncation d - d_step = {lo} must be >= 2")
    block = _bell_block(m, d, angles)
    bell_lo, _ = optimize_state(m, lo, angles, constraint, block[: (lo + 1) // 2, : lo // 2].copy())
    bell_hi, state = optimize_state(m, d, angles, constraint, block)
    delta = bell_hi - bell_lo
    return ConvergedOptimum(bell_hi, state, delta < threshold, delta)
