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
logs and signs form one d x d table per truncation d, built from O(d)
lgamma values and combined with m in log space; each entry is
exponentiated once, at the end.  phi is always the sum of the chosen angles
over all parties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .mk import mk_sum_scaled
from .numerics import _canonical_sign, max_eigenpair

__all__ = [
    "FockCorrelatedState",
    "AngleSettings",
    "ghz_like_angles",
    "chsh_angles",
    "default_optimizer_angles",
    "bell_expectation_sign",
    "bell_factor_sign",
    "bell_matrix",
    "optimize_state",
    "ConvergedOptimum",
    "converged_optimum",
]

_LN2 = math.log(2.0)
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class FockCorrelatedState:
    """sum_r c_r |r>^(x m) with real coefficients and unit norm."""

    m: int
    coefficients: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("mode count must be >= 1")
        coeffs = np.array(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        norm_sq = float(coeffs @ coeffs)
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"coefficients not normalized: sum c_r^2 = {norm_sq!r}")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def dimension(self) -> int:
        return self.coefficients.size

    @classmethod
    def ghz(cls, m: int) -> "FockCorrelatedState":
        """(|0...0> + |1...1>)/sqrt(2)."""
        return cls(m, np.array([1.0, 1.0]) / math.sqrt(2.0))


@dataclass(frozen=True)
class AngleSettings:
    """Per-party quadrature angles (theta_t, theta_t'), in radians."""

    theta: tuple
    theta_prime: tuple

    def __post_init__(self):
        theta = tuple(float(t) for t in self.theta)
        prime = tuple(float(t) for t in self.theta_prime)
        if len(theta) != len(prime) or not theta:
            raise ValueError("theta and theta_prime must have equal nonzero length")
        if not all(math.isfinite(t) for t in theta + prime):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "theta_prime", prime)

    @property
    def m(self) -> int:
        return len(self.theta)


def _g_parts(rows, cols):
    """The parts of log |g_{r,s}| that do not depend on m, at every (r, s)
    in rows x cols (sequences of degrees), as len(rows) x len(cols)
    arrays: log(pi 2^(r+s) / (r! s!)), log |[F(r,s) - F(s,r)] / (r - s)|
    and the sign of that bracket, which is 0 (and its log -inf) wherever
    r - s is even.

    The Gamma poles kill one F term of every opposite-parity pair: F(r,s)
    survives for even r, -F(s,r) for odd r.  So the bracket is
    (-1)^r 1/Gamma(z_r) 1/Gamma(z_s) / (r - s), with z_k = (1 - k)/2 for
    even k and -k/2 for odd k.  At a negative half-integer z the reflection
    formula 1/Gamma(z) = Gamma(1 - z) sin(pi z)/pi has |sin(pi z)| = 1, so
    log |1/Gamma(z)| = lgamma(1 - z) - log pi, and 1/Gamma(z_k) has the
    sign (-1)^((k + 1) // 2).  Two lgamma calls per degree and one log call
    per integer up to max |r - s| feed the broadcasts; every entry is
    summed in a fixed order, so it does not depend on the others.
    """
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


@lru_cache(maxsize=8)
def _g_magnitude(d: int):
    """``_g_parts`` for every r, s < d, as read-only d x d arrays.

    Cached per d, not per (d, m): the m-free parts serve every m.  The
    cache misses count the tables built (``perfbench/tracing.py`` reads
    them as ``signbin.g_table.misses``).
    """
    table = _g_parts(range(d), range(d))
    for part in table:
        part.flags.writeable = False
    return table


def _g_log(m: int, parts):
    """log |g_{r,s}| without its cos(phi (r-s)) factor, and its sign, for
    one mode count m from the ``_g_parts`` arrays."""
    pref, log_b, sign = parts
    return pref * (m / 2.0) + log_b * m, sign if m % 2 else np.abs(sign)


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
    theta = tuple(sign * math.pi * k / (2.0 * m) for k in range(m))
    return AngleSettings(theta, tuple(t + math.pi / 2.0 for t in theta))


def chsh_angles(phi: float = math.pi / 4.0) -> AngleSettings:
    """Two-party settings whose CHSH combination is 3 E(phi) - E(3 phi).

    The split of phi across the parties is fixed by theta_1 = 0.
    """
    return AngleSettings((0.0, phi), (-2.0 * phi, -phi))


def default_optimizer_angles(m: int) -> AngleSettings:
    """Angle family used by the state optimizer: the CHSH phi = pi/4 family
    for two parties, the GHZ-like family otherwise."""
    return chsh_angles() if m == 2 else ghz_like_angles(m)


def _mk_cos_sums(angles: AngleSettings, orders):
    """sum_t c_t cos(n phi_t) over the MK expansion for each order n, as
    (log |.|, sign) arrays.

    cos(n phi_t) is the real part of prod_j e^{i n theta_j}, with theta_j
    party j's angle in tuple t: a product over parties, so each order is one
    product-form MK sum.
    """
    n = np.asarray(orders, dtype=float)
    mantissa, exponent = mk_sum_scaled(
        np.exp(1j * np.outer(angles.theta, n)),
        np.exp(1j * np.outer(angles.theta_prime, n)),
    )
    with np.errstate(divide="ignore"):
        log = np.log(np.abs(mantissa.real)) + exponent * _LN2
    return log, np.sign(mantissa.real)


def _pair_terms(m: int, angles: AngleSettings, d: int, r, s):
    """2^m g_{r,s}(phi) summed over the MK expansion for each Fock pair
    (r[i], s[i]) with r, s < d, as (log |.|, sign) arrays: nothing is
    exponentiated yet."""
    log_mk, sign_mk = _mk_cos_sums(angles, np.arange(r.max() + 1))
    log_g, sign_g = _g_log(m, _g_magnitude(d))
    return log_g[r, s] + m * _LN2 + log_mk[r - s], sign_g[r, s] * sign_mk[r - s]


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


def bell_expectation_sign(state: FockCorrelatedState, angles: AngleSettings) -> float:
    """<B_m> with its sign for the state under sign binning.

    The correlator is the Fourier sum 2^m sum_{r>s} 2 c_r c_s g_{r,s}(phi),
    so the MK sum is taken once per order r - s.  All factors meet in log
    space, so any m whose value fits a float is evaluated correctly.
    """
    if angles.m != state.m:
        raise ValueError("state and angles disagree on the party count")
    c = state.coefficients
    r, s = _pairs(c)
    if r.size == 0:
        return 0.0
    logs, signs = _pair_terms(state.m, angles, c.size, r, s)
    weights = 2.0 * c[r] * c[s]
    with np.errstate(divide="ignore"):  # a weight that underflows to 0 drops out
        log_weights = np.log(np.abs(weights))
    return _exp_sum(logs + log_weights, signs * np.sign(weights))


def bell_factor_sign(state: FockCorrelatedState, angles: AngleSettings) -> float:
    """|<B_m>| for the state under sign binning at the given angles."""
    return abs(bell_expectation_sign(state, angles))


def bell_matrix(m: int, d: int, angles: AngleSettings) -> np.ndarray:
    """Symmetric matrix whose quadratic form in the coefficient vector gives
    <B_m>; entry (r, s) is 2^m g_{r,s} summed over the MK expansion.

    The diagonal is exactly zero and so is every same-parity pair, which
    makes the matrix bipartite between even and odd Fock indices.  An entry
    beyond the float range raises OverflowError.
    """
    if d < 2:
        raise ValueError("truncation must be >= 2")
    if angles.m != m:
        raise ValueError("angles do not match the party count")
    r, s = _pairs(np.ones(d))
    logs, signs = _pair_terms(m, angles, d, r, s)
    if np.any(logs[signs != 0] > _LOG_FLOAT_MAX):
        raise OverflowError("Bell matrix entries exceed the float range")
    values = signs * np.exp(np.where(signs != 0, logs, -np.inf))
    matrix = np.zeros((d, d))
    matrix[r, s] = values
    matrix[s, r] = values
    return matrix


def optimize_state(
    m: int, d: int, angles: AngleSettings, constraint=None, matrix=None
):
    """State maximizing |<B_m>| at fixed angles over truncation d.

    Unconstrained this is the top eigenpair of the Bell matrix, from one
    block solve of ``max_eigenpair``.  The matrix couples only opposite
    parities, so its spectrum is symmetric: the top eigenvector of -M is
    that of M with its odd components negated, the parity twin, and both
    reach the same |<B_m>|.  Of the two the one with the larger component
    sum is reported (ties keep the eigenvector).  With
    ``constraint="nonnegative"`` the quadratic form is maximized over the
    non-negative orthant instead, by the alternating power steps of
    ``max_eigenpair`` on each sign of the matrix.

    ``matrix`` is ``bell_matrix(m, d, angles)`` when the caller has it.
    Returns (bell value, FockCorrelatedState).
    """
    if matrix is None:
        matrix = bell_matrix(m, d, angles)
    if constraint is None:
        lam, v = max_eigenpair(matrix)
        twin = _canonical_sign(np.where(np.arange(d) % 2, -v, v))
        if float(np.sum(twin)) > float(np.sum(v)) + 1e-12:
            v = twin
    else:
        lam_pos, v_pos = max_eigenpair(matrix, constraint=constraint)
        lam_neg, v_neg = max_eigenpair(-matrix, constraint=constraint)
        lam, v = (lam_neg, v_neg) if lam_neg > lam_pos else (lam_pos, v_pos)
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
    Bell matrix is the leading block of the one at d."""
    lo = d - d_step
    if lo < 2:
        raise ValueError(f"previous truncation d - d_step = {lo} must be >= 2")
    matrix = bell_matrix(m, d, angles)
    bell_lo, _ = optimize_state(m, lo, angles, constraint, matrix[:lo, :lo].copy())
    bell_hi, state = optimize_state(m, d, angles, constraint, matrix)
    delta = bell_hi - bell_lo
    return ConvergedOptimum(bell_hi, state, delta < threshold, delta)
