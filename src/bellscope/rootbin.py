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

The pair this module builds is the cat pair, the even and odd
superpositions of |alpha> and |-alpha>.  It is data, not functions: with
mu = sqrt(2) alpha, f*g has the sign of x and f~*h~ that of -sin(2 mu p),
and both overlaps have closed forms, with 2 c_+ c_- from ``cat_norms``:

    V = 2 c_+ c_- erf(mu)                                  (A&S 7.1),
    W = 2 c_+ c_- pi^{-1/2} int e^{-p^2} |sin 2 mu p| dp
      = 2 c_+ c_- [2/pi - (4/pi) sum_{n>=1} e^{-4 n^2 mu^2} / (4 n^2 - 1)],

the second from the Fourier series of |sin| (G&R 3.896).  The series needs
about 3.3/mu terms; below mu = 0.25 W is the first lobe alone,
2 c_+ c_- (2/sqrt(pi)) D(mu) with D the Dawson integral, and the lobes past
the first sign change at pi/(2 mu) add less than e^{-(pi/(2 mu))^2}.

The module also evaluates Bell factors by direct domain integration for
finite superpositions of products of coherent states, which covers the
three-mode coherent-superposition candidate state.  Every per-mode integral
of a run of consecutive amplitudes (capped in p pieces) is a member of one
lockstep quadrature (``numerics.integrate_batch``) fed from arrays, and one
array kernel forms the joint probabilities of every (amplitude, setting
pattern, term pair, outcome), looping only over modes.  Both round every
value as the one-amplitude, one-outcome scalar loops did.

Wavefunction convention: <x|n> ~ H_n(x) e^{-x^2/2}, so a coherent state of
real amplitude a is a unit-width Gaussian centred at sqrt(2)*a, and the
momentum-side roots of the coherent-pair products sit at multiples of
pi / (2 sqrt(2) a).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mk import mk_sum, mk_sum_tuplewise
from .numerics import integrate_batch

__all__ = [
    "RootBinningSpec",
    "LABELINGS",
    "overlaps_VW",
    "bell_factor_root",
    "optimal_phase",
    "cat_norms",
    "cat_pair",
    "psi3_prime_terms",
    "Psi3Report",
    "psi3_bell_report",
]

LABELINGS = ("x-unprimed", "p-unprimed")


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


def _mk_class_sums(v: float, w: float, m: int) -> tuple:
    """sum_t c_t V^k (iW)^(m-k) over the MK expansion, k the number of
    parties measuring X, for the labelings in ``LABELINGS`` order.

    E(k, m-k) is the real part of e^{i theta} V^k (iW)^(m-k), a product over
    parties, so each labeling is one product-form MK sum.
    """
    x_then_p = np.full((m, 2), [v, 1j * w])
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


def optimal_phase(m: int) -> float:
    """State phase maximizing the Bell factor at V = W = 1: (1-m) pi/4."""
    if m < 1:
        raise ValueError("party count must be >= 1")
    return (1 - m) * math.pi / 4.0


def cat_norms(alpha: float):
    """(c_+, c_-): normalisations of the even and odd cat states
    c_+/- (|alpha> +/- |-alpha>),

        c_+^2 = 1/[2(1 + e^{-2 a^2})],   c_-^2 = 1/[2(1 - e^{-2 a^2})],

    the second through expm1, which keeps small amplitudes exact.
    """
    if alpha <= 0:
        raise ValueError("amplitude must be > 0")
    a2 = alpha * alpha
    return (
        1.0 / math.sqrt(2.0 * (1.0 + math.exp(-2.0 * a2))),
        1.0 / math.sqrt(-2.0 * math.expm1(-2.0 * a2)),
    )


def _cat_overlaps(mu: float, scale: float):
    """(V, W) of the cat pair from the closed forms in the module docstring;
    ``scale`` is 2 c_+ c_-.  Each sum has at most 14 terms."""
    v = scale * math.erf(mu)
    if mu >= 0.25:
        # e^{-4 n^2 mu^2} < 1e-19 beyond n = 3.31/mu; summed smallest first.
        tail = 0.0
        for n in range(math.ceil(3.31 / mu), 0, -1):
            tail += math.exp(-4.0 * n * n * mu * mu) / (4.0 * n * n - 1.0)
        return v, scale * (2.0 / math.pi - (4.0 / math.pi) * tail)
    # Dawson's Maclaurin series, term n = (-2 mu^2)^n mu / (2n+1)!!; at
    # mu < 0.25 the first term left out, n = 11, is below 1e-21 of term 0.
    term = dawson = mu
    for n in range(1, 11):
        term *= -2.0 * mu * mu / (2 * n + 1)
        dawson += term
    return v, scale * (2.0 / math.sqrt(math.pi)) * dawson


class CatPair(NamedTuple):
    """The cat pair at amplitude alpha as root-binning data:

        f(x) = c_+ [ <x|alpha> + <x|-alpha> ]
        g(x) = c_- [ <x|alpha> - <x|-alpha> ]

    with c_+/- from ``cat_norms``.  f*g changes sign only at x = 0;
    f~*h~ ~ -e^{-p^2} sin(2 mu p) at every multiple of pi/(2 mu).  Both
    partitions span (-window, window), window = 8 + 2 mu, beyond which the
    Gaussian tails are negligible.  Build it with ``cat_pair``.
    """

    alpha: float

    @property
    def mu(self) -> float:
        return math.sqrt(2.0) * self.alpha

    @property
    def window(self) -> float:
        return 8.0 + 2.0 * self.mu

    def x_segments(self):
        """Rows (a, b, sign of f*g) for the two pieces of the x window."""
        window = self.window
        return np.array([(-window, 0.0, -1.0), (0.0, window, 1.0)])

    def p_segments(self):
        """Rows (a, b, sign of f~*h~) for the pieces of the p window between
        the roots k pi/(2 mu), each signed like -sin(2 mu p) at its midpoint."""
        mu, window = self.mu, self.window
        spacing = math.pi / (2.0 * mu)
        k_max = int(window / spacing)
        # 0 is a root on its own: once spacing overflows to inf, 0 * spacing is nan
        positive = np.arange(1, k_max + 1) * spacing
        roots = np.concatenate((-positive[::-1], [0.0], positive))
        edges = np.concatenate(([-window], roots[np.abs(roots) < window], [window]))
        a, b = edges[:-1], edges[1:]
        return np.array([a, b, np.where(np.sin(2.0 * mu * (0.5 * (a + b))) <= 0.0, 1.0, -1.0)]).T


def cat_pair(alpha: float) -> CatPair:
    """The even/odd cat pair at a finite amplitude alpha > 0."""
    if not 0.0 < alpha < math.inf:
        raise ValueError("amplitude must be finite and > 0")
    return CatPair(alpha)


def overlaps_VW(pair: CatPair):
    """V = int |f g| dx and W = int |f~ h~| dp of the cat pair, from the
    closed forms in the module docstring."""
    c_plus, c_minus = cat_norms(pair.alpha)
    return _cat_overlaps(pair.mu, 2.0 * c_plus * c_minus)


_PSI3_SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def psi3_prime_terms(alpha: float):
    """The large-amplitude three-mode candidate state: an equal-weight sum of
    |a,a,a>, |a,-a,-a>, |-a,a,-a>, |-a,-a,a> with c'^2 = 1/[4(1+3e^{-4a^2})]."""
    if alpha <= 0:
        raise ValueError("amplitude must be > 0")
    weight = 1.0 / (2.0 * math.sqrt(1.0 + 3.0 * math.exp(-4.0 * alpha * alpha)))
    return tuple(
        (weight, tuple(s * alpha for s in signs)) for signs in _PSI3_SIGNS
    )


def _mode_tables(requests, tol):
    """Per-mode integrals of the coherent cross terms over the two binning
    domains for each (pair, setting, amplitudes): complex T[i, j, side] over
    the sorted distinct amplitudes, side 0 for plus, all from one lockstep
    batch over the pairs' segment rows (a, b, sign +/-1).  <x|a><x|b> =
    pi^{-1/2} e^{-(x-mu_a)^2/2 - (x-mu_b)^2/2}, mu = sqrt(2) a, is symmetric
    in (a, b); <p|a><p|b>* = pi^{-1/2} e^{-p^2} e^{-i sqrt(2) (a-b) p}
    depends on a - b, conjugated by a swap.  Both hold bit for bit, so each
    distinct integral is computed once; one gather builds the tables."""
    for _, setting, _ in requests:
        if setting not in ("x", "p"):
            raise ValueError(f"setting must be 'x' or 'p', got {setting!r}")
    segments = [pair.x_segments() if s == "x" else pair.p_segments() for pair, s, _ in requests]
    # each request's plus pieces, then its minus pieces, cut from one array
    rows = np.concatenate([np.empty((0, 3)), *segments])
    side = 2 * np.repeat(np.arange(len(segments)), [len(s) for s in segments]) + (rows[:, 2] < 0)
    cuts = np.cumsum(np.bincount(side, minlength=2 * len(segments)))[:-1]
    sides = np.split(rows[np.argsort(side, kind="stable"), :2], cuts)
    integrals, cells, sizes = {"x": {}, "p": {}}, [], []
    for r, (_, setting, amplitudes) in enumerate(requests):
        amps = sorted(set(amplitudes))
        sizes.append(len(amps))
        for a, b in itertools.product(amps, repeat=2):
            key = (r, min(a, b), max(a, b)) if setting == "x" else (r, abs(a - b))
            index = integrals[setting].setdefault(key, len(integrals[setting]))
            cells.append((2 * index, setting == "p", setting == "p" and a < b))
    segment_lists = {s: [x for r, *_ in keys for x in sides[2 * r:2 * r + 2]] for s, keys in integrals.items()}
    mu = math.sqrt(2.0) * np.array([k[1:] for k in integrals["x"] for _ in "+-"], dtype=float).reshape(-1, 2)
    delta = math.sqrt(2.0) * np.array([k[1] for k in integrals["p"] for _ in "+-"], dtype=float)
    values = integrate_batch([
        (lambda x, i: (math.pi ** -0.5) * np.exp(-0.5 * (x - mu[i, 0]) ** 2 - 0.5 * (x - mu[i, 1]) ** 2),
         segment_lists["x"]),
        (lambda p, i: (math.pi ** -0.5) * np.exp(-p * p) * np.exp(-1j * delta[i] * p),
         segment_lists["p"]),
    ], tol=max(tol / 2.0, 1e-14))
    position, on_p, swapped = np.array(cells, dtype=int).reshape(-1, 3).T
    flat = np.array(values[0] + values[1], dtype=complex)
    table = flat[(position + on_p * len(values[0]))[:, None] + [0, 1]]
    table = np.where(swapped[:, None] == 1, table.conj(), table)
    return [t.reshape(n, n, 2) for t, n in zip(np.split(table, np.cumsum(np.square(sizes))[:-1]), sizes)]


def _outcome_probabilities(factors, amplitude_index, tables):
    """Probabilities of all 2^m binned outcomes (itertools.product((1, -1))
    order) at every point of a batch.  ``factors`` holds the real and
    imaginary parts of w_i conj(w_j), broadcastable to (batch..., pairs, 1)
    with the term pairs (i, j) in row-major order; ``tables[t]`` is mode t's
    (batch..., n, n, 2) table, indexed by ``amplitude_index[i][t]``.
    Complex products are float ufuncs in CPython's order, re = ar br - ai bi
    and im = ar bi + ai br, and the pairs add in order to 0.0, so every
    probability rounds as the scalar loop over pairs rounds it."""
    m, index = len(tables), np.array(amplitude_index)
    pair_i, pair_j = np.repeat(index, len(index), axis=0), np.tile(index, (len(index), 1))
    outcome = np.arange(2 ** m)
    re, im = factors
    for t, table in enumerate(tables):
        cells = table[..., pair_i[:, t], pair_j[:, t], :][..., (outcome >> (m - 1 - t)) & 1]
        re, im = re * cells.real - im * cells.imag, re * cells.imag + im * cells.real
    total_re = total_im = 0.0
    for k in range(re.shape[-2]):  # the pairs in order
        total_re, total_im = total_re + re[..., k, :], total_im + im[..., k, :]
    if np.any(np.abs(total_im) > 1e-10):
        raise ArithmeticError(
            f"probability came out non-real (imaginary part {np.abs(total_im).max():.3e}); "
            "inconsistent terms"
        )
    return total_re


# Only the tests call this; it stays here because perfbench/tracing.py wraps
# ``rootbin.binned_product_probabilities`` by name.
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
    amplitudes = [sorted(set([amps[t] for _w, amps in terms])) for t in range(m)]
    tables = _mode_tables(
        [(pair, setting, amplitudes[t]) for t, setting in enumerate(settings)], tol
    )
    factors = np.array([w_i * complex(w_j).conjugate() for w_i, _ in terms for w_j, _ in terms])
    factors = (factors.real[:, None], factors.imag[:, None])
    index = [[amplitudes[t].index(a) for t, a in enumerate(amps)] for _w, amps in terms]
    probabilities = _outcome_probabilities(factors, index, tables)
    return dict(zip(itertools.product((1, -1), repeat=m), probabilities.tolist()))


class Psi3Report(NamedTuple):
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


# A lockstep batch holds all its initial panels at once, and an amplitude's p
# pieces grow as alpha^2 (5,016 at 30), so a run of amplitudes stops here.
_P_PIECES_PER_BATCH = 8192


def _runs(pairs):
    """Consecutive runs of ``pairs``, p pieces counted as ``CatPair.p_segments`` makes them."""
    runs, pieces = [], math.inf
    for pair in pairs:
        count = 2 * int(pair.window / (math.pi / (2.0 * pair.mu))) + 2
        if pieces + count > _P_PIECES_PER_BATCH:
            runs.append([])
            pieces = 0
        runs[-1].append(pair)
        pieces += count
    return runs


def psi3_bell_report(alphas, tol: float = 1e-9) -> list:
    """Bell factor of the three-mode coherent-superposition state by direct
    domain integration of its binned joint probabilities: one ``Psi3Report``
    per amplitude of ``alphas``, in order.

    The state is permutation symmetric, so each correlator depends only on
    how many parties measured X; the four values cover both labelings.
    Every mode carries +/-alpha, so one x and one p table per amplitude
    serve all modes.  The probabilities are one array over (amplitude,
    setting pattern, outcome), summed over outcomes left to right as the
    builtin ``sum`` of Python 3.11 adds them.
    """
    pairs = [cat_pair(alpha) for alpha in alphas]
    if not pairs:
        return []
    tables = np.concatenate([
        _mode_tables([(pair, s, (-pair.alpha, pair.alpha)) for pair in run for s in "xp"], tol)
        for run in _runs(pairs)
    ]).reshape(len(pairs), 2, 2, 2, 2)  # (alpha, x/p, a_i, a_j, side)
    # mode t of setting pattern n_x (= how many parties measure X) is X for t < n_x
    per_mode = [tables[:, [int(t >= n_x) for n_x in range(4)]] for t in range(3)]
    weights = np.array([psi3_prime_terms(pair.alpha)[0][0] for pair in pairs])
    factors = ((weights * weights)[:, None, None, None], 0.0)  # all terms weigh the same
    index = [[int(s > 0) for s in signs] for signs in _PSI3_SIGNS]  # into (-alpha, alpha)
    probs = _outcome_probabilities(factors, index, per_mode)  # (alpha, n_x, outcome)
    signs = [float(o[0] * o[1] * o[2]) for o in itertools.product((1, -1), repeat=3)]
    sums = correlators = 0.0
    for o, sign in enumerate(signs):
        sums = sums + probs[..., o]
        correlators = correlators + sign * probs[..., o]
    # The tuple-by-tuple MK sum, one pass over the amplitude axis, keeps the
    # rounding of the reference curve where one labeling cancels to noise.
    bell_x, bell_p = (np.abs(mk_sum_tuplewise(c)).tolist() for c in (correlators.T[::-1], correlators.T))
    return [
        Psi3Report(pair.alpha, x, p, dict(enumerate(c)), dict(enumerate(s)), min(map(min, rows)))
        for pair, x, p, rows, s, c in zip(
            pairs, bell_x, bell_p, probs.tolist(), sums.tolist(), correlators.tolist()
        )
    ]
