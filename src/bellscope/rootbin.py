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
superpositions of |alpha> and |-alpha>.  It is data, not functions: an
amplitude alpha, finite and > 0.  With mu = sqrt(2) alpha, f*g has the sign
of x and f~*h~ that of -sin(2 mu p), each binned on |x|, |p| < 8 + 2 mu (the
Gaussian tails beyond are negligible), and both overlaps have closed forms,
with 2 c_+ c_- from ``cat_norms``:

    V = 2 c_+ c_- erf(mu)                                  (A&S 7.1),
    W = 2 c_+ c_- pi^{-1/2} int e^{-p^2} |sin 2 mu p| dp
      = 2 c_+ c_- [2/pi - (4/pi) sum_{n>=1} e^{-4 n^2 mu^2} / (4 n^2 - 1)],

the second from the Fourier series of |sin| (G&R 3.896).  The series needs
about 3.3/mu terms; below mu = 0.25 W is the first lobe alone,
2 c_+ c_- (2/sqrt(pi)) D(mu) with D the Dawson integral, and the lobes past
the first sign change at pi/(2 mu) add less than e^{-(pi/(2 mu))^2}.

The module also evaluates Bell factors by direct domain integration for
finite superpositions of products of coherent states, which covers the
three-mode coherent-superposition candidate state.  One array pass cuts the
x and p pieces of a run of consecutive amplitudes (capped in padded p
pieces), and every per-mode integral of the run is a member of one lockstep
quadrature (``numerics.integrate_batch``) fed those flat rows; one array
kernel forms the joint probabilities of every (amplitude, setting pattern,
term pair, outcome), looping only over modes.  Both round every value as
the one-amplitude, one-outcome scalar loops did.

Wavefunction convention: <x|n> ~ H_n(x) e^{-x^2/2}, so a coherent state of
real amplitude a is a unit-width Gaussian centred at sqrt(2)*a, and the
momentum-side roots of the coherent-pair products sit at multiples of
pi / (2 sqrt(2) a).
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import NamedTuple

import numpy as np

from .mk import _EIGHTH_TURNS, mk_class_sum
from .numerics import integrate_batch

__all__ = [
    "RootBinningSpec",
    "LABELINGS",
    "overlaps_VW",
    "bell_factor_root",
    "optimal_phase",
    "cat_norms",
    "psi3_prime_terms",
    "Psi3Report",
    "psi3_bell_report",
]

LABELINGS = ("x-unprimed", "p-unprimed")


class RootBinningSpec:
    """Abstract root-binning inputs: the two overlaps, the state phase, and
    the party count.  V and W live in [0, 1] by Cauchy-Schwarz."""

    __slots__ = ("V", "W", "theta", "m")

    def __init__(self, V: float, W: float, theta: float, m: int):
        if not (-1e-9 <= V <= 1.0 + 1e-9 and -1e-9 <= W <= 1.0 + 1e-9):
            raise ValueError("V and W must lie in [0, 1]")
        if m < 1:
            raise ValueError("party count must be >= 1")
        if not math.isfinite(theta):
            raise ValueError("theta must be finite")
        self.V, self.W, self.theta, self.m = V, W, theta, m


def _scaled_power(x: float, m: int):
    """x^m as (mantissa, exponent), x^m = mantissa * 2**exponent: powers of
    x's mantissa at most 1,000 at a time, so nothing over- or underflows."""
    base, base_exponent = math.frexp(x)
    mantissa, exponent = 1.0, base_exponent * m
    for step in [1000] * (m // 1000) + [m % 1000]:
        mantissa, k = math.frexp(mantissa * base**step)
        exponent += k
    return mantissa, exponent


def _mk_class_sums(v: float, w: float, m: int) -> tuple:
    """sum_t c_t V^k (iW)^(m-k) over the MK expansion, k the number of
    parties measuring X, for the labelings in ``LABELINGS`` order.

    E(k, m-k) is the real part of e^{i theta} V^k (iW)^(m-k), a product over
    parties that share one factor pair, so each labeling is one product-form
    MK sum (see ``mk``) of powers: (v -/+ w)^m with X unprimed, i^m (w +/- v)^m
    with P unprimed, as mantissa and exponent until the last ldexp.  At
    V = W = 1 every step is exact.
    """
    omega, sums = _EIGHTH_TURNS[(m - 1) % 8], []
    for unit, plus, minus in ((1, v - w, v + w), (_EIGHTH_TURNS[2 * m % 8], w + v, w - v)):
        (p, e_p), (q, e_q) = _scaled_power(plus, m), _scaled_power(minus, m)
        top = max(e_p, e_q)
        z = unit * (omega.conjugate() * math.ldexp(p, e_p - top) + omega * math.ldexp(q, e_q - top))
        try:
            sums.append(complex(math.ldexp(z.real, top - m // 2), math.ldexp(z.imag, top - m // 2)))
        except OverflowError:
            raise OverflowError("Mermin-Klyshko sum exceeds the float range") from None
    return tuple(sums)


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

    the second through expm1, which keeps small amplitudes exact.  Once a^2
    is subnormal it has lost digits, and the a -> 0 limit (1/2, 1/(2a)) is
    exact to the last bit.
    """
    if alpha <= 0:
        raise ValueError("amplitude must be > 0")
    a2 = alpha * alpha
    if a2 < sys.float_info.min:
        return 0.5, 0.5 / alpha
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


def _ragged(counts):
    """Runs of counts[i] consecutive items: each item's run and its place in it."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(run.size) - (np.cumsum(counts) - counts)[run]


def _p_partition(alphas, on_p=True):
    """mu, window, p root spacing (inf below mu ~ 1e-308), int(window / spacing) or 0 off p."""
    mu = math.sqrt(2.0) * alphas
    window = 8.0 + 2.0 * mu
    with np.errstate(over="ignore"):
        spacing = math.pi / (2.0 * mu)
    return mu, window, spacing, np.where(on_p, window / spacing, 0.0).astype(int)


def _pieces(alphas, on_p):
    """Rows (a, b, sign) of the p (where ``on_p``) or x pieces of the cat pair
    at each of ``alphas``, and each row's index into them, in one array pass:
    the roots k pi/(2 mu) cut p and 0 cuts x; signs follow -sin(2 mu p) or x."""
    mu, window, spacing, k_max = _p_partition(alphas, on_p)
    owner, k = _ragged(2 * k_max + 3)
    k -= k_max[owner] + 1  # the window's edges at k = +/-(k_max + 1)
    # 0 is a root on its own: once spacing overflows to inf, 0 * spacing is nan
    edges = np.multiply(k, spacing[owner], out=np.zeros(k.size), where=k != 0)
    outer = np.abs(k) > k_max[owner]
    edges[outer] = np.sign(k[outer]) * window[owner[outer]]
    keep = outer | (np.abs(edges) < window[owner])
    edges, owner = edges[keep], owner[keep]
    inner = owner[1:] == owner[:-1]  # the edges of one amplitude bound its pieces
    a, b, owner = edges[:-1][inner], edges[1:][inner], owner[1:][inner]
    mid = 0.5 * (a + b)
    product = np.where(on_p[owner], -np.sin(2.0 * mu[owner] * mid), mid)
    return np.array([a, b, np.where(product >= 0.0, 1.0, -1.0)]).T, owner


def overlaps_VW(alpha: float):
    """V = int |f g| dx and W = int |f~ h~| dp of the cat pair at a finite
    amplitude alpha > 0, from the closed forms in the module docstring."""
    if not 0.0 < alpha < math.inf:
        raise ValueError("amplitude must be finite and > 0")
    c_plus, c_minus = cat_norms(alpha)
    return _cat_overlaps(math.sqrt(2.0) * alpha, 2.0 * c_plus * c_minus)


_PSI3_SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def psi3_prime_terms(alpha: float):
    """The large-amplitude three-mode candidate state: an equal-weight sum of
    |a,a,a>, |a,-a,-a>, |-a,a,-a>, |-a,-a,a> with c'^2 = 1/[4(1+3e^{-4a^2})]."""
    if alpha <= 0:
        raise ValueError("amplitude must be > 0")
    weight = _psi3_weight(alpha)
    return tuple(
        (weight, tuple(s * alpha for s in signs)) for signs in _PSI3_SIGNS
    )


def _psi3_weight(alpha):
    return 1.0 / (2.0 * math.sqrt(1.0 + 3.0 * math.exp(-4.0 * alpha * alpha)))


def _mode_tables(pieces, owner, on_p, amplitudes, sizes, tol):
    """Per-mode integrals of the coherent cross terms over the two binning
    domains, one lockstep batch: complex T[i, j, side] (side 0 for plus) of
    each request r, on p if on_p[r], over its sizes[r] sorted ``amplitudes``
    and the rows (a, b, sign) of ``pieces`` owned by r, as (cells, 2), r by r,
    (i, j) row-major.  <x|a><x|b> = pi^{-1/2} e^{-(x-mu_a)^2/2 - (x-mu_b)^2/2}
    is symmetric in (a, b), mu = sqrt(2) a; <p|a><p|b>* = pi^{-1/2} e^{-p^2}
    e^{-i sqrt(2) (a-b) p} is conjugated by a swap, bit for bit, so each
    distinct integral is computed once, in order of first use."""
    cell_r, cell = _ragged(sizes * sizes)  # cell = i n + j
    a, b = amplitudes[(np.cumsum(sizes) - sizes)[cell_r] + np.divmod(cell, sizes[cell_r])]
    cell_p = on_p[cell_r]
    # each cell's integral: (r, min(a, b), max(a, b)) on x, (r, |a - b|, |a - b|) on p
    key = np.column_stack([cell_r, np.where(cell_p, np.abs(a - b), [np.minimum(a, b), np.maximum(a, b)]).T])
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    first, seen = np.sort(first), np.argsort(np.argsort(first))[inverse.ravel()]
    on = cell_p[first]
    index = np.where(on, np.cumsum(on), np.cumsum(~on)) - 1  # in its family
    group = 2 * owner + (pieces[:, 2] < 0)  # r's plus pieces, then its minus
    rows = pieces[np.argsort(group, kind="stable"), :2]
    count = np.bincount(group, minlength=2 * sizes.size)
    families = []
    for family in (~on, on):
        lists = (2 * cell_r[first[family]][:, None] + [0, 1]).ravel()
        integral, place = _ragged(count[lists])
        families.append((rows[(np.cumsum(count) - count)[lists][integral] + place], integral, lists.size))
    mu, delta = (math.sqrt(2.0) * np.repeat(key[first[family], 1:], 2, axis=0) for family in (~on, on))
    values = integrate_batch([
        (lambda x, i: (math.pi ** -0.5) * np.exp(-0.5 * (x - mu[i, 0]) ** 2 - 0.5 * (x - mu[i, 1]) ** 2),
         *families[0]),
        (lambda p, i: (math.pi ** -0.5) * np.exp(-p * p) * np.exp(-1j * delta[i, 0] * p), *families[1]),
    ], tol=max(tol / 2.0, 1e-14))
    flat = np.array(values[0] + values[1], dtype=complex)
    table = flat[(2 * index[seen] + cell_p * len(values[0]))[:, None] + [0, 1]]
    return np.where((cell_p & (a < b))[:, None], table.conj(), table)


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
def binned_product_probabilities(terms, settings, alpha, tol=1e-9):
    """Joint probabilities of all 2^m binned outcomes for a superposition of
    products of coherent states, measured along ``settings`` ('x'/'p' per
    mode) and binned by the root partitions of the cat pair at ``alpha``.

    Every domain integral factorizes into per-mode one-dimensional integrals
    of Gaussian cross terms over the root intervals.
    """
    m = len(settings)
    if any(len(amps) != m for _w, amps in terms):
        raise ValueError("term amplitude vectors must match the settings length")
    if not set(settings) <= {"x", "p"}:
        raise ValueError(f"each setting must be 'x' or 'p', got {settings!r}")
    amplitudes = [sorted(set([amps[t] for _w, amps in terms])) for t in range(m)]
    on_p, sizes = np.array([s == "p" for s in settings]), np.array([len(a) for a in amplitudes])
    flat = _mode_tables(*_pieces(np.full(m, alpha), on_p), on_p,
                        np.array(sum(amplitudes, []), dtype=float), sizes, tol)
    tables = [flat[end - n * n:end].reshape(n, n, 2) for end, n in zip(np.cumsum(sizes * sizes), sizes)]
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


# A batch pads each integral's panels to its family's widest; p pieces grow as alpha^2 (5,016 at 30).
_P_PIECES_PER_BATCH = 8192


def _runs(alphas):
    """Bounds (start, stop) of consecutive runs of ``alphas``: one amplitude,
    or length times widest p partition (<= 2 k_max + 2) <= _P_PIECES_PER_BATCH."""
    bounds, widest = [0], 0
    for stop, width in enumerate((2 * _p_partition(alphas)[3] + 2).tolist(), 1):
        widest = max(widest, width)
        if widest * (stop - bounds[-1]) > _P_PIECES_PER_BATCH and stop - 1 > bounds[-1]:
            bounds, widest = bounds + [stop - 1], width
    return list(zip(bounds, bounds[1:] + [len(alphas)]))


def psi3_bell_report(alphas, tol: float = 1e-9) -> list:
    """Bell factor of the three-mode coherent-superposition state by direct
    domain integration of its binned joint probabilities: one ``Psi3Report``
    per amplitude of ``alphas`` (each finite and > 0), in order.

    The state is permutation symmetric, so each correlator depends only on
    how many parties measured X; the four values cover both labelings.
    Every mode carries +/-alpha, so one x and one p table per amplitude
    serve all modes.  The probabilities are one array over (amplitude,
    setting pattern, outcome), summed over outcomes left to right as the
    builtin ``sum`` of Python 3.11 adds them.  At a loose ``tol`` a panel
    can miss a narrow Gaussian and still look converged; the mass it drops
    shows in the outcome sums, so a sum off 1 by more than ``tol`` (or the
    quadrature's 1e-14 floor, times 100) is an ArithmeticError.
    """
    alphas = list(alphas)
    if not all(0.0 < alpha < math.inf for alpha in alphas):
        raise ValueError("amplitude must be finite and > 0")
    if not alphas:
        return []
    grid, tables = np.array(alphas), []
    for start, stop in _runs(grid):  # an x and a p table per amplitude, over (-alpha, alpha)
        run, on_p = np.repeat(grid[start:stop], 2), np.arange(2 * (stop - start)) % 2 == 1
        amplitudes = np.array([-run, run]).T.ravel()
        tables.append(_mode_tables(*_pieces(run, on_p), on_p, amplitudes, np.full(run.size, 2), tol))
    tables = np.concatenate(tables).reshape(len(alphas), 2, 2, 2, 2)  # (alpha, x/p, a_i, a_j, side)
    # mode t of setting pattern n_x (= how many parties measure X) is X for t < n_x
    per_mode = [tables[:, [int(t >= n_x) for n_x in range(4)]] for t in range(3)]
    weights = np.array([_psi3_weight(alpha) for alpha in alphas])
    factors = ((weights * weights)[:, None, None, None], 0.0)  # all terms weigh the same
    index = [[int(s > 0) for s in signs] for signs in _PSI3_SIGNS]  # into (-alpha, alpha)
    probs = _outcome_probabilities(factors, index, per_mode)  # (alpha, n_x, outcome)
    signs = [float(o[0] * o[1] * o[2]) for o in itertools.product((1, -1), repeat=3)]
    sums = correlators = 0.0
    for o, sign in enumerate(signs):
        sums = sums + probs[..., o]
        correlators = correlators + sign * probs[..., o]
    limit = max(tol, 1e-12)
    missed = np.flatnonzero(~(np.abs(sums - 1.0).max(axis=-1) <= limit))  # nan is missed too
    if missed.size:
        alpha = alphas[missed[0]]
        raise ArithmeticError(f"psi3 probabilities at alpha = {alpha!r} do not sum to 1 within {limit!r}")
    # The class sum keeps the tuple-order rounding that the reference curve
    # pins where one labeling cancels to noise; one pass over the amplitude axis.
    bell_x, bell_p = (np.abs(mk_class_sum(c)).tolist() for c in (correlators.T[::-1], correlators.T))
    return [
        Psi3Report(alpha, x, p, dict(enumerate(c)), dict(enumerate(s)), min(map(min, rows)))
        for alpha, x, p, rows, s, c in zip(
            alphas, bell_x, bell_p, probs.tolist(), sums.tolist(), correlators.tolist()
        )
    ]
