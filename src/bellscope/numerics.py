"""Shared numerical kernels: adaptive Gauss-Kronrod quadrature over finite
segments, many integrals in lockstep, and even/odd bipartite eigenproblems.

Everything in this module is a pure function of its inputs; nothing keeps
mutable state.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

__all__ = [
    "IntegrationError",
    "integrate_batch",
    "integrate_segments",
    "max_eigenpair",
]


class IntegrationError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""

    def __init__(self, message, achieved_error=None):
        super().__init__(message)
        self.achieved_error = achieved_error


# 7-point Gauss / 15-point Kronrod pair, symmetric about 0: (node, Kronrod
# weight, Gauss weight) from the largest node down to 0.  Gauss weights are
# zero at the Kronrod-only nodes so both rules come from one set of
# evaluations.
_GK_HALF = np.array([
    (0.991455371120813, 0.022935322010529, 0.0),
    (0.949107912342759, 0.063092092629979, 0.129484966168870),
    (0.864864423359769, 0.104790010322250, 0.0),
    (0.741531185599394, 0.140653259715525, 0.279705391489277),
    (0.586087235467691, 0.169004726639267, 0.0),
    (0.405845151377397, 0.190350578064785, 0.381830050505119),
    (0.207784955007898, 0.204432940075298, 0.0),
    (0.0, 0.209482141084728, 0.417959183673469),
])
_GK_NODES, _GK_WK, _GK_WG = np.concatenate(
    [_GK_HALF[:-1] * [-1.0, 1.0, 1.0], _GK_HALF[::-1]]
).T.copy()


# Relative accuracy below which a running sum of panels cannot be resolved.
_SUM_FLOOR = 64.0 * np.finfo(float).eps


def _abs(z):
    """Elementwise abs rounded as Python's: np.hypot is the C hypot behind
    complex.__abs__; numpy's complex abs can differ from it in the last bit."""
    return np.hypot(z.real, z.imag) if np.iscomplexobj(z) else np.abs(z)


def _panels(f, a, b, owner):
    """Gauss-Kronrod panels over (a[i], b[i]) with one call ``f(x, owner)``
    on all their nodes, panel i's nodes owned by owner[i].  Returns arrays
    of kronrod values and |K - G| error guesses."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    xs = mid[:, None] + half[:, None] * _GK_NODES
    ys = np.asarray(f(xs.ravel(), np.repeat(owner, _GK_NODES.size))).reshape(xs.shape)
    if not np.all(np.isfinite(ys)):
        raise IntegrationError("integrand returned a non-finite value")
    # The weights go first: vecdot then rounds each panel exactly as the
    # single-panel dot product ``_GK_WK @ ys`` does.  numpy does not promise
    # that; it holds for the numpy/BLAS builds checked and is tested in
    # tests/test_quadrature_batching.py, as is _abs.
    k = half * np.vecdot(_GK_WK, ys)
    return k, _abs(k - half * np.vecdot(_GK_WG, ys))


def _running_sums(values, owner, counts):
    """0.0 + v_0 + v_1 + ... of each integral's values, left to right:
    np.add.accumulate is sequential, and +0.0 padding leaves a sum as is."""
    padded = np.zeros((len(counts), counts.max() + 1), dtype=values.dtype)
    padded[owner, np.arange(values.size) - (np.cumsum(counts) - counts)[owner] + 1] = values
    return np.add.accumulate(padded, axis=1)[:, -1]


def integrate_batch(families, tol=1e-10, max_intervals=4096):
    """Adaptive Gauss-Kronrod quadrature of many integrals in lockstep.

    ``families`` holds (f, segment_lists) pairs, one integral per list of
    finite segments; ``f(x, owner)`` gets a flat array of abscissas and the
    index of each one's integral (complex results are fine).  Each integral
    keeps its own heap, running sums and stopping rule: the worst panel is
    bisected until the summed error estimate is below ``tol`` or below the
    machine-precision floor of the running sum.  Only integrand calls are
    shared, one per family for all initial segments and then one per round
    for both halves of every unconverged integral's worst panel.  Returns
    one list of results per family.  The first integral (by round, then
    position) to run out of subdivisions raises ``IntegrationError``
    carrying its error estimate.
    """
    results, active = [], []
    for family, (f, segment_lists) in enumerate(families):
        lists = [[(a, b) for a, b in segments if b != a] for segments in segment_lists]
        counts = np.array([len(s) for s in lists], dtype=int)
        if not counts.sum():
            results.append([0.0] * len(lists))
            continue
        owner = np.repeat(np.arange(len(lists)), counts)
        a, b = np.array([seg for s in lists for seg in s], dtype=float).T
        values, errors = _panels(f, a, b, owner)
        sums = [_running_sums(x, owner, counts) for x in (values, errors, _abs(values))]
        total, total_err, total_abs = (x.tolist() for x in sums)
        results.append([t if n else 0.0 for t, n in zip(total, counts.tolist())])
        ends = np.cumsum(counts)
        for i in np.flatnonzero((sums[1] > tol) & (sums[1] > _SUM_FLOOR * sums[2])).tolist():
            # heap of (-err, tiebreak, a, b, value, err); the tiebreaks are
            # unique, so the pop order does not depend on how it was built.
            part = slice(ends[i] - counts[i], ends[i])
            entries = list(zip(
                (-errors[part]).tolist(), range(counts[i]), a[part].tolist(),
                b[part].tolist(), values[part].tolist(), errors[part].tolist(),
            ))
            heapq.heapify(entries)
            active.append([family, i, entries, len(entries), total[i], total_err[i], total_abs[i]])

    while active:
        halves = [[] for _ in families]
        for member in active:
            _, _, entries, _, total, total_err, total_abs = member
            if not total_err > max(tol, _SUM_FLOOR * total_abs):
                continue
            if len(entries) >= max_intervals:
                raise IntegrationError(
                    f"no convergence after {max_intervals} intervals "
                    f"(error estimate {total_err:.3e}, tol {tol:.3e})",
                    achieved_error=total_err,
                )
            _, _, a, b, val, err = heapq.heappop(entries)
            if err != 0.0:
                member[4:] = total - val, total_err - err, total_abs - abs(val)
                mid = 0.5 * (a + b)
                halves[member[0]] += [(member, a, mid), (member, mid, b)]
        active = []
        for family, panels in enumerate(halves):
            if not panels:
                continue
            members, lo, hi = zip(*panels)
            owner = np.array([member[1] for member in members])
            values, errors = _panels(families[family][0], np.array(lo), np.array(hi), owner)
            for member, a, b, val, err in zip(members, lo, hi, values.tolist(), errors.tolist()):
                heapq.heappush(member[2], (-err, member[3], a, b, val, err))
                member[3:] = member[3] + 1, member[4] + val, member[5] + err, member[6] + abs(val)
                results[family][member[1]] = member[4]
            active += members[::2]
    return results


def integrate_segments(f, segments, tol=1e-10, max_intervals=4096):
    """Adaptive quadrature over a union of finite segments, a batch of one
    for ``integrate_batch``: ``f`` takes a flat array of abscissas and is
    called once for all segments, then once per bisection of the worst
    panel, until the summed error estimate is below ``tol`` or the
    machine-precision floor of the running sum, whichever is larger."""
    return integrate_batch([(lambda x, _owner: f(x), [segments])], tol, max_intervals)[0][0]


def _check_bipartite(matrix) -> np.ndarray:
    """The checks every solve of ``max_eigenpair`` shares."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError("expected a non-empty square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if np.abs(m - m.T).max() > 1e-12 * (1.0 + np.abs(m).max()):
        raise ValueError("matrix is not symmetric")
    if np.any(m[0::2, 0::2]) or np.any(m[1::2, 1::2]):
        raise ValueError("expected a matrix that couples only even with odd indices")
    return m


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip the vector so its first non-negligible component is positive."""
    for x in v:
        if abs(x) > 1e-12:
            return -v if x < 0 else v
    return v


def _stationarity_residual(m, v, lam):
    grad = m @ v - lam * v
    active = v <= 1e-10
    res = np.where(active, np.maximum(grad, 0.0), grad)
    return float(np.linalg.norm(res))


# The alternating power steps stop once no component of any start's y moves
# by more than _POWER_TOL in a step, or after _POWER_STEPS steps.  Every
# _FINISH_EVERY steps the best start's support is tried for an exact finish.
_POWER_TOL = 1e-14
_POWER_STEPS = 1000
_FINISH_EVERY = 10


def _start_values(b, y):
    """x = (B y)_+ / |.| for every start (column of y), and x.T B y."""
    by = b @ y
    x = np.maximum(by, 0.0)
    x /= np.linalg.norm(x, axis=0)
    return x, np.einsum("ik,ik->k", x, by)


def _support_finish(b, x, y, values):
    """The top singular pair of B on the best start's support (x > 0, y > 0),
    zero-padded, with its singular value; None unless it is strictly positive
    on the support, no gradient off the support is positive (KKT) and the
    value reaches every start's."""
    best = int(np.argmax(values))
    rows, cols = x[:, best] > 0.0, y[:, best] > 0.0
    u, s, vt = np.linalg.svd(b[np.ix_(rows, cols)], full_matrices=False)
    sign = 1.0 if u[0, 0] > 0.0 else -1.0
    x_top, y_top = sign * u[:, 0], sign * vt[0]
    if x_top.min() <= 0.0 or y_top.min() <= 0.0 or s[0] < values.max():
        return None
    x_full, y_full = np.zeros(b.shape[0]), np.zeros(b.shape[1])
    x_full[rows], y_full[cols] = x_top, y_top
    if np.any((b @ y_full)[~rows] > 0.0) or np.any((b.T @ x_full)[~cols] > 0.0):
        return None
    return x_full, y_full, float(s[0])


def _max_quadform_nonneg(m):
    b = m[0::2, 1::2]
    v = np.zeros(m.shape[0])
    if not np.any(b > 0.0):
        # every feasible x.T B y is <= 0, and a unit vector on one parity gives 0
        v[0], lam = 1.0, 0.0
    else:
        # y starts, one per column: the uniform vector, the clipped +/- top
        # right singular vector, and (B.T e_i)_+ for every even index i; a
        # start with (B y)_+ = 0 cannot reach a positive value
        top = np.linalg.svd(b)[2][0]
        y = np.maximum(np.column_stack([np.ones(b.shape[1]), top, -top, b.T]), 0.0)
        y = y[:, np.any(b @ y > 0.0, axis=0)]
        y /= np.linalg.norm(y, axis=0)
        finish = None
        for k in range(1, _POWER_STEPS + 1):
            # (B y)_+ is positively homogeneous in y, so x needs no norm here
            y_next = np.maximum(b.T @ np.maximum(b @ y, 0.0), 0.0)
            y_next /= np.linalg.norm(y_next, axis=0)
            step = np.abs(y_next - y).max()
            y = y_next
            if step <= _POWER_TOL:
                break
            if k % _FINISH_EVERY == 0:
                x, values = _start_values(b, y)
                finish = _support_finish(b, x, y, values)
                if finish is not None:
                    break
        if finish is None:
            x, values = _start_values(b, y)
            best = int(np.argmax(values))
            finish = x[:, best], y[:, best], float(values[best])
        v[0::2], v[1::2], lam = finish
        v /= math.sqrt(2.0)
    res = _stationarity_residual(m, v, lam)
    if res > 1e-8:
        raise ArithmeticError(
            f"constrained maximizer not stationary (residual {res:.3e})"
        )
    return lam, v


def max_eigenpair(matrix, constraint=None):
    """Largest eigenvalue and unit eigenvector of a real symmetric matrix
    that couples only even with odd indices, M = [[0, B], [B.T, 0]] with
    B = M[0::2, 1::2], as every Bell matrix does; any other raises ValueError.

    Its spectrum is +/- the singular values of B plus zeros, so one thin SVD
    of B gives the top pair: the largest singular value s and v = (x, y) /
    sqrt(2) from its singular vectors, interleaved (Golub & Van Loan, sec.
    8.6; M needs dimension >= 2).  v has its first non-negligible component
    positive; an eigen residual above 1e-10 max(1, s) raises ArithmeticError.

    With ``constraint="nonnegative"`` v.T M v is maximized over unit vectors
    with all components >= 0 instead: max x.T B y over non-negative unit x
    and y.  Alternating non-negative power steps x <- (B y)_+ / |.|,
    y <- (B.T x)_+ / |.| (non-negative PCA; Montanari & Richard, IEEE Trans.
    IT 62, 2016) never decrease x.T B y; they run from fixed starts and the
    best one wins.  Every 10 steps the support of the best start (x > 0,
    y > 0) is tried for a finish: on it the maximizer is the top singular
    pair of B[Sx, Sy], from one SVD.  That pair, zero-padded, is taken and
    the steps stop when it is strictly positive on the support, no gradient
    off the support is positive ((B y)_i <= 0 and (B.T x)_j <= 0 there: the
    KKT conditions), and its singular value reaches every start's current
    value.  The last rule is a heuristic, not a certificate: the best
    start's support always admits that value, but a start still climbing
    could later end higher, and no finish rules that out.  Otherwise the
    steps go on until no component of any start's y moves by more than
    1e-14, or for at most 1,000 steps.  Either way the value is a feasible
    (hence certified) lower bound; a stationarity (KKT) residual above 1e-8
    raises ArithmeticError.
    """
    m = _check_bipartite(matrix)
    if constraint == "nonnegative":
        return _max_quadform_nonneg(m)
    if constraint is not None:
        raise ValueError(f"unknown constraint: {constraint!r}")
    if m.shape[0] < 2:
        raise ValueError("the unconstrained solve needs dimension >= 2")
    x, s, yt = np.linalg.svd(m[0::2, 1::2], full_matrices=False)
    lam = float(s[0])
    v = np.empty(m.shape[0])
    v[0::2], v[1::2] = x[:, 0], yt[0]
    v = _canonical_sign(v / math.sqrt(2.0))
    residual = float(np.linalg.norm(m @ v - lam * v))
    if residual > 1e-10 * max(1.0, lam):
        raise ArithmeticError(f"eigenpair residual too large: {residual:.3e}")
    return lam, v
