"""Shared numerical kernels: adaptive Gauss-Kronrod quadrature over finite
segments, and even/odd bipartite eigenproblems.

Everything in this module is a pure function of its inputs; nothing keeps
mutable state.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

__all__ = [
    "IntegrationError",
    "integrate_segments",
    "max_eigenpair",
]


class IntegrationError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""

    def __init__(self, message, achieved_error=None):
        super().__init__(message)
        self.achieved_error = achieved_error


# 7-point Gauss / 15-point Kronrod pair.  Gauss weights are zero at the
# Kronrod-only nodes so both rules come from one set of evaluations.
_GK_NODES = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_GK_WK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_GK_WG = np.array(
    [
        0.0,
        0.129484966168870,
        0.0,
        0.279705391489277,
        0.0,
        0.381830050505119,
        0.0,
        0.417959183673469,
        0.0,
        0.381830050505119,
        0.0,
        0.279705391489277,
        0.0,
        0.129484966168870,
        0.0,
    ]
)


# Relative accuracy below which a running sum of panels cannot be resolved.
_SUM_FLOOR = 64.0 * np.finfo(float).eps


def _panels(f, a, b):
    """Gauss-Kronrod panels over (a[i], b[i]) with one call of ``f`` on all
    their nodes.  Returns (kronrod values, |K - G| error guesses)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    xs = mid[:, None] + half[:, None] * _GK_NODES
    ys = np.asarray(f(xs.ravel())).reshape(xs.shape)
    if not np.all(np.isfinite(ys)):
        raise IntegrationError("integrand returned a non-finite value")
    # The weights go first: vecdot then rounds each panel exactly as the
    # single-panel dot product ``_GK_WK @ ys`` does.  numpy does not promise
    # that; it holds for the numpy/BLAS builds checked and is tested in
    # tests/test_quadrature_batching.py.  The error is taken per panel
    # because numpy's vectorised complex abs can differ from hypot in the
    # last bit.
    k = (half * np.vecdot(_GK_WK, ys)).tolist()
    g = (half * np.vecdot(_GK_WG, ys)).tolist()
    return k, [abs(kk - gg) for kk, gg in zip(k, g)]


def integrate_segments(f, segments, tol=1e-10, max_intervals=4096):
    """Adaptive quadrature over a union of finite segments.

    ``f`` must accept a flat numpy array of abscissas (complex results are
    fine); it is called once for all initial segments and once per
    bisection, on the nodes of every panel involved.  The worst segment is
    bisected until the summed error estimate drops below ``tol`` in
    absolute terms, or below the machine-precision floor of the running
    sum, whichever is larger.  Running out of subdivisions raises
    ``IntegrationError`` carrying the achieved error estimate.
    """
    segments = [(a, b) for a, b in segments if b != a]
    values, errors = [], []
    if segments:
        values, errors = _panels(f, *np.array(segments, dtype=float).T)
    # heap of (-err, tiebreak, a, b, value, err); the tiebreaks are unique,
    # so the pop order does not depend on how the heap was built.
    entries = [
        (-err, counter, a, b, val, err)
        for counter, ((a, b), val, err) in enumerate(zip(segments, values, errors))
    ]
    heapq.heapify(entries)
    counter = len(entries)
    total = 0.0
    total_err = 0.0
    total_abs = 0.0
    for val, err in zip(values, errors):
        total = total + val
        total_err += err
        total_abs += abs(val)

    while total_err > max(tol, _SUM_FLOOR * total_abs):
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
        values, errors = _panels(f, np.array([a, mid]), np.array([mid, b]))
        for lo, hi, val2, err2 in zip((a, mid), (mid, b), values, errors):
            heapq.heappush(entries, (-err2, counter, lo, hi, val2, err2))
            counter += 1
            total = total + val2
            total_err += err2
            total_abs += abs(val2)

    return total


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
# by more than _POWER_TOL in a step, or after _POWER_STEPS steps.
_POWER_TOL = 1e-14
_POWER_STEPS = 1000


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
        for _ in range(_POWER_STEPS):
            # (B y)_+ is positively homogeneous in y, so x needs no norm here
            y_next = np.maximum(b.T @ np.maximum(b @ y, 0.0), 0.0)
            y_next /= np.linalg.norm(y_next, axis=0)
            step = np.abs(y_next - y).max()
            y = y_next
            if step <= _POWER_TOL:
                break
        x = np.maximum(b @ y, 0.0)
        x /= np.linalg.norm(x, axis=0)
        values = np.einsum("ik,ik->k", x, b @ y)
        best = int(np.argmax(values))
        v[0::2], v[1::2] = x[:, best], y[:, best]
        v /= math.sqrt(2.0)
        lam = float(values[best])
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
    best one wins.  The value is a feasible (hence certified) lower bound; a
    stationarity (KKT) residual above 1e-8 raises ArithmeticError.
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
