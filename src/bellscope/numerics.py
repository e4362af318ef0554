"""Shared numerical kernels: adaptive Gauss-Kronrod quadrature of many
integrals in lockstep, fed flat segment rows, on array state (one row of
panels per integral), and even/odd bipartite eigenproblems, from their block.

Everything in this module is a pure function of its inputs; nothing keeps
mutable state.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "IntegrationError",
    "integrate_batch",
]


class IntegrationError(ArithmeticError):
    """Adaptive quadrature could not reach the requested tolerance.  An
    ArithmeticError, the package's one numerical-failure type."""

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


def _compact(rows, keep):
    """Keep the rows (integrals) where ``keep`` is true."""
    if not keep.all():
        rows.update({key: x[keep] for key, x in rows.items()})


def integrate_batch(families, tol=1e-10, max_intervals=4096):
    """Adaptive Gauss-Kronrod quadrature of many integrals in lockstep.

    ``families`` holds (f, segments, owner, n): finite segments (a, b) as
    rows, each owned by one of n integrals, owners grouped in order (else
    ValueError); ``f(x, owner)`` gets a flat array of abscissas and the index
    of each one's integral (complex results are fine).  Each integral keeps
    its own panels, running sums and stopping rule (QUADPACK's greedy
    scheme): its worst panel, the first inserted among equals, is bisected
    until the summed error estimate is below ``tol`` or below the
    machine-precision floor of the running sum.  A family's state is arrays
    with one row per unconverged integral, its panels in insertion order, so
    that ``argmax`` picks every row's worst panel at once; a round pops
    those, updates the sums elementwise, calls the integrand once for both
    halves of each and appends them to the rows.  Returns one list of
    results per family.  The first integral (by round, then position) to run
    out of subdivisions raises ``IntegrationError`` with its error estimate.
    """
    results, states = [], []
    for f, segments, owner, n in families:
        (a, b), owner = np.asarray(segments, dtype=float).reshape(-1, 2).T, np.asarray(owner, dtype=int)
        if owner.size and not (0 <= owner[0] and owner[-1] < n and np.all(owner[1:] >= owner[:-1])):
            raise ValueError("segment owners must be grouped by integral, in order")
        a, b, owner = a[b != a], b[b != a], owner[b != a]
        counts = np.bincount(owner, minlength=n)
        results.append((np.zeros(counts.size), counts))
        if not owner.size:
            continue
        values, errors = _panels(f, a, b, owner)
        # each integral's panels (a, b, error) and values in a row, in insertion
        # order after a placeholder; a slot not in use reads as popped (error
        # -1) and adds 0.0 to the sums, left to right as np.add.accumulate adds
        slot = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner] + 1
        panels = np.full((counts.size, counts.max() + 1, 3), -1.0)
        panels[owner, slot] = np.array([a, b, errors]).T
        row_values = np.zeros(panels.shape[:2], dtype=values.dtype)
        row_values[owner, slot] = values
        total, err, size = (
            np.add.accumulate(x, axis=1)[:, -1].copy()  # not a view of the whole
            for x in (row_values, np.maximum(panels[..., 2], 0.0), _abs(row_values))
        )
        results[-1] = total, counts
        states.append((f, total, {
            "idx": np.arange(counts.size), "limit": max_intervals - counts, "total": total,
            "err": err, "abs": size, "panels": panels, "values": row_values,
        }))

    for bisections in itertools.count():
        for *_, rows in states:
            _compact(rows, (rows["err"] > tol) & (rows["err"] > _SUM_FLOOR * rows["abs"]))
            spent = rows["limit"] <= bisections
            if spent.any():
                total_err = rows["err"][spent.argmax()].item()
                raise IntegrationError(
                    f"no convergence after {max_intervals} intervals "
                    f"(error estimate {total_err:.3e}, tol {tol:.3e})",
                    achieved_error=total_err,
                )
        if not any(rows["idx"].size for *_, rows in states):
            break
        for f, total, rows in states:
            # argmax takes the first of equal errors: the first inserted
            line, col = np.arange(len(rows["idx"])), rows["panels"][..., 2].argmax(axis=1)
            (a, b, err), val = rows["panels"][line, col].T, rows["values"][line, col]
            rows["panels"][line, col, 2] = -1.0
            # a popped panel without error ends its integral unchanged
            go = err != 0.0
            _compact(rows, go)
            if not go.any():
                continue
            a, b, val = a[go], b[go], val[go]
            rows["total"], rows["err"], rows["abs"] = (
                rows["total"] - val, rows["err"] - err[go], rows["abs"] - _abs(val)
            )
            edges = np.array([a, 0.5 * (a + b), b]).T
            lo, hi = edges[:, :2], edges[:, 1:]
            owner = np.repeat(rows["idx"], 2)
            values, errors = (x.reshape(-1, 2) for x in _panels(f, lo.ravel(), hi.ravel(), owner))
            for val, err in zip(values.T, errors.T):  # the left half, then the right
                rows["total"], rows["err"], rows["abs"] = (
                    rows["total"] + val, rows["err"] + err, rows["abs"] + _abs(val)
                )
            new = np.array([lo, hi, errors]).transpose(1, 2, 0)
            rows["panels"] = np.concatenate([rows["panels"], new], axis=1)
            rows["values"] = np.concatenate([rows["values"], values], axis=1)
            total[rows["idx"]] = rows["total"]
    return [[t if n else 0.0 for t, n in zip(s.tolist(), n.tolist())] for s, n in results]


def integrate_segments(f, segments, tol=1e-10, max_intervals=4096):
    """Adaptive quadrature over a union of finite segments, a batch of one
    for ``integrate_batch``: ``f`` takes a flat array of abscissas and is
    called once for all segments, then once per bisection of the worst
    panel, until the summed error estimate is below ``tol`` or the
    machine-precision floor of the running sum, whichever is larger."""
    family = (lambda x, _owner: f(x), segments, [0] * len(segments), 1)
    return integrate_batch([family], tol, max_intervals)[0][0]


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


def _residual(b, v, lam, nonnegative=False):
    """|M v - lam v| for M = [[0, B], [B.T, 0]], M v read from B as (B y,
    B.T x) for v = (x, y) interleaved; nonnegative: the KKT residual, which
    drops the gradient that pushes a zero entry below zero."""
    grad = -lam * v
    grad[0::2] += b @ v[1::2]
    grad[1::2] += b.T @ v[0::2]
    if nonnegative:
        grad = np.where(v <= 1e-10, np.maximum(grad, 0.0), grad)
    return float(np.linalg.norm(grad))


_POWER_TOL = 1e-14
_POWER_STEPS = 1000
_FINISH_EVERY = 10


def _scaled(b):
    """B scaled exactly by a power of two to max |entry| in [1/2, 1), so no
    square of an entry over- or underflows, and the exponent that undoes it."""
    exp = math.frexp(np.abs(b).max(initial=0.0))[1]
    return np.ldexp(b, -exp), exp


def _unit_columns(y):
    """Each column of y over its 2-norm, taken after scaling the column
    exactly by a power of two to max |entry| in [1/2, 1): the bits of
    y / |y| wherever no square under- or overflows.  A zero column stays 0."""
    y = np.ldexp(y, -np.frexp(np.abs(y).max(axis=0))[1])
    norms = np.linalg.norm(y, axis=0)
    return y / np.where(norms > 0.0, norms, 1.0)


def _start_values(b, y):
    """x = (B y)_+ / |.| for every start (column of y), and x.T B y."""
    by = b @ y
    x = _unit_columns(np.maximum(by, 0.0))
    return x, np.einsum("ik,ik->k", x, by)


def _top_pair(b):
    """Top singular pair (u, s, v) of a non-empty block B: v from eigh of
    B.T B (B B.T if B is wide; Golub & Van Loan, sec. 8.6), s = |B v|, u =
    B v / s, on ``_scaled`` B.  A zero block gives s = 0, unit u, v.  An
    eigensolve that fails to converge raises ArithmeticError."""
    if b.shape[0] < b.shape[1]:
        return _top_pair(b.T)[::-1]
    b, exp = _scaled(b)
    try:
        v = np.linalg.eigh(b.T @ b)[1][:, -1]
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(*exc.args) from exc
    u = b @ v
    s = float(np.linalg.norm(u))
    return (u / s if s else np.eye(1, u.size)[0]), math.ldexp(s, exp), v


def _support_finish(b, x, y, values):
    """B's top singular pair on the best start's p x q support (x > 0,
    y > 0), zero-padded, with its value; None unless it is > 0 there, no
    gradient off it is positive (KKT), and the value reaches every start's
    within (p + q) eps relative, a slack for ``_top_pair``'s rounding."""
    best = int(np.argmax(values))
    rows, cols = x[:, best] > 0.0, y[:, best] > 0.0
    u, s, v = _top_pair(b[np.ix_(rows, cols)])
    u, v = (u, v) if u[0] > 0.0 else (-u, -v)
    slack = 1.0 - (u.size + v.size) * np.finfo(float).eps
    if u.min() <= 0.0 or v.min() <= 0.0 or s < values.max() * slack:
        return None
    x_full, y_full = np.zeros(b.shape[0]), np.zeros(b.shape[1])
    x_full[rows], y_full[cols] = u, v
    if np.any((b @ y_full)[~rows] > 0.0) or np.any((b.T @ x_full)[~cols] > 0.0):
        return None
    return x_full, y_full, s


def _max_quadform_nonneg(block):
    b, exp = _scaled(block)
    v = np.zeros(sum(b.shape))
    if not np.any(b > 0.0):
        # every feasible x.T B y is <= 0, and a unit vector on one parity gives 0
        v[0], lam = 1.0, 0.0
    else:
        # y starts, one per column: the uniform vector, the clipped +/- top
        # right singular vector, and (B.T e_i)_+ for every even index i; a
        # start with (B y)_+ = 0 cannot reach a positive value
        top = _top_pair(b)[2]
        y = np.maximum(np.column_stack([np.ones(b.shape[1]), top, -top, b.T]), 0.0)
        y = _unit_columns(y[:, np.any(b @ y > 0.0, axis=0)])
        finish = None
        # A step column whose squares all underflow has norm 0, and the step
        # comes out nan or inf; only then is the step normalised again, by
        # _unit_columns, so in range no step pays for that check.
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(1, _POWER_STEPS + 1):
                # (B y)_+ is positively homogeneous in y, so x needs no norm here
                y_raw = np.maximum(b.T @ np.maximum(b @ y, 0.0), 0.0)
                y_next = y_raw / np.linalg.norm(y_raw, axis=0)
                step = np.abs(y_next - y).max()
                if not step <= 1.0:  # nan or inf; unit columns >= 0 differ by <= 1
                    y_next = _unit_columns(y_raw)
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
        lam = math.ldexp(lam, exp)
    res = _residual(block, v, lam, nonnegative=True)
    if res > 1e-8:
        raise ArithmeticError(f"constrained maximizer not stationary (residual {res:.3e})")
    return lam, v


def _solve_block(b, constraint=None):
    """``max_eigenpair`` from B = M[0::2, 1::2] alone: no check, no M."""
    if constraint == "nonnegative":
        return _max_quadform_nonneg(b)
    if constraint is not None:
        raise ValueError(f"unknown constraint: {constraint!r}")
    if not b.shape[1]:
        raise ValueError("the unconstrained solve needs dimension >= 2")
    x, lam, y = _top_pair(b)
    v = np.empty(sum(b.shape))
    v[0::2], v[1::2] = x, y
    v = _canonical_sign(v / math.sqrt(2.0))
    residual = _residual(b, v, lam)
    if residual > 1e-10 * max(1.0, lam):
        raise ArithmeticError(f"eigenpair residual too large: {residual:.3e}")
    return lam, v


def max_eigenpair(matrix, constraint=None):
    """Largest eigenvalue and unit eigenvector of a real symmetric matrix
    that couples only even with odd indices, M = [[0, B], [B.T, 0]] with
    B = M[0::2, 1::2], as every Bell matrix does; any other raises ValueError.
    Then ``_solve_block`` solves B alone, as the optimizer does.

    The spectrum is +/- the singular values of B plus zeros, so B's top
    singular pair (``_top_pair``) gives s and v = (x, y) / sqrt(2),
    interleaved (M needs dimension >= 2), its first non-negligible component
    positive; an eigen residual |M v - s v|, M v read from B as (B y, B.T x),
    above 1e-10 max(1, s) raises ArithmeticError.

    With ``constraint="nonnegative"`` v.T M v is maximized over non-negative
    unit vectors instead: max x.T B y over non-negative unit x and y, by
    alternating power steps x <- (B y)_+ / |.|, y <- (B.T x)_+ / |.|
    (non-negative PCA; Montanari & Richard, IEEE Trans. IT 62, 2016), which
    never decrease x.T B y, from fixed starts; the best wins.  Every 10
    steps ``_support_finish`` may end them with the top singular pair of B
    on the best start's support (a heuristic: a start still climbing could
    later end higher); else they stop once no component of any start's y
    moves by more than 1e-14, or after 1,000 steps.  The steps run on
    ``_scaled`` B, so no square over- or underflows at any scale of M (the
    same bits wherever none did), and the value is scaled back.  The value is
    a feasible lower bound; a KKT residual above 1e-8, on M itself, raises
    ArithmeticError, as does an eigensolve that does not converge (numpy's
    LinAlgError, turned into one in ``_top_pair``).
    """
    return _solve_block(_check_bipartite(matrix)[0::2, 1::2], constraint)
