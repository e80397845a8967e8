"""Independent brute-force verifiers.

The capped-weights oracle minimizes the entropy-regularized linear
objective directly by projected gradient descent over the capped simplex,
deliberately avoiding the production sort-and-threshold closed form so
that agreement between the two is evidence rather than tautology. Also
provides central-difference gradients for checking analytic gradient code.

The projection onto the capped simplex is exact rather than iterative. In
the metric diag(1/scale) it is clip(v - lam * scale, floor, cap), and the
clipped sum is piecewise linear in lam with 2b kinks, so a k-ary search over
the sorted kinks, evaluating the sum at up to _PROBES kinks per numpy call
(one call for 2b <= _PROBES, about log_64(2b) in general), brackets the root
on one linear piece, which is solved in closed form (the sort-based
capped-simplex projection of Wang & Lu 2015 and Duchi et al. 2008).

Both work on stacks of rows: the oracle solves an (R, b) stack of instances
in lockstep, and the projection projects each row of an (R, b) stack with
its own scale. A lone instance is the one-row stack, and every row of a
stacked call is bit for bit the call on that row alone: each step is
elementwise or a sum along the row, and the objective's dot product is a
row-wise einsum rather than BLAS, whose summation order differs. The line
search tries the full step first and evaluates the rest of its halving
ladder in one stacked projection, then takes each row's first improving
step, which is the step a one-at-a-time backtracking search would take.
"""

from __future__ import annotations

import numpy as np

from .core import _cap_error, _check_r

__all__ = [
    "project_capped_simplex",
    "brute_force_optimal_weights",
    "kkt_residual",
    "finite_diff_grad",
]

_W_FLOOR = 1e-10  # lower box bound; avoids log(0) and unbounded gradients

# Kinks at which one search round evaluates the clipped sum of a row, and
# the coordinates a round evaluates over a block of rows (at least one row,
# a (_PROBES, b) array).
_PROBES = 64
_ROUND_SIZE = 1 << 13

# The backtracking line search's steps 1, 1/2, ..., 2**-53: every halving
# of 1 above 1e-16, each exact.
_HALVINGS = np.array([2.0 ** -k for k in range(54)])


def project_capped_simplex(v, cap: float, floor: float = 0.0, scale=1.0) -> np.ndarray:
    """Projection onto {w : floor <= w_i <= cap, sum w = 1} in the diagonal
    metric diag(1/scale); the default scale = 1 is the Euclidean projection.
    Every entry of scale must be positive.

    v is one point (b,) or a stack of rows (R, b), each projected on its
    own; scale broadcasts against v, so each row may have its own metric.
    The projection is clip(v - lam * scale, floor, cap) for the shift lam
    that makes the coordinates sum to one. That sum is nonincreasing and
    piecewise linear in lam, with kinks where a coordinate leaves the cap,
    (v - cap) / scale, and where it reaches the floor, (v - floor) / scale.
    Each round of the search evaluates that sum at up to _PROBES evenly
    spaced kinks of every row in one call and keeps each row's first
    adjacent pair where it drops below one; the bracketing piece is then
    solved exactly. Rows are searched in blocks of about _ROUND_SIZE
    evaluated coordinates per round, so memory stays linear in R and b.
    """
    v = np.asarray(v, dtype=float)
    b = v.shape[-1]
    if error := _cap_error(cap, b):
        raise error
    rows = v.reshape(-1, b)
    scale = np.broadcast_to(np.asarray(scale, dtype=float), v.shape).reshape(-1, b)
    out = np.empty_like(rows)
    block = max(1, _ROUND_SIZE // (min(_PROBES, 2 * b) * b))
    for i in range(0, len(rows), block):
        out[i:i + block] = _project_rows(rows[i:i + block], cap, floor, scale[i:i + block])
    return out.reshape(v.shape)


def _project_rows(v, cap, floor, scale):
    """project_capped_simplex of an (R, b) stack with an (R, b) scale."""
    kinks = np.sort(np.concatenate(((v - cap) / scale, (v - floor) / scale), axis=1), axis=1)
    at = np.arange(len(v))

    # Invariant per row: sum(kinks[lo]) >= 1 > sum(kinks[hi]), except that
    # lo may stay 0 and hi may stay at the last kink. The sum is
    # nonincreasing in the kink index in floating point too (every rounding
    # step is monotone), so counting the interior probes whose sum is >= 1
    # finds the first probe below one. A row probes num kinks, both ends
    # included; its probe columns past num repeat hi and are not counted. A
    # bracketed row (hi - lo == 1) probes just lo and hi, so it stays put.
    lo = np.zeros(len(v), dtype=np.intp)
    hi = np.full(len(v), kinks.shape[1] - 1)
    while True:
        num = np.minimum(_PROBES, hi - lo + 1)[:, None]
        col = np.arange(num.max())
        probe = lo[:, None] + np.minimum(col, num - 1) * (hi - lo)[:, None] // (num - 1)
        shifted = kinks[at[:, None], probe][..., None] * scale[:, None]
        np.subtract(v[:, None], shifted, out=shifted)
        sums = np.clip(shifted, floor, cap, out=shifted).sum(axis=-1)
        interior = (col >= 1) & (col <= num - 2)
        p = 1 + np.count_nonzero(interior & (sums >= 1.0), axis=1)
        lo, hi = probe[at, p - 1], probe[at, p]
        if (hi - lo == 1).all():
            break
    s_lo, s_hi = sums[at, p - 1], sums[at, p]
    lam = kinks[at, lo]
    # On a flat piece (floor == cap) every lam is a root, and lam stays.
    slope = s_lo > s_hi
    lam = np.where(slope, lam + (s_lo - 1.0) / np.where(slope, s_lo - s_hi, 1.0)
                   * (kinks[at, hi] - lam), lam)
    return np.clip(v - lam[:, None] * scale, floor, cap)


def _objective(w, gaps, r):
    """-sum w_i gap_i + r sum w_i log w_i of each row of w; r is a scalar or
    one per row."""
    wl = np.where(w > 0, w * np.log(np.maximum(w, 1e-300)), 0.0)
    return -np.einsum("...i,...i->...", w, gaps) + r * wl.sum(axis=-1)


def _line_search(w, obj, gaps, r, grad, rows, steps, metric, cap):
    """The backtracking line search of the given rows of a stack, with every
    step evaluated in one call.

    Row i tries the candidates project(w_i - steps[j, k] * grad_i) in the
    metric metric[j, k], where j is its place in rows, and takes the first
    k whose objective is lower, as a search that tries one step at a time
    would. A NaN step gives a NaN candidate, which is never taken. Writes
    the taken candidates into w and obj; returns the rows with none.
    """
    cand = project_capped_simplex(w[rows, None] - steps * grad[rows, None], cap, _W_FLOOR,
                                  metric).reshape(len(rows), steps.shape[1], -1)
    cand_obj = _objective(cand, gaps[rows, None], r[rows, None])
    improving = cand_obj < obj[rows, None] - 1e-18
    ok = np.flatnonzero(improving.any(axis=1))
    first = improving[ok].argmax(axis=1)
    w[rows[ok]], obj[rows[ok]] = cand[ok, first], cand_obj[ok, first]
    return np.delete(rows, ok)


def brute_force_optimal_weights(gaps, r, cap: float) -> np.ndarray:
    """Minimize -sum w_i gap_i + r sum w_i log w_i over the capped simplex.

    gaps is one instance (b,) with a scalar r, or a stack of instances
    (R, b) with r a scalar or one temperature per row; the stack's rows are
    solved in lockstep, each bit for bit as it would be alone.

    Projected descent from the uniform point with a backtracking line
    search. The feasible set is floored at 1e-10 per coordinate, which is
    within every tolerance of interest and keeps log(w) bounded. Each step
    scales the gradient by the inverse diagonal Hessian w/r and projects in
    that same metric (projected Newton), falling back to a plain Euclidean
    gradient step when no halving of the Newton step improves. A row stops
    when its projected-gradient residual is below 1e-9 or no improving
    step exists.
    """
    gaps = np.asarray(gaps, dtype=float)
    b = gaps.shape[-1]
    rows = gaps.reshape(-1, b)
    r = np.broadcast_to(np.asarray(r, dtype=float), len(rows))
    _check_r(r)

    w = np.full(rows.shape, 1.0 / b)
    obj = _objective(w, rows, r)
    live = np.arange(len(rows))
    probe = 1e-4
    for _ in range(200):
        wl = w[live]
        grad = -rows[live] + r[live, None] * (1.0 + np.log(wl))
        moved = np.abs(project_capped_simplex(wl - probe * grad, cap, _W_FLOOR) - wl).max(axis=1)
        go = ~(moved / probe < 1e-9)
        live, wl, grad = live[go], wl[go], grad[go]
        if not live.size:
            break
        objl, gl, rl = obj[live], rows[live], r[live]
        # Newton steps in the scaled metric: the full step for every row,
        # then the rest of the ladder for the rows it did not improve.
        scale = wl / rl[:, None]
        rest = _line_search(wl, objl, gl, rl, grad, np.arange(len(live)), scale[:, None],
                            scale[:, None], cap)
        if rest.size:
            newton = _HALVINGS[1:, None] * scale[rest, None]
            rest = _line_search(wl, objl, gl, rl, grad, rest, newton, newton, cap)
        # Euclidean fallback: steps from 1/|grad|_inf, halved while
        # step * |grad|_inf stays above 1e-16.
        if rest.size:
            norm = np.abs(grad[rest]).max(axis=1)[:, None]
            euclid = 1.0 / np.where(norm > 0, norm, np.inf) * _HALVINGS
            euclid[~(euclid * norm > 1e-16)] = np.nan
            rest = _line_search(wl, objl, gl, rl, grad, rest, euclid[..., None], 1.0, cap)
        w[live], obj[live] = wl, objl
        live = np.delete(live, rest)
    return w.reshape(gaps.shape)


def kkt_residual(w, gaps, r: float, cap: float) -> float:
    """Stationarity check for the capped-weights problem.

    On the interior (non-binding) coordinates, -gap_i + r (1 + log w_i) must
    be a common constant; returns the max deviation from its mean. A w or
    gaps with a non-finite entry has no residual: the result is NaN, as no
    coordinate of an all-NaN w would count as interior.
    """
    w = np.asarray(w, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if not (np.isfinite(w).all() and np.isfinite(gaps).all()):
        return float("nan")
    interior = (w > 1e-12) & (w < cap - 1e-12)
    if interior.sum() < 2:
        return 0.0
    station = -gaps[interior] + r * (1.0 + np.log(w[interior]))
    return float(np.abs(station - station.mean()).max())


def finite_diff_grad(loss_fn, theta) -> np.ndarray:
    """Central finite differences: (f(x + e) - f(x - e)) / (2 e) per
    coordinate, with e = 1e-6.

    theta may be a stack of points (..., d) for a loss_fn that returns one
    loss per point; each round moves coordinate j of every point at once.
    """
    epsilon = 1e-6
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for j in range(theta.shape[-1]):
        tp = theta.copy()
        tm = theta.copy()
        tp[..., j] += epsilon
        tm[..., j] -= epsilon
        grad[..., j] = (loss_fn(tp) - loss_fn(tm)) / (2.0 * epsilon)
    return grad
