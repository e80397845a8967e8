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
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError

__all__ = [
    "project_capped_simplex",
    "brute_force_optimal_weights",
    "kkt_residual",
    "finite_diff_grad",
]

_W_FLOOR = 1e-10  # lower box bound; avoids log(0) and unbounded gradients

# Kinks at which one search round evaluates the clipped sum; a round holds
# a (_PROBES, b) array.
_PROBES = 64


def project_capped_simplex(v, cap: float, floor: float = 0.0, scale=1.0) -> np.ndarray:
    """Projection onto {w : floor <= w_i <= cap, sum w = 1} in the diagonal
    metric diag(1/scale); the default scale = 1 is the Euclidean projection.
    Every entry of scale must be positive.

    The projection is clip(v - lam * scale, floor, cap) for the shift lam
    that makes the coordinates sum to one. That sum is nonincreasing and
    piecewise linear in lam, with kinks where a coordinate leaves the cap,
    (v - cap) / scale, and where it reaches the floor, (v - floor) / scale.
    Each round of the search evaluates that sum at up to _PROBES evenly
    spaced kinks in one call and keeps the first adjacent pair where it drops
    below one; the bracketing piece is then solved exactly.
    """
    v = np.asarray(v, dtype=float)
    b = v.size
    if cap * b < 1.0 - 1e-12:
        raise ConfigError(f"infeasible cap: cap*b = {cap * b:.6g} < 1")
    scale = np.asarray(scale, dtype=float)
    kinks = np.sort(np.concatenate(((v - cap) / scale, (v - floor) / scale)))

    # Invariant: sum(kinks[lo]) >= 1 > sum(kinks[hi]), except that lo may
    # stay 0 and hi may stay at the last kink. The sum is nonincreasing in
    # the kink index in floating point too (every rounding step is monotone),
    # so counting the interior probes whose sum is >= 1 finds the first probe
    # below one.
    lo, hi = 0, kinks.size - 1
    while True:
        num = min(_PROBES, hi - lo + 1)
        probe = lo + np.arange(num) * (hi - lo) // (num - 1)
        sums = np.clip(v - kinks[probe, None] * scale, floor, cap).sum(axis=1)
        p = 1 + np.count_nonzero(sums[1:-1] >= 1.0)
        lo, hi = probe[p - 1], probe[p]
        if hi - lo == 1:
            break
    s_lo, s_hi = sums[p - 1], sums[p]
    lam = kinks[lo]
    if s_lo > s_hi:  # on a flat piece (floor == cap) every lam is a root
        lam += (s_lo - 1.0) / (s_lo - s_hi) * (kinks[hi] - kinks[lo])
    return np.clip(v - lam * scale, floor, cap)


def _objective(w, gaps, r):
    wl = np.where(w > 0, w * np.log(np.maximum(w, 1e-300)), 0.0)
    return float(-(w @ gaps) + r * wl.sum())


def brute_force_optimal_weights(gaps, r: float, cap: float, tol: float = 1e-9) -> np.ndarray:
    """Minimize -sum w_i gap_i + r sum w_i log w_i over the capped simplex.

    Projected descent from the uniform point with a backtracking line
    search. The feasible set is floored at 1e-10 per coordinate, which is
    within every tolerance of interest and keeps log(w) bounded. Each step
    scales the gradient by the inverse diagonal Hessian w/r and projects in
    that same metric (projected Newton), falling back to a plain Euclidean
    gradient step when the Newton step fails to improve. Stops when the
    projected-gradient residual is below `tol` or no improving step exists.
    """
    gaps = np.asarray(gaps, dtype=float)
    b = gaps.size
    if r <= 0:
        raise ConfigError("temperature r must be positive")
    if cap * b < 1.0 - 1e-12:
        raise ConfigError(f"infeasible cap: cap*b = {cap * b:.6g} < 1")

    w = np.full(b, 1.0 / b)
    obj = _objective(w, gaps, r)
    probe = 1e-4
    for _ in range(200):
        grad = -gaps + r * (1.0 + np.log(w))
        moved = np.abs(project_capped_simplex(w - probe * grad, cap, _W_FLOOR) - w).max()
        if moved / probe < tol:
            break
        improved = False
        # Newton step in the scaled metric, then Euclidean fallback.
        scale = w / r
        step = 1.0
        while step > 1e-16:
            cand = project_capped_simplex(w - step * scale * grad, cap, _W_FLOOR, step * scale)
            cand_obj = _objective(cand, gaps, r)
            if cand_obj < obj - 1e-18:
                improved = True
                break
            step *= 0.5
        if not improved:
            norm = np.abs(grad).max()
            step = 1.0 / norm if norm > 0 else 0.0
            while step * norm > 1e-16:
                cand = project_capped_simplex(w - step * grad, cap, _W_FLOOR)
                cand_obj = _objective(cand, gaps, r)
                if cand_obj < obj - 1e-18:
                    improved = True
                    break
                step *= 0.5
        if not improved:
            break
        w, obj = cand, cand_obj
    return w


def kkt_residual(w, gaps, r: float, cap: float) -> float:
    """Stationarity check for the capped-weights problem.

    On the interior (non-binding) coordinates, -gap_i + r (1 + log w_i) must
    be a common constant; returns the max deviation from its mean.
    """
    w = np.asarray(w, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    interior = (w > 1e-12) & (w < cap - 1e-12)
    if interior.sum() < 2:
        return 0.0
    station = -gaps[interior] + r * (1.0 + np.log(w[interior]))
    return float(np.abs(station - station.mean()).max())


def finite_diff_grad(loss_fn, theta, epsilon: float = 1e-6) -> np.ndarray:
    """Central finite differences: (f(x + e) - f(x - e)) / (2 eps) per coordinate.

    theta may be a stack of points (..., d) for a loss_fn that returns one
    loss per point; each round moves coordinate j of every point at once.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for j in range(theta.shape[-1]):
        tp = theta.copy()
        tm = theta.copy()
        tp[..., j] += epsilon
        tm[..., j] -= epsilon
        grad[..., j] = (loss_fn(tp) - loss_fn(tm)) / (2.0 * epsilon)
    return grad
