"""Per-step convergence diagnostics.

delta_t measures how much the weighting deviates from uniform, weighted by
per-sample loss gaps; negative values tighten the convergence bound. mu_t
is the momentum analog comparing consecutive iterates, and grad_gap is the
non-convex analog built on squared gradient norms. theorem1_bound evaluates
the right-hand side of the averaged-iterate bound under interpolation.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "delta_t",
    "mu_t",
    "grad_gap_term",
    "theorem1_bound",
]


def gap_sum(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_i u_i * values_i for u = 1/b - w along the last axis, unchecked:
    a scalar for one batch, one sum per batch for a stack of them. The
    arithmetic of delta_t, mu_t and grad_gap_term; training calls it
    directly, on a block of steps with u computed once per block."""
    return np.add.reduce(u * values, axis=-1)


def _gap_sum(values, weights) -> float:
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape:
        raise ValueError("length mismatch between values and weights")
    return float(gap_sum(1.0 / weights.size - weights, values))


def delta_t(losses_now, losses_at_opt, weights) -> float:
    """sum_i (1/b - w_i) * (f_i(theta) - f_i(theta*)).

    Zero for uniform weights; nonpositive whenever weights are comonotone
    with the loss gaps.
    """
    gaps = np.asarray(losses_now, dtype=float) - np.asarray(losses_at_opt, dtype=float)
    return _gap_sum(gaps, weights)


def mu_t(losses_now, losses_prev, weights) -> float:
    """sum_i (1/b - w_i) * (f_i(theta_t) - f_i(theta_{t-1}))."""
    diffs = np.asarray(losses_now, dtype=float) - np.asarray(losses_prev, dtype=float)
    return _gap_sum(diffs, weights)


def grad_gap_term(grad_norms_sq, weights) -> float:
    """sum_i (1/b - w_i) * ||g_i||^2 for the non-convex bound."""
    sq = np.asarray(grad_norms_sq, dtype=float)
    if np.any(sq < 0):
        raise ValueError("squared gradient norms must be nonnegative")
    return _gap_sum(sq, weights)


def theorem1_bound(L: float, dist0_sq: float, T: int, delta_series) -> float:
    """8 L ||theta0 - theta*||^2 / T + mean(delta series).

    The sigma* term vanishes under zero-minimum interpolation.
    """
    delta_series = np.asarray(delta_series, dtype=float)
    if T < 1 or delta_series.size != T:
        raise ValueError("delta_series must have length T >= 1")
    return 8.0 * L * dist0_sq / T + float(delta_series.mean())
