"""Reweighted gradient descent and heavy-ball momentum.

The update is theta' = theta - eta * sum_i w_i g_i with weights from the
core module. The momentum variant keeps the auxiliary sequence
z' = z - eta * sum_i w_i g_i and mixes theta' = (lam/(1+lam)) theta +
(1/(1+lam)) z', with the default schedule lam_{t+1} = (t+1)/2.
run_training drives either update over a problem suite, sampling batches
without replacement per epoch, and records full per-step diagnostics.

Each step evaluates the problem once, through its fused
loss_grad(theta, idx), plus one losses call at the previous iterate for
mu_t. The step's diagnostics are computed from those arrays as scalars,
the batch histories and iterates go into preallocated (T, b) and (T+1, d)
arrays (trimmed to the recorded length on divergence), and the records are
built once at the end. Where a problem has no optimal losses, the proxy
delta_t comes from one losses call at the final iterate over all samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, ReweightConfig, ValidationError, compute_batch_weights, schedule_r
from .diagnostics import StepDiagnostics, gap_sum

__all__ = [
    "OptimizerState",
    "StepSizeRule",
    "DivergenceError",
    "Trajectory",
    "gd_step",
    "momentum_step",
    "theory_stepsize",
    "run_training",
]

DIVERGENCE_LOSS = 1e12


class DivergenceError(RuntimeError):
    """Non-finite iterate or loss; carries the step at which it happened."""

    def __init__(self, step: int, message: str = ""):
        super().__init__(message or f"divergence detected at step {step}")
        self.step = step


@dataclass(frozen=True)
class OptimizerState:
    theta: np.ndarray
    z: np.ndarray | None
    step: int
    eta: float


@dataclass(frozen=True)
class StepSizeRule:
    """Step size selection.

    fixed: use eta as given. convex_theory: eta = 1/(8L), valid when the
    max weight stays <= 2/M. sqrt_horizon: eta = 1/(8L sqrt(T)) for a known
    horizon T.
    """

    kind: str = "fixed"
    eta: float = 0.01
    L: float = 1.0
    horizon_T: int = 1

    def __post_init__(self):
        if self.kind not in ("fixed", "convex_theory", "sqrt_horizon"):
            raise ConfigError(f"unknown step-size rule {self.kind!r}")
        if self.kind == "fixed" and self.eta <= 0:
            raise ConfigError("eta must be positive")
        if self.kind != "fixed" and self.L <= 0:
            raise ConfigError("smoothness constant L must be positive")
        if self.kind == "sqrt_horizon" and self.horizon_T < 1:
            raise ConfigError("horizon_T must be >= 1")


def theory_stepsize(rule: StepSizeRule, w_max: float | None = None, batch: int | None = None) -> float:
    """Resolve a StepSizeRule to a concrete eta.

    Under convex_theory the returned 1/(8L) must satisfy
    eta <= 1/(4 * batch * L * w_max); this holds exactly when w_max <= 2/batch
    and is enforced when (w_max, batch) are supplied.
    """
    if rule.kind == "fixed":
        return rule.eta
    if rule.kind == "convex_theory":
        if w_max is not None and batch is not None:
            _check_theory_w_max(w_max, batch)
        return 1.0 / (8.0 * rule.L)
    return 1.0 / (8.0 * rule.L * np.sqrt(rule.horizon_T))


def _check_theory_w_max(w_max: float, batch: int, where: str = "") -> None:
    if w_max > 2.0 / batch + 1e-12:
        raise ConfigError(
            f"{where}w_max = {w_max:.6g} exceeds 2/b = {2.0 / batch:.6g}; "
            "the convex-theory step size requires w_max <= 2/b"
        )


def _weighted_grad(gradients, weights) -> np.ndarray:
    g = np.asarray(gradients, dtype=float)
    w = np.asarray(weights, dtype=float)
    if g.ndim != 2 or g.shape[0] != w.size:
        raise ValidationError("gradients must be (b, d) matching the weights")
    return w @ g


def gd_step(state: OptimizerState, gradients, weights) -> OptimizerState:
    """theta' = theta - eta * sum_i w_i g_i."""
    update = _weighted_grad(gradients, weights)
    theta = state.theta - state.eta * update
    if not np.isfinite(theta).all():
        raise DivergenceError(state.step)
    return OptimizerState(theta=theta, z=state.z, step=state.step + 1, eta=state.eta)


def momentum_step(state: OptimizerState, gradients, weights, lambda_next: float) -> OptimizerState:
    """Heavy-ball update in (z, theta) form.

    z' = z - eta * sum_i w_i g_i;
    theta' = lam/(1+lam) * theta + 1/(1+lam) * z'  with lam = lambda_next.
    """
    if state.z is None:
        raise ValidationError("momentum_step requires state.z (initialize z = theta)")
    if lambda_next < 0:
        raise ConfigError("lambda_next must be nonnegative")
    update = _weighted_grad(gradients, weights)
    z = state.z - state.eta * update
    theta = (lambda_next / (1.0 + lambda_next)) * state.theta + z / (1.0 + lambda_next)
    if not (np.isfinite(theta).all() and np.isfinite(z).all()):
        raise DivergenceError(state.step)
    return OptimizerState(theta=theta, z=z, step=state.step + 1, eta=state.eta)


@dataclass
class Trajectory:
    """Recorded run: per-step diagnostics, the iterate history (theta^0 ..
    theta^T), the raw batch data needed to recompute theory terms (one row
    per recorded step), and the divergence flag."""

    records: list[StepDiagnostics]
    thetas: np.ndarray  # (T+1, d)
    batch_indices: np.ndarray  # (T, b)
    batch_losses: np.ndarray  # (T, b)
    batch_weights: np.ndarray  # (T, b)
    diverged: bool = False
    divergence_step: int | None = None

    @property
    def final_theta(self) -> np.ndarray:
        return self.thetas[-1]

    def averaged_theta(self, T: int | None = None) -> np.ndarray:
        """Mean of theta^0 .. theta^{T-1}."""
        T = len(self.thetas) - 1 if T is None else T
        return self.thetas[:T].mean(axis=0)


def run_training(
    problem,
    reweight_config: ReweightConfig,
    stepsize: StepSizeRule,
    batch_size: int,
    steps: int,
    seed: int = 0,
    momentum: bool = False,
) -> Trajectory:
    """Full reweighted training loop.

    Samples batches without replacement within an epoch (reshuffled per
    epoch, seeded), computes weights from the batch losses, and applies the
    (momentum-)reweighted update. Deterministic given the seed. A non-finite
    or huge loss stops the run and marks the trajectory diverged instead of
    raising. Under the convex_theory step size, a step whose observed max
    weight exceeds 2/b raises ConfigError before the update is applied.
    With steps = 0 the run records the initial evaluation only, and neither
    check applies because no update is taken.
    """
    n = problem.n_samples
    if batch_size < 1 or batch_size > n:
        raise ConfigError("batch_size must be in [1, n_samples]")
    if steps < 0:
        raise ConfigError("steps must be nonnegative")

    cap_bound = reweight_config.cap if reweight_config.cap is not None else 2.0 / batch_size
    eta = theory_stepsize(stepsize, w_max=cap_bound, batch=batch_size)
    updating = steps > 0
    check_w_max = updating and stepsize.kind == "convex_theory"

    rng = np.random.default_rng(seed)
    theta0 = problem.theta_init()
    state = OptimizerState(
        theta=theta0, z=theta0.copy() if momentum else None, step=0, eta=eta
    )

    losses_at_opt = getattr(problem, "losses_at_opt", None)
    test_loss = getattr(problem, "test_loss", None)
    theta_star = getattr(problem, "theta_star", None)
    schedule = reweight_config.schedule
    inv_b = 1.0 / batch_size

    order = rng.permutation(n)
    pos = 0
    rows = max(steps, 1)
    thetas = np.empty((steps + 1, theta0.size))
    thetas[0] = theta0
    batch_indices = np.empty((rows, batch_size), dtype=order.dtype)
    batch_losses = np.empty((rows, batch_size))
    batch_weights = np.empty((rows, batch_size))
    stats = []  # per step: the StepDiagnostics fields after `step`
    prev_theta = None
    diverged = False
    divergence_step = None

    for t in range(rows):
        if pos + batch_size > n:
            order = rng.permutation(n)
            pos = 0
        idx = order[pos : pos + batch_size]
        pos += batch_size
        theta = state.theta
        f, g = problem.loss_grad(theta, idx)
        if updating and (not np.isfinite(f).all() or f.max() > DIVERGENCE_LOSS):
            diverged = True
            divergence_step = t
            break
        w = compute_batch_weights(f, reweight_config, t)
        w_max = float(w.max())
        if check_w_max:
            _check_theory_w_max(w_max, batch_size, f"step {t}: observed ")
        u = inv_b - w
        stats.append((
            float(f.sum() / batch_size),  # f.mean() without its overhead
            test_loss(theta) if test_loss else None,
            schedule_r(t, schedule),
            w_max,
            float(w.min()),
            gap_sum(u, f - losses_at_opt(idx)) if losses_at_opt else None,
            None if prev_theta is None else gap_sum(u, f - problem.losses(prev_theta, idx)),
            gap_sum(u, (g**2).sum(axis=1)),
            None if theta_star is None else float(np.sum((theta - theta_star) ** 2)),
        ))
        batch_indices[t] = idx
        batch_losses[t] = f
        batch_weights[t] = w
        if not updating:
            break
        try:
            if momentum:
                state = momentum_step(state, g, w, lambda_next=(t + 1) / 2.0)
            else:
                state = gd_step(state, g, w)
        except DivergenceError as exc:
            diverged = True
            divergence_step = exc.step
            break
        prev_theta = theta
        thetas[t + 1] = state.theta

    recorded = len(stats)
    traj = Trajectory(
        records=[StepDiagnostics(t, *fields) for t, fields in enumerate(stats)],
        thetas=thetas[: state.step + 1],
        batch_indices=batch_indices[:recorded],
        batch_losses=batch_losses[:recorded],
        batch_weights=batch_weights[:recorded],
        diverged=diverged,
        divergence_step=divergence_step,
    )

    if not losses_at_opt and not diverged:
        _fill_proxy_delta(problem, traj)
    return traj


def _fill_proxy_delta(problem, traj: Trajectory) -> None:
    """Fill each step's delta with a proxy that uses the final iterate's
    per-sample losses in place of the (unknown) optimal losses. The final
    iterate's losses over all samples come from one losses call and are
    indexed by the batch history. Marked as proxy on each record."""
    f_final = problem.losses(traj.final_theta, np.arange(problem.n_samples))
    u = 1.0 / traj.batch_weights.shape[1] - traj.batch_weights
    gaps = traj.batch_losses - f_final[traj.batch_indices]
    for rec, delta in zip(traj.records, np.add.reduce(u * gaps, axis=1).tolist()):
        rec.delta = delta
        rec.delta_is_proxy = True
