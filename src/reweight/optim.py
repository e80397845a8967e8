"""Reweighted gradient descent and heavy-ball momentum.

The update is theta' = theta - eta * sum_i w_i g_i with weights from the
core module. The momentum variant keeps the auxiliary sequence
z' = z - eta * sum_i w_i g_i and mixes theta' = (lam/(1+lam)) theta +
(1/(1+lam)) z', with the default schedule lam_{t+1} = (t+1)/2.
run_training drives either update over a problem suite, sampling batches
without replacement per epoch, and records full per-step diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import ConfigError, ReweightConfig, ValidationError, compute_batch_weights, schedule_r
from .diagnostics import StepDiagnostics, delta_t, grad_gap_term, mu_t

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
    if not np.all(np.isfinite(theta)):
        raise DivergenceError(state.step)
    return replace(state, theta=theta, step=state.step + 1)


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
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(z))):
        raise DivergenceError(state.step)
    return OptimizerState(theta=theta, z=z, step=state.step + 1, eta=state.eta)


@dataclass
class Trajectory:
    """Recorded run: per-step diagnostics, the iterate history (theta^0 ..
    theta^T), the raw batch data needed to recompute theory terms, and the
    divergence flag."""

    records: list[StepDiagnostics]
    thetas: np.ndarray  # (T+1, d)
    batch_indices: list[np.ndarray]
    batch_losses: list[np.ndarray]
    batch_weights: list[np.ndarray]
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
    """
    if batch_size < 1 or batch_size > problem.n_samples:
        raise ConfigError("batch_size must be in [1, n_samples]")
    if steps < 0:
        raise ConfigError("steps must be nonnegative")

    cap_bound = reweight_config.cap if reweight_config.cap is not None else 2.0 / batch_size
    eta = theory_stepsize(stepsize, w_max=cap_bound, batch=batch_size)

    rng = np.random.default_rng(seed)
    theta0 = problem.theta_init()
    state = OptimizerState(
        theta=theta0, z=theta0.copy() if momentum else None, step=0, eta=eta
    )

    has_opt_losses = hasattr(problem, "losses_at_opt")
    has_test = hasattr(problem, "test_loss")
    theta_star = getattr(problem, "theta_star", None)

    records: list[StepDiagnostics] = []
    thetas = [theta0.copy()]
    batch_indices: list[np.ndarray] = []
    batch_losses: list[np.ndarray] = []
    batch_weights: list[np.ndarray] = []
    diverged = False
    divergence_step = None

    order = rng.permutation(problem.n_samples)
    pos = 0
    prev_theta = None

    def next_batch():
        nonlocal order, pos
        if pos + batch_size > problem.n_samples:
            order = rng.permutation(problem.n_samples)
            pos = 0
        idx = order[pos : pos + batch_size]
        pos += batch_size
        return idx

    def record_step(t, idx, f, w, r_value):
        test = problem.test_loss(state.theta) if has_test else None
        delta = None
        if has_opt_losses:
            delta = delta_t(f, problem.losses_at_opt(idx), w)
        mu = None
        if prev_theta is not None:
            mu = mu_t(f, problem.losses(prev_theta, idx), w)
        g = problem.grads(state.theta, idx)
        gap = grad_gap_term((g**2).sum(axis=1), w)
        dist = None
        if theta_star is not None:
            dist = float(np.sum((state.theta - theta_star) ** 2))
        records.append(
            StepDiagnostics(
                step=t,
                train_loss=float(f.mean()),
                test_loss=test,
                r=r_value,
                w_max=float(w.max()),
                w_min=float(w.min()),
                delta=delta,
                mu=mu,
                grad_gap=gap,
                theta_dist_sq=dist,
            )
        )
        batch_indices.append(idx.copy())
        batch_losses.append(f.copy())
        batch_weights.append(w.copy())
        return g

    for t in range(steps):
        idx = next_batch()
        f = problem.losses(state.theta, idx)
        if not np.all(np.isfinite(f)) or f.max() > DIVERGENCE_LOSS:
            diverged = True
            divergence_step = t
            break
        r_value = schedule_r(t, reweight_config.schedule)
        w = compute_batch_weights(f, reweight_config, t)
        if stepsize.kind == "convex_theory":
            _check_theory_w_max(float(w.max()), batch_size, f"step {t}: observed ")
        g = record_step(t, idx, f, w, r_value)
        prev = state.theta
        try:
            if momentum:
                state = momentum_step(state, g, w, lambda_next=(t + 1) / 2.0)
            else:
                state = gd_step(state, g, w)
        except DivergenceError as exc:
            diverged = True
            divergence_step = exc.step
            break
        prev_theta = prev
        thetas.append(state.theta.copy())

    if steps == 0:
        # Initial evaluation only: one record, no update applied.
        idx = next_batch()
        f = problem.losses(state.theta, idx)
        r_value = schedule_r(0, reweight_config.schedule)
        w = compute_batch_weights(f, reweight_config, 0)
        record_step(0, idx, f, w, r_value)

    traj = Trajectory(
        records=records,
        thetas=np.array(thetas),
        batch_indices=batch_indices,
        batch_losses=batch_losses,
        batch_weights=batch_weights,
        diverged=diverged,
        divergence_step=divergence_step,
    )

    if not has_opt_losses and not diverged:
        _fill_proxy_delta(problem, traj)
    return traj


def _fill_proxy_delta(problem, traj: Trajectory) -> None:
    """Replace missing per-step delta values with a proxy that uses the
    final iterate's per-sample losses in place of the (unknown) optimal
    losses. Marked as proxy on each record."""
    theta_final = traj.final_theta
    for rec, idx, f, w in zip(
        traj.records, traj.batch_indices, traj.batch_losses, traj.batch_weights
    ):
        f_proxy = problem.losses(theta_final, idx)
        rec.delta = delta_t(f, f_proxy, w)
        rec.delta_is_proxy = True
