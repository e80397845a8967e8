"""Reweighted gradient descent and heavy-ball momentum.

The update is theta' = theta - eta * sum_i w_i g_i with weights from the
core module. The momentum variant keeps the auxiliary sequence
z' = z - eta * sum_i w_i g_i and mixes theta' = (lam/(1+lam)) theta +
(1/(1+lam)) z', with the default schedule lam_{t+1} = (t+1)/2. Both are
plain array functions, gd_step(theta, eta, g, w) -> theta' and
momentum_step(theta, z, eta, g, w, lam) -> (theta', z'), on one iterate or
a stack of iterates, one per row.

There is one training loop, run_cells. It trains cells that share a
problem, batch size, step count, step-size rule and momentum flag and
differ in reweighting config and seed, as the rows of one iterate stack:
each step gathers every row's batch, evaluates the problem once through its
fused loss_grad, computes the weights once per distinct config on that
config's contiguous rows, and applies one update. Each row samples its
batches with its own generator, and every row's arithmetic is bit for bit
that of a run on its own. A row whose losses blow up, whose weights fail,
or whose update is not finite leaves the stack; the others go on.
run_training is the one-cell call.

The same loss_grad call also returns the previous iterates' losses on the
step's rows, for mu_t. The diagnostics are computed from those arrays as one
value per row and go into preallocated per-cell column arrays, one per CSV
column in COLUMNS, beside the batch indices and losses; a cell's Trajectory
takes its columns as views of them. Where a problem has no optimal losses,
the proxy delta_t is one array computed at the end, from one losses call at
the final iterate over all samples and the weights recomputed from the
stored losses, _PROXY_BLOCK steps at a time.

Cells run in groups sized so that their histories fit in LOCKSTEP_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, ReweightConfig, ValidationError, compute_batch_weights, schedule_r
from .diagnostics import gap_sum

__all__ = [
    "StepSizeRule",
    "Trajectory",
    "COLUMNS",
    "gd_step",
    "momentum_step",
    "theory_stepsize",
    "cell_bytes",
    "run_cells",
    "run_training",
]

DIVERGENCE_LOSS = 1e12

# History bytes one lockstep group may hold (see cell_bytes). At the sweep_toy
# size (2000 steps, b = 32, n = 4000) a cell holds about 0.77 MB, so a group
# runs 10 cells: two strategies of five seeds.
LOCKSTEP_BYTES = 8 << 20

# Steps of a cell's proxy delta_t computed at a time; a block's temporaries
# are a few b-wide rows of this many steps, not of the whole run.
_PROXY_BLOCK = 256


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
            error = _w_max_error(w_max, batch)
            if error:
                raise error
        return 1.0 / (8.0 * rule.L)
    return 1.0 / (8.0 * rule.L * np.sqrt(rule.horizon_T))


def _w_max_limit(batch: int) -> float:
    """The largest w_max the convex-theory step size allows, 2/b, with
    rounding slack."""
    return 2.0 / batch + 1e-12


def _w_max_error(w_max: float, batch: int, where: str = "") -> ConfigError | None:
    if w_max > _w_max_limit(batch):
        return ConfigError(
            f"{where}w_max = {w_max:.6g} exceeds 2/b = {2.0 / batch:.6g}; "
            "the convex-theory step size requires w_max <= 2/b"
        )
    return None


def _weighted_grad(gradients, weights) -> np.ndarray:
    """sum_i w_i g_i per row: (b,) weights with (b, d) gradients, or (S, b)
    with (S, b, d)."""
    g = np.asarray(gradients, dtype=float)
    w = np.asarray(weights, dtype=float)
    if g.ndim != w.ndim + 1 or g.shape[:-1] != w.shape:
        raise ValidationError("gradients must be (b, d), or (S, b, d), matching the weights")
    return np.matmul(w[..., None, :], g)[..., 0, :]


def gd_step(theta, eta: float, gradients, weights) -> np.ndarray:
    """theta' = theta - eta * sum_i w_i g_i, for one iterate or each row of
    a stack."""
    return theta - eta * _weighted_grad(gradients, weights)


def momentum_step(theta, z, eta: float, gradients, weights, lambda_next: float):
    """Heavy-ball update in (z, theta) form, for one iterate or each row of
    a stack; returns (theta', z').

    z' = z - eta * sum_i w_i g_i;
    theta' = lam/(1+lam) * theta + 1/(1+lam) * z'  with lam = lambda_next.
    """
    if lambda_next < 0:
        raise ConfigError("lambda_next must be nonnegative")
    z = z - eta * _weighted_grad(gradients, weights)
    return (lambda_next / (1.0 + lambda_next)) * theta + z / (1.0 + lambda_next), z


# The CSV columns of a trajectory, in order. A lockstep group keeps one array
# per column but step and r, which follow from the step count and the
# temperature schedule.
COLUMNS = ("step", "train_loss", "test_loss", "r", "w_max", "w_min", "delta_t", "mu_t",
           "grad_gap", "theta_dist_sq")
_KEPT = tuple(name for name in COLUMNS if name not in ("step", "r"))


@dataclass
class Trajectory:
    """Recorded run: the per-step diagnostics as columns, the iterate history
    (theta^0 .. theta^T), the raw batch data needed to recompute theory
    terms (one row per recorded step), and the divergence flag. A cell run
    without history keeps only its final iterate in thetas and no batch
    weights.

    columns maps a name in COLUMNS to an array with one value per recorded
    step. A shorter column holds the last steps: mu_t starts at step 1. A
    column the problem does not define has no key: test_loss without a test
    split, theta_dist_sq without a known minimizer, and delta_t without
    optimal losses on a diverged run. Without optimal losses delta_t is a
    proxy against the final iterate's losses, marked by delta_is_proxy. r
    holds the schedule's own values, ints included.
    """

    columns: dict[str, np.ndarray]
    thetas: np.ndarray  # (T+1, d), or (1, d) without history
    batch_indices: np.ndarray  # (T, b)
    batch_losses: np.ndarray  # (T, b)
    batch_weights: np.ndarray | None  # (T, b)
    diverged: bool = False
    divergence_step: int | None = None
    delta_is_proxy: bool = False

    @property
    def final_theta(self) -> np.ndarray:
        return self.thetas[-1]


def cell_bytes(problem, batch_size: int, steps: int, history: bool = False) -> int:
    """History bytes of one lockstep cell: the batch losses and indices (in
    the smallest integer type that holds a sample index), the column arrays
    a group keeps and the final iterate, plus the iterates and weights with
    history."""
    rows, d = max(steps, 1), problem.dim
    per_row = batch_size * (8 + np.min_scalar_type(problem.n_samples - 1).itemsize)
    per_row += 8 * len(_KEPT)
    extra = 8 * ((steps + 1) * d + rows * batch_size) if history else 0
    return rows * per_row + 8 * d + extra


def run_cells(problem, cells, stepsize: StepSizeRule, batch_size: int, steps: int,
              momentum: bool = False, history: bool = False):
    """Train cells in lockstep and return an iterator over their outcomes.

    cells is a sequence of (ReweightConfig, seed) pairs; the cells share
    everything else. The iterator yields, in cell order, each cell's
    Trajectory, or the ConfigError or ValidationError that stopped it (an
    infeasible cap, or an observed w_max above 2/b under convex_theory).
    Errors common to every cell, such as a bad batch size, are raised here.

    Cells run in groups of LOCKSTEP_BYTES // cell_bytes(...) rows, and a
    group's outcomes are yielded after it finishes. Without history a cell
    keeps only what its columns and proxy delta need, and its batch arrays
    are views of its group's histories: drop each outcome before taking the
    next, and a finished group is freed before the next one starts.
    """
    if batch_size < 1 or batch_size > problem.n_samples:
        raise ConfigError("batch_size must be in [1, n_samples]")
    if steps < 0:
        raise ConfigError("steps must be nonnegative")
    eta = theory_stepsize(stepsize)
    size = max(1, LOCKSTEP_BYTES // cell_bytes(problem, batch_size, steps, history))
    return _run_groups(list(cells), size, problem, stepsize, eta, batch_size, steps,
                       momentum, history)


def _run_groups(cells, size, *args):
    # Only the running group's generator refers to it, so a group's
    # histories are freed before the next group allocates its own.
    for lo in range(0, len(cells), size):
        yield from _Group(cells[lo:lo + size], *args).run()


class _Group:
    """One lockstep group. Rows of the iterate stack are the active cells,
    in cell order; `active` maps them to cell numbers in the group. The
    per-row state is theta, z (with momentum) and prev_theta, and each
    row's generator and epoch order.

    A row leaves the stack one way, through _stop: on a loss blow-up or a
    weight error before the update (then the other rows retake the same
    step), or on a non-finite update. A group of one cell drops the row
    axis: its arrays are those of a single run, which every function it
    calls takes as the one-row case of a stack (and computes with fewer,
    cheaper numpy calls).
    """

    def __init__(self, cells, problem, stepsize, eta, batch_size, steps, momentum, history):
        self.problem, self.cells, self.stepsize = problem, cells, stepsize
        self.b, self.steps, self.momentum, self.history = batch_size, steps, momentum, history
        G, self.n, rows = len(cells), problem.n_samples, max(steps, 1)
        self.errors = [None] * G
        if stepsize.kind == "convex_theory":  # the default cap 2/b meets the bound
            for i, (config, _) in enumerate(cells):
                if config.cap is not None:
                    self.errors[i] = _w_max_error(config.cap, batch_size)
        self.active = np.array([i for i in range(G) if self.errors[i] is None], dtype=int)
        self.single = G == len(self.active) == 1
        self.rngs = [np.random.default_rng(cells[i][1]) for i in self.active]
        self.orders = self._shuffle()
        theta0 = problem.theta_init()
        self.eta = eta
        self.theta = theta0.copy() if self.single else np.repeat(theta0[None], len(self.active), 0)
        self.z = self.theta.copy() if momentum else None
        self.prev_theta = None
        self.spans = self._spans()
        # index of the active cells into the histories
        self.rows = slice(None) if len(self.active) == G else self.active

        self.indices = np.empty((G, rows, batch_size), np.min_scalar_type(self.n - 1))
        self.losses = np.empty((G, rows, batch_size))
        # Only the columns the problem defines: test_loss needs a test split,
        # delta_t optimal losses (else _trajectory computes a proxy) and
        # theta_dist_sq a known minimizer.
        defined = {"test_loss": hasattr(problem, "test_loss"),
                   "delta_t": hasattr(problem, "losses_at_opt"),
                   "theta_dist_sq": getattr(problem, "theta_star", None) is not None}
        self.cols = {name: np.empty((G, rows)) for name in _KEPT if defined.get(name, True)}
        self.final = np.empty((G, theta0.size))
        self.recorded = np.zeros(G, dtype=int)
        self.divergence_step = [None] * G
        if history:
            self.thetas = np.empty((G, steps + 1, theta0.size))
            self.thetas[:, 0] = theta0
            self.batch_weights = np.empty((G, rows, batch_size))

    def _shuffle(self):
        """A new epoch's sample order for every active row."""
        orders = [rng.permutation(self.n) for rng in self.rngs]
        return orders[0] if self.single else np.array(orders).reshape(-1, self.n)

    def _spans(self):
        """(config, lo, hi) for each run of active rows with one config."""
        spans = []
        for row, i in enumerate(self.active):
            config = self.cells[i][0]
            if spans and spans[-1][0] == config:
                spans[-1][2] = row + 1
            else:
                spans.append([config, row, row + 1])
        return spans

    def _stop(self, rows, theta, recorded, step=None):
        """The active rows in the mask `rows` leave the stack: record their
        last iterate (their rows of theta), recorded step count and
        divergence step (errors are recorded by the caller), then drop them
        from every per-row attribute."""
        rows = np.atleast_1d(rows)
        cells = self.active[rows]
        self.final[cells] = theta.reshape(len(rows), -1)[rows]
        self.recorded[cells] = recorded
        for i in cells:
            self.divergence_step[i] = step
        keep = ~rows
        self.active = self.active[keep]
        if not len(self.active):
            return
        self.rngs = [rng for rng, k in zip(self.rngs, keep) if k]
        self.orders = self.orders[keep]
        self.theta, self.z, self.prev_theta = (
            None if a is None else a[keep] for a in (self.theta, self.z, self.prev_theta))
        self.spans = self._spans()
        self.rows = self.active

    def _weights(self, f, t):
        """Weights of every active row, one compute_batch_weights call per
        config, and {row: error} for the rows of a config that raised (their
        weights are zero)."""
        parts, errors = [], {}
        for config, lo, hi in self.spans:
            rows = f if self.single else f[lo:hi]
            try:
                parts.append(compute_batch_weights(rows, config, t))
            except (ConfigError, ValidationError) as exc:
                parts.append(np.zeros_like(rows))
                errors.update(dict.fromkeys(range(lo, hi), exc))
        return (parts[0] if len(parts) == 1 else np.concatenate(parts)), errors

    def run(self):
        """Train the group, then yield each cell's outcome in cell order."""
        problem, b, n = self.problem, self.b, self.n
        cols, inv_b = self.cols, 1.0 / b
        updating = self.steps > 0
        w_limit = _w_max_limit(b) if updating and self.stepsize.kind == "convex_theory" else None

        # A row that leaves before the update leaves the others to retake
        # step t on the same batch: pos moves on only once a step is recorded.
        pos = t = 0
        while t < max(self.steps, 1) and len(self.active):
            if pos + b > n:
                self.orders = self._shuffle()
                pos = 0
            idx = self.orders[..., pos:pos + b]
            theta = self.theta
            f, g, f_prev = problem.loss_grad(theta, idx, self.prev_theta)
            if not (np.isfinite(f).all() and f.max() <= DIVERGENCE_LOSS):
                bad = ~(np.isfinite(f).all(axis=-1) & (f.max(axis=-1) <= DIVERGENCE_LOSS))
                self._stop(bad, theta, t, step=t)
                continue
            w, errors = self._weights(f, t)
            w_max = w.max(axis=-1)
            if w_limit is not None and (w_max > w_limit).any():
                for row, over in enumerate(np.atleast_1d(w_max)):
                    if over > w_limit:
                        errors.setdefault(row, _w_max_error(over, b, f"step {t}: observed "))
            if errors:
                failed = np.zeros(len(self.active), dtype=bool)
                for row, exc in errors.items():
                    failed[row] = True
                    self.errors[self.active[row]] = exc
                self._stop(failed, theta, 0)
                continue
            pos += b
            rows = self.rows
            u = inv_b - w
            cols["train_loss"][rows, t] = f.sum(axis=-1) / b
            if "test_loss" in cols:
                cols["test_loss"][rows, t] = problem.test_loss(theta)
            cols["w_max"][rows, t] = w_max
            cols["w_min"][rows, t] = w.min(axis=-1)
            if "delta_t" in cols:
                cols["delta_t"][rows, t] = gap_sum(u, f - problem.losses_at_opt(idx))
            if f_prev is not None:
                cols["mu_t"][rows, t] = gap_sum(u, f - f_prev)
            cols["grad_gap"][rows, t] = gap_sum(u, (g**2).sum(axis=-1))
            if "theta_dist_sq" in cols:
                cols["theta_dist_sq"][rows, t] = ((theta - problem.theta_star) ** 2).sum(axis=-1)
            self.indices[rows, t] = idx
            self.losses[rows, t] = f
            if self.history:
                self.batch_weights[rows, t] = w
            if not updating:
                break
            self.prev_theta = theta
            if self.momentum:
                self.theta, self.z = momentum_step(theta, self.z, self.eta, g, w, (t + 1) / 2.0)
            else:
                self.theta = gd_step(theta, self.eta, g, w)
            if self.history:  # _trajectory cuts a diverged row's off
                self.thetas[rows, t + 1] = self.theta
            # A non-finite z makes theta non-finite, so theta tells for both.
            finite = np.isfinite(self.theta)
            if not finite.all():
                self._stop(~finite.all(axis=-1), theta, t + 1, step=t)
            t += 1
        if len(self.active):
            self.final[self.active] = self.theta
            self.recorded[self.active] = max(self.steps, 1)

        for i in range(len(self.cells)):
            yield self.errors[i] or self._trajectory(i)

    def _trajectory(self, i) -> Trajectory:
        problem, (config, _) = self.problem, self.cells[i]
        T, b = self.recorded[i], self.b
        diverged = self.divergence_step[i] is not None
        indices, losses = self.indices[i, :T], self.losses[i, :T]
        columns = {name: col[i, :T] for name, col in self.cols.items()}
        columns["step"] = np.arange(T)
        columns["r"] = np.array([schedule_r(t, config.schedule) for t in range(T)], dtype=object)
        columns["mu_t"] = columns["mu_t"][1:]  # no previous iterate at step 0
        proxy = "delta_t" not in columns and not diverged
        if proxy:
            # The final iterate's losses stand in for the optimal ones, from
            # one losses call over a view of all samples (no gathered copy),
            # indexed by the batch history, with the weights recomputed from
            # the losses. Both work row by row, so computing a block of steps
            # at a time gives each step the whole-run result bit for bit.
            f_final = problem.losses(self.final[i], slice(None))
            delta = columns["delta_t"] = np.empty(T)
            for lo in range(0, T, _PROXY_BLOCK):
                rows = slice(lo, lo + _PROXY_BLOCK)
                f = losses[rows]
                w = compute_batch_weights(f, config, columns["step"][rows])
                delta[rows] = np.add.reduce((1.0 / b - w) * (f - f_final[indices[rows]]), axis=1)
        weights = self.batch_weights[i, :T] if self.history else None
        n_thetas = self.divergence_step[i] + 1 if diverged else self.steps + 1
        thetas = self.thetas[i, :n_thetas] if self.history else self.final[i][None]
        return Trajectory(columns=columns, thetas=thetas, batch_indices=indices,
                          batch_losses=losses, batch_weights=weights, diverged=diverged,
                          divergence_step=self.divergence_step[i], delta_is_proxy=proxy)


def run_training(
    problem,
    reweight_config: ReweightConfig,
    stepsize: StepSizeRule,
    batch_size: int,
    steps: int,
    seed: int = 0,
    momentum: bool = False,
) -> Trajectory:
    """Full reweighted training loop: the one-cell run_cells, with history.

    Samples batches without replacement within an epoch (reshuffled per
    epoch, seeded), computes weights from the batch losses, and applies the
    (momentum-)reweighted update. Deterministic given the seed. A non-finite
    or huge loss stops the run and marks the trajectory diverged instead of
    raising, at step 0 too. Under the convex_theory step size, a step whose
    observed max weight exceeds 2/b raises ConfigError before the update is
    applied. With steps = 0 the run records the initial evaluation only, and
    the w_max check does not apply because no update is taken.
    """
    (outcome,) = run_cells(problem, [(reweight_config, seed)], stepsize, batch_size, steps,
                           momentum=momentum, history=True)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
