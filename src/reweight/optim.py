"""Reweighted gradient descent and heavy-ball momentum.

The update is theta' = theta - eta * sum_i w_i g_i with weights from the
core module. The momentum variant keeps the auxiliary sequence
z' = z - eta * sum_i w_i g_i and mixes theta' = (lam/(1+lam)) theta +
(1/(1+lam)) z', with the default schedule lam_{t+1} = (t+1)/2. Both are
plain array functions of the summed gradient grad = sum_i w_i g_i,
gd_step(theta, eta, grad) -> theta' and momentum_step(theta, z, eta, grad,
lam) -> (theta', z'), on one iterate or a stack of iterates, one per row.

There is one training loop, run_cells. It trains cells that share a
problem, batch size, step count, step-size rule and momentum flag and
differ in reweighting config and seed, as the rows of one iterate stack:
each step gathers every row's batch, evaluates the problem once through its
fused loss_grad, weights the whole stack in one pass over the configs'
contiguous row spans (core._span_weights: one normalization per alpha and
one tempered softmax for all rows), has the problem sum each row's
weighted gradient (weighted_grad: no per-sample gradient is stored) and
applies one update. Each row samples its batches with its own generator,
and every row's arithmetic is bit for bit that of a run on its own. A cell
whose cap is infeasible (cap*b < 1), or above 2/b under convex_theory,
fails before step 0 and never enters the stack. A row whose losses blow up,
whose observed w_max exceeds 2/b under convex_theory, or whose update is
not finite leaves the stack; the others go on. A diverging run's overflows
raise no numpy warnings. The loop has one shape: a single run,
run_training or the CLI's `run`, is a one-row stack.

A step computes only what the update and the guards read: loss_grad, the
blow-up guard, the weights, w_max under convex_theory, the weighted
gradient, the update and its finiteness check. It copies what the
diagnostic columns read into per-group block buffers of BLOCK steps: the
losses, weights and squared gradient norms (loss_grad returns the
per-sample ||g_i||^2, for grad_gap), the previous iterates' losses on the
step's rows (for mu_t), the batch indices where delta_t reads the
problem's losses at its optimum, and the iterates where test_loss or
theta_dist_sq reads them. A block flush computes every column of its steps
for all rows at once, one vectorized pass per column with the per-step
arithmetic, so each value is bit for bit what a per-step computation
writes. A group flushes when its block fills, before a diverging row
leaves the stack, and when the loop ends. The columns go into
preallocated per-cell arrays, one per CSV column in COLUMNS; a cell's
Trajectory takes its columns as views of them. A problem without optimal
losses has no delta_t column.

Cells run in groups sized so that their columns, block buffers, epoch
orders and histories fit in LOCKSTEP_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ConfigError, ReweightConfig, ValidationError, _cap_error, _check_fields,
                   _span_weights, _temperature)
from .core import compute_batch_weights  # noqa: F401  (bench/selftest.py reads it here)
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

# Bytes one lockstep group may hold (see cell_bytes). At the sweep_toy size
# (2000 steps, b = 32, n = 4000) a cell holds about 0.22 MB, so 38 cells fit
# and the sweep's 20 cells run as one group.
LOCKSTEP_BYTES = 8 << 20

# Steps whose diagnostic columns a lockstep group computes in one flush.
BLOCK = 32


@dataclass(frozen=True)
class StepSizeRule:
    """Step size selection.

    fixed: use eta as given. convex_theory: eta = 1/(8L), valid when the
    max weight stays <= 2/M. sqrt_horizon: eta = 1/(8L sqrt(T)) for a known
    horizon T. Every field is checked, whichever the kind reads.
    """

    kind: str = "fixed"
    eta: float = 0.01
    L: float = 1.0
    horizon_T: int = 1

    def __post_init__(self):
        if self.kind not in ("fixed", "convex_theory", "sqrt_horizon"):
            raise ConfigError(f"unknown step-size rule {self.kind!r}")
        _check_fields(self, ("eta", "L"), [("horizon_T", 1)])


def theory_stepsize(rule: StepSizeRule) -> float:
    """Resolve a StepSizeRule to a concrete eta.

    Under convex_theory the returned 1/(8L) must satisfy
    eta <= 1/(4 * batch * L * w_max); this holds exactly when w_max <= 2/batch,
    which _w_max_error checks for a cap and the training loop for the
    observed weights.
    """
    if rule.kind == "fixed":
        return rule.eta
    if rule.kind == "convex_theory":
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


def _summed(theta, grad) -> np.ndarray:
    grad = np.asarray(grad, dtype=float)
    if grad.shape != np.shape(theta):
        raise ValidationError(f"gradient of shape {grad.shape} does not match theta's "
                              f"{np.shape(theta)}")
    return grad


def gd_step(theta, eta: float, grad) -> np.ndarray:
    """theta' = theta - eta * grad, grad = sum_i w_i g_i shaped like theta:
    one iterate or each row of a stack."""
    return theta - eta * _summed(theta, grad)


def momentum_step(theta, z, eta: float, grad, lambda_next: float):
    """Heavy-ball update in (z, theta) form, for one iterate or each row of
    a stack, with grad as in gd_step; returns (theta', z').

    z' = z - eta * grad;
    theta' = lam/(1+lam) * theta + 1/(1+lam) * z'  with lam = lambda_next.
    """
    if lambda_next < 0:
        raise ConfigError("lambda_next must be nonnegative")
    z = z - eta * _summed(theta, grad)
    return (lambda_next / (1.0 + lambda_next)) * theta + z / (1.0 + lambda_next), z


# The CSV columns of a trajectory, in order.
COLUMNS = ("step", "train_loss", "test_loss", "r", "w_max", "w_min", "delta_t", "mu_t",
           "grad_gap", "theta_dist_sq")


def _kept(problem) -> tuple[str, ...]:
    """The columns a lockstep group keeps an array for: not step and r, which
    follow from the step count and the temperature schedule, and only those
    the problem defines. test_loss needs a test split, delta_t optimal losses
    and theta_dist_sq a known minimizer."""
    defined = {"step": False, "r": False, "test_loss": hasattr(problem, "test_loss"),
               "delta_t": hasattr(problem, "losses_at_opt"),
               "theta_dist_sq": getattr(problem, "theta_star", None) is not None}
    return tuple(name for name in COLUMNS if defined.get(name, True))


@dataclass
class Trajectory:
    """Recorded run: the per-step diagnostics as columns, the iterate history
    (theta^0 .. theta^T), each recorded step's batch indices and weights,
    and the divergence flag. Step t's batch losses are
    problem.losses(thetas[t], batch_indices[t]), bit for bit, so they are
    not kept. A cell run without history keeps only its final iterate in
    thetas, and its batch indices and weights are None.

    columns maps a name in COLUMNS to an array with one value per recorded
    step. A shorter column holds the last steps: mu_t starts at step 1. A
    column the problem does not define has no key: test_loss without a test
    split, delta_t without optimal losses and theta_dist_sq without a known
    minimizer. r holds the schedule's own values, ints included.
    """

    columns: dict[str, np.ndarray]
    thetas: np.ndarray  # (T+1, d), or (1, d) without history
    batch_indices: np.ndarray | None  # (T, b)
    batch_weights: np.ndarray | None  # (T, b)
    diverged: bool = False
    divergence_step: int | None = None

    @property
    def final_theta(self) -> np.ndarray:
        return self.thetas[-1]


def _block_widths(problem, batch_size: int) -> dict[str, int]:
    """The per-step arrays a block buffer keeps for a flush, each with its
    width per row: the losses, weights, squared gradient norms and previous
    iterates' losses, the batch indices where delta_t is kept and the
    iterate where test_loss or theta_dist_sq is."""
    kept = _kept(problem)
    widths = dict.fromkeys(("f", "w", "g_sq", "f_prev"), batch_size)
    if "delta_t" in kept:
        widths["idx"] = batch_size
    if "test_loss" in kept or "theta_dist_sq" in kept:
        widths["theta"] = problem.dim
    return widths


def cell_bytes(problem, batch_size: int, steps: int, history: bool = False) -> int:
    """Bytes of one lockstep cell: its column arrays (see _kept), final
    iterate and epoch order; its block buffers of min(BLOCK, steps) steps
    (see _block_widths) and a flush's largest temporary, a (b,) array per
    step for a gap sum's products or a (d + 1,) one for the test residuals;
    plus with history the iterates and the batch indices and weights."""
    rows, d = max(steps, 1), problem.dim
    per_step = sum(_block_widths(problem, batch_size).values()) + max(batch_size, d + 1)
    size = 8 * (rows * len(_kept(problem)) + d + problem.n_samples
                + min(BLOCK, rows) * per_step)
    if history:
        size += 8 * (steps + 1) * d + 16 * rows * batch_size
    return size


def run_cells(problem, cells, stepsize: StepSizeRule, batch_size: int, steps: int,
              momentum: bool = False, history: bool = False):
    """Train cells in lockstep and return an iterator over their outcomes.

    cells is a sequence of (ReweightConfig, seed) pairs; the cells share
    everything else. The iterator yields, in cell order, each cell's
    Trajectory, or the ConfigError that stopped it. An infeasible cap
    (cap*b < 1), or a cap above 2/b under convex_theory, fails a cell before
    step 0; an observed w_max above 2/b under convex_theory stops it at that
    step. Errors common to every cell, such as a bad batch size, are raised
    here.

    Cells run in groups of LOCKSTEP_BYTES // cell_bytes(...) rows, and a
    group's outcomes are yielded after it finishes. Without history a cell
    keeps only its columns and final iterate, which are views of its
    group's arrays: drop each outcome before taking the next, and a finished
    group is freed before the next one starts.
    """
    if batch_size < 1 or batch_size > problem.n_samples:
        raise ConfigError(f"batch_size {batch_size} is not in [1, {problem.n_samples}] "
                          "(the problem's n_samples)")
    if steps < 0:
        raise ConfigError(f"steps {steps} is negative")
    size = max(1, LOCKSTEP_BYTES // cell_bytes(problem, batch_size, steps, history))
    return _run_groups(list(cells), size, problem, stepsize, batch_size, steps, momentum,
                       history)


def _run_groups(cells, size, *args):
    # Only the running group's generator refers to it, so a group's
    # arrays are freed before the next group allocates its own.
    for lo in range(0, len(cells), size):
        yield from _Group(cells[lo:lo + size], *args).run()


class _Group:
    """One lockstep group. Rows of the iterate stack are the active cells,
    in cell order; `active` maps them to cell numbers in the group. The
    per-row state is theta, z (with momentum) and prev_theta, each row's
    generator and epoch order, and its block buffers (see _block_widths):
    what steps t0 .. t0 + BLOCK - 1 recorded for the diagnostic columns,
    which _flush computes.

    A cell whose cap fails is never a row. A row leaves the stack one way,
    through _stop: on a loss blow-up or an observed w_max above 2/b before
    the update (then the other rows retake the same step), or on a
    non-finite update. A row that diverges leaves after a flush, which
    computes its last columns; _stop keeps the other rows' blocks. A group
    of one cell is a one-row stack, like any other.
    """

    def __init__(self, cells, problem, stepsize, batch_size, steps, momentum, history):
        self.problem, self.cells, self.stepsize = problem, cells, stepsize
        self.b, self.steps, self.momentum, self.history = batch_size, steps, momentum, history
        G, self.n, rows = len(cells), problem.n_samples, max(steps, 1)
        self.errors = [None] * G
        theory = stepsize.kind == "convex_theory"
        for i, (config, _) in enumerate(cells):
            if config.cap is not None:  # the default cap 2/b is feasible and meets the bound
                self.errors[i] = _cap_error(config.cap, batch_size) or (
                    _w_max_error(config.cap, batch_size) if theory else None)
        self.active = np.array([i for i in range(G) if self.errors[i] is None], dtype=int)
        self.rngs = [np.random.default_rng(cells[i][1]) for i in self.active]
        self.orders = np.empty((len(self.active), self.n), dtype=int)
        self._shuffle()
        theta0 = problem.theta_init()
        self.eta = theory_stepsize(stepsize)
        self.theta = np.repeat(theta0[None], len(self.active), 0)
        self.z = self.theta.copy() if momentum else None
        self.prev_theta = None
        self.spans = self._spans()
        # index of the active cells into the column and history arrays
        self.rows = slice(None) if len(self.active) == G else self.active

        self.cols = {name: np.empty((G, rows)) for name in _kept(problem)}
        self.block_steps, self.t0 = min(BLOCK, rows), 0
        self.block = {name: np.empty((len(self.active), self.block_steps, width),
                                     dtype=int if name == "idx" else float)
                      for name, width in _block_widths(problem, batch_size).items()}
        self.final = np.empty((G, theta0.size))
        self.recorded = np.zeros(G, dtype=int)
        self.divergence_step = [None] * G
        if history:
            self.thetas = np.empty((G, steps + 1, theta0.size))
            self.thetas[:, 0] = theta0
            self.indices = np.empty((G, rows, batch_size), dtype=int)
            self.batch_weights = np.empty((G, rows, batch_size))

    def _shuffle(self):
        """Refill every active row's epoch order, in place, with a new epoch's
        sample order: rng.permutation(n), without a second copy of the
        orders. A batch's indices are a view of them, valid for one step."""
        self.orders[:] = np.arange(self.n)
        for rng, row in zip(self.rngs, self.orders):
            rng.shuffle(row)

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
        from every per-row attribute. The caller has flushed the block."""
        cells = self.active[rows]
        self.final[cells] = theta[rows]
        self.recorded[cells] = recorded
        for i in cells:
            self.divergence_step[i] = step
        keep = ~rows
        self.active = self.active[keep]
        self.rngs = [rng for rng, k in zip(self.rngs, keep) if k]
        self.orders = self.orders[keep]
        self.theta, self.z, self.prev_theta = (
            None if a is None else a[keep] for a in (self.theta, self.z, self.prev_theta))
        self.block = {name: a[keep] for name, a in self.block.items()}
        self.spans = self._spans()
        self.rows = self.active

    def run(self):
        """Train the group, then yield each cell's outcome in cell order."""
        self._train()
        for i in range(len(self.cells)):
            yield self.errors[i] or self._trajectory(i)

    # A diverging row overflows before the loop's guards stop it: no warning.
    # _train returns before run yields, so the state never spans a yield.
    @np.errstate(over="ignore", invalid="ignore")
    def _train(self):
        problem, b, n = self.problem, self.b, self.n
        updating = self.steps > 0
        w_limit = _w_max_limit(b) if updating and self.stepsize.kind == "convex_theory" else None

        # A row that leaves before the update leaves the others to retake
        # step t on the same batch: pos moves on only once a step is recorded.
        pos = t = 0
        while t < max(self.steps, 1) and len(self.active):
            if pos + b > n:
                self._shuffle()
                pos = 0
            idx = self.orders[:, pos:pos + b]
            theta = self.theta
            f, parts, g_sq, f_prev = problem.loss_grad(theta, idx, self.prev_theta)
            if not (np.isfinite(f).all() and f.max() <= DIVERGENCE_LOSS):
                bad = ~(np.isfinite(f).all(axis=-1) & (f.max(axis=-1) <= DIVERGENCE_LOSS))
                self._flush(t)
                self._stop(bad, theta, t, step=t)
                continue
            w = _span_weights(f, self.spans, t)  # f is finite: the guard checked it
            if w_limit is not None:
                w_max = w.max(axis=-1)
                if (over := w_max > w_limit).any():
                    for row in np.flatnonzero(over):
                        self.errors[self.active[row]] = _w_max_error(w_max[row], b,
                                                                     f"step {t}: observed ")
                    self._stop(over, theta, 0)  # a failed cell has no columns to flush
                    continue
            pos += b
            rows = self.rows
            k, step = t - self.t0, {"f": f, "w": w, "g_sq": g_sq, "f_prev": f_prev,
                                    "idx": idx, "theta": theta}
            for name, buf in self.block.items():
                if step[name] is not None:  # no previous iterate at step 0
                    buf[:, k] = step[name]
            if self.history:
                self.indices[rows, t] = idx
                self.batch_weights[rows, t] = w
            if not updating:
                break
            self.prev_theta = theta
            grad = problem.weighted_grad(parts, w)
            del parts  # free this step's gathered rows before the next step gathers its own
            if self.momentum:
                self.theta, self.z = momentum_step(theta, self.z, self.eta, grad, (t + 1) / 2.0)
            else:
                self.theta = gd_step(theta, self.eta, grad)
            if self.history:  # _trajectory cuts a diverged row's off
                self.thetas[rows, t + 1] = self.theta
            # A non-finite z makes theta non-finite, so theta tells for both.
            finite = np.isfinite(self.theta)
            if not finite.all():
                self._flush(t + 1)
                self._stop(~finite.all(axis=-1), theta, t + 1, step=t)
            t += 1
            if t - self.t0 == self.block_steps:
                self._flush(t)
        self._flush(max(self.steps, 1))
        self.final[self.active] = self.theta
        self.recorded[self.active] = max(self.steps, 1)

    def _flush(self, t):
        """Compute the columns of steps t0 .. t - 1, which the block holds,
        for every active row, one vectorized pass per column with the
        per-step arithmetic, and start the next block at step t. u = 1/b - w
        and the loss gaps overwrite the buffers they are formed from, so a
        gap sum's product is the only (b,) temporary. mu_t has no value at
        step 0."""
        t0, self.t0 = self.t0, t
        if t == t0 or not len(self.active):
            return
        problem, cols, rows, b = self.problem, self.cols, self.rows, self.b
        block = {name: buf[:, :t - t0] for name, buf in self.block.items()}
        f, w, f_prev = block["f"], block["w"], block["f_prev"]
        steps = slice(t0, t)
        cols["train_loss"][rows, steps] = f.sum(axis=-1) / b
        cols["w_max"][rows, steps] = w.max(axis=-1)
        cols["w_min"][rows, steps] = w.min(axis=-1)
        if "test_loss" in cols:
            cols["test_loss"][rows, steps] = problem.test_loss(block["theta"])
        if "theta_dist_sq" in cols:
            dev = np.subtract(block["theta"], problem.theta_star, out=block["theta"])
            cols["theta_dist_sq"][rows, steps] = (dev ** 2).sum(axis=-1)
        u = np.subtract(1.0 / b, w, out=w)
        lo = int(t0 == 0)
        gaps = np.subtract(f[:, lo:], f_prev[:, lo:], out=f_prev[:, lo:])
        cols["mu_t"][rows, t0 + lo:t] = gap_sum(u[:, lo:], gaps)
        cols["grad_gap"][rows, steps] = gap_sum(u, block["g_sq"])
        if "delta_t" in cols:
            f -= problem.losses_at_opt(block["idx"])
            cols["delta_t"][rows, steps] = gap_sum(u, f)

    def _trajectory(self, i) -> Trajectory:
        config, T = self.cells[i][0], self.recorded[i]
        diverged = self.divergence_step[i] is not None
        columns = {name: col[i, :T] for name, col in self.cols.items()}
        columns["step"] = np.arange(T)
        # r changes at most once, at warmup_steps; the values keep their type
        drop = config.schedule.warmup_steps
        columns["r"] = r = np.empty(T, dtype=object)
        r[:drop], r[drop:] = _temperature(config, 0), _temperature(config, drop)
        columns["mu_t"] = columns["mu_t"][1:]  # no previous iterate at step 0
        n_thetas = self.divergence_step[i] + 1 if diverged else self.steps + 1
        thetas = self.thetas[i, :n_thetas] if self.history else self.final[i][None]
        batch = ([a[i, :T] for a in (self.indices, self.batch_weights)]
                 if self.history else [None] * 2)
        return Trajectory(columns, thetas, *batch, diverged=diverged,
                          divergence_step=self.divergence_step[i])


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
