"""Tests for the reweighted gradient-descent and momentum optimizers."""

import re
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest

from reweight import optim

from reweight.core import (
    ConfigError,
    ReweightConfig,
    TemperatureSchedule,
    ValidationError,
    _temperature,
    capped_optimal_weights,
    compute_batch_weights,
    schedule_r,
)
from reweight.diagnostics import delta_t, grad_gap_term, mu_t
from reweight.optim import (
    COLUMNS,
    DIVERGENCE_LOSS,
    StepSizeRule,
    Trajectory,
    cell_bytes,
    gd_step,
    momentum_step,
    run_cells,
    run_training,
    theory_stepsize,
)
from reweight.oracle import brute_force_optimal_weights, project_capped_simplex
from reweight.problems import (
    NonconvexProblem,
    QuadraticProblem,
    RegressionProblem,
    gen_quadratic_suite,
    gen_regression,
)
from test_problems import per_sample_gradients


def constant_schedule(r=1.0):
    return TemperatureSchedule(kind="constant", r_initial=r)


class TestGdStep:
    def test_zero_gradients_fixed_point(self):
        theta = np.array([1.0, -2.0])
        np.testing.assert_array_equal(gd_step(theta, 0.1, np.zeros(2)), theta)

    def test_uniform_weights_average_gradient(self):
        # The problem sums the weighted gradients; the step takes the sum.
        grad = QuadraticProblem.weighted_grad(np.array([[2.0], [4.0]]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(gd_step(np.array([1.0]), 0.1, grad), [1.0 - 0.1 * 3.0])

    def test_hand_arithmetic(self):
        grad = QuadraticProblem.weighted_grad(np.array([[2.0], [4.0]]), np.array([0.25, 0.75]))
        np.testing.assert_allclose(gd_step(np.array([1.0]), 0.1, grad), [0.65])

    def test_dimension_mismatch_rejected(self):
        # A gradient stack, or a summed gradient that would broadcast against
        # a stack of iterates, is not the iterate's shape.
        for theta, grad in ((np.array([1.0]), np.zeros((3, 1))),
                            (np.ones((2, 1)), np.zeros(1))):
            with pytest.raises(ValidationError, match="does not match theta's"):
                gd_step(theta, 0.1, grad)


class TestMomentumStep:
    def test_lambda_zero_is_pure_z_step(self):
        theta, z = momentum_step(np.array([5.0]), np.array([2.0]), 0.1, np.array([2.0]),
                                 lambda_next=0.0)
        np.testing.assert_allclose(z, [2.0 - 0.1 * 2.0])
        np.testing.assert_array_equal(theta, z)

    def test_zero_grad_with_z_equal_theta_fixed_point(self):
        theta, z = momentum_step(np.array([1.5]), np.array([1.5]), 0.1, np.zeros(1),
                                 lambda_next=3.0)
        np.testing.assert_allclose(theta, [1.5])
        np.testing.assert_allclose(z, [1.5])

    def test_hand_arithmetic(self):
        # summed gradient 2 with eta 0.1: z' = 0.8,
        # theta' = (0.5/1.5) * 1 + (1/1.5) * 0.8 = 0.8667
        theta, z = momentum_step(np.array([1.0]), np.array([1.0]), 0.1, np.array([2.0]),
                                 lambda_next=0.5)
        np.testing.assert_allclose(z, [0.8])
        np.testing.assert_allclose(theta, [1.0 / 3.0 + (2.0 / 3.0) * 0.8])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            momentum_step(np.array([1.0]), np.array([1.0]), 0.1, np.zeros(1), lambda_next=-0.1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="does not match theta's"):
            momentum_step(np.array([1.0]), np.array([1.0]), 0.1, np.zeros((2, 1)),
                          lambda_next=0.5)


class TestTheoryStepsize:
    def test_fixed_passthrough(self):
        assert theory_stepsize(StepSizeRule(kind="fixed", eta=0.3)) == 0.3

    def test_convex_theory_bound_tight(self):
        # L=1, w_max = 2/M: eta = 1/8 equals 1/(4 M L (2/M)) exactly.
        M = 16
        assert optim._w_max_error(2.0 / M, M) is None
        eta = theory_stepsize(StepSizeRule(kind="convex_theory", L=1.0))
        assert eta == 0.125
        assert eta == 1.0 / (4.0 * M * 1.0 * (2.0 / M))

    def test_sqrt_horizon(self):
        eta = theory_stepsize(StepSizeRule(kind="sqrt_horizon", L=2.0, horizon_T=16))
        assert eta == 1.0 / 64.0

    def test_excess_w_max_rejected(self):
        M = 12
        with pytest.raises(ConfigError):
            raise optim._w_max_error(3.0 / M, M)

    def test_rule_validation(self):
        with pytest.raises(ConfigError):
            StepSizeRule(kind="adam")
        with pytest.raises(ConfigError):
            StepSizeRule(kind="fixed", eta=-0.1)
        with pytest.raises(ConfigError):
            StepSizeRule(kind="convex_theory", L=0.0)


# The four modes that read neither cap nor dro_tau.
SCORED_AND_UNIFORM = ("linupper", "quadratic", "extremes", "uniform")


@pytest.fixture(scope="module")
def quadratic_problem():
    return QuadraticProblem(gen_quadratic_suite(M=32, d=8, seed=0))


class TestRunTraining:
    def test_zero_steps_single_record(self, quadratic_problem):
        traj = run_training(
            quadratic_problem,
            ReweightConfig(mode="uniform"),
            StepSizeRule(kind="fixed", eta=0.01),
            batch_size=8,
            steps=0,
        )
        assert traj.columns["step"].tolist() == [0]
        assert traj.thetas.shape == (1, 8)
        assert not traj.diverged

    def test_determinism(self, quadratic_problem):
        kwargs = dict(
            reweight_config=ReweightConfig(
                mode="linupper", schedule=constant_schedule()
            ),
            stepsize=StepSizeRule(kind="fixed", eta=0.01),
            batch_size=8,
            steps=50,
            seed=3,
        )
        t1 = run_training(quadratic_problem, **kwargs)
        t2 = run_training(quadratic_problem, **kwargs)
        np.testing.assert_array_equal(t1.thetas, t2.thetas)
        for a, b in zip(t1.batch_weights, t2.batch_weights):
            np.testing.assert_array_equal(a, b)

    def test_uniform_reduces_to_plain_sgd(self, quadratic_problem):
        problem = quadratic_problem
        batch, steps, seed, eta = 8, 40, 5, 0.01
        traj = run_training(
            problem,
            ReweightConfig(mode="uniform"),
            StepSizeRule(kind="fixed", eta=eta),
            batch_size=batch,
            steps=steps,
            seed=seed,
        )
        # Reference loop: same seeded batching, uniform-averaged gradient step.
        rng = np.random.default_rng(seed)
        order = rng.permutation(problem.n_samples)
        pos = 0
        theta = problem.theta_init()
        uniform = np.full(batch, 1.0 / batch)
        for t in range(steps):
            if pos + batch > problem.n_samples:
                order = rng.permutation(problem.n_samples)
                pos = 0
            idx = order[pos : pos + batch]
            pos += batch
            theta = theta - eta * (uniform @ problem.loss_grad(theta, idx)[1])
            np.testing.assert_array_equal(traj.thetas[t + 1], theta)
        for w in traj.batch_weights:
            np.testing.assert_array_equal(w, uniform)

    def test_high_temperature_matches_uniform_trajectory(self, quadratic_problem):
        common = dict(
            stepsize=StepSizeRule(kind="fixed", eta=0.01),
            batch_size=8,
            steps=100,
            seed=2,
        )
        hot = run_training(
            quadratic_problem,
            ReweightConfig(
                mode="linupper", schedule=constant_schedule(1e6)
            ),
            **common,
        )
        uni = run_training(
            quadratic_problem, ReweightConfig(mode="uniform"), **common
        )
        assert np.abs(hot.thetas - uni.thetas).max() <= 1e-6

    def test_momentum_equals_single_sequence_recursion(self, quadratic_problem):
        problem = quadratic_problem
        eta, steps = 0.005, 100
        traj = run_training(
            problem,
            ReweightConfig(mode="linupper", schedule=constant_schedule()),
            StepSizeRule(kind="fixed", eta=eta),
            batch_size=8,
            steps=steps,
            seed=1,
            momentum=True,
        )
        # theta_{t+1} = theta_t - eta/(1+lam_{t+1}) * wg_t
        #               + lam_t/(1+lam_{t+1}) * (theta_t - theta_{t-1})
        theta_prev = traj.thetas[0].copy()
        theta = traj.thetas[0].copy()
        for t in range(steps):
            wg = traj.batch_weights[t] @ problem.loss_grad(theta, traj.batch_indices[t])[1]
            lam_t = t / 2.0
            lam_next = (t + 1) / 2.0
            theta_next = (
                theta
                - (eta / (1.0 + lam_next)) * wg
                + (lam_t / (1.0 + lam_next)) * (theta - theta_prev)
            )
            assert np.abs(theta_next - traj.thetas[t + 1]).max() <= 1e-10
            theta_prev, theta = theta, theta_next

    def test_divergence_recorded_not_raised(self):
        problem = RegressionProblem(gen_regression(p=8, n=64, m=16, seed=0, n_test=8))
        traj = run_training(
            problem,
            ReweightConfig(mode="uniform"),
            StepSizeRule(kind="fixed", eta=10.0),
            batch_size=16,
            steps=200,
            seed=0,
        )
        assert traj.diverged
        assert traj.divergence_step is not None
        assert len(traj.columns["step"]) < 200

    def test_zero_steps_divergence_recorded(self):
        # The step-0 losses overflow; the run stops before weighting them.
        problem = RegressionProblem(gen_regression(p=4, n=16, m=0, noise_c=1e300, n_test=4))
        traj = run_training(problem, ReweightConfig(), StepSizeRule(eta=1e-2),
                            batch_size=8, steps=0)
        assert traj.diverged and traj.divergence_step == 0
        assert all(len(col) == 0 for col in traj.columns.values())
        assert traj.thetas.shape == (1, 5)

    def test_bad_batch_size_rejected(self, quadratic_problem):
        # The message names the value and the problem's sample count.
        for batch_size in (0, 33):
            with pytest.raises(ConfigError, match=re.escape(
                    f"batch_size {batch_size} is not in [1, 32] (the problem's n_samples)")):
                run_training(
                    quadratic_problem,
                    ReweightConfig(mode="uniform"),
                    StepSizeRule(kind="fixed", eta=0.01),
                    batch_size=batch_size,
                    steps=1,
                )

    def test_negative_steps_rejected(self, quadratic_problem):
        with pytest.raises(ConfigError, match="steps -1 is negative"):
            run_training(quadratic_problem, ReweightConfig(mode="uniform"),
                         StepSizeRule(kind="fixed", eta=0.01), batch_size=8, steps=-1)

    def test_one_cell_is_a_one_row_stack(self, quadratic_problem):
        # A single run takes the loop's one shape: every loss_grad call gets
        # a (1, d) iterate stack, (1, b) indices and a (1, d) previous stack.
        shapes = []

        class Spy(QuadraticProblem):
            def loss_grad(self, theta, idx, prev=None):
                shapes.append((theta.shape, np.shape(idx), np.shape(prev)))
                return super().loss_grad(theta, idx, prev)

        assert quadratic_problem.dim == 8
        for momentum in (False, True):
            shapes.clear()
            run_training(Spy(quadratic_problem.suite), ReweightConfig(), StepSizeRule(eta=0.01),
                         batch_size=4, steps=6, momentum=momentum)
            assert shapes == [((1, 8), (1, 4), ())] + [((1, 8), (1, 4), (1, 8))] * 5

    def test_convex_theory_checks_observed_w_max(self, quadratic_problem):
        # Softmax weights at low r concentrate far above 2/b, which the
        # configured cap (none here) cannot reveal; the observed w_max does.
        with pytest.raises(ConfigError, match=r"step \d+: observed w_max = .* exceeds 2/b = 0\.25"):
            run_training(
                quadratic_problem,
                ReweightConfig(mode="linupper", schedule=constant_schedule(0.01)),
                StepSizeRule(kind="convex_theory", L=quadratic_problem.L),
                batch_size=8,
                steps=20,
            )


@dataclass
class ReferenceRun(Trajectory):
    """The reference loop's run, with the batch losses it weighted."""

    losses: list = field(default_factory=list)


def history_losses(problem, traj):
    """Each recorded step's batch losses, recomputed from the trajectory's
    iterates and batch indices: problem.losses(thetas[t], batch_indices[t])."""
    return [problem.losses(theta, idx) for theta, idx in zip(traj.thetas, traj.batch_indices)]


def _reference_run_training(problem, reweight_config, stepsize, batch_size, steps,
                            seed=0, momentum=False):
    """The training loop before the fused step: separate losses and gradient
    calls, diagnostics through the public diagnostics functions, list
    histories turned into the trajectory's column arrays at the end; delta_t
    against the problem's optimal losses, where it has them. The update sums
    the weighted gradient through the problem's weighted_grad, as the loop
    does. Kept as the reference that run_training must reproduce exactly; it
    also returns the batch losses it weighted, which a Trajectory does not
    keep."""
    cap_bound = reweight_config.cap if reweight_config.cap is not None else 2.0 / batch_size
    error = optim._w_max_error(cap_bound, batch_size)
    if stepsize.kind == "convex_theory" and error:
        raise error
    eta = theory_stepsize(stepsize)
    rng = np.random.default_rng(seed)
    theta = theta0 = problem.theta_init()
    z = theta0.copy()
    has_opt_losses = hasattr(problem, "losses_at_opt")
    has_test = hasattr(problem, "test_loss")
    theta_star = getattr(problem, "theta_star", None)
    absent = {"test_loss": not has_test, "delta_t": not has_opt_losses,
              "theta_dist_sq": theta_star is None}
    columns = {name: [] for name in COLUMNS if not absent.get(name)}
    thetas = [theta0.copy()]
    batch_indices, losses, batch_weights = [], [], []
    diverged, divergence_step = False, None
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
        _, parts, g_sq, _ = problem.loss_grad(theta, idx)
        row = dict(step=t, train_loss=float(f.mean()), r=r_value, w_max=float(w.max()),
                   w_min=float(w.min()), grad_gap=grad_gap_term(g_sq, w))
        if has_test:
            row["test_loss"] = problem.test_loss(theta)
        if has_opt_losses:
            row["delta_t"] = delta_t(f, problem.losses_at_opt(idx), w)
        if prev_theta is not None:
            row["mu_t"] = mu_t(f, problem.losses(prev_theta, idx), w)
        if theta_star is not None:
            row["theta_dist_sq"] = float(np.sum((theta - theta_star) ** 2))
        for name, value in row.items():
            columns[name].append(value)
        batch_indices.append(idx.copy())
        losses.append(f.copy())
        batch_weights.append(w.copy())
        return problem.weighted_grad(parts, w)

    def temperature(t):
        # The r column holds the temperature the weights used: dro_kl's tau.
        schedule = reweight_config.schedule
        if reweight_config.mode != "dro_kl":
            return schedule_r(t, schedule)
        tau = reweight_config.dro_tau
        return schedule.r_final if tau is None else tau

    for t in range(steps):
        idx = next_batch()
        f = problem.losses(theta, idx)
        if not np.all(np.isfinite(f)) or f.max() > DIVERGENCE_LOSS:
            diverged, divergence_step = True, t
            break
        r_value = temperature(t)
        w = compute_batch_weights(f, reweight_config, t)
        if stepsize.kind == "convex_theory" and w.max() > 2.0 / batch_size + 1e-12:
            raise ConfigError(f"step {t}: observed w_max exceeds 2/b")
        grad = record_step(t, idx, f, w, r_value)
        if momentum:
            new, z = momentum_step(theta, z, eta, grad, lambda_next=(t + 1) / 2.0)
            finite = np.isfinite(new).all() and np.isfinite(z).all()
        else:
            new = gd_step(theta, eta, grad)
            finite = np.isfinite(new).all()
        if not finite:
            diverged, divergence_step = True, t
            break
        prev_theta, theta = theta, new
        thetas.append(theta.copy())

    if steps == 0:
        idx = next_batch()
        f = problem.losses(theta, idx)
        w = compute_batch_weights(f, reweight_config, 0)
        record_step(0, idx, f, w, temperature(0))

    dtypes = {"step": int, "r": object}
    return ReferenceRun(columns={name: np.array(values, dtype=dtypes.get(name, float))
                                 for name, values in columns.items()},
                        thetas=np.array(thetas), batch_indices=batch_indices,
                        batch_weights=batch_weights, diverged=diverged,
                        divergence_step=divergence_step, losses=losses)


def column_text(traj):
    """Each column's dtype and the repr of each value, which tells an int
    from a float and a numpy scalar from a Python one."""
    return {name: (col.dtype, [repr(v) for v in col.tolist()])
            for name, col in traj.columns.items()}


def assert_same_run(got, want, problem=None):
    """Every column, iterate and batch history equal; columns are compared
    by column_text, so an int in place of a float or a numpy scalar in an
    object column also fails. Given the problem, want is a ReferenceRun, and
    the losses recomputed from got's history are its losses, bit for bit."""
    assert (got.diverged, got.divergence_step) == (want.diverged, want.divergence_step)
    assert column_text(got) == column_text(want)
    np.testing.assert_array_equal(got.thetas, want.thetas)
    for name in ("batch_indices", "batch_weights"):
        rows, ref_rows = getattr(got, name), getattr(want, name)
        assert len(rows) == len(ref_rows) == len(got.columns["step"])
        for row, ref in zip(rows, ref_rows):
            np.testing.assert_array_equal(row, ref)
    if problem is not None:
        losses = history_losses(problem, got)
        assert len(losses) == len(want.losses)
        for row, ref in zip(losses, want.losses):
            assert row.tobytes() == ref.tobytes()


@pytest.fixture(scope="module")
def small_regression():
    return RegressionProblem(gen_regression(p=16, n=64, m=16, seed=1, n_test=16))


class _BlowUpProblem:
    """Bounded losses with gradients 1e100 times the iterate: the loss check
    never fires, and the update overflows at the fourth step. Like the
    shipped problems it takes one iterate or a stack of them."""

    n_samples, dim, L, theta_star = 16, 3, 1.0, None

    def __init__(self):
        self.X = np.random.default_rng(0).standard_normal((self.n_samples, self.dim))

    def theta_init(self):
        return np.ones(self.dim)

    def losses(self, theta, idx):
        return 1.0 + np.tanh(np.matmul(self.X[idx], theta[..., None])[..., 0])

    def grads(self, theta, idx):
        return np.repeat(-1e100 * theta[..., None, :], np.shape(idx)[-1], axis=-2)

    def loss_grad(self, theta, idx, prev=None):
        f_prev = None if prev is None else self.losses(prev, idx)
        g = self.grads(theta, idx)
        return self.losses(theta, idx), g, (g**2).sum(axis=-1), f_prev

    @staticmethod
    def weighted_grad(g, w):
        return np.matmul(w[..., None, :], g)[..., 0, :]


class TestFusedRunMatchesReference:
    """run_training evaluates the problem once per step and computes its
    diagnostics online; it must reproduce the separate-call loop exactly."""

    def check(self, problem, rw, rule, batch_size, steps, **kwargs):
        args = (problem, rw, rule, batch_size, steps)
        got = run_training(*args, **kwargs)
        assert_same_run(got, _reference_run_training(*args, **kwargs), problem)
        return got

    def test_regression_linupper_step_drop(self, small_regression):
        schedule = TemperatureSchedule(kind="step_drop", r_initial=100.0, r_final=0.5,
                                       warmup_steps=7)
        traj = self.check(small_regression, ReweightConfig(schedule=schedule),
                          StepSizeRule(eta=1e-2), batch_size=8, steps=40, seed=2)
        assert len(traj.columns["delta_t"]) == 40 and len(traj.columns["mu_t"]) == 39

    def test_regression_uniform(self, small_regression):
        self.check(small_regression, ReweightConfig(mode="uniform"),
                   StepSizeRule(eta=1e-2), batch_size=8, steps=25, seed=4)

    def test_regression_dro_kl(self, small_regression):
        self.check(small_regression, ReweightConfig(mode="dro_kl", dro_tau=2.0),
                   StepSizeRule(eta=1e-3), batch_size=8, steps=25, seed=5)

    def test_quadratic_capped_convex_theory_momentum(self, quadratic_problem):
        rw = ReweightConfig(mode="capped", schedule=constant_schedule(0.1), cap=2.0 / 8)
        traj = self.check(quadratic_problem, rw,
                          StepSizeRule(kind="convex_theory", L=quadratic_problem.L),
                          batch_size=8, steps=30, seed=6, momentum=True)
        assert len(traj.columns["theta_dist_sq"]) == len(traj.columns["delta_t"]) == 30

    def test_nonconvex_has_no_delta(self):
        # No closed-form minimizer, so no optimal losses: the gradient-norm
        # gap is the non-convex diagnostic.
        problem = NonconvexProblem(n_samples=64, dim=5, seed=2)
        traj = self.check(problem, ReweightConfig(schedule=constant_schedule(0.5)),
                          StepSizeRule(eta=0.05), batch_size=8, steps=30, seed=7)
        assert "delta_t" not in traj.columns and len(traj.columns["grad_gap"]) == 30

    def test_zero_steps(self, small_regression):
        traj = self.check(small_regression, ReweightConfig(),
                          StepSizeRule(eta=1e-2), batch_size=8, steps=0, seed=8)
        assert len(traj.columns["step"]) == 1 and traj.thetas.shape == (1, 17)

    def test_divergence_on_loss_check(self, small_regression):
        traj = self.check(small_regression, ReweightConfig(mode="uniform"),
                          StepSizeRule(eta=10.0), batch_size=16, steps=200, seed=0)
        assert traj.diverged
        # the loss check stops the run before the step is recorded
        assert len(traj.columns["step"]) == traj.divergence_step == len(traj.thetas) - 1

    def test_divergence_in_update(self):
        with np.errstate(over="ignore", invalid="ignore"):
            traj = self.check(_BlowUpProblem(), ReweightConfig(),
                              StepSizeRule(eta=1.0), batch_size=4, steps=50, seed=9)
        assert traj.diverged and traj.divergence_step == 3
        # the failed step is recorded, its iterate is not
        assert len(traj.columns["step"]) == 4 and len(traj.thetas) == 4


def assert_same_cell(got, want, problem=None):
    """assert_same_run for a cell run without history: only its final
    iterate is kept, and no batch indices or weights."""
    assert (got.batch_indices, got.batch_weights) == (None, None)
    assert got.thetas.shape == (1, want.thetas.shape[1])
    np.testing.assert_array_equal(got.final_theta, want.final_theta)
    full = Trajectory(columns=got.columns, thetas=want.thetas, batch_indices=want.batch_indices,
                      batch_weights=want.batch_weights, diverged=got.diverged,
                      divergence_step=got.divergence_step)
    assert_same_run(full, want, problem)


def step_drop(r_initial, r_final, warmup_steps):
    return TemperatureSchedule(kind="step_drop", r_initial=r_initial, r_final=r_final,
                               warmup_steps=warmup_steps)


class TestTemperatureColumn:
    """The r column, built from its values before and after warmup_steps,
    equals the per-step _temperature of every recorded step, type and all."""

    STEPS = 12

    @pytest.mark.parametrize("config", [
        ReweightConfig(schedule=TemperatureSchedule(kind="constant", r_initial=0.5,
                                                    r_final=3.0, warmup_steps=5)),
        ReweightConfig(schedule=step_drop(100.0, 1.0, 0)),
        ReweightConfig(schedule=step_drop(100.0, 1.0, 5)),
        ReweightConfig(schedule=step_drop(100.0, 1.0, STEPS)),
        ReweightConfig(schedule=step_drop(100.0, 1.0, STEPS + 30)),
        ReweightConfig(mode="dro_kl", dro_tau=2.0, schedule=step_drop(100.0, 1.0, 5)),
        ReweightConfig(mode="dro_kl", schedule=step_drop(100.0, 0.5, 5)),
        ReweightConfig(mode="uniform", schedule=step_drop(100, 2, 5)),
        ReweightConfig(schedule=constant_schedule(2)),
    ], ids=["constant", "step_drop-0", "step_drop-mid", "step_drop-T", "step_drop-after-T",
            "dro_kl-tau", "dro_kl-no-tau", "int-step_drop", "int-constant"])
    @pytest.mark.parametrize("steps", [0, STEPS])
    def test_matches_per_step_temperature(self, quadratic_problem, config, steps):
        (traj,) = run_cells(quadratic_problem, [(config, 0)], StepSizeRule(eta=0.01), 8, steps)
        want = [_temperature(config, t) for t in range(max(steps, 1))]
        r = traj.columns["r"]
        assert r.dtype == object
        assert [repr(x) for x in r.tolist()] == [repr(x) for x in want]


class TestLockstepMatchesReference:
    """Cells trained as rows of one loop reproduce their own runs exactly,
    including cells beside rows that diverge or fail: bit for bit the
    one-cell run_training and the reference loop."""

    def check(self, problem, cells, rule, batch_size, steps, momentum=False):
        args = (rule, batch_size, steps)
        for history in (True, False):
            same = assert_same_run if history else assert_same_cell
            outcomes = list(run_cells(problem, cells, *args, momentum=momentum,
                                      history=history))
            assert len(outcomes) == len(cells)
            for (rw, seed), got in zip(cells, outcomes):
                try:
                    want = _reference_run_training(problem, rw, *args, seed=seed,
                                                   momentum=momentum)
                except ConfigError:
                    with pytest.raises(ConfigError, match=re.escape(str(got))):
                        run_training(problem, rw, *args, seed=seed, momentum=momentum)
                    continue
                same(got, want, problem)
                same(got, run_training(problem, rw, *args, seed=seed, momentum=momentum))
        return outcomes

    def test_regression_mixed_group(self):
        # dro_kl diverges mid-run at this lr, and cap = 0.001 is infeasible.
        problem = RegressionProblem(gen_regression(p=64, n=200, m=50, seed=0, n_test=16))
        step_drop = TemperatureSchedule(kind="step_drop", r_initial=50.0, r_final=0.5,
                                        warmup_steps=10)
        cells = [
            (ReweightConfig(mode="uniform"), 0),
            (ReweightConfig(schedule=constant_schedule()), 0),
            (ReweightConfig(schedule=constant_schedule()), 1),
            (ReweightConfig(mode="dro_kl", dro_tau=1.0), 0),
            (ReweightConfig(mode="capped", cap=0.001), 0),
            (ReweightConfig(mode="quadratic", schedule=step_drop), 2),
            (ReweightConfig(mode="extremes", schedule=constant_schedule(0.5)), 3),
            (ReweightConfig(mode="capped", schedule=constant_schedule(1e-6), cap=0.25), 4),
        ]
        outcomes = self.check(problem, cells, StepSizeRule(eta=1e-2), batch_size=8, steps=60)
        assert outcomes[3].diverged and 0 < outcomes[3].divergence_step < 60
        # the diverged cell keeps its exact delta_t on the steps it recorded
        assert len(outcomes[3].columns["delta_t"]) == outcomes[3].divergence_step
        assert "infeasible cap" in str(outcomes[4])

    def test_quadratic_convex_theory_momentum(self, quadratic_problem):
        # r = 0.01 softmax weights exceed 2/b mid-run; cap 0.5 > 2/b fails
        # before the first step. The other cells must be untouched.
        cells = [
            (ReweightConfig(mode="capped", schedule=constant_schedule(0.1), cap=2.0 / 8), 6),
            (ReweightConfig(schedule=constant_schedule(0.01)), 0),
            (ReweightConfig(mode="uniform"), 1),
            (ReweightConfig(mode="capped", cap=0.5), 2),
            (ReweightConfig(mode="capped", schedule=constant_schedule(0.1), cap=2.0 / 8), 7),
        ]
        outcomes = self.check(quadratic_problem, cells,
                              StepSizeRule(kind="convex_theory", L=quadratic_problem.L),
                              batch_size=8, steps=30, momentum=True)
        assert "observed w_max" in str(outcomes[1]) and "w_max = 0.5" in str(outcomes[3])

    def test_infeasible_cap_never_enters_the_stack(self, monkeypatch):
        # The cap fails before step 0: the first loss_grad sees only the
        # other rows, and they train as they would alone.
        problem = RegressionProblem(gen_regression(p=8, n=64, m=16, seed=2, n_test=8))
        cells = [(ReweightConfig(), 0), (ReweightConfig(mode="capped", cap=0.1), 1),
                 (ReweightConfig(mode="uniform"), 2)]
        args = (StepSizeRule(eta=1e-2), 8, 20)
        solo = [next(run_cells(problem, [cell], *args)) for cell in cells]
        stacks, loss_grad = [], problem.loss_grad

        def spy(theta, idx, prev=None):
            stacks.append(len(theta))
            return loss_grad(theta, idx, prev)

        monkeypatch.setattr(problem, "loss_grad", spy)
        outcomes = list(run_cells(problem, cells, *args))
        assert stacks[0] == 2 and set(stacks) == {2}
        assert isinstance(outcomes[1], ConfigError)
        assert str(outcomes[1]) == str(solo[1]) == "infeasible cap: cap*b = 0.8 < 1"
        for i in (0, 2):
            assert column_text(outcomes[i]) == column_text(solo[i])
            np.testing.assert_array_equal(outcomes[i].final_theta, solo[i].final_theta)

    def test_nonconvex_has_no_delta(self):
        problem = NonconvexProblem(n_samples=64, dim=5, seed=2)
        cells = [(ReweightConfig(mode=s, schedule=constant_schedule(0.5)), seed)
                 for s in SCORED_AND_UNIFORM for seed in (0, 7)]
        outcomes = self.check(problem, cells, StepSizeRule(eta=0.05), batch_size=8, steps=30)
        assert all("delta_t" not in traj.columns for traj in outcomes)

    def test_zero_steps_and_update_divergence(self):
        cells = [(ReweightConfig(), 9), (ReweightConfig(mode="uniform"), 1)]
        self.check(RegressionProblem(gen_regression(p=4, n=32, m=8, n_test=4)), cells,
                   StepSizeRule(eta=1e-2), batch_size=8, steps=0)
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = self.check(_BlowUpProblem(), cells, StepSizeRule(eta=1.0),
                                  batch_size=4, steps=50)
        assert all(t.divergence_step == 3 for t in outcomes)

    def test_group_size_follows_the_byte_budget(self, monkeypatch, small_regression):
        # One cell per group gives the same outcomes as one group for all.
        cells = [(ReweightConfig(schedule=constant_schedule(r)), seed)
                 for r in (0.5, 2.0) for seed in (0, 1)]
        args = (small_regression, cells, StepSizeRule(eta=1e-2), 8, 20)
        together = list(run_cells(*args))
        monkeypatch.setattr(optim, "LOCKSTEP_BYTES", 1)
        for a, b in zip(together, run_cells(*args)):
            assert column_text(a) == column_text(b)


def test_infeasible_cap_has_one_message(small_regression):
    # The closed form, the projection, the oracle and a training cell all
    # reject cap*b < 1 through one check, with one message.
    cap, b = 0.1, 8
    calls = [lambda: capped_optimal_weights(np.zeros(b), 1.0, cap),
             lambda: project_capped_simplex(np.full(b, 1.0 / b), cap),
             lambda: brute_force_optimal_weights(np.zeros(b), 1.0, cap)]
    messages = []
    for call in calls:
        with pytest.raises(ConfigError) as caught:
            call()
        messages.append(str(caught.value))
    (cell,) = run_cells(small_regression, [(ReweightConfig(mode="capped", cap=cap), 0)],
                        StepSizeRule(eta=1e-2), b, 5)
    assert isinstance(cell, ConfigError)
    assert messages == [str(cell)] * 3 == ["infeasible cap: cap*b = 0.8 < 1"] * 3


class TestGradGapFromNorms:
    """grad_gap takes ||g_i||^2 from loss_grad. On the linear problems that
    is phi'(r_i)^2 ||x_i||^2, which must stay within 1e-12 sum_i |u_i|
    ||g_i||^2 of the formula on the gradients' own squares; the quadratic
    problem returns that formula, so its column must not move a bit."""

    PROBLEMS = {
        "regression": (lambda: RegressionProblem(gen_regression(p=8, n=120, m=30, seed=4,
                                                                n_test=8)), 1e-2),
        "nonconvex": (lambda: NonconvexProblem(n_samples=96, dim=6, seed=4), 0.05),
        "quadratic": (lambda: QuadraticProblem(gen_quadratic_suite(M=32, d=8, seed=4)), 0.01),
    }

    @pytest.mark.parametrize("momentum", [False, True])
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_grad_gap_against_squared_gradients(self, name, momentum):
        make, eta = self.PROBLEMS[name]
        problem, b = make(), 8
        config = ReweightConfig(mode="extremes", schedule=constant_schedule(0.5))
        traj = run_training(problem, config, StepSizeRule(eta=eta), batch_size=b, steps=300,
                            seed=4, momentum=momentum)
        assert not traj.diverged
        # Every step's gradients at once, as a stack of its iterates: each row
        # is bit for bit the loop's one-row call.
        g = per_sample_gradients(problem.loss_grad(traj.thetas[:-1], traj.batch_indices)[1])
        sq, u = (g**2).sum(axis=-1), 1.0 / b - traj.batch_weights
        formula = np.add.reduce(u * sq, axis=-1)
        got = traj.columns["grad_gap"]
        if name == "quadratic":
            assert got.tobytes() == formula.tobytes()
        else:
            scale = np.add.reduce(np.abs(u) * sq, axis=-1)
            assert np.all(np.abs(got - formula) <= 1e-12 * scale)
            assert not np.array_equal(got, formula)  # the norms do come from the identity


LINEAR_PROBLEMS = {
    "regression": lambda: RegressionProblem(gen_regression(p=16, n=64, m=16, seed=6,
                                                           n_test=8)),
    "nonconvex": lambda: NonconvexProblem(n_samples=64, dim=16, seed=6),
}


@pytest.mark.parametrize("name", sorted(LINEAR_PROBLEMS))
def test_loop_forms_no_gradient_stack(name, monkeypatch):
    # The linear problems hand the loop phi'(r) and the gathered rows, which
    # weighted_grad sums as (w phi'(r))' rows: the only (S, b, d) array in
    # what loss_grad returns is the rows themselves, never the per-sample
    # gradients phi'(r_i) x_i.
    problem, b = LINEAR_PROBLEMS[name](), 8
    returned, loss_grad = [], problem.loss_grad

    def spy(theta, idx, prev=None):
        # idx is a view of the epoch orders, which the next reshuffle refills
        returned.append((idx.copy(), loss_grad(theta, idx, prev)))
        return returned[-1][1]

    monkeypatch.setattr(problem, "loss_grad", spy)
    cells = [(ReweightConfig(mode=mode), seed) for mode in SCORED_AND_UNIFORM for seed in (0, 1)]
    list(run_cells(problem, cells, StepSizeRule(eta=1e-2), b, 20, momentum=True))
    assert len(returned) == 20
    for idx, out in returned:
        arrays = [a for item in out for a in (item if isinstance(item, tuple) else (item,))]
        stacks = [a for a in arrays if np.shape(a) == (len(cells), b, problem.dim)]
        assert len(stacks) == 1 and stacks[0].tobytes() == problem._rows[idx].tobytes()


def _stacked_weighted_grad(parts, w):
    """sum_i w_i g_i by way of the per-sample gradient stack: the reference
    arithmetic weighted_grad avoids."""
    return np.matmul(w[..., None, :], per_sample_gradients(parts))[..., 0, :]


class TestSummedGradientDrift:
    """weighted_grad sums (w phi'(r))' rows on the linear problems; summing
    w' g over the per-sample stack g_i = phi'(r_i) x_i differs from it by
    rounding alone. On the configs/toy_regression.json problem and step size,
    train_loss, test_loss and w_max stay within 1e-13 relative of the stacked
    arithmetic, and mu_t, a sum of differences of near-equal losses, within
    1e-11 of sum_i |u_i| |f_i - f_prev,i|. The quadratic problem's parts are
    its gradients, so its sum is the stacked one: configs/quadratic_theory.json
    runs byte for byte the same either way."""

    def test_toy_regression(self, monkeypatch):
        problem, b = RegressionProblem(gen_regression(seed=0)), 32
        drop = TemperatureSchedule(kind="step_drop", r_initial=100.0, r_final=1.0,
                                   warmup_steps=100)
        cells = [(ReweightConfig(mode=mode, schedule=drop), 0)
                 for mode in ("linupper", "quadratic", "extremes")]
        args = (problem, cells, StepSizeRule(eta=1e-3), b, 2000)
        new = list(run_cells(*args, history=True))
        monkeypatch.setattr(problem, "weighted_grad", _stacked_weighted_grad)
        old = list(run_cells(*args, history=True))
        for got, want in zip(new, old):
            assert not np.array_equal(got.thetas, want.thetas)  # the bits do move
            for name in ("train_loss", "test_loss", "w_max"):
                np.testing.assert_allclose(got.columns[name], want.columns[name], rtol=1e-13,
                                           atol=0)
            # mu_t at step t >= 1 weighs the losses at theta_t against those
            # at theta_{t-1} on the step's rows.
            f, u = np.array(history_losses(problem, got)[1:]), 1.0 / b - got.batch_weights[1:]
            f_prev = problem.losses(got.thetas[:-2], got.batch_indices[1:])
            scale = np.add.reduce(np.abs(u) * np.abs(f - f_prev), axis=-1)
            assert np.all(np.abs(got.columns["mu_t"] - want.columns["mu_t"]) <= 1e-11 * scale)

    @pytest.mark.parametrize("momentum", [False, True])
    def test_quadratic_theory_unchanged(self, monkeypatch, momentum):
        problem = QuadraticProblem(gen_quadratic_suite(M=64, d=16, seed=0))
        args = (problem, [(ReweightConfig(mode="capped"), 0)],
                StepSizeRule(kind="convex_theory", L=problem.L), 64, 500)
        (new,) = run_cells(*args, momentum=momentum, history=True)
        monkeypatch.setattr(problem, "weighted_grad", _stacked_weighted_grad)
        (old,) = run_cells(*args, momentum=momentum, history=True)
        assert_same_run(new, old)


def test_sweep_toy_runs_as_one_group():
    # A cell keeps only its seven regression columns, its final iterate and
    # its epoch order, so the budget holds all 20 sweep_toy cells
    # (gen_regression defaults, b = 32, 2000 steps; four strategies of five
    # seeds) in one group.
    problem = RegressionProblem(gen_regression())
    assert cell_bytes(problem, 32, 2000) == 8 * (7 * 2000 + problem.dim + problem.n_samples)
    assert optim.LOCKSTEP_BYTES // cell_bytes(problem, 32, 2000) >= 20


def test_lockstep_memory_stays_within_budget(monkeypatch):
    # A group allocates its column arrays, final iterates and epoch orders,
    # LOCKSTEP_BYTES here. Beside them a step holds its gathered rows, one
    # (S, b, d) array, and less than that again for everything else:
    # iterates, generators, (S, b) temporaries, test residuals and the
    # handed-out cell's step and r columns. So a second (S, b, d) array, such
    # as a per-sample gradient stack or the last step's rows kept alive,
    # fails, as does any (G, T, b) history kept without `history`, or a
    # finished group kept alive beside the next. With 4000 samples the epoch
    # orders outweigh the columns, so a reshuffle that builds a second copy
    # of them fails too.
    b, steps, group = 32, 200, 5
    cells = [(ReweightConfig(mode=s, schedule=constant_schedule()), seed)
             for s in SCORED_AND_UNIFORM for seed in range(5)]
    for n, m in ((48, 16), (3200, 800)):
        problem = RegressionProblem(gen_regression(p=64, n=n, m=m, seed=0, n_test=64))
        monkeypatch.setattr(optim, "LOCKSTEP_BYTES", group * cell_bytes(problem, b, steps))
        rows = 8 * group * b * problem.dim
        tracemalloc.start()
        try:
            for outcome in run_cells(problem, cells, StepSizeRule(eta=1e-3), b, steps):
                assert len(outcome.columns["step"]) == steps
                del outcome
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < optim.LOCKSTEP_BYTES + 2 * rows, (n + m, peak)


class TestExactRegressionDelta:
    """RegressionProblem's optimal losses are those at the least-squares
    solution on [X 1], and the loop's delta_t is diagnostics.delta_t against
    them."""

    @staticmethod
    def lstsq_losses(data):
        X1 = np.hstack([data.X, np.ones((len(data.y), 1))])
        theta = np.linalg.lstsq(X1, data.y, rcond=None)[0]
        return 0.5 * (X1 @ theta - data.y) ** 2

    @staticmethod
    def matches(got, want):
        return np.all(np.abs(got - want) <= 1e-11 * np.abs(want).max())

    @pytest.mark.parametrize("seed", [0, 3])
    def test_losses_at_opt_match_lstsq(self, seed):
        # the sweep_toy data: gen_regression defaults
        data = gen_regression(seed=seed)
        problem, want = RegressionProblem(data), self.lstsq_losses(data)
        got = problem.losses_at_opt(np.arange(problem.n_samples))
        assert self.matches(got, want)
        # negative control: optimal losses off by 1e-9 fail
        assert not self.matches(got + 1e-9, want)
        idx = np.array([[3, 0, 7], [3999, 5, 5]])
        assert problem.losses_at_opt(idx).tobytes() == got[idx].tobytes()

    def test_rank_deficient_data_interpolate(self):
        # Fewer rows than p + 1: the optimum fits every row.
        data = gen_regression(p=64, n=40, m=10, seed=3, n_test=8)
        got = RegressionProblem(data).losses_at_opt(np.arange(50))
        assert np.all(got <= 1e-20 * (0.5 * data.y**2).max())
        assert np.all(self.lstsq_losses(data) <= 1e-20 * (0.5 * data.y**2).max())

    def test_run_delta_t_from_history(self, small_regression):
        # Rebuilt step by step from the run's own history, to 1e-12 of
        # sum_i |u_i| |f_i - f_i*|.
        b = 8
        traj = run_training(small_regression, ReweightConfig(mode="extremes"),
                            StepSizeRule(eta=1e-2), batch_size=b, steps=300, seed=1)
        losses = np.array(history_losses(small_regression, traj))
        f_opt = small_regression.losses_at_opt(traj.batch_indices)
        want = np.array([delta_t(f, f_star, w) for f, f_star, w
                         in zip(losses, f_opt, traj.batch_weights)])
        u = 1.0 / b - traj.batch_weights
        scale = np.add.reduce(np.abs(u) * np.abs(losses - f_opt), axis=1)
        assert np.all(np.abs(traj.columns["delta_t"] - want) <= 1e-12 * scale)
