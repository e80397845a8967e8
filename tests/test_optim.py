"""Tests for the reweighted gradient-descent and momentum optimizers."""

import re
import tracemalloc

import numpy as np
import pytest

from reweight import optim

from reweight.core import (
    ConfigError,
    ReweightConfig,
    TemperatureSchedule,
    ValidationError,
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
from reweight.problems import (
    NonconvexProblem,
    QuadraticProblem,
    RegressionProblem,
    gen_quadratic_suite,
    gen_regression,
)


def constant_schedule(r=1.0):
    return TemperatureSchedule(kind="constant", r_initial=r)


class TestGdStep:
    def test_zero_gradients_fixed_point(self):
        theta = np.array([1.0, -2.0])
        np.testing.assert_array_equal(gd_step(theta, 0.1, np.zeros((3, 2)), np.full(3, 1 / 3)),
                                      theta)

    def test_uniform_weights_average_gradient(self):
        g = np.array([[2.0], [4.0]])
        theta = gd_step(np.array([1.0]), 0.1, g, [0.5, 0.5])
        np.testing.assert_allclose(theta, [1.0 - 0.1 * 3.0])

    def test_hand_arithmetic(self):
        g = np.array([[2.0], [4.0]])
        np.testing.assert_allclose(gd_step(np.array([1.0]), 0.1, g, [0.25, 0.75]), [0.65])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            gd_step(np.array([1.0]), 0.1, np.zeros((3, 1)), [0.5, 0.5])


class TestMomentumStep:
    def test_lambda_zero_is_pure_z_step(self):
        g = np.array([[1.0], [3.0]])
        theta, z = momentum_step(np.array([5.0]), np.array([2.0]), 0.1, g, [0.5, 0.5],
                                 lambda_next=0.0)
        np.testing.assert_allclose(z, [2.0 - 0.1 * 2.0])
        np.testing.assert_array_equal(theta, z)

    def test_zero_grad_with_z_equal_theta_fixed_point(self):
        theta, z = momentum_step(np.array([1.5]), np.array([1.5]), 0.1, np.zeros((2, 1)),
                                 [0.5, 0.5], lambda_next=3.0)
        np.testing.assert_allclose(theta, [1.5])
        np.testing.assert_allclose(z, [1.5])

    def test_hand_arithmetic(self):
        # weighted gradient sum 2 with eta 0.1: z' = 0.8,
        # theta' = (0.5/1.5) * 1 + (1/1.5) * 0.8 = 0.8667
        g = np.array([[2.0]])
        theta, z = momentum_step(np.array([1.0]), np.array([1.0]), 0.1, g, [1.0],
                                 lambda_next=0.5)
        np.testing.assert_allclose(z, [0.8])
        np.testing.assert_allclose(theta, [1.0 / 3.0 + (2.0 / 3.0) * 0.8])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            momentum_step(np.array([1.0]), np.array([1.0]), 0.1, np.zeros((1, 1)), [1.0],
                          lambda_next=-0.1)


class TestTheoryStepsize:
    def test_fixed_passthrough(self):
        assert theory_stepsize(StepSizeRule(kind="fixed", eta=0.3)) == 0.3

    def test_convex_theory_bound_tight(self):
        # L=1, w_max = 2/M: eta = 1/8 equals 1/(4 M L (2/M)) exactly.
        M = 16
        eta = theory_stepsize(
            StepSizeRule(kind="convex_theory", L=1.0), w_max=2.0 / M, batch=M
        )
        assert eta == 0.125
        assert eta == 1.0 / (4.0 * M * 1.0 * (2.0 / M))

    def test_sqrt_horizon(self):
        eta = theory_stepsize(StepSizeRule(kind="sqrt_horizon", L=2.0, horizon_T=16))
        assert eta == 1.0 / 64.0

    def test_excess_w_max_rejected(self):
        M = 12
        with pytest.raises(ConfigError):
            theory_stepsize(
                StepSizeRule(kind="convex_theory", L=1.0), w_max=3.0 / M, batch=M
            )

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
        with np.errstate(over="ignore"):
            problem = RegressionProblem(gen_regression(p=4, n=16, m=0, noise_c=1e300,
                                                       n_test=4))
            traj = run_training(problem, ReweightConfig(), StepSizeRule(eta=1e-2),
                                batch_size=8, steps=0)
        assert traj.diverged and traj.divergence_step == 0
        assert all(len(col) == 0 for col in traj.columns.values())
        assert traj.thetas.shape == (1, 5)

    def test_bad_batch_size_rejected(self, quadratic_problem):
        with pytest.raises(ConfigError):
            run_training(
                quadratic_problem,
                ReweightConfig(mode="uniform"),
                StepSizeRule(kind="fixed", eta=0.01),
                batch_size=0,
                steps=1,
            )

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


def _reference_run_training(problem, reweight_config, stepsize, batch_size, steps,
                            seed=0, momentum=False):
    """The training loop before the fused step: separate losses and gradient
    calls, diagnostics through the public diagnostics functions, list
    histories turned into the trajectory's column arrays at the end, and a
    proxy delta from one losses call per step. Kept as the reference that
    run_training must reproduce exactly."""
    cap_bound = reweight_config.cap if reweight_config.cap is not None else 2.0 / batch_size
    eta = theory_stepsize(stepsize, w_max=cap_bound, batch=batch_size)
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
    batch_indices, batch_losses, batch_weights = [], [], []
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
        g = problem.loss_grad(theta, idx)[1]
        row = dict(step=t, train_loss=float(f.mean()), r=r_value, w_max=float(w.max()),
                   w_min=float(w.min()), grad_gap=grad_gap_term((g**2).sum(axis=1), w))
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
        batch_losses.append(f.copy())
        batch_weights.append(w.copy())
        return g

    for t in range(steps):
        idx = next_batch()
        f = problem.losses(theta, idx)
        if not np.all(np.isfinite(f)) or f.max() > DIVERGENCE_LOSS:
            diverged, divergence_step = True, t
            break
        r_value = schedule_r(t, reweight_config.schedule)
        w = compute_batch_weights(f, reweight_config, t)
        if stepsize.kind == "convex_theory" and w.max() > 2.0 / batch_size + 1e-12:
            raise ConfigError(f"step {t}: observed w_max exceeds 2/b")
        g = record_step(t, idx, f, w, r_value)
        if momentum:
            new, z = momentum_step(theta, z, eta, g, w, lambda_next=(t + 1) / 2.0)
            finite = np.isfinite(new).all() and np.isfinite(z).all()
        else:
            new = gd_step(theta, eta, g, w)
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
        record_step(0, idx, f, w, schedule_r(0, reweight_config.schedule))

    dtypes = {"step": int, "r": object}
    traj = Trajectory(columns={name: np.array(values, dtype=dtypes.get(name, float))
                               for name, values in columns.items()},
                      thetas=np.array(thetas), batch_indices=batch_indices,
                      batch_losses=batch_losses, batch_weights=batch_weights,
                      diverged=diverged, divergence_step=divergence_step)
    if not has_opt_losses and not diverged:
        traj.columns["delta_t"] = np.array([
            delta_t(f, problem.losses(traj.final_theta, idx), w)
            for idx, f, w in zip(batch_indices, batch_losses, batch_weights)])
        traj.delta_is_proxy = True
    return traj


def column_text(traj):
    """Each column's dtype and the repr of each value, which tells an int
    from a float and a numpy scalar from a Python one."""
    return {name: (col.dtype, [repr(v) for v in col.tolist()])
            for name, col in traj.columns.items()}


def assert_same_run(got, want, proxy_atol=0.0):
    """Every column, iterate and batch history equal; columns are compared
    by column_text, so an int in place of a float or a numpy scalar in an
    object column also fails. A proxy delta is compared to `proxy_atol` (see
    test_proxy_delta_at_any_batch_size)."""
    assert (got.diverged, got.divergence_step, got.delta_is_proxy) \
        == (want.diverged, want.divergence_step, want.delta_is_proxy)
    text, ref_text = column_text(got), column_text(want)
    if proxy_atol and want.delta_is_proxy:
        np.testing.assert_allclose(got.columns["delta_t"], want.columns["delta_t"],
                                   rtol=0, atol=proxy_atol)
        del text["delta_t"], ref_text["delta_t"]
    assert text == ref_text
    np.testing.assert_array_equal(got.thetas, want.thetas)
    for name in ("batch_indices", "batch_losses", "batch_weights"):
        rows, ref_rows = getattr(got, name), getattr(want, name)
        assert len(rows) == len(ref_rows) == len(got.columns["step"])
        for row, ref in zip(rows, ref_rows):
            np.testing.assert_array_equal(row, ref)


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
        return self.losses(theta, idx), self.grads(theta, idx), f_prev


class TestFusedRunMatchesReference:
    """run_training evaluates the problem once per step and computes its
    diagnostics online; it must reproduce the separate-call loop exactly."""

    def check(self, problem, rw, rule, batch_size, steps, **kwargs):
        args = (problem, rw, rule, batch_size, steps)
        got = run_training(*args, **kwargs)
        assert_same_run(got, _reference_run_training(*args, **kwargs))
        return got

    def test_regression_linupper_step_drop(self, small_regression):
        schedule = TemperatureSchedule(kind="step_drop", r_initial=100.0, r_final=0.5,
                                       warmup_steps=7)
        traj = self.check(small_regression, ReweightConfig(schedule=schedule),
                          StepSizeRule(eta=1e-2), batch_size=8, steps=40, seed=2)
        assert traj.delta_is_proxy and len(traj.columns["mu_t"]) == 39

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
        assert len(traj.columns["theta_dist_sq"]) == 30
        assert not traj.delta_is_proxy

    def test_nonconvex_proxy_delta(self):
        problem = NonconvexProblem(n_samples=64, dim=5, seed=2)
        traj = self.check(problem, ReweightConfig(schedule=constant_schedule(0.5)),
                          StepSizeRule(eta=0.05), batch_size=8, steps=30, seed=7)
        assert traj.delta_is_proxy and len(traj.columns["delta_t"]) == 30

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

    @pytest.mark.parametrize("batch_size", [3, 5, 6, 7])
    def test_proxy_delta_at_any_batch_size(self, small_regression, batch_size):
        # The proxy reads the final iterate's losses from one call over all
        # samples, where the reference made one call per batch. OpenBLAS
        # computes the last (b mod 4) rows of a GEMV with a different kernel,
        # so at such batch sizes a proxy loss can differ from the reference
        # in the last bit (up to 3e-16 in delta on this problem); every other
        # field stays exact.
        got = run_training(small_regression, ReweightConfig(), StepSizeRule(eta=1e-2),
                           batch_size=batch_size, steps=40, seed=3)
        want = _reference_run_training(small_regression, ReweightConfig(),
                                       StepSizeRule(eta=1e-2), batch_size=batch_size,
                                       steps=40, seed=3)
        assert_same_run(got, want, proxy_atol=1e-12)


def assert_same_cell(got, want, proxy_atol=0.0):
    """assert_same_run for a cell run without history: only its final
    iterate is kept, and no batch weights."""
    assert got.batch_weights is None and got.thetas.shape == (1, want.thetas.shape[1])
    np.testing.assert_array_equal(got.final_theta, want.final_theta)
    full = Trajectory(columns=got.columns, thetas=want.thetas, batch_indices=got.batch_indices,
                      batch_losses=got.batch_losses, batch_weights=want.batch_weights,
                      diverged=got.diverged, divergence_step=got.divergence_step,
                      delta_is_proxy=got.delta_is_proxy)
    assert_same_run(full, want, proxy_atol)


class TestLockstepMatchesReference:
    """Cells trained as rows of one loop reproduce their own runs exactly,
    including cells beside rows that diverge or fail: bit for bit the
    one-cell run_training, and the reference loop up to the last bit of a
    proxy delta (see test_proxy_delta_at_any_batch_size)."""

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
                same(got, want, proxy_atol=1e-12)
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

    def test_nonconvex_proxy_delta(self):
        problem = NonconvexProblem(n_samples=64, dim=5, seed=2)
        cells = [(ReweightConfig(mode=s, schedule=constant_schedule(0.5)), seed)
                 for s in SCORED_AND_UNIFORM for seed in (0, 7)]
        self.check(problem, cells, StepSizeRule(eta=0.05), batch_size=8, steps=30)

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


def whole_history_proxy(problem, config, traj, b):
    """A cell's proxy delta_t computed over its whole batch history at once."""
    losses = traj.batch_losses
    f_final = problem.losses(traj.final_theta, slice(None))
    w = compute_batch_weights(losses, config, np.arange(len(losses)))
    return np.add.reduce((1.0 / b - w) * (losses - f_final[traj.batch_indices]), axis=1)


class TestBlockwiseProxy:
    """The proxy delta_t is computed a block of steps at a time; each step
    must equal the whole-history formula bit for bit, on both sides of a
    block edge and across a temperature drop inside a later block."""

    PROBLEMS = {
        "regression": lambda: RegressionProblem(gen_regression(p=8, n=120, m=30, seed=2,
                                                               n_test=8)),
        "nonconvex": lambda: NonconvexProblem(n_samples=96, dim=6, seed=2),
    }

    @pytest.mark.parametrize("steps", [1, 255, 256, 257, 1000])
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_equals_whole_history(self, name, steps):
        problem, b = self.PROBLEMS[name](), 8
        drop = TemperatureSchedule(kind="step_drop", r_initial=50.0, r_final=0.5,
                                   warmup_steps=300)
        cells = [(ReweightConfig(schedule=drop), 0),
                 (ReweightConfig(mode="capped", schedule=constant_schedule(0.1)), 1),
                 (ReweightConfig(mode="quadratic", schedule=drop), 2)]
        outcomes = run_cells(problem, cells, StepSizeRule(eta=1e-2), b, steps)
        for (config, _), traj in zip(cells, outcomes):
            assert traj.delta_is_proxy and len(traj.columns["delta_t"]) == steps
            want = whole_history_proxy(problem, config, traj, b)
            assert traj.columns["delta_t"].tobytes() == want.tobytes()

    def test_diverged_cell_has_no_proxy(self):
        # dro_kl diverges past the first block at this lr and seed; its
        # neighbour keeps its proxy.
        problem = RegressionProblem(gen_regression(p=64, n=200, m=50, seed=0, n_test=16))
        cells = [(ReweightConfig(mode="dro_kl", dro_tau=1.0), 5), (ReweightConfig(), 0)]
        diverged, ok = run_cells(problem, cells, StepSizeRule(eta=8e-3), 8, 600)
        assert diverged.divergence_step > optim._PROXY_BLOCK
        assert "delta_t" not in diverged.columns and not diverged.delta_is_proxy
        assert not ok.diverged and ok.delta_is_proxy and len(ok.columns["delta_t"]) == 600


def test_sweep_toy_groups_hold_two_strategies():
    # The budget is sized for the sweep_toy cells (gen_regression defaults,
    # b = 32, 2000 steps): ten per group, two strategies of five seeds.
    problem = RegressionProblem(gen_regression())
    assert optim.LOCKSTEP_BYTES // cell_bytes(problem, 32, 2000) == 10


def test_lockstep_memory_stays_within_budget(monkeypatch):
    # A sweep's traced peak is the group budget plus what one group needs per
    # step and the column arrays of the one cell being handed out. Keeping
    # more history per cell, or a finished group alive beside the next, fails.
    problem = RegressionProblem(gen_regression(p=16, n=400, m=100, seed=0, n_test=64))
    b, steps, group = 8, 1000, 5
    monkeypatch.setattr(optim, "LOCKSTEP_BYTES", group * cell_bytes(problem, b, steps))
    cells = [(ReweightConfig(mode=s, schedule=constant_schedule()), seed)
             for s in SCORED_AND_UNIFORM for seed in range(5)]
    rule = StepSizeRule(eta=1e-3)
    # one cell's column arrays; all but step, r and delta_t are views of its
    # group's histories
    traj = run_training(problem, cells[0][0], rule, b, steps)
    columns = sum(col.nbytes for col in traj.columns.values())
    # gathered rows, gradients and their products, batch orders, test
    # residuals; and one block of a cell's proxy (its weights, 1/b - w, the
    # gathered final losses, their gap and the product), plus its (steps,)
    # result
    per_step = 8 * group * (4 * b * problem.dim + problem.n_samples + 2 * 64)
    proxy = 8 * 5 * optim._PROXY_BLOCK * b + 8 * steps
    tracemalloc.start()
    try:
        for outcome in run_cells(problem, cells, rule, b, steps):
            assert len(outcome.columns["step"]) == steps
            del outcome
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= optim.LOCKSTEP_BYTES + columns + per_step + proxy
