"""Tests for the reweighted gradient-descent and momentum optimizers."""

import numpy as np
import pytest

from reweight.core import (
    ConfigError,
    ReweightConfig,
    Strategy,
    TemperatureSchedule,
    ValidationError,
)
from reweight.optim import (
    OptimizerState,
    StepSizeRule,
    gd_step,
    momentum_step,
    run_training,
    theory_stepsize,
)
from reweight.problems import (
    QuadraticProblem,
    RegressionProblem,
    gen_quadratic_suite,
    gen_regression,
)


def make_state(theta, eta, z=None):
    theta = np.asarray(theta, dtype=float)
    return OptimizerState(theta=theta, z=z, step=0, eta=eta)


def constant_schedule(r=1.0):
    return TemperatureSchedule(kind="constant", r_initial=r)


class TestGdStep:
    def test_zero_gradients_fixed_point(self):
        s = make_state([1.0, -2.0], eta=0.1)
        s2 = gd_step(s, np.zeros((3, 2)), np.full(3, 1 / 3))
        np.testing.assert_array_equal(s2.theta, s.theta)
        assert s2.step == 1

    def test_uniform_weights_average_gradient(self):
        g = np.array([[2.0], [4.0]])
        s = gd_step(make_state([1.0], eta=0.1), g, [0.5, 0.5])
        np.testing.assert_allclose(s.theta, [1.0 - 0.1 * 3.0])

    def test_hand_arithmetic(self):
        g = np.array([[2.0], [4.0]])
        s = gd_step(make_state([1.0], eta=0.1), g, [0.25, 0.75])
        np.testing.assert_allclose(s.theta, [0.65])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            gd_step(make_state([1.0], eta=0.1), np.zeros((3, 1)), [0.5, 0.5])


class TestMomentumStep:
    def test_lambda_zero_is_pure_z_step(self):
        g = np.array([[1.0], [3.0]])
        s = make_state([5.0], eta=0.1, z=np.array([2.0]))
        s2 = momentum_step(s, g, [0.5, 0.5], lambda_next=0.0)
        np.testing.assert_allclose(s2.z, [2.0 - 0.1 * 2.0])
        np.testing.assert_array_equal(s2.theta, s2.z)

    def test_zero_grad_with_z_equal_theta_fixed_point(self):
        s = make_state([1.5], eta=0.1, z=np.array([1.5]))
        s2 = momentum_step(s, np.zeros((2, 1)), [0.5, 0.5], lambda_next=3.0)
        np.testing.assert_allclose(s2.theta, [1.5])
        np.testing.assert_allclose(s2.z, [1.5])

    def test_hand_arithmetic(self):
        # weighted gradient sum 2 with eta 0.1: z' = 0.8,
        # theta' = (0.5/1.5) * 1 + (1/1.5) * 0.8 = 0.8667
        g = np.array([[2.0]])
        s = make_state([1.0], eta=0.1, z=np.array([1.0]))
        s2 = momentum_step(s, g, [1.0], lambda_next=0.5)
        np.testing.assert_allclose(s2.z, [0.8])
        np.testing.assert_allclose(s2.theta, [1.0 / 3.0 + (2.0 / 3.0) * 0.8])

    def test_missing_z_rejected(self):
        with pytest.raises(ValidationError):
            momentum_step(make_state([1.0], eta=0.1), np.zeros((1, 1)), [1.0], 0.5)

    def test_negative_lambda_rejected(self):
        s = make_state([1.0], eta=0.1, z=np.array([1.0]))
        with pytest.raises(ConfigError):
            momentum_step(s, np.zeros((1, 1)), [1.0], lambda_next=-0.1)


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


@pytest.fixture(scope="module")
def quadratic_problem():
    return QuadraticProblem(gen_quadratic_suite(M=32, d=8, seed=0))


class TestRunTraining:
    def test_zero_steps_single_record(self, quadratic_problem):
        traj = run_training(
            quadratic_problem,
            ReweightConfig(strategy=Strategy.UNIFORM),
            StepSizeRule(kind="fixed", eta=0.01),
            batch_size=8,
            steps=0,
        )
        assert len(traj.records) == 1
        assert traj.records[0].step == 0
        assert traj.thetas.shape == (1, 8)
        assert not traj.diverged

    def test_determinism(self, quadratic_problem):
        kwargs = dict(
            reweight_config=ReweightConfig(
                strategy=Strategy.LINUPPER, schedule=constant_schedule()
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
            ReweightConfig(strategy=Strategy.UNIFORM),
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
            theta = theta - eta * (uniform @ problem.grads(theta, idx))
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
                strategy=Strategy.LINUPPER, schedule=constant_schedule(1e6)
            ),
            **common,
        )
        uni = run_training(
            quadratic_problem, ReweightConfig(strategy=Strategy.UNIFORM), **common
        )
        assert np.abs(hot.thetas - uni.thetas).max() <= 1e-6

    def test_momentum_equals_single_sequence_recursion(self, quadratic_problem):
        problem = quadratic_problem
        eta, steps = 0.005, 100
        traj = run_training(
            problem,
            ReweightConfig(strategy=Strategy.LINUPPER, schedule=constant_schedule()),
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
            wg = traj.batch_weights[t] @ problem.grads(theta, traj.batch_indices[t])
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
            ReweightConfig(strategy=Strategy.UNIFORM),
            StepSizeRule(kind="fixed", eta=10.0),
            batch_size=16,
            steps=200,
            seed=0,
        )
        assert traj.diverged
        assert traj.divergence_step is not None
        assert len(traj.records) < 200

    def test_bad_batch_size_rejected(self, quadratic_problem):
        with pytest.raises(ConfigError):
            run_training(
                quadratic_problem,
                ReweightConfig(strategy=Strategy.UNIFORM),
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
                ReweightConfig(strategy=Strategy.LINUPPER, schedule=constant_schedule(0.01)),
                StepSizeRule(kind="convex_theory", L=quadratic_problem.L),
                batch_size=8,
                steps=20,
            )

    def test_averaged_theta(self, quadratic_problem):
        traj = run_training(
            quadratic_problem,
            ReweightConfig(strategy=Strategy.UNIFORM),
            StepSizeRule(kind="fixed", eta=0.01),
            batch_size=8,
            steps=10,
        )
        np.testing.assert_allclose(
            traj.averaged_theta(4), traj.thetas[:4].mean(axis=0)
        )
