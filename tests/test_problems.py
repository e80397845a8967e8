"""Tests for the synthetic problem suites."""

import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from reweight.cli import EXIT_OK, main
from reweight.core import ReweightConfig, TemperatureSchedule
from reweight.optim import StepSizeRule, run_training
from reweight.problems import (
    NonconvexProblem,
    QuadraticProblem,
    QuadraticSuite,
    RegressionDataset,
    RegressionProblem,
    gen_quadratic_suite,
    gen_regression,
)


def gen_data_text(tmp_path, **cfg):
    """The CSV text `reweight gen-data` writes for the config."""
    path, out = tmp_path / "cfg.json", tmp_path / "data.csv"
    path.write_text(json.dumps(cfg))
    assert main(["gen-data", "--config", str(path), "--out", str(out)]) == EXIT_OK
    return out.read_bytes().decode()


def per_sample_gradients(parts):
    """The per-sample gradients g_i, (..., b, d), behind loss_grad's parts:
    phi'(r_i) x_i from a linear problem's (phi'(r), rows), and the quadratic
    problem's parts, which are its gradients. Training never forms this
    stack; it sums w_i g_i through weighted_grad."""
    if isinstance(parts, tuple):
        df, rows = parts
        return df[..., None] * rows
    return parts


def power_iteration_eigmax(A, iters=500):
    v = np.ones(A.shape[0]) / np.sqrt(A.shape[0])
    for _ in range(iters):
        v = A @ v
        v /= np.linalg.norm(v)
    return float(v @ A @ v)


class TestGenRegression:
    def test_default_shape(self):
        data = gen_regression()
        assert data.X.shape == (4000, 64)
        assert data.y.shape == (4000,)
        assert data.n_clean == 3200
        assert data.m_outlier == 800
        assert data.X_test.shape == (800, 64)

    def test_no_outliers(self):
        data = gen_regression(p=4, n=32, m=0, seed=1, n_test=8)
        assert data.X.shape == (32, 4)
        assert data.m_outlier == 0
        assert np.all(data.is_outlier == 0)

    def test_outlier_feature_means_near_two(self):
        data = gen_regression(seed=0)
        means = data.X[data.n_clean :].mean(axis=0)
        assert np.all(means >= 1.97)
        assert np.all(means <= 2.03)

    def test_regeneration_bitwise_identical(self):
        a = gen_regression(seed=11)
        b = gen_regression(seed=11)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.X_test, b.X_test)
        np.testing.assert_array_equal(a.W_star, b.W_star)

    def test_clean_targets_follow_linear_model(self):
        data = gen_regression(p=4, n=64, m=8, noise_c=0.0, seed=2, n_test=16)
        np.testing.assert_allclose(
            data.y[: data.n_clean], data.X[: data.n_clean] @ data.W_star + data.b_star
        )

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            gen_regression(p=0)

    def test_empty_test_split_rejected(self):
        # An empty split would make test_loss a nan mean with a RuntimeWarning.
        with pytest.raises(ValueError, match="n_test"):
            gen_regression(p=2, n=8, m=2, n_test=0)

    def test_csv_roundtrip_exact(self, tmp_path):
        # Every float is written with repr, so parsing it back is exact.
        data = gen_regression(p=3, n=16, m=4, seed=5, n_test=4)
        text = gen_data_text(tmp_path, p=3, n=16, m=4, seed=5, n_test=4)
        rows = [row.split(",") for row in text.split("\r\n")[1:] if row]
        np.testing.assert_array_equal([[float(v) for v in row[:3]] for row in rows], data.X)
        np.testing.assert_array_equal([float(row[3]) for row in rows], data.y)
        np.testing.assert_array_equal([int(row[4]) for row in rows], data.is_outlier)
        assert data.is_outlier.sum() == data.m_outlier == 4

    def test_csv_format(self, tmp_path):
        text = gen_data_text(tmp_path, p=2, n=3, m=1, seed=0, n_test=1)
        lines = text.split("\r\n")
        assert lines[0] == "x_0,x_1,y,is_outlier"
        assert len([ln for ln in lines if ln]) == 5


def one_sample_regression(x, y):
    """RegressionProblem over the single training row (x, y)."""
    X = np.array([x], dtype=float)
    return RegressionProblem(RegressionDataset(
        X=X, y=np.array([y], dtype=float), n_clean=1, m_outlier=0,
        W_star=np.zeros(X.shape[1]), b_star=0.0, X_test=X, y_test=np.array([y], dtype=float),
    ))


class TestRegressionLossGrad:
    # theta is (W, b): the bias is the trailing coordinate.
    def test_perfect_fit(self):
        problem = one_sample_regression([2.0], 2.0)
        loss, parts, _, _ = problem.loss_grad(np.array([1.0, 0.0]), np.array([0]))
        assert loss[0] == 0.0
        np.testing.assert_array_equal(problem.weighted_grad(parts, np.ones(1)), [0.0, 0.0])

    def test_hand_arithmetic(self):
        # r = 2 * 1 + 0 - 0: loss r^2/2 = 2, gradient r * (x, 1) = (4, 2).
        problem = one_sample_regression([2.0], 0.0)
        loss, parts, _, _ = problem.loss_grad(np.array([1.0, 0.0]), np.array([0]))
        assert loss[0] == 2.0
        np.testing.assert_array_equal(problem.weighted_grad(parts, np.ones(1)), [4.0, 2.0])

    def test_weighted_grad_hand_arithmetic(self):
        # Rows x = 2 and x = 1 with targets 0 at theta = (1, 0): r = 2 and 1,
        # gradients (4, 2) and (1, 1); weights (1/4, 3/4) sum them to
        # (1 + 3/4, 1/2 + 3/4).
        X, y = np.array([[2.0], [1.0]]), np.zeros(2)
        problem = RegressionProblem(RegressionDataset(
            X=X, y=y, n_clean=2, m_outlier=0, W_star=np.zeros(1), b_star=0.0, X_test=X,
            y_test=y))
        parts = problem.loss_grad(np.array([1.0, 0.0]), np.array([0, 1]))[1]
        np.testing.assert_array_equal(problem.weighted_grad(parts, np.array([0.25, 0.75])),
                                      [1.75, 1.25])


def direct_test_loss(data, theta):
    """0.5 mean((X1_test theta - y_test)^2) for each row of a stack of iterates."""
    X1 = np.column_stack([data.X_test, np.ones(len(data.y_test))])
    return 0.5 * np.mean((np.atleast_2d(theta) @ X1.T - data.y_test) ** 2, axis=1)


class TestRegressionTestLoss:
    # test_loss goes through the R factor of [X_test 1 y_test]; it must
    # match the direct mean over the test rows to rounding.
    def test_matches_direct_mean_on_trained_iterates(self):
        # The configs/toy_regression.json run, every iterate of it.
        data = gen_regression(seed=0)
        problem = RegressionProblem(data)
        schedule = TemperatureSchedule(kind="step_drop", r_initial=100.0, r_final=1.0,
                                       warmup_steps=100)
        traj = run_training(problem, ReweightConfig(mode="linupper", schedule=schedule),
                            StepSizeRule(kind="fixed", eta=1e-3), batch_size=32, steps=2000)
        want = direct_test_loss(data, traj.thetas)
        np.testing.assert_allclose(problem.test_loss(traj.thetas), want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(traj.columns["test_loss"], want[:-1], rtol=1e-12, atol=0)

    def test_matches_direct_mean_near_the_generator(self):
        data = gen_regression(seed=1)
        problem = RegressionProblem(data)
        rng = np.random.default_rng(1)
        theta = np.append(data.W_star, data.b_star) + 1e-4 * rng.uniform(-1, 1, (50, 65))
        np.testing.assert_allclose(problem.test_loss(theta), direct_test_loss(data, theta),
                                   rtol=1e-12, atol=0)

    def test_nonnegative_and_zero_on_noise_free_split(self):
        data = gen_regression(p=16, n=64, m=8, noise_c=0.0, seed=2, n_test=200)
        loss = RegressionProblem(data).test_loss(np.append(data.W_star, data.b_star))
        assert 0.0 <= loss < 1e-20

    def test_stack_rows_equal_single_calls(self):
        problem = RegressionProblem(gen_regression(seed=3))
        thetas = np.random.default_rng(3).standard_normal((5, 65))
        stacked = problem.test_loss(thetas)
        assert stacked.shape == (5,)
        for theta, loss in zip(thetas, stacked):
            assert problem.test_loss(theta) == loss

    @pytest.mark.parametrize("n_test", [1, 3])
    def test_split_with_fewer_rows_than_columns(self, n_test):
        # R is then n_test x (p + 2), wide and upper trapezoidal.
        data = gen_regression(p=6, n=24, m=8, seed=4, n_test=n_test)
        theta = np.random.default_rng(4).standard_normal((4, 7))
        np.testing.assert_allclose(RegressionProblem(data).test_loss(theta),
                                   direct_test_loss(data, theta), rtol=1e-12, atol=0)


def test_regression_problem_does_not_keep_its_dataset():
    # A sweep holds its problem for the whole run; the dataset's training and
    # test features are copied into the design matrix and the R factor, so
    # they must be freed once the caller drops the dataset, and every
    # evaluation must stay bit for bit what it was while the dataset lived.
    data = gen_regression(p=8, n=60, m=20, seed=5, n_test=12)
    problem = RegressionProblem(data)
    rng = np.random.default_rng(5)
    theta, prev = rng.standard_normal((2, 3, 9))
    idx = np.array([rng.choice(80, size=7, replace=False) for _ in range(3)])
    w = rng.dirichlet(np.ones(7), size=3)

    def evaluations():
        f, (df, rows), g_sq, f_prev = problem.loss_grad(theta, idx, prev)
        return (f, df, rows, g_sq, f_prev, problem.weighted_grad((df, rows), w),
                problem.loss_grad(theta, idx)[0], problem.test_loss(theta))

    before = evaluations()
    X, X_test = weakref.ref(data.X), weakref.ref(data.X_test)
    del data
    gc.collect()
    assert X() is None and X_test() is None
    for got, want in zip(evaluations(), before):
        assert got.tobytes() == want.tobytes()


class TestQuadraticSuite:
    def test_hand_built_one_dimensional(self):
        suite = QuadraticSuite(
            A=np.array([[[2.0]]]), theta_star=np.zeros(1), L_values=np.array([2.0])
        )
        problem = QuadraticProblem(suite)
        theta = np.array([3.0])
        np.testing.assert_allclose(problem.loss_grad(theta, np.array([0]))[0], [9.0])
        np.testing.assert_allclose(problem.loss_grad(theta, np.array([0]))[1], [[6.0]])

    def test_interpolation_zero_minimum(self):
        suite = gen_quadratic_suite(M=16, d=6, seed=3)
        problem = QuadraticProblem(suite)
        idx = np.arange(16)
        np.testing.assert_allclose(
            problem.loss_grad(suite.theta_star, idx)[0], np.zeros(16), atol=1e-30
        )
        grads = problem.loss_grad(suite.theta_star, idx)[1]
        assert np.abs(grads).max() <= 1e-10

    def test_hessians_psd(self):
        suite = gen_quadratic_suite(M=16, d=6, seed=4)
        for A in suite.A:
            np.testing.assert_allclose(A, A.T, atol=1e-12)
            assert np.linalg.eigvalsh(A).min() >= -1e-10

    def test_reported_L_matches_power_iteration(self):
        suite = gen_quadratic_suite(M=8, d=5, seed=5)
        oracle_L = max(power_iteration_eigmax(A) for A in suite.A)
        assert abs(suite.L - oracle_L) <= 1e-10

    def test_eigenvalues_within_condition_bound(self):
        suite = gen_quadratic_suite(M=8, d=5, cond_max=10.0, seed=6)
        for A in suite.A:
            eigs = np.linalg.eigvalsh(A)
            assert eigs.min() >= 1.0 - 1e-9
            assert eigs.max() <= 10.0 + 1e-9

    def test_determinism(self):
        np.testing.assert_array_equal(
            gen_quadratic_suite(M=4, d=3, seed=9).A,
            gen_quadratic_suite(M=4, d=3, seed=9).A,
        )

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            gen_quadratic_suite(M=0, d=2)
        with pytest.raises(ValueError):
            gen_quadratic_suite(M=2, d=2, cond_max=0.5)


class TestNonconvexLoss:
    def test_zero_residual(self):
        problem = NonconvexProblem(n_samples=1, dim=2)
        problem._rows, problem._targets = np.ones((1, 2)), np.zeros(1)
        loss, parts, _, _ = problem.loss_grad(np.zeros(2), np.array([0]))
        assert loss[0] == 0.0
        np.testing.assert_array_equal(problem.weighted_grad(parts, np.ones(1)), [0.0, 0.0])

    def test_loss_bounded(self):
        problem = NonconvexProblem(n_samples=100, dim=3, seed=1)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal((100, 3)) * 10.0 ** rng.uniform(-1, 2, size=(100, 1))
        loss = problem.loss_grad(theta, np.arange(100)[:, None])[0]
        # Supremum 1 is attained in floating point when exp(-r^2) underflows.
        assert np.all((0.0 <= loss) & (loss <= 1.0))


class TestProblemAdapters:
    def test_regression_problem_augments_bias(self):
        data = gen_regression(p=3, n=16, m=4, seed=0, n_test=4)
        problem = RegressionProblem(data)
        assert problem.dim == 4
        assert problem.n_samples == 20
        # L = max ||x_aug||^2 with the constant-1 bias feature
        expect_L = float(((data.X**2).sum(axis=1) + 1.0).max())
        assert abs(problem.L - expect_L) <= 1e-12

    def test_nonconvex_problem_gradient_norm_deviation_bounded(self):
        problem = NonconvexProblem(n_samples=64, dim=4, seed=0)
        rng = np.random.default_rng(0)
        idx = np.arange(64)
        for _ in range(10):
            theta = rng.standard_normal(4)
            g = per_sample_gradients(problem.loss_grad(theta, idx)[1])
            dev = np.linalg.norm(g - g.mean(axis=0), axis=1)
            # |2r e^{-r^2}| <= sqrt(2/e), so deviations stay below
            # 2 sqrt(2/e) max||x||, and L = 2 max||x||^2.
            bound = 2.0 * np.sqrt(2.0 / np.e) * np.sqrt(problem.L / 2.0)
            assert dev.max() <= bound


MAKE_PROBLEMS = pytest.mark.parametrize("make_problem", [
    lambda: RegressionProblem(gen_regression(p=6, n=40, m=10, seed=3, n_test=4)),
    lambda: QuadraticProblem(gen_quadratic_suite(M=24, d=5, seed=3)),
    lambda: NonconvexProblem(n_samples=48, dim=6, seed=3),
], ids=["regression", "quadratic", "nonconvex"])


@MAKE_PROBLEMS
def test_losses_over_all_samples_by_slice(make_problem):
    # The regression problem takes its optimal losses over a view of all
    # samples; that must equal gathering every row by index.
    problem = make_problem()
    theta = np.random.default_rng(5).standard_normal(problem.dim)
    np.testing.assert_array_equal(problem.loss_grad(theta, slice(None))[0],
                                  problem.loss_grad(theta, np.arange(problem.n_samples))[0])


@MAKE_PROBLEMS
def test_grad_sq_is_the_squared_gradient_norm(make_problem):
    # loss_grad's ||g_i||^2 equals (g**2).sum(-1) of its own gradients to
    # 1e-12 relative (bit for bit on the quadratic problem, which sums the
    # squares), for one iterate and for a stack, whose rows are bit for bit
    # the one-iterate calls.
    problem = make_problem()
    rng = np.random.default_rng(11)
    for b in (1, 5, 16):
        for scale in (1e-3, 1.0, 1e3):
            theta = scale * rng.standard_normal((3, problem.dim))
            idx = np.array([rng.choice(problem.n_samples, size=b, replace=False)
                            for _ in range(3)])
            _, parts, g_sq, _ = problem.loss_grad(theta, idx)
            direct = (per_sample_gradients(parts)**2).sum(axis=-1)
            if isinstance(problem, QuadraticProblem):
                assert g_sq.tobytes() == direct.tobytes()
            assert np.all(np.abs(g_sq - direct) <= 1e-12 * np.maximum(g_sq, direct))
            for row in range(3):
                one = problem.loss_grad(theta[row], idx[row])[2]
                assert one.tobytes() == g_sq[row].tobytes()


@MAKE_PROBLEMS
def test_loss_grad_equals_separate_methods(make_problem):
    # Training takes its losses and mu_t's previous-iterate losses from one
    # loss_grad call with prev, and the oracles and finite differences call
    # loss_grad without prev, at either iterate; they must agree bitwise, for
    # every batch size (the BLAS kernels differ by row count), for large
    # iterates and for stacks of iterates. The gradients are checked against
    # finite differences by `verify.check_gradients`.
    problem = make_problem()
    rng = np.random.default_rng(7)
    for b in (1, 3, 4, 7, 8, 13, 24):
        for scale in (1e-3, 1.0, 1e3):
            for S in (None, 3):
                shape = (problem.dim,) if S is None else (S, problem.dim)
                theta = scale * rng.standard_normal(shape)
                prev = scale * rng.standard_normal(shape)
                idx = np.array([rng.choice(problem.n_samples, size=b, replace=False)
                                for _ in range(S or 1)]).reshape(shape[:-1] + (b,))
                losses, _, _, none = problem.loss_grad(theta, idx)
                assert none is None
                losses_again, _, _, prev_losses = problem.loss_grad(theta, idx, prev)
                np.testing.assert_array_equal(losses_again, losses)
                np.testing.assert_array_equal(prev_losses, problem.loss_grad(prev, idx)[0])


@pytest.mark.parametrize("d", [5, 16, 17])
@pytest.mark.parametrize("b", [1, 64, 256])
def test_quadratic_products_are_the_per_sample_products(d, b):
    # Each A_i (theta - theta*) is the product of A_i alone, bit for bit,
    # for one iterate and for a stack. Stacking a batch's matrices as one
    # (b*d, d) product is not: with OpenBLAS it differs in the last bits
    # wherever d > 8 is not a multiple of 4, here at d = 17.
    problem = QuadraticProblem(gen_quadratic_suite(M=256, d=d, seed=d))
    A, rng = problem.suite.A, np.random.default_rng(b)
    for S in (None, 4):
        shape = (d,) if S is None else (S, d)
        theta = rng.standard_normal(shape)
        idx = np.array([rng.choice(256, size=b, replace=False)
                        for _ in range(S or 1)]).reshape(shape[:-1] + (b,))
        dev = (theta - problem.theta_star).reshape(-1, d)
        want = np.array([[A[i] @ row for i in ids]
                         for row, ids in zip(dev, idx.reshape(-1, b))]).reshape(idx.shape + (d,))
        assert problem.loss_grad(theta, idx)[1].tobytes() == want.tobytes()


@pytest.mark.parametrize("make_problem", [
    lambda: RegressionProblem(gen_regression(p=64, n=400, m=100, seed=8, n_test=4)),
    lambda: NonconvexProblem(n_samples=500, dim=65, seed=8),
], ids=["regression", "nonconvex"])
def test_weighted_grad_needs_no_gradient_stack(make_problem):
    # One step of a linear problem, loss_grad at a stack of iterates and
    # previous iterates and then weighted_grad, holds the gathered rows and
    # b-wide arrays, never a second (S, b, d) array of per-sample gradients.
    problem, S, b = make_problem(), 10, 32
    rng = np.random.default_rng(8)
    theta, prev = rng.standard_normal((2, S, problem.dim))
    idx = np.array([rng.choice(problem.n_samples, size=b, replace=False) for _ in range(S)])
    w = rng.dirichlet(np.ones(b), size=S)
    tracemalloc.start()
    try:
        grad = problem.weighted_grad(problem.loss_grad(theta, idx, prev)[1], w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grad.shape == (S, problem.dim)
    assert peak < 1.5 * 8 * S * b * problem.dim
