"""Synthetic problem suites with per-sample losses and gradients.

Three families:
  * an outlier-contaminated linear regression (clean gaussian features plus
    a block of near-constant outlier inputs with random targets),
  * a convex quadratic suite sharing a common minimizer with zero optimal
    loss, used to make the convergence-theory quantities exactly computable,
  * a bounded non-convex per-sample loss 1 - exp(-residual^2).

Each problem exposes the vectorized `loss_grad(theta, idx, prev=None) ->
(losses, parts, grad_sq, prev_losses)` that training calls once per step: it
gathers the rows once, computes the residual once, returns what
`weighted_grad(parts, w)` needs to form sum_i w_i g_i without storing any
g_i, the squared gradient norms ||g_i||^2, and, given the previous iterate
prev, that iterate's losses on the same rows (None without prev).
`losses(theta, idx)` gives the losses alone by the same arithmetic, and L is
the exact smoothness constant. The regression and non-convex problems are
linear models that differ only in their per-sample loss of the residual, so
they share one implementation. Their gradient is phi'(r_i) x_i: parts are
(phi'(r), rows), the sum is (w phi'(r))' rows, and ||g_i||^2 =
phi'(r_i)^2 ||x_i||^2 (Goodfellow, arXiv:1510.01799), with ||x_i||^2 kept
once per problem. The quadratic problem's parts are its gradients.

The regression and quadratic problems give `losses_at_opt(idx)`, the losses
f_i(theta*) at the training objective's minimizer, from which training
computes delta_t: zero on the quadratic suite, and on the regression problem
the losses at its least-squares solution, solved once at construction. The
non-convex problem has no closed-form minimizer and no `losses_at_opt`.

Every evaluation takes one iterate theta (d,) with indices (b,), or a stack
of iterates (S, d) with one row of indices each, (S, b); losses then come
back as (S, b) and weighted gradients as (S, d). Residuals and sums are
formed by batched matmuls, which give each row bit for bit the result of the
single-iterate call, so a stacked run reproduces its separate runs exactly.

The regression problem's `test_loss` factors its test split once,
[X_test 1 y_test] = QR, and evaluates the residual norm through R, which has
at most p+2 rows however large the split is. It equals the direct mean over
the test rows up to rounding (about 1e-15 relative on trained iterates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegressionDataset",
    "QuadraticSuite",
    "gen_regression",
    "gen_quadratic_suite",
    "RegressionProblem",
    "QuadraticProblem",
    "NonconvexProblem",
]


@dataclass
class RegressionDataset:
    """Training matrix with clean rows first, then outliers, plus a clean
    hold-out test split and the generating parameters."""

    X: np.ndarray
    y: np.ndarray
    n_clean: int
    m_outlier: int
    W_star: np.ndarray
    b_star: float
    X_test: np.ndarray
    y_test: np.ndarray

    @property
    def is_outlier(self) -> np.ndarray:
        flags = np.zeros(self.X.shape[0], dtype=int)
        flags[self.n_clean :] = 1
        return flags


def gen_regression(
    p: int = 64,
    n: int = 3200,
    m: int = 800,
    noise_c: float = 0.01,
    seed: int = 0,
    n_test: int = 800,
) -> RegressionDataset:
    """Outlier regression dataset.

    Clean rows: X ~ N(0,1), y = X W* + b* + c * eps. Outlier rows:
    X = 0.1 * N(0,1) + 2.0 with y ~ N(0,1). The test split is drawn from
    the clean process only. Deterministic given the seed.
    """
    if p < 1 or n < 1 or n_test < 1 or m < 0:
        raise ValueError("p, n, n_test must be >= 1; m must be >= 0")
    rng = np.random.default_rng(seed)
    W_star = rng.standard_normal(p)
    b_star = float(rng.standard_normal())

    X_clean = rng.standard_normal((n, p))
    y_clean = X_clean @ W_star + b_star + noise_c * rng.standard_normal(n)
    X_ood = 0.1 * rng.standard_normal((m, p)) + 2.0
    y_ood = rng.standard_normal(m)
    X_test = rng.standard_normal((n_test, p))
    y_test = X_test @ W_star + b_star + noise_c * rng.standard_normal(n_test)

    return RegressionDataset(
        X=np.vstack([X_clean, X_ood]),
        y=np.concatenate([y_clean, y_ood]),
        n_clean=n,
        m_outlier=m,
        W_star=W_star,
        b_star=b_star,
        X_test=X_test,
        y_test=y_test,
    )


@dataclass
class QuadraticSuite:
    """Per-sample quadratics f_i(theta) = 0.5 (theta - theta*)' A_i (theta - theta*).

    All samples share the minimizer theta_star with optimal value 0, so the
    interpolation condition holds exactly and loss gaps equal raw losses.
    """

    A: np.ndarray  # (M, d, d), each symmetric PSD
    theta_star: np.ndarray
    L_values: np.ndarray  # largest eigenvalue of each A_i

    @property
    def M(self) -> int:
        return self.A.shape[0]

    @property
    def L(self) -> float:
        return float(self.L_values.max())


def gen_quadratic_suite(
    M: int, d: int, cond_max: float = 10.0, seed: int = 0
) -> QuadraticSuite:
    """Random PSD quadratics A_i = Q_i D_i Q_i' with orthogonal Q_i and
    eigenvalues log-uniform in [1, cond_max]; shared minimizer ~ N(0, I)."""
    if M < 1 or d < 1 or cond_max < 1:
        raise ValueError("M, d must be >= 1 and cond_max >= 1")
    rng = np.random.default_rng(seed)
    A = np.empty((M, d, d))
    L_values = np.empty(M)
    for i in range(M):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = np.exp(rng.uniform(0.0, np.log(cond_max), size=d))
        A[i] = (Q * eigs) @ Q.T
        A[i] = 0.5 * (A[i] + A[i].T)  # kill asymmetric roundoff
        L_values[i] = eigs.max()
    theta_star = rng.standard_normal(d)
    return QuadraticSuite(A=A, theta_star=theta_star, L_values=L_values)


def _matvec(rows: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """rows @ theta for rows (..., b, d) and theta (d,) or a stack (S, d):
    one matrix-vector product per iterate, as a batched matmul."""
    return np.matmul(rows, theta[..., None])[..., 0]


class _LinearProblem:
    """Linear model with per-sample loss phi(r) of the residual
    r = row' theta - target. A subclass passes its rows and targets and gives
    `_phi(r) -> (phi(r), phi'(r))`; no common minimizer exists. The squared
    row norms ||x_i||^2 are computed once."""

    theta_star = None

    def __init__(self, rows: np.ndarray, targets: np.ndarray):
        self._rows, self._targets = rows, targets
        self._row_sq = (rows**2).sum(axis=1)
        self.n_samples, self.dim = rows.shape

    def theta_init(self) -> np.ndarray:
        return np.zeros(self.dim)

    def losses(self, theta, idx) -> np.ndarray:
        return self._phi(_matvec(self._rows[idx], theta) - self._targets[idx])[0]

    def loss_grad(self, theta, idx, prev=None):
        rows, y = self._rows[idx], self._targets[idx]
        f, df = self._phi(_matvec(rows, theta) - y)
        f_prev = None if prev is None else self._phi(_matvec(rows, prev) - y)[0]
        return f, (df, rows), df * df * self._row_sq[idx], f_prev

    @staticmethod
    def weighted_grad(parts, w) -> np.ndarray:
        """sum_i w_i phi'(r_i) x_i, (d,) or (S, d) as w is (b,) or (S, b)."""
        df, rows = parts
        return np.matmul((w * df)[..., None, :], rows)[..., 0, :]


class RegressionProblem(_LinearProblem):
    """Optimizer-facing view of a RegressionDataset under the squared loss
    0.5 r^2.

    The bias is folded in as a trailing constant-1 feature, so the
    parameter vector has length p+1 and per-sample smoothness is
    L_i = ||x_i||^2 + 1. The problem keeps that design matrix, the targets,
    the losses at the training optimum and the test split's R factor, not
    the dataset: its X and X_test are freed once the caller drops it.
    """

    def __init__(self, data: RegressionDataset):
        super().__init__(np.hstack([data.X, np.ones((data.X.shape[0], 1))]), data.y)
        self.L = float(self._row_sq.max())
        # [X_test 1 y_test] = QR with orthonormal Q, so the test residual norm
        # ||X1 theta - y|| equals ||R[:, :-1] theta - R[:, -1]||: at most
        # (p+2) rows stand in for the whole test split.
        R = np.linalg.qr(np.column_stack([data.X_test, np.ones(len(data.y_test)), data.y_test]),
                         mode="r")
        self._R_test = np.ascontiguousarray(R[:, :-1])
        self._r_test = np.ascontiguousarray(R[:, -1])
        self._n_test = len(data.y_test)
        # The training objective's minimizer solves the normal equations;
        # lstsq on the (p+1)-square Gram matrix also takes rank-deficient
        # data. Overflowing data (a huge noise_c) gives non-finite optimal
        # losses, which the loop never reads: its step-0 guard stops first.
        with np.errstate(over="ignore", invalid="ignore"):
            X1 = self._rows
            theta_opt = np.linalg.lstsq(X1.T @ X1, X1.T @ data.y, rcond=None)[0]
            self._f_opt = self.losses(theta_opt, slice(None))

    @staticmethod
    def _phi(r):
        return 0.5 * r * r, r

    def losses_at_opt(self, idx) -> np.ndarray:
        """f_i(theta*) at the training optimum, shaped like idx."""
        return self._f_opt[idx]

    def test_loss(self, theta):
        """Mean test loss 0.5 mean((X1_test theta - y_test)^2) through the test
        split's R factor: equal to the direct mean up to rounding, never
        negative. A float for one iterate, an (S,) array for a stack."""
        r = _matvec(self._R_test, theta) - self._r_test
        loss = 0.5 * ((r * r).sum(axis=-1) / self._n_test)
        return float(loss) if loss.ndim == 0 else loss


class QuadraticProblem:
    """Optimizer-facing view of a QuadraticSuite; f_i(theta*) = 0 for all i."""

    def __init__(self, suite: QuadraticSuite):
        self.suite = suite
        self.dim = suite.theta_star.size
        self.n_samples = suite.M
        self.L = suite.L
        self.theta_star = suite.theta_star

    def theta_init(self) -> np.ndarray:
        return np.zeros(self.dim)

    def losses(self, theta, idx) -> np.ndarray:
        return self._loss_grad(self.suite.A[idx], theta)[0]

    def loss_grad(self, theta, idx, prev=None):
        A = self.suite.A[idx]
        f, Adev = self._loss_grad(A, theta)
        f_prev = None if prev is None else self._loss_grad(A, prev)[0]
        return f, Adev, (Adev**2).sum(axis=-1), f_prev

    @staticmethod
    def weighted_grad(Adev, w) -> np.ndarray:
        """sum_i w_i A_i (theta - theta*), (d,) or (S, d) as w is (b,) or (S, b)."""
        return np.matmul(w[..., None, :], Adev)[..., 0, :]

    def _loss_grad(self, A, theta):
        dev = np.asarray(theta, float) - self.theta_star
        # A stack of iterates gives each of its b matrices a column of dev.
        Adev = _matvec(A, dev[..., None, :])
        return _matvec(0.5 * Adev, dev), Adev

    def losses_at_opt(self, idx) -> np.ndarray:
        return np.zeros(np.shape(idx))


class NonconvexProblem(_LinearProblem):
    """Random linear features under the bounded non-convex loss
    1 - exp(-r^2); used for the gradient-norm gap diagnostic. The targets are
    X theta_true plus 0.1-scale noise."""

    def __init__(self, n_samples: int = 256, dim: int = 8, seed: int = 0):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_samples, dim))
        self.theta_true = rng.standard_normal(dim)
        super().__init__(X, X @ self.theta_true + 0.1 * rng.standard_normal(n_samples))
        # |d^2/dr^2 (1 - exp(-r^2))| <= 2, so L_i <= 2 ||x_i||^2
        self.L = float(2.0 * self._row_sq.max())

    @staticmethod
    def _phi(r):
        e = np.exp(-r * r)
        return 1.0 - e, 2.0 * r * e
