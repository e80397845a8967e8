"""Self-contained verification suite behind the `verify` CLI subcommand.

Each check pits a production code path against an independent brute-force
oracle. Its count, seed and tolerance are constants: the tolerance is
printed in its line, and `tests/verify_stdout.txt` pins every line. The
gradient check takes the problems it checks as an argument, so a problem
with a deliberately broken `loss_grad` or `weighted_grad` can be used as a
negative control; `run_all()` takes no arguments.

`run_all()` runs the checks through the worker pool of `reweight.workers`,
in W shares, W the smaller of the number of checks and the CPUs this process
may run on: check i runs in share i mod W, share 0 in this process and each
other share in a worker forked for it. The lines are printed in CHECKS
order, so the output does not depend on W; at W = 1 nothing forks.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import workers
from .core import capped_optimal_weights, normalize_losses
from .diagnostics import delta_t
from .oracle import brute_force_optimal_weights, finite_diff_grad, kkt_residual
from .problems import (
    NonconvexProblem,
    QuadraticProblem,
    RegressionProblem,
    gen_quadratic_suite,
    gen_regression,
)

__all__ = ["run_all", "check_prop1_agreement", "check_kkt", "check_gradients",
           "check_delta_sign", "check_cap_enforcement", "check_degenerate_limit"]


def _by_batch_size(draws):
    """Group (b, *arrays) draws by b, in order of first appearance: yields
    b and one stacked array per drawn quantity, rows in draw order."""
    groups = {}
    for b, *values in draws:
        groups.setdefault(b, []).append(values)
    for b, rows in groups.items():
        yield (b, *map(np.array, zip(*rows)))


def _verdict(label: str, values, tol: float, initial: float = 0.0):
    """A check's (passed, line). Its worst value is the largest of initial
    and the values, NaN if any is NaN (Python's max would drop a NaN that
    does not come first); it passes only if finite and within tol."""
    worst = float(np.max(values, initial=initial))
    return bool(np.isfinite(worst)) and worst <= tol, f"{label} = {worst:.2e} (tol {tol:.0e})"


def _oracle_draws(n_instances, seed, b_low):
    """The (b, r, gaps) instances of the prop1 and KKT checks, b from b_low
    to 8 and cap 2/b."""
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        b = int(rng.integers(b_low, 9))
        r = float(10.0 ** rng.uniform(-1, 1))
        yield b, r, rng.uniform(-1.0, 1.0, size=b)


# The _oracle_draws(n_instances, seed, b_low) of the prop1 and KKT checks.
PROP1_DRAWS = (200, 0, 2)
KKT_DRAWS = (50, 1, 3)


def check_prop1_agreement():
    """Closed-form (sort-and-threshold) weights vs projected-descent oracle,
    max-norm. The instances of one batch size are solved as one stack."""
    diffs = []
    for b, r, h in _by_batch_size(_oracle_draws(*PROP1_DRAWS)):
        cap = 2.0 / b
        w_fast = capped_optimal_weights(h, r, cap)
        w_oracle = brute_force_optimal_weights(h, r, cap)
        diffs.append(np.abs(w_fast - w_oracle).max())
    return _verdict("prop1 agreement: max |diff|", diffs, 1e-6)


def check_kkt():
    """Oracle stationarity: interior coordinates share a common multiplier."""
    residuals = []
    for b, r, h in _by_batch_size(_oracle_draws(*KKT_DRAWS)):
        cap = 2.0 / b
        w = brute_force_optimal_weights(h, r, cap)
        residuals += [kkt_residual(*row, cap) for row in zip(w, h, r)]
    return _verdict("oracle KKT residual: max", residuals, 1e-6)


def check_gradients(problems=None):
    """Each problem's gradient as the update forms it, weighted_grad of
    loss_grad's parts at weight 1 on one sample (exactly that sample's g), vs
    central finite differences of loss_grad's losses, relative error, at
    each of a stack of random iterates. With theta and prev swapped,
    loss_grad must return as its losses exactly the previous losses it
    returned before, and the reverse, which mu_t relies on; its squared
    gradient norms must equal (g**2).sum(-1) to 1e-12 relative to the
    larger of the two. By default the regression, quadratic and non-convex
    problems are checked."""
    errors = []
    swapped = norms = True
    # Below this gradient magnitude the comparison is effectively absolute:
    # central differences on near-flat regions are dominated by cancellation
    # noise ~1e-10, which is why gradient_points avoids them.
    grad_floor = 1e-3
    # The linear problems' phi'(r)^2 ||x||^2 rounds differently from the
    # squares of phi'(r) x, by a few ulps.
    norm_tol = 1e-12
    for problem, theta, prev, idx in gradient_points(problems):
        f, parts, g_sq, f_prev = problem.loss_grad(theta, idx, prev)
        g = problem.weighted_grad(parts, np.ones(idx.shape))
        fd = finite_diff_grad(lambda th: problem.loss_grad(th, idx)[0][:, 0], theta)
        err = np.abs(g - fd).max(axis=1)
        rel = err / np.maximum(np.abs(fd).max(axis=1), grad_floor)
        errors.append(rel.max())
        f_swap, _, _, f_prev_swap = problem.loss_grad(prev, idx, theta)
        swapped &= np.array_equal(f, f_prev_swap) and np.array_equal(f_prev, f_swap)
        g_sq, direct = g_sq[:, 0], (g**2).sum(axis=-1)
        norms &= bool((np.abs(g_sq - direct) <= norm_tol * np.maximum(g_sq, direct)).all())
    ok, msg = _verdict("gradient check: max rel err", errors, 1e-5)
    if not swapped:
        msg += "; loss_grad's losses differ from its previous losses with theta and prev swapped"
    if not norms:
        msg += "; loss_grad's squared gradient norms differ from its gradients'"
    return ok and swapped and norms, msg


def gradient_points(problems=None):
    """The (problem, theta, prev, idx) stacks check_gradients evaluates: per
    problem, 100 iterates and previous iterates (100, d) with one sample
    index each. Iterates are standard normal, except for the non-convex
    problem, whose unit-scale iterates would put about a third of the points
    in the flat tails of 1 - exp(-r^2); its iterates are normal with
    standard deviation 0.2 around the parameter that generated its targets,
    where residuals are small but gradients are not."""
    n_points, seed = 100, 2
    if problems is None:
        problems = [
            RegressionProblem(gen_regression(p=6, n=24, m=8, seed=seed, n_test=1)),
            QuadraticProblem(gen_quadratic_suite(M=16, d=6, seed=seed)),
            NonconvexProblem(n_samples=32, dim=6, seed=seed),
        ]
    rng = np.random.default_rng(seed)
    for problem in problems:
        theta, prev = rng.standard_normal((2, n_points, problem.dim))
        idx = rng.integers(problem.n_samples, size=(n_points, 1))
        if isinstance(problem, NonconvexProblem):
            theta, prev = problem.theta_true + 0.2 * theta, problem.theta_true + 0.2 * prev
        yield problem, theta, prev, idx


def check_delta_sign():
    """delta_t <= 0 whenever weights are monotone nondecreasing in the gap."""
    rng = np.random.default_rng(3)
    deltas = []
    for _ in range(500):
        b = int(rng.integers(2, 33))
        gaps = np.sort(rng.uniform(0.0, 5.0, size=b))
        w = np.sort(rng.uniform(0.0, 1.0, size=b))
        w /= w.sum()
        deltas.append(delta_t(gaps, np.zeros(b), w))
    return _verdict("delta sign (comonotone): max delta", deltas, 1e-12, initial=-np.inf)


def check_cap_enforcement():
    """Capped-optimal weights never exceed the cap. The batches of one size
    are weighted as one stack, the shape training weights them in."""
    rng = np.random.default_rng(4)

    def draws():
        for _ in range(500):
            b = int(rng.integers(2, 33))
            r = float(10.0 ** rng.uniform(-2, 2))
            yield b, r, rng.exponential(1.0, size=b)

    excess = []
    for b, r, losses in _by_batch_size(draws()):
        cap = 2.0 / b
        w = capped_optimal_weights(normalize_losses(losses), r, cap)
        excess.append(w.max() - cap)
    return _verdict("cap enforcement: max excess", excess, 1e-12)


def check_degenerate_limit():
    """r -> 0 with cap = 2/b puts weight 2/b on the top half of the batch.
    The batches of one size are weighted as one stack."""
    rng = np.random.default_rng(5)

    def draws():
        for _ in range(50):
            b = int(rng.integers(2, 17)) * 2  # even batch: exact top-half solution
            yield b, rng.permutation(np.linspace(-1, 1, b))

    diffs = []
    for b, h in _by_batch_size(draws()):
        cap = 2.0 / b
        w = capped_optimal_weights(h, 1e-6, cap)
        expect = np.where(h >= np.median(h, axis=-1, keepdims=True), cap, 0.0)
        diffs.append(np.abs(w - expect).max())
    return _verdict("degenerate limit: max |diff|", diffs, 1e-3)


CHECKS = [
    check_prop1_agreement,
    check_kkt,
    check_gradients,
    check_delta_sign,
    check_cap_enforcement,
    check_degenerate_limit,
]


def _run_share(checks):
    """The (passed, line) of each check in order, up to the first that
    raises, whose exception ends the list."""
    results = []
    for check in checks:
        try:
            results.append(check())
        except Exception as exc:  # run_all raises it in CHECKS order
            results.append(exc)
            break
    return results


def run_all() -> bool:
    """Run every check in W shares and print its line, in CHECKS order;
    returns True only if all pass. A check that raises has its exception
    raised here once the lines of the checks before it are printed, as if
    the checks ran one after another."""
    W = workers.pool_size(len(CHECKS))
    jobs = [partial(_run_share, CHECKS[k::W]) for k in range(W)]
    results = [None] * len(CHECKS)
    for k, share in enumerate(workers.in_workers(jobs)):
        for i, result in zip(range(k, len(CHECKS), W), share):
            results[i] = result
    all_ok = True
    for result in results:
        if isinstance(result, Exception):
            raise result
        ok, msg = result
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {msg}")
    return all_ok
