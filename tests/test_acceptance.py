"""Acceptance suite: one test per contract criterion.

Each test prints a single PASS/FAIL line (with the measured values and the
tolerance applied) directly to the real stdout so the lines survive pytest's
capture, then asserts the same condition.
"""

import time

import numpy as np
import pytest

from reweight.cli import RUN_DEFAULTS, _make_problem, _make_reweight_config, _make_stepsize
from reweight.core import capped_optimal_weights, normalize_losses
from reweight.diagnostics import theorem1_bound
from reweight.optim import run_training
from reweight.oracle import brute_force_optimal_weights
from reweight.problems import gen_quadratic_suite
from reweight.verify import check_gradients

# Largest learning rate at which both the Uniform and LinUpper baselines
# converge on the toy regression; the DRO-KL contrast runs here. The
# calibrated default (RUN_DEFAULTS["lr"] = 1e-3) is smaller so that the
# 2000-step horizon is still in the descent phase where the strategies
# separate; see the acceptance criteria for both requirements.
SHARED_STABLE_LR = 0.01

QUAD = {
    "problem": "quadratic",
    "M": 64,
    "d": 16,
    "batch_size": 64,
    "steps": 500,
    "schedule": "constant",
    "r_initial": 1.0,
    "r_final": 1.0,
}


def run(**overrides):
    """The run the CLI makes of the default config with overrides, with
    its iterate and weight history."""
    cfg = dict(RUN_DEFAULTS)
    cfg.update(overrides)
    problem = _make_problem(cfg)
    return run_training(problem, _make_reweight_config(cfg), _make_stepsize(cfg, problem),
                        batch_size=cfg["batch_size"], steps=cfg["steps"], seed=cfg["seed"],
                        momentum=cfg["momentum"])


# pytest captures at the file-descriptor level, so reaching the real stdout
# requires temporarily disabling capture; an autouse fixture hands each test
# its capfd so report() can do that.
_CAPFD = None


@pytest.fixture(autouse=True)
def _report_passthrough(capfd):
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    with _CAPFD.disabled():
        print(line, flush=True)
    assert ok, line


def exploded(traj):
    train_loss = traj.columns["train_loss"]
    init = train_loss[0]
    if traj.diverged:
        return True
    return any(
        not np.isfinite(loss) or loss > 10.0 * init
        for loss in train_loss
    )


def test_criterion_1_toy_regression_strategy_ordering():
    t0 = time.time()
    finals = {}
    for strategy in ("uniform", "linupper", "quadratic"):
        finals[strategy] = np.mean(
            [run(strategy=strategy, seed=s).columns["test_loss"][-1] for s in range(5)]
        )
    elapsed = time.time() - t0
    ordering = finals["linupper"] < finals["quadratic"] < finals["uniform"]
    margin = 1.0 - finals["linupper"] / finals["uniform"]
    ok = ordering and margin >= 0.10 and elapsed <= 60.0
    report(
        1,
        ok,
        "toy regression, 5 seeds, 2000 steps, lr 1e-3: mean final test loss "
        f"linupper={finals['linupper']:.4f} < quadratic={finals['quadratic']:.4f} "
        f"< uniform={finals['uniform']:.4f}, linupper margin {margin:.1%} "
        f"(required >= 10%), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_dro_kl_divergence():
    t0 = time.time()
    # Premise: both baselines converge at the shared LR.
    baselines_ok = all(
        not exploded(run(strategy=s, lr=SHARED_STABLE_LR, seed=0))
        for s in ("uniform", "linupper")
    )
    # DRO-KL at the same LR with tau = LinUpper's final temperature r = 1.
    n_div = sum(
        exploded(run(strategy="dro_kl", dro_tau=1.0, lr=SHARED_STABLE_LR, seed=s))
        for s in range(5)
    )
    elapsed = time.time() - t0
    ok = baselines_ok and n_div >= 4 and elapsed <= 30.0
    report(
        2,
        ok,
        f"lr {SHARED_STABLE_LR} converges uniform+linupper: {baselines_ok}; "
        f"dro-kl (tau=1) non-finite or >10x initial loss on {n_div}/5 seeds "
        f"(required >= 4), {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_3_capped_weights_match_oracle():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        b = int(rng.integers(2, 9))
        r = float(10.0 ** rng.uniform(-1, 1))
        h = rng.uniform(-1.0, 1.0, size=b)
        fast = capped_optimal_weights(h, r, 2.0 / b)
        slow = brute_force_optimal_weights(h, r, 2.0 / b)
        worst = max(worst, float(np.abs(fast - slow).max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed <= 10.0
    report(
        3,
        ok,
        f"closed-form vs projected-descent oracle on 200 instances: "
        f"max |diff| = {worst:.2e} (tol 1e-6), {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_4_unregularized_limit():
    rng = np.random.default_rng(1)
    worst = 0.0
    for b in (2, 4, 6, 8, 16, 32):
        h = rng.permutation(np.linspace(-1.0, 1.0, b))
        w = capped_optimal_weights(h, 1e-6, 2.0 / b)
        expect = np.where(h >= np.median(h), 2.0 / b, 0.0)
        worst = max(worst, float(np.abs(w - expect).max()))
    # Odd batch: floor(b/2) samples capped, the next one takes the residual.
    h = np.array([0.9, -0.2, 0.4, -0.8, 0.1])
    w = capped_optimal_weights(h, 1e-6, 0.4)
    expect_odd = np.array([0.4, 0.0, 0.4, 0.0, 0.2])
    worst = max(worst, float(np.abs(w - expect_odd).max()))
    ok = worst <= 1e-3
    report(4, ok, f"r=1e-6 top-half mass 2/b: max |diff| = {worst:.2e} (tol 1e-3)")


def test_criterion_5_delta_sign_suite():
    worst_signed = -np.inf
    worst_abs = 0.0
    for strategy in ("capped", "linupper"):
        traj = run(strategy=strategy, **QUAD)
        deltas = traj.columns["delta_t"]
        worst_signed = max(worst_signed, float(deltas.max()))
    uniform_traj = run(strategy="uniform", **QUAD)
    worst_abs = float(
        np.abs(uniform_traj.columns["delta_t"]).max()
    )
    ok = worst_signed <= 1e-12 and worst_abs <= 1e-12
    report(
        5,
        ok,
        "quadratic suite (M=64, d=16), 500 steps: capped/linupper max delta = "
        f"{worst_signed:.2e} (tol 1e-12), uniform max |delta| = {worst_abs:.2e}",
    )


def test_criterion_6_theorem_bound():
    traj = run(strategy="capped", stepsize_rule="convex_theory", **QUAD)
    suite = gen_quadratic_suite(M=64, d=16, seed=RUN_DEFAULTS["data_seed"])
    theta_star = suite.theta_star
    dist0_sq = float(np.sum((traj.thetas[0] - theta_star) ** 2))
    detail_parts = []
    ok = True
    for T in (10, 50, 100, 500):
        theta_bar = traj.thetas[:T].mean(axis=0)
        dev = theta_bar - theta_star
        f_bar = float(np.mean([0.5 * dev @ A @ dev for A in suite.A]))
        bound = theorem1_bound(
            suite.L, dist0_sq, T, traj.columns["delta_t"][:T]
        )
        ok = ok and f_bar <= bound
        detail_parts.append(f"T={T}: {f_bar:.3g} <= {bound:.3g}")
    report(6, ok, "averaged-iterate suboptimality vs bound, " + "; ".join(detail_parts))


def test_criterion_7_cap_monitoring():
    capped = run(strategy="capped", **QUAD)
    cap_excess = max(capped.columns["w_max"]) - 2.0 / QUAD["batch_size"]
    softmax_ok = True
    softmax_detail = []
    for r in (1.5, 2.0, 10.0):
        traj = run(
            strategy="linupper",
            batch_size=128,
            schedule="constant",
            r_initial=r,
            r_final=r,
        )
        w_max = max(traj.columns["w_max"])
        softmax_ok = softmax_ok and w_max < 2.0 / 128.0
        softmax_detail.append(f"r={r}: {w_max:.4f}")
    ok = cap_excess <= 1e-12 and softmax_ok
    report(
        7,
        ok,
        f"capped-mode w_max excess over 2/b = {cap_excess:.2e} (tol 1e-12); "
        "softmax linupper b=128 w_max < 0.015625 at "
        + ", ".join(softmax_detail),
    )


def test_criterion_8_gradient_correctness():
    ok, msg = check_gradients()
    report(8, ok and "(tol 1e-05)" in msg, msg)


def test_criterion_9_high_temperature_reduction():
    base = dict(steps=200, schedule="constant", r_initial=1e6, r_final=1e6)
    hot = run(strategy="linupper", **base)
    uni = run(strategy="uniform", **base)
    w_dev = max(
        float(np.abs(w - 1.0 / w.size).max()) for w in hot.batch_weights
    )
    theta_dev = float(np.abs(hot.thetas - uni.thetas).max())
    ok = w_dev <= 1e-6 and theta_dev <= 1e-6
    report(
        9,
        ok,
        f"r=1e6 over 200 steps: max weight deviation from uniform = {w_dev:.2e}, "
        f"max trajectory deviation = {theta_dev:.2e} (tol 1e-6)",
    )


def test_criterion_10_momentum_sanity():
    traj = run(
        strategy="linupper", stepsize_rule="sqrt_horizon", momentum=True, **QUAD
    )
    losses = traj.columns["train_loss"]
    windows = [losses[i : i + 50].mean() for i in range(0, 500, 50)]
    monotone = all(a > b for a, b in zip(windows, windows[1:]))
    final_le_initial = losses[-1] <= losses[0]

    # (z, theta) form vs the single-sequence heavy-ball recursion.
    suite = gen_quadratic_suite(M=64, d=16, seed=RUN_DEFAULTS["data_seed"])
    eta = 1.0 / (8.0 * suite.L * np.sqrt(QUAD["steps"]))
    theta_prev = traj.thetas[0].copy()
    theta = traj.thetas[0].copy()
    recursion_dev = 0.0
    for t in range(QUAD["steps"]):
        dev = theta - suite.theta_star
        grads = suite.A[traj.batch_indices[t]] @ dev
        wg = traj.batch_weights[t] @ grads
        lam_t = t / 2.0
        lam_next = (t + 1) / 2.0
        theta_next = (
            theta
            - (eta / (1.0 + lam_next)) * wg
            + (lam_t / (1.0 + lam_next)) * (theta - theta_prev)
        )
        recursion_dev = max(
            recursion_dev, float(np.abs(theta_next - traj.thetas[t + 1]).max())
        )
        theta_prev, theta = theta, theta_next
    ok = monotone and final_le_initial and recursion_dev <= 1e-10
    report(
        10,
        ok,
        f"heavy-ball lambda_t=t/2, eta=1/(8L sqrt(T)): 50-step window means "
        f"monotone decreasing = {monotone}, final <= initial = {final_le_initial}, "
        f"(z,theta) vs single-sequence recursion max dev = {recursion_dev:.2e} "
        "(tol 1e-10)",
    )
