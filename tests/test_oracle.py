"""Tests for the brute-force verifiers themselves."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reweight import verify
from reweight.core import ConfigError, capped_optimal_weights
from reweight.oracle import (
    brute_force_optimal_weights,
    finite_diff_grad,
    kkt_residual,
    project_capped_simplex,
)


def _bisection_projection(v, cap, floor=0.0, scale=1.0):
    """Slow reference: doubling bracket on the shift, then 100 bisection steps."""
    v = np.asarray(v, dtype=float)
    lo, hi = -1.0, 1.0
    while np.clip(v - lo * scale, floor, cap).sum() < 1.0:
        lo *= 2.0
        if lo < -1e18:
            break
    while np.clip(v - hi * scale, floor, cap).sum() > 1.0:
        hi *= 2.0
        if hi > 1e18:
            break
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid * scale, floor, cap).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi) * scale, floor, cap)


def _kink_bisection(v, cap, floor=0.0, scale=1.0):
    """Reference exact projection: a scalar bisection over the sorted kinks
    with one clipped sum per step, then the closed form on the bracketing
    piece. The k-ary kink search must return its result bit for bit."""
    v = np.asarray(v, dtype=float)
    scale = np.broadcast_to(np.asarray(scale, dtype=float), v.shape)
    kinks = np.sort(np.concatenate(((v - cap) / scale, (v - floor) / scale)))

    def total(lam):
        return np.clip(v - lam * scale, floor, cap).sum()

    lo, hi = 0, kinks.size - 1
    s_lo, s_hi = total(kinks[lo]), total(kinks[hi])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s_mid = total(kinks[mid])
        if s_mid >= 1.0:
            lo, s_lo = mid, s_mid
        else:
            hi, s_hi = mid, s_mid
    lam = kinks[lo]
    if s_lo > s_hi:
        lam += (s_lo - 1.0) / (s_lo - s_hi) * (kinks[hi] - kinks[lo])
    return np.clip(v - lam * scale, floor, cap)


def _one_step_at_a_time_oracle(gaps, r, cap, tol=1e-9):
    """Reference oracle: the projected-Newton descent of one instance with a
    backtracking search that tries one step at a time, as the oracle ran
    before it solved stacks. The stacked oracle must give each row its
    result bit for bit."""
    def objective(w):
        wl = np.where(w > 0, w * np.log(np.maximum(w, 1e-300)), 0.0)
        return float(-np.einsum("i,i->", w, gaps) + r * wl.sum())

    b = gaps.size
    w = np.full(b, 1.0 / b)
    obj = objective(w)
    for _ in range(200):
        grad = -gaps + r * (1.0 + np.log(w))
        moved = np.abs(project_capped_simplex(w - 1e-4 * grad, cap, 1e-10) - w).max()
        if moved / 1e-4 < tol:
            break
        improved = False
        scale = w / r
        step = 1.0
        while step > 1e-16:
            cand = project_capped_simplex(w - step * scale * grad, cap, 1e-10, step * scale)
            cand_obj = objective(cand)
            if cand_obj < obj - 1e-18:
                improved = True
                break
            step *= 0.5
        if not improved:
            norm = np.abs(grad).max()
            step = 1.0 / norm if norm > 0 else 0.0
            while step * norm > 1e-16:
                cand = project_capped_simplex(w - step * grad, cap, 1e-10)
                cand_obj = objective(cand)
                if cand_obj < obj - 1e-18:
                    improved = True
                    break
                step *= 0.5
        if not improved:
            break
        w, obj = cand, cand_obj
    return w


def _random_scale(rng, b):
    """Per-coordinate scales spanning 1e-12..1, like projected-Newton's w/r."""
    return 10.0 ** rng.uniform(-12.0, 0.0, size=b)


class TestProjection:
    def test_feasible_point_unchanged(self):
        w = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_capped_simplex(w, cap=0.6), w, atol=1e-12)

    def test_result_is_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            b = int(rng.integers(2, 20))
            cap = float(rng.uniform(1.0 / b, 1.0))
            v = rng.normal(scale=3.0, size=b)
            w = project_capped_simplex(v, cap)
            assert abs(w.sum() - 1.0) <= 1e-9
            assert np.all(w >= -1e-12)
            assert np.all(w <= cap + 1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=6)
        w = project_capped_simplex(v, cap=0.4)
        np.testing.assert_allclose(project_capped_simplex(w, cap=0.4), w, atol=1e-9)

    def test_shift_structure(self):
        # Interior coordinates of the projection differ from v by a common shift.
        v = np.array([0.9, 0.1, 0.3, -0.2])
        cap = 0.5
        w = project_capped_simplex(v, cap)
        interior = (w > 1e-9) & (w < cap - 1e-9)
        shifts = (v - w)[interior]
        assert np.abs(shifts - shifts.mean()).max() <= 1e-9

    def test_infeasible_cap_rejected(self):
        with pytest.raises(ConfigError):
            project_capped_simplex([0.5, 0.5], cap=0.3)

    @pytest.mark.parametrize("floor", [0.0, 1e-10])
    @pytest.mark.parametrize("scale_kind", ["unit", "scalar", "vector"])
    def test_matches_bisection_reference(self, floor, scale_kind):
        rng = np.random.default_rng(4)
        for _ in range(200):
            b = int(rng.integers(2, 65))
            cap = float(rng.uniform(1.0 / b, 1.0))
            v = rng.normal(scale=3.0, size=b)
            if scale_kind == "unit":
                scale = 1.0
            elif scale_kind == "scalar":
                scale = float(10.0 ** rng.uniform(-12.0, 2.0))
            else:
                scale = _random_scale(rng, b)
            w = project_capped_simplex(v, cap, floor, scale)
            ref = _bisection_projection(v, cap, floor, scale)
            assert np.abs(w - ref).max() <= 1e-12
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_matches_reference_on_newton_steps(self):
        # The oracle's own call pattern: w on the floored simplex, a step
        # along the gradient scaled by w / r, projected in that metric.
        rng = np.random.default_rng(5)
        for _ in range(300):
            b = int(rng.integers(2, 9))
            r = float(10.0 ** rng.uniform(-1, 1))
            w = rng.dirichlet(np.full(b, 0.3))
            w = np.maximum(w, 1e-10)
            w /= w.sum()
            grad = -rng.uniform(-1.0, 1.0, size=b) + r * (1.0 + np.log(w))
            scale = float(2.0 ** -rng.integers(0, 40)) * w / r
            v = w - scale * grad
            out = project_capped_simplex(v, 2.0 / b, 1e-10, scale)
            ref = _bisection_projection(v, 2.0 / b, 1e-10, scale)
            assert np.abs(out - ref).max() <= 1e-12

    def test_tied_kinks(self):
        v = np.array([0.5, 0.5, 0.5, 0.1, 0.1])
        for scale in (1.0, np.array([2.0, 2.0, 2.0, 1.0, 1.0])):
            w = project_capped_simplex(v, 0.3, 0.0, scale)
            ref = _bisection_projection(v, 0.3, 0.0, scale)
            np.testing.assert_allclose(w, ref, atol=1e-12)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert w[0] == w[1] == w[2]

    def test_cap_times_b_is_one(self):
        rng = np.random.default_rng(6)
        for b in (2, 3, 4, 8, 64):
            # Just below 1 (inside the feasibility tolerance) no kink reaches
            # sum 1; every coordinate still goes to the cap.
            for cap in (1.0 / b, (1.0 - 1e-13) / b):
                v = rng.normal(size=b)
                w = project_capped_simplex(v, cap, 1e-10, _random_scale(rng, b))
                np.testing.assert_allclose(w, np.full(b, cap), atol=1e-15)

    def test_flat_piece(self):
        # floor == cap == 1/b: the clipped sum is 1 for every shift.
        w = project_capped_simplex([0.9, -0.3, 0.1, 0.0], 0.25, 0.25)
        np.testing.assert_array_equal(w, np.full(4, 0.25))

    def test_kink_exactly_at_sum_one(self):
        # At shift 0 the first coordinate leaves the cap and the second hits
        # the floor, and the clipped sum there is exactly 1.
        v = np.array([1.0, 0.0, -1.0])
        np.testing.assert_array_equal(project_capped_simplex(v, 1.0), [1.0, 0.0, 0.0])
        v = np.array([0.5, 0.5, 0.0, -1.0])
        np.testing.assert_array_equal(project_capped_simplex(v, 0.5), [0.5, 0.5, 0.0, 0.0])

    def test_nearly_feasible_point(self):
        # |sum - 1| <= 1e-12 on entry: the projection moves it by no more.
        rng = np.random.default_rng(7)
        for _ in range(100):
            b = int(rng.integers(2, 17))
            w = rng.dirichlet(np.ones(b)) * 0.5 + 0.5 / b
            v = w + rng.uniform(-1e-12, 1e-12) / b
            out = project_capped_simplex(v, 1.0, 0.0, _random_scale(rng, b))
            assert np.abs(out - w).max() <= 2e-12
            assert abs(out.sum() - 1.0) <= 1e-12


class TestKinkSearch:
    """The k-ary kink search against the scalar kink bisection, bit for bit.
    Batch sizes above 32 take more than one search round."""

    @pytest.mark.parametrize("floor", [0.0, 1e-10])
    @pytest.mark.parametrize("scale_kind", ["unit", "scalar", "vector"])
    def test_equals_kink_bisection(self, floor, scale_kind):
        rng = np.random.default_rng(8)
        for i in range(150):
            b = int(rng.integers(1, 401)) if i % 2 else int(rng.integers(1, 17))
            cap = float(rng.uniform(1.0 / b, 1.0))
            v = rng.normal(scale=3.0, size=b)
            if i % 3 == 0:  # many tied kinks
                v = np.round(v)
            if scale_kind == "unit":
                scale = 1.0
            elif scale_kind == "scalar":
                scale = float(10.0 ** rng.uniform(-12.0, 0.0))
            else:
                scale = _random_scale(rng, b)
            np.testing.assert_array_equal(project_capped_simplex(v, cap, floor, scale),
                                          _kink_bisection(v, cap, floor, scale))

    def test_equals_kink_bisection_at_edges(self):
        rng = np.random.default_rng(9)
        for b in (1, 2, 16, 17, 32, 33, 64, 65, 200, 400):
            v = rng.normal(size=b)
            scale = _random_scale(rng, b)
            cases = [
                (1.0 / b, 1.0 / b, 1.0),            # floor == cap: the flat piece
                (1.0 / b, 0.0, scale),              # cap * b == 1
                ((1.0 - 1e-13) / b, 1e-10, scale),  # no kink reaches sum 1
                (1.0, 0.0, 1.0),
            ]
            for cap, floor, s in cases:
                np.testing.assert_array_equal(project_capped_simplex(v, cap, floor, s),
                                              _kink_bisection(v, cap, floor, s))

    @pytest.mark.parametrize("floor", [0.0, 1e-10])
    @pytest.mark.parametrize("scale_kind", ["unit", "row", "vector"])
    def test_stacked_rows_equal_kink_bisection(self, floor, scale_kind):
        # Rows of one stack bracket their roots in different rounds once
        # b > 32, and each keeps its own bracket and metric.
        rng = np.random.default_rng(11)
        for b in (1, 2, 16, 31, 32, 33, 40, 64, 65, 200):
            for cap in (1.0 / b, float(rng.uniform(1.0 / b, 1.0)), 1.0):
                v = rng.normal(scale=3.0, size=(12, b))
                v[::3] = np.round(v[::3])  # many tied kinks
                if scale_kind == "unit":
                    scale = 1.0
                elif scale_kind == "row":
                    scale = 10.0 ** rng.uniform(-12.0, 0.0, size=(12, 1))
                else:
                    scale = _random_scale(rng, (12, b))
                out = project_capped_simplex(v, cap, floor, scale)
                assert out.shape == v.shape
                rows = np.broadcast_to(scale, v.shape)
                for row, vi, si in zip(out, v, rows):
                    np.testing.assert_array_equal(row, _kink_bisection(vi, cap, floor, si))

    def test_stacked_edges_equal_kink_bisection(self):
        rng = np.random.default_rng(12)
        for b in (2, 32, 33, 200):
            v = rng.normal(size=(5, b))
            scale = _random_scale(rng, (5, b))
            for cap, floor, s in [(1.0 / b, 1.0 / b, 1.0), (1.0 / b, 0.0, scale),
                                  ((1.0 - 1e-13) / b, 1e-10, scale)]:
                out = project_capped_simplex(v, cap, floor, s)
                for row, vi, si in zip(out, v, np.broadcast_to(s, v.shape)):
                    np.testing.assert_array_equal(row, _kink_bisection(vi, cap, floor, si))

    def test_empty_stack(self):
        assert project_capped_simplex(np.empty((0, 4)), 0.5).shape == (0, 4)

    def test_memory_is_linear_in_b(self):
        # A round holds a (64, b) array and never a (2b, b) one: at b = 20000
        # the latter alone would take 6.4 GB.
        rng = np.random.default_rng(10)
        b = 20000
        v = rng.normal(size=b)
        scale = _random_scale(rng, b)
        tracemalloc.start()
        try:
            w = project_capped_simplex(v, 2.0 / b, 1e-10, scale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20
        np.testing.assert_array_equal(w, _kink_bisection(v, 2.0 / b, 1e-10, scale))


class TestBruteForceWeights:
    def test_equal_gaps_uniform(self):
        w = brute_force_optimal_weights(np.zeros(6), r=1.0, cap=0.5)
        np.testing.assert_allclose(w, np.full(6, 1 / 6), atol=1e-8)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(50):
            b = int(rng.integers(2, 9))
            r = float(10.0 ** rng.uniform(-1, 1))
            h = rng.uniform(-1.0, 1.0, size=b)
            fast = capped_optimal_weights(h, r, 2.0 / b)
            slow = brute_force_optimal_weights(h, r, 2.0 / b)
            worst = max(worst, float(np.abs(fast - slow).max()))
        assert worst <= 1e-6

    def test_degenerate_limit(self):
        h = np.array([0.3, -0.9, 0.8, -0.1])
        w = brute_force_optimal_weights(h, r=1e-6, cap=0.5)
        np.testing.assert_allclose(w, [0.5, 0.0, 0.5, 0.0], atol=1e-3)

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = int(rng.integers(3, 9))
            r = float(10.0 ** rng.uniform(-1, 1))
            h = rng.uniform(-1.0, 1.0, size=b)
            w = brute_force_optimal_weights(h, r, 2.0 / b)
            assert kkt_residual(w, h, r, 2.0 / b) <= 1e-6

    def test_kkt_residual_of_nonfinite_weights_is_nan(self):
        # No coordinate of an all-NaN w counts as interior, so without the
        # finiteness check the residual would read 0.0 and pass.
        h = np.array([0.3, -0.9, 0.8, -0.1])
        assert np.isnan(kkt_residual(np.full(4, np.nan), h, 1.0, 0.5))
        assert np.isnan(kkt_residual(np.full(4, 0.25), np.array([0.0, np.inf, 0.0, 0.0]),
                                     1.0, 0.5))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError):
            brute_force_optimal_weights([0.0, 1.0], r=0.0, cap=1.0)
        with pytest.raises(ConfigError):
            brute_force_optimal_weights([0.0, 1.0], r=1.0, cap=0.2)


@st.composite
def oracle_stacks(draw):
    """An (R, b) stack of capped-weights instances with gaps in [-1, 1], one
    temperature per row in [1e-2, 1e2] and a cap from 1/b (cap * b == 1,
    every weight pinned) to 1 (no cap)."""
    b = draw(st.integers(2, 12))
    n = draw(st.integers(1, 6))
    gaps = draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=b, max_size=b),
                         min_size=n, max_size=n))
    log_r = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    cap = draw(st.sampled_from([1.0 / b, 2.0 / b, 0.5 + 0.5 / b, 1.0]))
    return np.array(gaps), 10.0 ** np.array(log_r), cap


class TestStackedOracle:
    @example((np.zeros((2, 4)), np.array([1e-2, 1e2]), 0.25))
    @example((np.array([[0.3, -0.9, 0.8, -0.1], [0.5, 0.5, -1.0, -1.0]]),
              np.array([1e-2, 3.0]), 0.5))
    @given(oracle_stacks())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_every_row_equals_its_one_row_call(self, stack):
        gaps, r, cap = stack
        w = brute_force_optimal_weights(gaps, r, cap)
        assert w.shape == gaps.shape
        for row, h, ri in zip(w, gaps, r):
            np.testing.assert_array_equal(row, brute_force_optimal_weights(h, ri, cap))

    @pytest.mark.parametrize("draws", [verify.PROP1_DRAWS, verify.KKT_DRAWS],
                             ids=lambda draws: "-".join(map(str, draws)))
    def test_verify_instances_equal_one_step_at_a_time_search(self, draws):
        # The prop1 and KKT checks' own instances, one stack per batch size:
        # the ladder in one call takes the step a one-at-a-time search takes.
        for b, r, h in verify._by_batch_size(verify._oracle_draws(*draws)):
            w = brute_force_optimal_weights(h, r, 2.0 / b)
            for row, hi, ri in zip(w, h, r):
                np.testing.assert_array_equal(row,
                                              _one_step_at_a_time_oracle(hi, ri, 2.0 / b))

    def test_scalar_r_for_a_stack(self):
        gaps = np.random.default_rng(13).uniform(-1.0, 1.0, size=(3, 5))
        np.testing.assert_array_equal(brute_force_optimal_weights(gaps, 0.7, 0.4),
                                      brute_force_optimal_weights(gaps, np.full(3, 0.7), 0.4))

    def test_any_nonpositive_r_rejected(self):
        with pytest.raises(ConfigError):
            brute_force_optimal_weights(np.zeros((2, 3)), np.array([1.0, 0.0]), 0.5)


class TestFiniteDiff:
    def test_quadratic_is_exact_to_roundoff(self):
        theta = np.array([1.0, 0.0, 0.0])
        g = finite_diff_grad(lambda t: float(t @ t), theta)
        np.testing.assert_allclose(g, [2.0, 0.0, 0.0], atol=1e-8)

    def test_linear_function(self):
        c = np.array([3.0, -2.0, 0.5])
        g = finite_diff_grad(lambda t: float(c @ t), np.zeros(3))
        np.testing.assert_allclose(g, c, atol=1e-8)

    def test_stack_rows_equal_separate_calls(self):
        # A stack (S, d) with a row-wise loss differences each row exactly as
        # a separate call on that row would.
        rng = np.random.default_rng(0)
        thetas = rng.standard_normal((4, 3))
        stacked = finite_diff_grad(lambda t: np.sin(t).sum(axis=-1), thetas)
        for theta, row in zip(thetas, stacked):
            np.testing.assert_array_equal(
                row, finite_diff_grad(lambda t: float(np.sin(t).sum()), theta))
        np.testing.assert_allclose(stacked, np.cos(thetas), atol=1e-8)
