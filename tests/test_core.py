"""Unit and property tests for the batch-weighting pipeline."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reweight.core import (
    FLOAT_MAX,
    MODES,
    ConfigError,
    ReweightConfig,
    TemperatureSchedule,
    ValidationError,
    capped_optimal_weights,
    compute_batch_weights,
    normalize_losses,
    schedule_r,
    temper_weights,
    _span_weights,
)
from reweight.optim import StepSizeRule, run_cells
from reweight.oracle import brute_force_optimal_weights
from reweight.problems import (
    NonconvexProblem,
    QuadraticProblem,
    gen_quadratic_suite,
    gen_regression,
)


finite_losses = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=32,
).map(lambda xs: np.array(xs, dtype=float))


class TestNormalizeLosses:
    def test_endpoints_and_midpoint(self):
        np.testing.assert_allclose(
            normalize_losses([0.0, 0.5, 1.0], alpha=1.0), [-1.0, 0.0, 1.0]
        )

    def test_all_equal_maps_to_zero(self):
        np.testing.assert_array_equal(
            normalize_losses([2.0, 2.0, 2.0], alpha=1.0), [0.0, 0.0, 0.0]
        )

    def test_alpha_scales_endpoints(self):
        np.testing.assert_allclose(
            normalize_losses([1.0, 3.0], alpha=2.0), [-2.0, 2.0]
        )

    def test_non_finite_loss_names_index(self):
        with pytest.raises(ValidationError, match="index 2"):
            normalize_losses([1.0, 2.0, np.nan])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            normalize_losses([])

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ConfigError):
            normalize_losses([1.0, 2.0], alpha=0.0)

    def test_alpha_times_the_range_may_pass_the_largest_float(self):
        # alpha * (f_max - f_min) is 1e309 here: the range is divided out
        # before alpha scales it, so nothing overflows.
        losses = [0.0, 1e109, 5e108]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = normalize_losses(losses, alpha=1e200)
            w = compute_batch_weights(losses, ReweightConfig(mode="quadratic", alpha=1e200))
        assert h.tolist() == [-1e200, 1e200, 0.0]
        assert w.tolist() == [0.0, 0.0, 1.0]

    @given(losses=finite_losses, alpha=st.floats(min_value=0.1, max_value=10.0))
    def test_output_bounded_by_alpha(self, losses, alpha):
        h = normalize_losses(losses, alpha)
        assert np.all(np.abs(h) <= alpha + 1e-12)

    @given(losses=finite_losses, shift=st.floats(min_value=-1e3, max_value=1e3))
    def test_shift_invariance(self, losses, shift):
        # Near-equal batches amplify rounding through the epsilon guard, so
        # only well-separated (or exactly equal) batches are asserted tightly.
        rng_width = losses.max() - losses.min()
        assume(rng_width == 0.0 or rng_width > 1e-3)
        np.testing.assert_allclose(
            normalize_losses(losses + shift), normalize_losses(losses), atol=1e-5
        )


def _mode_weights(mode, losses, r=1.0, **params):
    """The weights of mode on losses at temperature r."""
    schedule = TemperatureSchedule(r_initial=r, r_final=r)
    return compute_batch_weights(losses, ReweightConfig(mode=mode, schedule=schedule, **params))


class TestScoredModes:
    """The scored modes temper a score of the normalized losses h. Losses
    spanning exactly [-alpha, alpha] normalize to themselves, so each
    example's losses are its h."""

    def test_linupper_example(self):
        np.testing.assert_allclose(
            _mode_weights("linupper", [-1.0, -0.5, 0.0, 0.7, 1.0]),
            temper_weights([0.0, 0.5, 1.0, 1.0, 1.0], r=1.0),
        )

    def test_quadratic_example(self):
        np.testing.assert_allclose(
            _mode_weights("quadratic", [-1.0, 0.0, 0.5, 1.0]),
            temper_weights([0.0, 1.0, 0.75, 0.0], r=1.0),
        )

    def test_quadratic_takes_an_alpha_whose_square_overflows(self):
        # alpha**2 overflows a float above about 1.34e154, while the config
        # takes any finite alpha > 0.
        losses = np.random.default_rng(0).exponential(size=(3, 8))
        w = _mode_weights("quadratic", losses, alpha=1e200)
        assert np.isfinite(w).all()
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=1e-15)

    def test_extremes_example(self):
        np.testing.assert_allclose(
            _mode_weights("extremes", [-0.8, 0.0, 0.8], alpha=0.8),
            temper_weights([0.8, 0.0, 0.8], r=1.0),
        )

    def test_uniform_is_a_constant_score(self):
        # Exactly 1/b, whatever the losses and the temperature.
        for r in (1e-6, 1.0):
            np.testing.assert_array_equal(_mode_weights("uniform", [-0.3, 0.1, 0.2], r),
                                          np.full(3, 1.0 / 3))

    @given(
        losses=finite_losses,
        mode=st.sampled_from(["linupper", "quadratic", "extremes"]),
        alpha=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_scores_in_zero_alpha(self, losses, mode, alpha):
        # At r = 1 the log-weights are the scores up to one shared constant,
        # so scores in [0, alpha] bound the log-weight spread by alpha.
        logw = np.log(_mode_weights(mode, losses, alpha=alpha))
        assert logw.max() - logw.min() <= alpha + 1e-12


class TestTemperWeights:
    def test_equal_scores_uniform(self):
        np.testing.assert_allclose(
            temper_weights([1.0, 1.0, 1.0, 1.0], r=0.5), [0.25] * 4
        )

    @pytest.mark.parametrize("r", [0.1, 1.0, 7.5])
    def test_exponent_ratio_one_to_three(self, r):
        np.testing.assert_allclose(
            temper_weights([0.0, r * np.log(3.0)], r=r), [0.25, 0.75]
        )

    def test_high_temperature_near_uniform(self):
        w = temper_weights(np.linspace(-5.0, 5.0, 16), r=1e6)
        assert np.abs(w - 1.0 / 16).max() <= 1e-6

    def test_nonpositive_r_rejected(self):
        with pytest.raises(ConfigError):
            temper_weights([1.0, 2.0], r=0.0)

    def test_infinite_r_is_uniform(self):
        h = np.array([0.3, -1.0, 0.8, 0.1])
        np.testing.assert_array_equal(temper_weights(h, np.inf), np.full(4, 0.25))
        np.testing.assert_array_equal(capped_optimal_weights(h, np.inf, 0.5), np.full(4, 0.25))

    @given(losses=finite_losses, const=st.floats(min_value=-50, max_value=50))
    def test_score_shift_invariance(self, losses, const):
        s = normalize_losses(losses)
        np.testing.assert_allclose(
            temper_weights(s + const, 1.0), temper_weights(s, 1.0), atol=1e-12
        )


class TestCappedOptimalWeights:
    def test_equal_scores_uniform(self):
        np.testing.assert_allclose(
            capped_optimal_weights(np.zeros(5), r=0.7, cap=0.5), np.full(5, 0.2)
        )

    def test_vacuous_cap_is_plain_softmax(self):
        w = capped_optimal_weights([0.0, 1.0], r=1.0, cap=1.0)
        e = np.e
        np.testing.assert_allclose(w, [1.0 / (1.0 + e), e / (1.0 + e)])

    def test_binding_cap_splits_remaining_mass(self):
        w = capped_optimal_weights([10.0, 0.0, 0.0, 0.0], r=1.0, cap=0.5)
        np.testing.assert_allclose(w, [0.5, 1 / 6, 1 / 6, 1 / 6])

    @pytest.mark.parametrize("h, r", [([-1.0, -0.3, 0.3, 1.0], 1e-310),
                                      ([-1.0, np.nan, 0.3, 1.0], 1.0)], ids=["overflow", "nan"])
    def test_non_finite_logits_rejected(self, h, r):
        # h/r overflows at a subnormal r, and a NaN fits no prefix: the solve
        # would pin all four entries at the cap, weights that sum to 1.2. A
        # stack fails for such a row too.
        want = ("^capped weights pin all 4 entries of a row at cap 0.3, which sum to 1.2 > 1: "
                "h/r is not finite$")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match=want):
                capped_optimal_weights(h, r, 0.3)
            with pytest.raises(ValidationError, match=want):
                capped_optimal_weights(np.stack([_H, h]), np.array([1.0, r]), 0.3)

    def test_tiny_finite_r_still_solves(self):
        w = capped_optimal_weights([-1.0, -0.3, 0.3, 1.0], 1e-307, 0.3)
        np.testing.assert_allclose(w, [0.1, 0.3, 0.3, 0.3])

    def test_cap_of_one_over_b_pins_every_entry(self):
        # cap*b is 1 up to rounding: every entry at the cap is the solution,
        # not a row of non-finite logits.
        for b in range(2, 40):
            h = np.random.default_rng(b).standard_normal(b)
            np.testing.assert_allclose(capped_optimal_weights(h, 0.1, 1.0 / b),
                                       np.full(b, 1.0 / b))

    def test_infeasible_cap_rejected(self):
        with pytest.raises(ConfigError):
            capped_optimal_weights([0.0, 1.0], r=1.0, cap=0.4)

    def test_nonpositive_r_rejected(self):
        with pytest.raises(ConfigError):
            capped_optimal_weights([0.0, 1.0], r=-1.0, cap=1.0)

    def test_degenerate_limit_even_batch(self):
        # r -> 0 with cap = 2/b puts mass 2/b on the top half of the batch.
        rng = np.random.default_rng(7)
        for b in (2, 4, 8, 16):
            h = rng.permutation(np.linspace(-1.0, 1.0, b))
            w = capped_optimal_weights(h, r=1e-6, cap=2.0 / b)
            expect = np.where(h >= np.median(h), 2.0 / b, 0.0)
            assert np.abs(w - expect).max() <= 1e-3

    def test_degenerate_limit_odd_batch_residual(self):
        # Odd b: floor(b/2) samples at the cap, the next-highest gets the rest.
        h = np.array([0.9, -0.2, 0.4, -0.8, 0.1])
        w = capped_optimal_weights(h, r=1e-6, cap=0.4)
        expect = np.zeros(5)
        expect[[0, 2]] = 0.4
        expect[4] = 0.2
        assert np.abs(w - expect).max() <= 1e-3

    @given(
        losses=finite_losses,
        r=st.floats(min_value=1e-3, max_value=100.0),
    )
    @settings(max_examples=300)
    def test_cap_never_exceeded(self, losses, r):
        b = losses.size
        cap = 2.0 / b
        w = capped_optimal_weights(normalize_losses(losses), r, cap)
        assert w.max() <= cap + 1e-12

    @given(losses=finite_losses, r=st.floats(min_value=0.05, max_value=10.0))
    def test_monotone_in_loss(self, losses, r):
        order = np.argsort(losses)
        w = capped_optimal_weights(normalize_losses(losses), r, 2.0 / losses.size)
        assert np.all(np.diff(w[order]) >= -1e-12)

    @given(
        losses=finite_losses,
        r=st.floats(min_value=1e-6, max_value=1e2),
        cap_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=500, deadline=None)
    # Logits of +-1e6 with a cap just above 1/b: the last entry is free.
    @example(losses=np.array([0.0, 0.0, 0.0, -1.0]), r=1e-6, cap_frac=1e-12)
    def test_closed_form_structure(self, losses, r, cap_frac):
        b = losses.size
        cap = 1.0 / b + cap_frac * (1.0 - 1.0 / b)
        h = normalize_losses(losses)
        w = capped_optimal_weights(h, r, cap)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0.0)
        assert np.all(w <= cap + 1e-12)
        # The pinned set is a top-k prefix of h.
        pinned = w >= cap - 1e-12
        if pinned.any() and not pinned.all():
            assert h[pinned].min() >= h[~pinned].max()
        # Free entries keep the exp(h/r) ratios: r log w_i - h_i is constant.
        free = ~pinned & (w > 1e-300)
        if free.sum() >= 2:
            offset = r * np.log(w[free]) - h[free]
            assert np.ptp(offset) <= 1e-9 * max(1.0, r)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            b = int(rng.integers(2, 17))
            r = float(10.0 ** rng.uniform(-1, 1))
            cap = float(rng.uniform(1.0 / b, 1.0))
            h = rng.uniform(-1.0, 1.0, size=b)
            np.testing.assert_allclose(
                capped_optimal_weights(h, r, cap),
                brute_force_optimal_weights(h, r, cap),
                atol=1e-6,
            )

    @pytest.mark.parametrize(
        "h, r, cap, expect",
        [
            # A tied pair above the threshold is pinned together.
            ([1.0, 1.0, 0.0], 0.01, 0.45, [0.45, 0.45, 0.1]),
            ([1.0] * 4 + [0.0] * 4, 1e-6, 0.2, [0.2] * 4 + [0.05] * 4),
            # The top entry's free softmax weight is exactly the cap.
            ([1.0, 0.0, 0.0], 1.0 / np.log(2.0), 0.5, [0.5, 0.25, 0.25]),
        ],
    )
    def test_ties_at_threshold(self, h, r, cap, expect):
        for perm in (np.arange(len(h)), np.arange(len(h))[::-1]):
            w = capped_optimal_weights(np.array(h)[perm], r, cap)
            np.testing.assert_allclose(w, np.array(expect)[perm], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("b", [3, 7, 10, 64])
    def test_cap_times_b_one_is_uniform(self, b):
        h = np.random.default_rng(b).uniform(-1.0, 1.0, size=b)
        w = capped_optimal_weights(h, r=0.1, cap=1.0 / b)
        np.testing.assert_allclose(w, np.full(b, 1.0 / b), rtol=0, atol=1e-15)
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_degenerate_limit_large_batch(self):
        b = 1024
        h = np.random.default_rng(11).permutation(np.linspace(-1.0, 1.0, b))
        w = capped_optimal_weights(h, r=1e-6, cap=2.0 / b)
        np.testing.assert_array_equal(w, np.where(h >= np.median(h), 2.0 / b, 0.0))


def test_cli_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, reweight.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestDroKlWeights:
    def test_equal_losses_uniform(self):
        np.testing.assert_allclose(_mode_weights("dro_kl", [3.0, 3.0], dro_tau=2.0),
                                   [0.5, 0.5])

    def test_exponent_ratio_one_to_nine(self):
        tau = 0.7
        np.testing.assert_allclose(
            _mode_weights("dro_kl", [0.0, tau * np.log(9.0)], dro_tau=tau), [0.1, 0.9]
        )

    def test_high_temperature_near_uniform(self):
        # Deviation from uniform scales like spread/(b*tau), so tau must be
        # large relative to the loss spread (100 here) for a 1e-6 tolerance.
        w = _mode_weights("dro_kl", np.linspace(0.0, 100.0, 8), dro_tau=1e8)
        assert np.abs(w - 0.125).max() <= 1e-6

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ConfigError):
            ReweightConfig(mode="dro_kl", dro_tau=0.0)

    def test_ignores_the_temperature_r(self):
        # The raw losses at dro_tau, whatever the step's temperature r.
        losses = [0.0, 1.0, 5.0]
        for r in (1e-6, 1.0, 1e6):
            assert _mode_weights("dro_kl", losses, r, dro_tau=0.7).tobytes() == \
                temper_weights(losses, 0.7).tobytes()

    def test_null_tau_is_the_final_temperature(self):
        schedule = TemperatureSchedule(kind="step_drop", r_initial=50.0, r_final=0.3,
                                       warmup_steps=4)
        cfg = ReweightConfig(mode="dro_kl", schedule=schedule)
        for step in (0, 10):
            assert compute_batch_weights([0.0, 1.0, 5.0], cfg, step).tobytes() == \
                temper_weights([0.0, 1.0, 5.0], 0.3).tobytes()


class TestScheduleR:
    def test_step_drop_boundaries(self):
        sched = TemperatureSchedule(
            kind="step_drop", r_initial=100.0, r_final=1.0, warmup_steps=500
        )
        assert schedule_r(0, sched) == 100.0
        assert schedule_r(499, sched) == 100.0
        assert schedule_r(500, sched) == 1.0

    def test_constant(self):
        sched = TemperatureSchedule(kind="constant", r_initial=4.0)
        assert schedule_r(0, sched) == 4.0
        assert schedule_r(10**6, sched) == 4.0

    def test_negative_step_rejected(self):
        with pytest.raises(ValidationError):
            schedule_r(-1, TemperatureSchedule())

    @pytest.mark.parametrize("step", [[0, 10], (0, 10), np.arange(2), np.array([3])],
                             ids=["list", "tuple", "array", "one-element-array"])
    def test_non_scalar_step_rejected(self, step):
        shape = re.escape(str(np.shape(step)))
        for kind in ("constant", "step_drop"):
            with pytest.raises(ValidationError, match=rf"^step of shape {shape} is not one step$"):
                schedule_r(step, TemperatureSchedule(kind=kind))

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ConfigError):
            TemperatureSchedule(kind="cosine")
        with pytest.raises(ConfigError):
            TemperatureSchedule(r_initial=0.0)
        with pytest.raises(ConfigError):
            TemperatureSchedule(warmup_steps=-1)


class TestComputeBatchWeights:
    def test_uniform_is_exact(self):
        cfg = ReweightConfig(mode="uniform")
        w = compute_batch_weights([5.0, 1.0, 3.0, 2.0], cfg)
        np.testing.assert_array_equal(w, np.full(4, 0.25))

    def test_linupper_hand_composition(self):
        cfg = ReweightConfig(
            mode="linupper",
            schedule=TemperatureSchedule(kind="constant", r_initial=1.0),
        )
        w = compute_batch_weights([0.0, 0.5, 1.0], cfg)
        z = 1.0 + 2.0 * np.e
        np.testing.assert_allclose(w, [1.0 / z, np.e / z, np.e / z], atol=1e-4)

    def test_high_temperature_near_uniform(self):
        cfg = ReweightConfig(
            mode="linupper",
            schedule=TemperatureSchedule(kind="constant", r_initial=1e6),
        )
        w = compute_batch_weights(np.arange(10.0), cfg)
        assert np.abs(w - 0.1).max() <= 1e-6

    def test_cap_mode_routes_to_capped_weights(self):
        cfg = ReweightConfig(
            mode="capped",
            schedule=TemperatureSchedule(kind="constant", r_initial=1.0),
            cap=0.5,
        )
        w = compute_batch_weights([0.0, 1.0, 2.0, 3.0], cfg)
        expect = capped_optimal_weights(
            normalize_losses([0.0, 1.0, 2.0, 3.0]), 1.0, 0.5
        )
        np.testing.assert_array_equal(w, expect)

    def test_null_cap_is_two_over_b(self):
        cfg = ReweightConfig(
            mode="capped", schedule=TemperatureSchedule(kind="constant", r_initial=0.1)
        )
        losses = np.arange(8.0)
        w = compute_batch_weights(losses, cfg)
        expect = capped_optimal_weights(normalize_losses(losses), 0.1, 2.0 / 8)
        assert w.tobytes() == expect.tobytes()

    def test_dro_mode_routes_to_dro_weights(self):
        cfg = ReweightConfig(mode="dro_kl", dro_tau=2.0)
        w = compute_batch_weights([0.0, 1.0], cfg)
        np.testing.assert_array_equal(w, temper_weights([0.0, 1.0], 2.0))

    def test_step_selects_schedule_temperature(self):
        cfg = ReweightConfig(
            mode="linupper",
            schedule=TemperatureSchedule(
                kind="step_drop", r_initial=1e6, r_final=0.5, warmup_steps=10
            ),
        )
        losses = [0.0, 1.0, 5.0]
        w_warm = compute_batch_weights(losses, cfg, step=0)
        w_late = compute_batch_weights(losses, cfg, step=10)
        assert np.abs(w_warm - 1 / 3).max() <= 1e-6
        assert w_late.max() > 0.4

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("losses", [np.arange(4.0), np.ones((3, 4))],
                             ids=["batch", "stack"])
    def test_step_not_one_per_batch_rejected(self, mode, losses):
        # One scalar step for a batch or a whole stack: a list, a tuple or an
        # array of steps is rejected with its shape, even one step per row.
        shape = re.escape(str(losses.shape))
        for steps in ([0, 10, 20], (0, 10, 20), np.arange(3), np.arange(6).reshape(3, 2)):
            with pytest.raises(ValidationError, match=rf"^step of shape "
                               rf"{re.escape(str(np.shape(steps)))} is not one step: give a "
                               rf"scalar step for losses of shape {shape}$"):
                compute_batch_weights(losses, ReweightConfig(mode=mode), steps)

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("losses", [np.arange(4.0), np.ones((3, 4))],
                             ids=["batch", "stack"])
    def test_negative_step_rejected(self, mode, losses):
        # dro_kl's temperature does not follow the schedule, but its step is
        # checked all the same.
        with pytest.raises(ValidationError, match="^step must be nonnegative$"):
            compute_batch_weights(losses, ReweightConfig(mode=mode), -1)

    def test_uniform_ignores_an_overflowing_range(self):
        # uniform reads no normalization, so a finite loss range that
        # overflows raises no RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = compute_batch_weights([-1e308, 1e308], ReweightConfig(mode="uniform"))
        assert w.tolist() == [0.5, 0.5]

    SCORES = {
        "linupper": lambda h, alpha: np.minimum(h + alpha, alpha),
        "quadratic": lambda h, alpha: alpha * (1.0 - h**2 / alpha**2),
        "extremes": lambda h, alpha: np.abs(h),
    }

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("b", [3, 7, 32])
    def test_equals_the_paper_formula(self, mode, b):
        # Each mode's weights, bit for bit, from the public pieces, at a
        # step before and after a temperature drop, for a batch and a stack.
        alpha, cap, tau = 0.5, 0.4, 0.7
        schedule = TemperatureSchedule(kind="step_drop", r_initial=3.0, r_final=0.2,
                                       warmup_steps=5)
        extra = {"capped": {"cap": cap}, "dro_kl": {"dro_tau": tau}}.get(mode, {})
        config = ReweightConfig(mode=mode, alpha=alpha, schedule=schedule, **extra)
        losses = np.random.default_rng(b).exponential(size=(3, b))
        losses[1] = 2.0  # an all-equal row normalizes to zeros
        for f in (losses[0], losses):
            h = normalize_losses(f, alpha)
            for step, r in ((4, 3.0), (5, 0.2)):
                want = {
                    "uniform": lambda: np.full(f.shape, 1 / b),
                    "capped": lambda: capped_optimal_weights(h, r, cap),
                    "dro_kl": lambda: temper_weights(f, tau),
                }.get(mode, lambda: temper_weights(self.SCORES[mode](h, alpha), r))()
                assert compute_batch_weights(f, config, step).tobytes() == want.tobytes()

    @given(
        losses=finite_losses,
        mode=st.sampled_from(list(MODES)),
        r=st.floats(min_value=0.01, max_value=100.0),
        step=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=1000, deadline=None)
    def test_simplex_property(self, losses, mode, r, step):
        cfg = ReweightConfig(
            mode=mode,
            schedule=TemperatureSchedule(kind="constant", r_initial=r, r_final=r),
        )
        w = compute_batch_weights(losses, cfg, step=step)
        assert w.shape == losses.shape
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-9

    @given(losses=finite_losses, r=st.floats(min_value=0.05, max_value=10.0))
    def test_linupper_weights_monotone_in_loss(self, losses, r):
        cfg = ReweightConfig(
            mode="linupper",
            schedule=TemperatureSchedule(kind="constant", r_initial=r),
        )
        w = compute_batch_weights(losses, cfg)
        order = np.argsort(losses)
        assert np.all(np.diff(w[order]) >= -1e-12)

    @given(losses=finite_losses)
    def test_pigeonhole_on_weight_extremes(self, losses):
        cfg = ReweightConfig(
            mode="quadratic",
            schedule=TemperatureSchedule(kind="constant", r_initial=1.0),
        )
        w = compute_batch_weights(losses, cfg)
        b = losses.size
        assert w.max() >= 1.0 / b - 1e-12
        assert w.min() <= 1.0 / b + 1e-12


class TestReweightConfigValidation:
    def test_modes_are_the_cli_strategy_names(self):
        assert list(MODES) == ["uniform", "linupper", "quadratic", "extremes", "capped",
                               "dro_kl"]
        for mode in MODES:
            assert ReweightConfig(mode=mode).mode == mode

    @pytest.mark.parametrize("mode", ["nonsense", "capped ", "LinUpper", ""])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ConfigError, match=f"unknown weighting mode {mode!r}"):
            ReweightConfig(mode=mode)

    @pytest.mark.parametrize("mode", [m for m in MODES if m != "capped"])
    def test_cap_read_only_by_capped(self, mode):
        with pytest.raises(ConfigError, match=f"cap is read only by mode 'capped', not {mode!r}"):
            ReweightConfig(mode=mode, cap=0.5)

    @pytest.mark.parametrize("mode", [m for m in MODES if m != "dro_kl"])
    def test_dro_tau_read_only_by_dro_kl(self, mode):
        with pytest.raises(ConfigError,
                           match=f"dro_tau is read only by mode 'dro_kl', not {mode!r}"):
            ReweightConfig(mode=mode, dro_tau=1.0)

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            ReweightConfig(alpha=-1.0)
        with pytest.raises(ConfigError):
            ReweightConfig(mode="capped", cap=0.0)
        with pytest.raises(ConfigError):
            ReweightConfig(mode="dro_kl", dro_tau=-2.0)

    @pytest.mark.parametrize("kind, key", [("constant", "r_initial"), ("step_drop", "r_initial"),
                                           ("step_drop", "r_final")])
    def test_capped_logit_overflow_rejected(self, kind, key):
        # alpha / r above FLOAT_MAX / 2 at an r the schedule reads would
        # overflow the capped solve's logits h/r.
        schedule = TemperatureSchedule(kind=kind, warmup_steps=5, **{key: 1e-10})
        with pytest.raises(ConfigError, match=rf"^mode 'capped' needs alpha / {key} <= "
                                              rf"8\.98847e\+307, got alpha = 1e\+300 and "
                                              rf"{key} = 1e-10$"):
            ReweightConfig(mode="capped", alpha=1e300, schedule=schedule)

    def test_capped_logit_bound_reads_only_the_r_used(self):
        # A constant schedule never reads r_final, and only mode capped
        # solves on the capped simplex.
        ReweightConfig(mode="capped", alpha=1e300, schedule=TemperatureSchedule(r_final=1e-10))
        for mode in ("linupper", "extremes"):
            ReweightConfig(mode=mode, alpha=1e300, schedule=TemperatureSchedule(r_initial=1e-10))

    def test_capped_weights_at_the_logit_bound_are_finite(self):
        # r is a power of two, so alpha = FLOAT_MAX / 2 * r is exact and
        # alpha / r is exactly the bound; the next alpha up is rejected.
        r = 0.25
        config = ReweightConfig(mode="capped", alpha=FLOAT_MAX / 2 * r,
                                schedule=TemperatureSchedule(r_initial=r))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            w = compute_batch_weights([0.0, 1.0, 2.0, 3.0], config)
        np.testing.assert_array_equal(w, [0.0, 0.0, 0.5, 0.5])
        with pytest.raises(ConfigError, match="^mode 'capped' needs alpha / r_initial"):
            ReweightConfig(mode="capped", alpha=np.nextafter(config.alpha, np.inf),
                           schedule=config.schedule)


class TestConfigFields:
    """Every float field of the config objects must be a finite number > 0
    and every count an integer, as the CLI requires of its config keys; each
    error names the field."""

    REALS = [
        (ReweightConfig, {}, "alpha"),
        (ReweightConfig, {"mode": "capped"}, "cap"),
        (ReweightConfig, {"mode": "dro_kl"}, "dro_tau"),
        (TemperatureSchedule, {}, "r_initial"),
        (TemperatureSchedule, {}, "r_final"),
        (StepSizeRule, {"kind": "fixed"}, "eta"),
        (StepSizeRule, {"kind": "convex_theory"}, "L"),
    ]
    COUNTS = [
        (TemperatureSchedule, {"kind": "step_drop"}, "warmup_steps"),
        (StepSizeRule, {"kind": "sqrt_horizon"}, "horizon_T"),
    ]

    # 10**400 is an integer that converts to no finite float.
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400],
                             ids=["nan", "inf", "-inf", "huge-int"])
    @pytest.mark.parametrize("cls,base,name", REALS)
    def test_non_finite_rejected(self, cls, base, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got {value!r}$"):
            cls(**base, **{name: value})

    @pytest.mark.parametrize("value", [1.5, 2.0, True, float("nan")])
    @pytest.mark.parametrize("cls,base,name", COUNTS)
    def test_non_integer_count_rejected(self, cls, base, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {value!r}$"):
            cls(**base, **{name: value})

    @pytest.mark.parametrize("cls,base,name", REALS + COUNTS)
    def test_finite_numbers_and_integers_accepted(self, cls, base, name):
        for value in (np.int64(3), 3):
            assert getattr(cls(**base, **{name: value}), name) == 3


_H = np.array([0.3, -1.0, 0.8, 0.1])

# Every checked field of the config objects and every checked argument of
# the library's entry points: (name, what a wrong value's message calls its
# type, a call that passes it the value).
_CHECKED = [
    ("alpha", "a number", lambda v: ReweightConfig(alpha=v)),
    ("cap", "a number or null", lambda v: ReweightConfig(mode="capped", cap=v)),
    ("dro_tau", "a number or null", lambda v: ReweightConfig(mode="dro_kl", dro_tau=v)),
    ("r_initial", "a number", lambda v: TemperatureSchedule(r_initial=v)),
    ("r_final", "a number", lambda v: TemperatureSchedule(r_final=v)),
    ("warmup_steps", "an integer", lambda v: TemperatureSchedule(warmup_steps=v)),
    ("eta", "a number", lambda v: StepSizeRule(eta=v)),
    ("L", "a number", lambda v: StepSizeRule(kind="convex_theory", L=v)),
    ("horizon_T", "an integer", lambda v: StepSizeRule(kind="sqrt_horizon", horizon_T=v)),
    ("alpha", "a number", lambda v: normalize_losses(_H, v)),
    ("p", "an integer", lambda v: gen_regression(p=v)),
    ("n", "an integer", lambda v: gen_regression(n=v)),
    ("m", "an integer", lambda v: gen_regression(m=v)),
    ("n_test", "an integer", lambda v: gen_regression(n_test=v)),
    ("M", "an integer", lambda v: gen_quadratic_suite(M=v, d=2)),
    ("d", "an integer", lambda v: gen_quadratic_suite(M=2, d=v)),
    ("n_samples", "an integer", lambda v: NonconvexProblem(n_samples=v)),
    ("dim", "an integer", lambda v: NonconvexProblem(dim=v)),
    ("steps", "an integer",
     lambda v: run_cells(QuadraticProblem(gen_quadratic_suite(M=4, d=2)), [], StepSizeRule(),
                         2, v)),
]


# A string, a list and a bool for every field, and a non-integer float for
# an integer one.
@pytest.mark.parametrize("name, noun, call, value", [
    pytest.param(name, noun, call, value, id=f"{call.__code__.co_names[0]}-{name}-{value!r}")
    for name, noun, call in _CHECKED for value in ["1", [1], True] + [1.5] * (noun == "an integer")
])
def test_wrong_type_is_a_config_error_naming_the_field(name, noun, call, value):
    # One checker, core.check_value, types every field and argument as the
    # CLI types its config keys: a bool is no number, and 1.5 no integer.
    want = f"{name} must be {noun}, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
        call(value)



@pytest.mark.parametrize("call, want", [
    (lambda: temper_weights(_H, np.nan), "temperature r must be positive"),
    (lambda: temper_weights(_H, np.array(np.nan)), "temperature r must be positive"),
    (lambda: temper_weights(np.stack([_H, _H]), np.array([1.0, np.nan])),
     "temperature r must be positive"),
    (lambda: capped_optimal_weights(_H, np.nan, 0.5), "temperature r must be positive"),
    (lambda: brute_force_optimal_weights(_H, np.nan, 0.5), "temperature r must be positive"),
    (lambda: normalize_losses(_H, np.nan), "alpha must be finite, got nan"),
    (lambda: normalize_losses(_H, np.inf), "alpha must be finite, got inf"),
    (lambda: normalize_losses(_H, 10**400), f"alpha must be finite, got {10**400}"),
    (lambda: temper_weights(_H, np.array(0.5)), lambda: temper_weights(_H, 0.5)),
    (lambda: capped_optimal_weights(np.stack([_H, -_H]), np.array(0.5), 0.5),
     lambda: capped_optimal_weights(np.stack([_H, -_H]), 0.5, 0.5)),
], ids=["temper-nan", "temper-0d-nan", "temper-row-nan", "capped-nan", "oracle-nan",
        "alpha-nan", "alpha-inf", "alpha-huge-int", "temper-0d", "capped-0d"])
def test_non_finite_or_0d_temperature_and_alpha(call, want):
    # A NaN r or a non-finite alpha is a ConfigError naming it, as the
    # configs' own checks are; a 0-d r is one temperature for every row.
    if isinstance(want, str):
        with pytest.raises(ConfigError, match=f"^{want}$"):
            call()
    else:
        assert call().tobytes() == want().tobytes()


def _stacked_losses(S, b, seed):
    """Random losses with ties: a row with a tied block, an all-equal row,
    and a row alternating between two values."""
    losses = np.random.default_rng(seed).exponential(size=(S, b))
    losses[0, :3] = losses[0, 3]
    if S > 1:
        losses[1] = 2.0
    if S > 2:
        losses[2, ::2] = losses[2, 1]
    return losses


class TestRowWiseWeights:
    """A stack of batches is weighted row by row: each row of a stacked
    call is bit for bit the 1-D call on that row."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("S", [1, 3, 20])
    @pytest.mark.parametrize("b", [7, 32])
    @pytest.mark.parametrize("r", [1.0, 1e-6])
    def test_rows_equal_one_dimensional_calls(self, mode, S, b, r):
        cfg = ReweightConfig(mode=mode,
                             schedule=TemperatureSchedule(kind="constant", r_initial=r,
                                                          r_final=r))
        losses = _stacked_losses(S, b, seed=S * b)
        w = compute_batch_weights(losses, cfg, step=3)
        assert w.shape == (S, b)
        for row, f in zip(w, losses):
            assert row.tobytes() == compute_batch_weights(f, cfg, step=3).tobytes()

    def test_public_helpers_take_stacks(self):
        losses = _stacked_losses(3, 7, seed=0)
        r = np.array([0.5, 1e-6, 3.0])
        h = normalize_losses(losses)
        cases = [
            (h, [normalize_losses(f) for f in losses]),
            (temper_weights(h, r), [temper_weights(x, ri) for x, ri in zip(h, r)]),
            (capped_optimal_weights(h, r, 0.3),
             [capped_optimal_weights(x, ri, 0.3) for x, ri in zip(h, r)]),
            (_mode_weights("dro_kl", losses, dro_tau=0.7),
             [_mode_weights("dro_kl", f, dro_tau=0.7) for f in losses]),
        ]
        for stacked, rows in cases:
            assert stacked.tobytes() == np.array(rows).tobytes()

    def test_non_finite_loss_names_row_and_column(self):
        losses = np.ones((3, 4))
        losses[2, 1] = np.inf
        with pytest.raises(ValidationError, match=r"index \(2, 1\)"):
            compute_batch_weights(losses, ReweightConfig())


SCORED_MODES = ["linupper", "quadratic", "extremes"]
STEP = 6  # the step every stacked draw is weighted at


@st.composite
def span_configs(draw, modes):
    """A config of one of the given modes at alpha 1 or 0.5, on a constant
    schedule at one of a sweep's r_values or a step_drop schedule whose
    warmup is at, just before or just after STEP, with an explicit cap or
    dro_tau half the time."""
    mode = draw(st.sampled_from(modes))
    if draw(st.booleans()):
        r = draw(st.sampled_from([1.0, 0.5, 2, 1e-3]))
        schedule = TemperatureSchedule(kind="constant", r_initial=r, r_final=r)
    else:
        schedule = TemperatureSchedule(kind="step_drop",
                                       r_initial=draw(st.sampled_from([100.0, 3])),
                                       r_final=draw(st.sampled_from([1.0, 0.25])),
                                       warmup_steps=STEP + draw(st.sampled_from([-1, 0, 1])))
    extra = {}
    if mode == "capped" and draw(st.booleans()):
        extra["cap"] = draw(st.sampled_from([0.25, 0.5, 1.0]))  # cap*b >= 1 for b >= 4
    if mode == "dro_kl" and draw(st.booleans()):
        extra["dro_tau"] = draw(st.sampled_from([0.7, 3.0]))
    return ReweightConfig(mode=mode, alpha=draw(st.sampled_from([1.0, 0.5])),
                          schedule=schedule, **extra)


@st.composite
def mixed_stacks(draw):
    """A loss stack and its (config, lo, hi) spans: any modes before and
    after a scored span, a capped or uniform span, and another scored span,
    so that every draw solves or tempers a span between tempered ones."""
    any_mode = span_configs(list(MODES))
    configs = (draw(st.lists(any_mode, max_size=2))
               + [draw(span_configs(SCORED_MODES)), draw(span_configs(["capped", "uniform"])),
                  draw(span_configs(SCORED_MODES))]
               + draw(st.lists(any_mode, max_size=2)))
    spans, lo = [], 0
    for config in configs:
        hi = lo + draw(st.integers(1, 3))
        spans.append((config, lo, hi))
        lo = hi
    b = draw(st.integers(4, 33))
    losses = _stacked_losses(lo, b, seed=draw(st.integers(0, 2**16)))
    return losses * draw(st.sampled_from([1e-3, 1.0, 1e4])), spans


def _own_weights(losses, config, step):
    """One span's weights built from the public primitives: its temperature,
    its normalized losses and MODES score, then the tempered softmax or the
    capped solve."""
    r = schedule_r(step, config.schedule)
    if config.mode == "dro_kl":
        r = config.dro_tau or config.schedule.r_final
    scores = MODES[config.mode](losses, normalize_losses(losses, config.alpha), config.alpha)
    if config.mode == "capped":
        return capped_optimal_weights(scores, r, config.cap or 2 / losses.shape[-1])
    return temper_weights(scores, r)


class TestStackedWeights:
    """The training loop weights a stack of mixed configs in one pass; each
    span's rows must equal, bit for bit, that span's own weights built from
    the public primitives."""

    # A lone capped span, as one row and as a 1-D batch, and a stack of
    # capped spans only, which no row is tempered in: two caps, alphas and
    # temperatures, one of them dropping at STEP.
    @example((_stacked_losses(1, 64, seed=1), [(ReweightConfig(mode="capped"), 0, 1)]))
    @example((_stacked_losses(1, 9, seed=3)[0],
              [(ReweightConfig(mode="capped", schedule=TemperatureSchedule(r_initial=1e-3)),
                0, 9)]))
    @example((_stacked_losses(5, 16, seed=2) * 1e4, [
        (ReweightConfig(mode="capped", alpha=0.5, cap=0.25,
                        schedule=TemperatureSchedule(r_initial=0.5, r_final=0.5)), 0, 2),
        (ReweightConfig(mode="capped", schedule=TemperatureSchedule(
            kind="step_drop", r_initial=100.0, r_final=1e-3, warmup_steps=STEP)), 2, 5),
    ]))
    @given(mixed_stacks())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_spans_equal_their_own_calls(self, stack):
        losses, spans = stack
        w = _span_weights(losses, spans, STEP)
        want = np.concatenate([_own_weights(losses[lo:hi], config, STEP)
                               for config, lo, hi in spans])
        assert w.tobytes() == want.tobytes()

    def test_infeasible_cap_raises_as_its_own_call(self):
        losses = _stacked_losses(4, 8, seed=2)
        capped = ReweightConfig(mode="capped", cap=0.1)
        spans = [(ReweightConfig(), 0, 2), (capped, 2, 4)]
        with pytest.raises(ConfigError) as own:
            compute_batch_weights(losses[2:], capped, STEP)
        with pytest.raises(ConfigError) as stacked:
            _span_weights(losses, spans, STEP)
        assert str(stacked.value) == str(own.value) == "infeasible cap: cap*b = 0.8 < 1"
