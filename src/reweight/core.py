"""Turn a batch of raw losses into a weight vector over the batch.

The pipeline is: pick the temperature for the current step, map the raw
losses affinely into [-alpha, alpha], apply an analytical scoring strategy,
then push the scores through a tempered softmax. Two alternative weighting
modes bypass the strategy step: the capped-optimal weights (entropy
regularized, with a hard per-sample cap, solved in closed form by sorting
and thresholding) and the DRO-KL baseline (softmax on raw losses, no cap).

All functions are pure and operate on 1-D numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Strategy",
    "TemperatureSchedule",
    "ReweightConfig",
    "ValidationError",
    "ConfigError",
    "normalize_losses",
    "apply_strategy",
    "temper_weights",
    "capped_optimal_weights",
    "dro_kl_weights",
    "schedule_r",
    "compute_batch_weights",
]

# Guard for the loss range denominator; an all-equal batch normalizes to 0.
RANGE_EPS = 1e-6


class ValidationError(ValueError):
    """Raised when input data (losses, gradients) violates a precondition."""


class ConfigError(ValueError):
    """Raised when a configuration value is inconsistent or out of range."""


class Strategy(str, Enum):
    LINUPPER = "linupper"
    QUADRATIC = "quadratic"
    EXTREMES = "extremes"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class TemperatureSchedule:
    """Temperature r over training steps.

    "constant" always returns r_initial. "step_drop" returns r_initial for
    steps before warmup_steps and r_final afterwards.
    """

    kind: str = "constant"
    r_initial: float = 1.0
    r_final: float = 1.0
    warmup_steps: int = 0

    def __post_init__(self):
        if self.kind not in ("constant", "step_drop"):
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if self.r_initial <= 0 or self.r_final <= 0:
            raise ConfigError("temperature values must be strictly positive")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be nonnegative")


def schedule_r(step: int, schedule: TemperatureSchedule) -> float:
    """Temperature for a given step."""
    if step < 0:
        raise ValidationError("step must be nonnegative")
    if schedule.kind == "step_drop" and step >= schedule.warmup_steps:
        return schedule.r_final
    return schedule.r_initial


@dataclass(frozen=True)
class ReweightConfig:
    """Full specification of the batch-weighting rule.

    strategy selects the scoring function; alpha is the normalization
    half-width. When cap is set, weights come from the capped-optimal
    solution instead of the strategy/softmax path. When dro_tau is set, the
    DRO-KL baseline is used (softmax of raw losses at temperature dro_tau).
    """

    strategy: Strategy = Strategy.LINUPPER
    alpha: float = 1.0
    schedule: TemperatureSchedule = field(default_factory=TemperatureSchedule)
    cap: float | None = None
    dro_tau: float | None = None

    def __post_init__(self):
        if not isinstance(self.strategy, Strategy):
            object.__setattr__(self, "strategy", Strategy(self.strategy))
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.cap is not None and self.cap <= 0:
            raise ConfigError("cap must be positive")
        if self.dro_tau is not None and self.dro_tau <= 0:
            raise ConfigError("dro_tau must be positive")


def _as_loss_array(losses) -> np.ndarray:
    arr = np.asarray(losses, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("losses must be a nonempty 1-D array")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValidationError(f"non-finite loss at index {bad[0]}")
    return arr


def normalize_losses(losses, alpha: float = 1.0) -> np.ndarray:
    """Map raw losses affinely into [-alpha, alpha] using the batch range.

    h_i = alpha * (2 f_i - f_max - f_min) / max(f_max - f_min, 1e-6).
    The epsilon guard makes an all-equal batch normalize to zeros.
    """
    f = _as_loss_array(losses)
    if alpha <= 0:
        raise ConfigError("alpha must be positive")
    f_min, f_max = f.min(), f.max()
    denom = max(f_max - f_min, RANGE_EPS)
    return alpha * (2.0 * f - f_max - f_min) / denom


def apply_strategy(h, strategy: Strategy, alpha: float = 1.0) -> np.ndarray:
    """Score normalized losses h in [-alpha, alpha].

    linupper:  min(h + alpha, alpha)   -- proportional to loss, capped
    quadratic: alpha * (1 - h^2/alpha^2) -- favors moderate losses
    extremes:  |h|                     -- favors both tails
    uniform:   h unchanged; the caller is expected to force uniform weights
    """
    h = np.asarray(h, dtype=float)
    strategy = Strategy(strategy)
    if strategy is Strategy.LINUPPER:
        return np.minimum(h + alpha, alpha)
    if strategy is Strategy.QUADRATIC:
        return alpha * (1.0 - h**2 / alpha**2)
    if strategy is Strategy.EXTREMES:
        return np.abs(h)
    if strategy is Strategy.UNIFORM:
        return h.copy()
    raise ConfigError(f"unknown strategy {strategy!r}")


def temper_weights(scores, r: float) -> np.ndarray:
    """Tempered softmax w_i = exp(s_i/r) / sum_j exp(s_j/r).

    Computed with the max-shifted exponent for stability; invariant under
    adding a constant to all scores.
    """
    if r <= 0:
        raise ConfigError("temperature r must be positive")
    s = np.asarray(scores, dtype=float)
    e = np.exp((s - s.max()) / r)
    return e / e.sum()


def dro_kl_weights(losses, tau: float) -> np.ndarray:
    """KL-regularized DRO baseline: softmax of the raw losses at temperature tau.

    No normalization and no cap, so high-loss samples can dominate. This is
    the comparison baseline, not a recommended strategy.
    """
    if tau <= 0:
        raise ConfigError("tau must be positive")
    f = _as_loss_array(losses)
    e = np.exp((f - f.max()) / tau)
    return e / e.sum()


def capped_optimal_weights(h, r: float, cap: float) -> np.ndarray:
    """Unique weights of the form w_i = min(C * exp(h_i/r), cap), sum w = 1.

    This is the minimizer of  -sum w_i h_i + r sum w_i log w_i  over the
    capped simplex {0 <= w <= cap, sum w = 1}. The cap binds on the largest
    exponentials first, so the pinned set is a prefix of the logits h/r
    sorted in descending order. With k entries pinned, the free block holds
    mass 1 - k*cap as a softmax, and k is the first prefix length at which
    the largest free entry no longer exceeds the cap. A suffix log-sum-exp
    gives every candidate k's softmax denominator in one pass, so one sort
    and one scan solve it. All arithmetic is done in log space so tiny r
    (logit spreads of ~1e6) stays exact.
    """
    if r <= 0:
        raise ConfigError("temperature r must be positive")
    h = np.asarray(h, dtype=float)
    b = h.size
    if cap * b < 1.0 - 1e-12:
        raise ConfigError(f"infeasible cap: cap*b = {cap * b:.6g} < 1")

    z = h / r
    order = np.argsort(-z, kind="stable")
    z = z[order]
    suffix_lse = np.logaddexp.accumulate(z[::-1])[::-1]  # log sum exp(z[k:])
    mass = 1.0 - cap * np.arange(b)
    with np.errstate(divide="ignore"):
        log_mass = np.log(np.maximum(mass, 0.0))
    # suffix_lse - z first: both are ~|h|/r, and adding them to log_mass one
    # at a time rounds away its last digits when r is tiny.
    fits = log_mass - (suffix_lse - z) <= np.log(cap) + 1e-15
    n_pin = int(fits.argmax()) if fits.any() else b

    w_sorted = np.full(b, cap)
    if n_pin < b:
        e = np.exp(z[n_pin:] - z[n_pin])
        w_sorted[n_pin:] = max(mass[n_pin], 0.0) * e / e.sum()
    w = np.empty(b)
    w[order] = w_sorted
    return w


def compute_batch_weights(losses, config: ReweightConfig, step: int = 0) -> np.ndarray:
    """Full weighting pipeline for one batch at a given training step.

    Deterministic function of (losses, config, step). Routing: uniform
    strategy returns exactly 1/b; dro_tau selects the DRO-KL baseline; cap
    selects the capped-optimal mode; otherwise normalize -> score -> temper.
    """
    f = _as_loss_array(losses)
    b = f.size
    if config.strategy is Strategy.UNIFORM:
        return np.full(b, 1.0 / b)
    if config.dro_tau is not None:
        return dro_kl_weights(f, config.dro_tau)
    r = schedule_r(step, config.schedule)
    h = normalize_losses(f, config.alpha)
    if config.cap is not None:
        return capped_optimal_weights(h, r, config.cap)
    s = apply_strategy(h, config.strategy, config.alpha)
    return temper_weights(s, r)
