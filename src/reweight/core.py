"""Turn a batch of raw losses into a weight vector over the batch.

A weighting mode is a name in MODES, the one table of weighting modes. Each
entry is the mode's score of the raw losses f and of h, f mapped affinely
into [-alpha, alpha]; the weights are the score's tempered softmax:

  uniform    a constant score: exactly 1/b per sample;
  linupper, quadratic, extremes
             a score of h;
  capped     h, solved on the capped simplex (cap 2/b unless set) in closed
             form by sorting and thresholding;
  dro_kl     the DRO-KL baseline: the raw losses, tempered at dro_tau (the
             schedule's r_final unless set), no cap.

All functions are pure. They take one batch as a 1-D array or a stack of
batches as an (S, b) array and work row by row: each row of a stacked call
is bit for bit the 1-D call on that row.

_span_weights, which the training loop calls, weights a stack whose rows
follow different configs in one loop over its spans: it normalizes the stack
once per alpha that a span reads and scores every span into one buffer,
tempers all rows in one call unless every span is capped, and solves each
capped span from its scores. compute_batch_weights is its checked, one-span
case.
"""

from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MODES",
    "TemperatureSchedule",
    "ReweightConfig",
    "ValidationError",
    "ConfigError",
    "normalize_losses",
    "temper_weights",
    "capped_optimal_weights",
    "schedule_r",
    "compute_batch_weights",
]

# Guard for the loss range denominator; an all-equal batch normalizes to 0.
RANGE_EPS = 1e-6
# The largest finite float. Python compares an int with it exactly, so an
# integer too large for a float fails a check against it, as NaN and inf do.
FLOAT_MAX = sys.float_info.max


class ValidationError(ValueError):
    """Raised when input data (losses, gradients) violates a precondition."""


class ConfigError(ValueError):
    """Raised when a configuration value is inconsistent or out of range."""


def _check_fields(config, positive=(), counts=()) -> None:
    """Raise ConfigError naming the first field of config out of range: each
    name in positive must be a finite number > 0 (or None), and each
    (name, low) in counts an integer >= low."""
    for name in positive:
        value = getattr(config, name)
        if value is not None and not 0 < value <= FLOAT_MAX:
            raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")
    for name, low in counts:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


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
        _check_fields(self, ("r_initial", "r_final"), [("warmup_steps", 0)])


def schedule_r(step, schedule: TemperatureSchedule):
    """Temperature at one scalar step; a step of another shape is a ValidationError."""
    if type(step) is not int and np.shape(step) != ():  # a plain int is the loop's fast path
        raise ValidationError(f"step of shape {np.shape(step)} is not one step")
    if step < 0:
        raise ValidationError("step must be nonnegative")
    if schedule.kind == "step_drop" and step >= schedule.warmup_steps:
        return schedule.r_final
    return schedule.r_initial


@dataclass(frozen=True)
class ReweightConfig:
    """Full specification of the batch-weighting rule.

    mode names the MODES entry; alpha is the normalization half-width. Only
    mode "capped" reads cap (None means 2/b), and only mode "dro_kl" reads
    dro_tau (None means schedule.r_final); setting either for another mode
    is an error.
    """

    mode: str = "linupper"
    alpha: float = 1.0
    schedule: TemperatureSchedule = field(default_factory=TemperatureSchedule)
    cap: float | None = None
    dro_tau: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown weighting mode {self.mode!r}; expected one of "
                              f"{', '.join(MODES)}")
        for name, reader in (("cap", "capped"), ("dro_tau", "dro_kl")):
            if getattr(self, name) is not None and self.mode != reader:
                raise ConfigError(f"{name} is read only by mode {reader!r}, not {self.mode!r}")
        _check_fields(self, ("alpha", "cap", "dro_tau"))


def _as_loss_array(losses) -> np.ndarray:
    arr = np.asarray(losses, dtype=float)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise ValidationError("losses must be a nonempty 1-D or 2-D array")
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0].tolist()
        where = tuple(bad) if arr.ndim == 2 else bad[0]
        raise ValidationError(f"non-finite loss at index {where}")
    return arr


def _row_r(r):
    """A per-row temperature array as a column that broadcasts over (S, b);
    a scalar r, a 0-d array included, as it is."""
    return r[:, None] if isinstance(r, np.ndarray) and r.ndim else r


def _temperature(config: ReweightConfig, step) -> float:
    """The temperature config's weights use at step: dro_kl's tau, every
    other mode's schedule_r. The step is checked for every mode."""
    r = schedule_r(step, config.schedule)
    if config.mode == "dro_kl":
        return config.dro_tau or config.schedule.r_final
    return r


def _check_r(r) -> None:
    """Reject an r that is not > 0, NaN included; r = inf (uniform) passes."""
    if not ((r > 0).all() if isinstance(r, np.ndarray) else r > 0):
        raise ConfigError("temperature r must be positive")


def _cap_error(cap: float, b: int) -> ConfigError | None:
    """The error of a cap that b weights cannot meet, cap*b < 1, else None."""
    if cap * b < 1.0 - 1e-12:
        return ConfigError(f"infeasible cap: cap*b = {cap * b:.6g} < 1")
    return None


def _normalize(f: np.ndarray, alpha: float) -> np.ndarray:
    f_min = np.minimum.reduce(f, axis=-1, keepdims=True)
    f_max = np.maximum.reduce(f, axis=-1, keepdims=True)
    denom = np.maximum(f_max - f_min, RANGE_EPS)
    # Divided before it is scaled, so a huge alpha times the range cannot overflow.
    return alpha * ((2.0 * f - f_max - f_min) / denom)


def normalize_losses(losses, alpha: float = 1.0) -> np.ndarray:
    """Map raw losses affinely into [-alpha, alpha] using the batch range.

    h_i = alpha * (2 f_i - f_max - f_min) / max(f_max - f_min, 1e-6).
    The epsilon guard makes an all-equal batch normalize to zeros.
    """
    f = _as_loss_array(losses)
    if not 0 < alpha <= FLOAT_MAX:
        raise ConfigError(f"alpha must be a finite number > 0, got {alpha!r}")
    return _normalize(f, alpha)


def temper_weights(scores, r: float) -> np.ndarray:
    """Tempered softmax w_i = exp(s_i/r) / sum_j exp(s_j/r).

    Computed with the max-shifted exponent for stability; invariant under
    adding a constant to all scores. For stacked scores r may hold one
    temperature per row.
    """
    _check_r(r)
    return _softmax(np.asarray(scores, dtype=float), _row_r(r))


def _softmax(s: np.ndarray, r) -> np.ndarray:
    """temper_weights unchecked, for an r > 0 that broadcasts over s."""
    e = np.exp((s - np.maximum.reduce(s, axis=-1, keepdims=True)) / r)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


@functools.lru_cache(maxsize=64)
def _cap_thresholds(cap: float, b: int):
    """What capped_optimal_weights needs of (cap, b) alone: the free mass
    1 - k*cap left by k pinned entries, its log (-inf once it is spent), and
    the log-cap threshold. Cached, as a run asks for one pair every step,
    and read-only, as the arrays are shared."""
    mass = 1.0 - cap * np.arange(b)
    with np.errstate(divide="ignore"):
        log_mass = np.log(np.maximum(mass, 0.0))
    mass.flags.writeable = log_mass.flags.writeable = False
    return mass, log_mass, np.log(cap) + 1e-15


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
    (logit spreads of ~1e6) stays exact. Stacked rows are solved together,
    with r a scalar or one temperature per row.
    """
    _check_r(r)
    h = np.asarray(h, dtype=float)
    b = h.shape[-1]
    if error := _cap_error(cap, b):
        raise error

    z = h / _row_r(r)
    order = np.argsort(-z, axis=-1, kind="stable")
    sort = order if z.ndim == 1 else (np.arange(len(z))[:, None], order)
    z = z[sort]
    suffix_lse = np.logaddexp.accumulate(z[..., ::-1], axis=-1)[..., ::-1]  # log sum exp(z[k:])
    mass, log_mass, log_cap = _cap_thresholds(cap, b)
    # suffix_lse - z first: both are ~|h|/r, and adding them to log_mass one
    # at a time rounds away its last digits when r is tiny.
    fits = log_mass - (suffix_lse - z) <= log_cap
    n_pin = np.where(fits.any(axis=-1), fits.argmax(axis=-1), b)

    w_sorted = np.full(z.shape, cap)
    # Rows that pin k entries share a free block z[..., k:]; each row's
    # softmax over it is summed on its own, as the 1-D call sums it.
    pins = set(np.atleast_1d(n_pin).tolist())
    for k in pins - {b}:
        same = Ellipsis if len(pins) == 1 else n_pin == k
        e = np.exp(z[same, k:] - z[same, k:k + 1])
        w_sorted[same, k:] = max(mass[k], 0.0) * e / np.add.reduce(e, axis=-1, keepdims=True)
    w = np.empty_like(w_sorted)
    w[sort] = w_sorted
    return w


# Mode name -> scores(f, h, alpha) of validated losses f, (b,) or (S, b), and
# their normalization h into [-alpha, alpha], None unless the mode reads h.
MODES = {
    "uniform": lambda f, h, alpha: np.zeros(f.shape),
    # proportional to loss, capped
    "linupper": lambda f, h, alpha: np.minimum(h + alpha, alpha),
    # favors moderate losses; h / alpha lies in [-1, 1], so no alpha overflows
    "quadratic": lambda f, h, alpha: alpha * (1.0 - (h / alpha) ** 2),
    # favors both tails
    "extremes": lambda f, h, alpha: np.abs(h),
    # solved on the capped simplex, not tempered: see _span_weights
    "capped": lambda f, h, alpha: h,
    # Raw losses, no normalization and no cap, so high-loss samples can
    # dominate: the comparison baseline, not a recommended mode.
    "dro_kl": lambda f, h, alpha: f,
}
_READS_H = frozenset({"linupper", "quadratic", "extremes", "capped"})


def _span_weights(f, spans, step):
    """Weights of the loss stack f, (S, b), or (b,) for one span, whose rows
    lo:hi follow config for each (config, lo, hi) in spans, at one training
    step. Unchecked: f must be finite, and the spans must cover its rows in
    order.

    f is normalized once per alpha that a span reads and every span's scores
    go into one buffer. All rows are tempered in one call, with one r or,
    when the spans' r differ, one per row; the call is skipped when every
    span is capped. Each capped span is then solved from its scores. Every
    step works row by row, so each span's rows are bit for bit its own
    compute_batch_weights call, which is the one-span case.
    """
    s, normalized, rs = np.empty(f.shape), {}, []
    for config, lo, hi in spans:
        h = None
        if config.mode in _READS_H:
            if config.alpha not in normalized:
                normalized[config.alpha] = _normalize(f, config.alpha)
            h = normalized[config.alpha][lo:hi]
        s[lo:hi] = MODES[config.mode](f[lo:hi], h, config.alpha)
        rs.append(_temperature(config, step))
    capped = [(c, lo, hi, r) for (c, lo, hi), r in zip(spans, rs) if c.mode == "capped"]
    w = s
    if len(capped) < len(spans):
        w = _softmax(s, rs[0] if len(set(rs)) == 1
                     else np.repeat(rs, [hi - lo for _, lo, hi in spans])[:, None])
    for config, lo, hi, r in capped:
        w[lo:hi] = capped_optimal_weights(s[lo:hi], r, config.cap or 2.0 / f.shape[-1])
    return w


def compute_batch_weights(losses, config: ReweightConfig, step=0) -> np.ndarray:
    """Weights for one batch, or a stack of batches, at a given training
    step: the config's MODES score of the validated losses, tempered at the
    mode's temperature, the one-span case of the stacked weighting.

    Deterministic function of (losses, config, step). losses is (b,) or
    (S, b), and step is one scalar step for all of it; a step of any other
    shape is a ValidationError.
    """
    f = _as_loss_array(losses)
    if np.shape(step) != ():
        raise ValidationError(f"step of shape {np.shape(step)} is not one step: give a "
                              f"scalar step for losses of shape {f.shape}")
    return _span_weights(f, [(config, 0, len(f))], step)
