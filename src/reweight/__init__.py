"""Dynamic loss-based sample reweighting for gradient-based optimization."""

from .core import (
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
)
from .diagnostics import delta_t, grad_gap_term, mu_t, theorem1_bound
from .optim import (
    DivergenceError,
    OptimizerState,
    StepSizeRule,
    Trajectory,
    gd_step,
    momentum_step,
    run_cells,
    run_training,
    theory_stepsize,
)
from .problems import (
    NonconvexProblem,
    QuadraticProblem,
    QuadraticSuite,
    RegressionDataset,
    RegressionProblem,
    gen_quadratic_suite,
    gen_regression,
)

__version__ = "0.1.0"
