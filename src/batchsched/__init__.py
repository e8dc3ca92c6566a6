"""Sensor scheduling for minimum-variance batch state estimation.

Selects, per measurement time, which sensors of a linear dynamical system to
activate under per-time cardinality budgets, minimizing the log-determinant
of the batch estimation-error covariance with a near-optimal greedy
scheduler. Includes exhaustive certification of the approximation guarantee,
property fuzzers, and closed-form limits on the achievable error.
"""

from .analysis import (
    BoundInputs,
    FuzzReport,
    RatioCertificate,
    bound_inputs,
    brute_force_opt,
    certify_ratio,
    error_lower_bound,
    feasible_schedule_count,
    fuzz_monotonicity,
    fuzz_supermodularity,
    min_sensors_for_error,
    worst_value,
)
from .errors import (
    BatchSchedError,
    BudgetOutOfRange,
    DimensionMismatch,
    EnumerationCapExceeded,
    GuaranteeViolated,
    InvalidArgument,
    NonIncreasingTimes,
    NotPositiveDefinite,
    NumericOverflow,
    PropertyViolated,
    SensorAlreadySelected,
)
from .model import (
    ModelKind,
    Schedule,
    Sensor,
    SystemModel,
    load_scenario,
    model_fingerprint,
    model_from_dict,
    model_to_dict,
    random_scenario,
    save_scenario,
)
from .objective import (
    ObjectiveEvaluator,
    batch_error_trace,
    build_evaluator,
    marginal_gain,
    objective_logdet,
)
from .prior import (
    build_prior_information,
    discretize_interval,
    discretize_intervals,
)
from .scheduler import (
    GreedyTrace,
    TraceEntry,
    greedy_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "BatchSchedError",
    "BoundInputs",
    "BudgetOutOfRange",
    "DimensionMismatch",
    "EnumerationCapExceeded",
    "FuzzReport",
    "GreedyTrace",
    "GuaranteeViolated",
    "InvalidArgument",
    "ModelKind",
    "NonIncreasingTimes",
    "NotPositiveDefinite",
    "NumericOverflow",
    "ObjectiveEvaluator",
    "PropertyViolated",
    "RatioCertificate",
    "Schedule",
    "Sensor",
    "SensorAlreadySelected",
    "SystemModel",
    "TraceEntry",
    "batch_error_trace",
    "bound_inputs",
    "brute_force_opt",
    "build_evaluator",
    "build_prior_information",
    "certify_ratio",
    "discretize_interval",
    "discretize_intervals",
    "error_lower_bound",
    "feasible_schedule_count",
    "fuzz_monotonicity",
    "fuzz_supermodularity",
    "greedy_schedule",
    "load_scenario",
    "marginal_gain",
    "min_sensors_for_error",
    "model_fingerprint",
    "model_from_dict",
    "model_to_dict",
    "objective_logdet",
    "random_scenario",
    "save_scenario",
    "worst_value",
]
