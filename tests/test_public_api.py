"""The package's public surface: exactly the names it exports, and the
README's tour of it."""

import re
from pathlib import Path

import batchsched as bs
from batchsched import _linalg, objective, prior

PUBLIC = [
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
    "greedy_step",
    "iter_feasible_schedules",
    "load_scenario",
    "marginal_gain",
    "min_sensors_for_error",
    "model_fingerprint",
    "model_from_dict",
    "model_to_dict",
    "objective_logdet",
    "objective_values",
    "random_scenario",
    "save_scenario",
    "worst_value",
]


def test_the_public_surface_is_exactly_the_pinned_names():
    assert len(PUBLIC) == 47
    assert sorted(bs.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(bs, name), name
    namespace = {}
    exec("from batchsched import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_the_information_form_oracle_and_test_only_helpers_are_not_in_the_package():
    for owner, names in (
        (bs, ("BlockTridiagonal", "assemble_information", "block_tridiag_logdet", "pd_inverse")),
        (prior, ("BlockTridiagonal", "assemble_information", "block_tridiag_logdet", "pd_inverse")),
        (objective, ("assemble_information", "block_tridiag_logdet")),
        (_linalg, ("pd_inverse",)),
        (bs.SystemModel, ("interval_dynamics", "interval_noise_input", "interval_process_noise", "interval_length")),
        (bs.Schedule, ("from_sets", "contains")),
    ):
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"


def test_the_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme[readme.index("\n## Library tour\n"):]
    code = re.search(r"^```python\n(.*?)^```$", tour, re.S | re.M).group(1)
    namespace = {}
    exec(compile(code, "README.md (Library tour)", "exec"), namespace)
    assert namespace["cert"].ratio <= 0.5
    assert namespace["bound"] <= namespace["achieved"]
