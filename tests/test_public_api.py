"""The package's public surface: exactly the names it exports, that the
commands reach, and the README's tour of it."""

import inspect
import re
import sys
from pathlib import Path

import batchsched as bs
from batchsched import _linalg, analysis, cli, model, objective, prior, scheduler

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


def test_the_public_surface_is_exactly_the_pinned_names():
    assert len(PUBLIC) == 44
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
        (_linalg, ("pd_inverse", "lapack_cholesky")),
        (bs.SystemModel, ("interval_dynamics", "interval_noise_input", "interval_process_noise", "interval_length")),
        (bs.Schedule, ("from_sets", "contains")),
        (scheduler, ("greedy_step", "_greedy_step")),
        (objective, ("objective_values", "SingletonScorer", "SCORER_GROUP_ROWS")),
        (objective, ("values_in_order", "VALUES_CHUNK", "_stacked_sweep")),
        (objective, ("_bordered_step", "stacked_step", "slot_step", "advance", "predict_through", "singleton_gains")),
        (objective, ("_measure", "predict", "lapack_cholesky", "_sweep")),
        (bs.ObjectiveEvaluator, ("sensor_rows", "sensor_rows_t", "block_identity")),
        (prior, ("_THETAS", "_PADE_TERMS")),
        (analysis, ("iter_feasible_schedules",)),
        (model, ("require_integer",)),
    ):
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"


# Public functions that no command calls, each with the reason it stays.
UNREACHED = {
    "marginal_gain": "a wrap point of the benchmark's tracer, bench/tracing.py",
    "build_prior_information": "a wrap point of the benchmark's tracer, bench/tracing.py",
    "discretize_interval": "a wrap point of the benchmark's tracer, bench/tracing.py",
}


def test_every_public_function_but_the_kept_ones_is_reached_by_a_command(tmp_path):
    # Every command and algorithm, on one K=3 scenario of each kind, under a
    # profiler that records each Python function entered. A public function
    # that none of them calls serves no command; it belongs in the tests'
    # helpers, or in UNREACHED with its reason.
    runs = []
    for kind in bs.ModelKind:
        config, out = str(tmp_path / f"{kind.value}.json"), str(tmp_path / "out.json")
        runs.append(["gen", "--n", "2", "--m", "3", "--K", "3", "--r", "1", "--kind", kind.value,
                     "--seed", "0", "--out", config])
        for algorithm in cli.ALGORITHMS:
            extra = {"greedy": ["--csv", str(tmp_path / "trace.csv")], "random": ["--seed", "3"]}
            runs.append(["schedule", "--config", config, "--algorithm", algorithm, "--out", out]
                        + extra.get(algorithm, []))
        runs.append(["certify", "--config", config, "--out", out])
        runs.append(["bounds", "--config", config, "--alpha", "0.5", "--out", out])
        for prop in ("mono", "super"):
            runs.append(["fuzz", "--config", config, "--property", prop, "--trials", "8", "--seed", "0",
                         "--out", out])
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(runs)
    functions = {name: inspect.unwrap(getattr(bs, name)) for name in bs.__all__}
    unreached = {
        name for name, fn in functions.items() if inspect.isfunction(fn) and fn.__code__ not in called
    }
    assert unreached == set(UNREACHED)


def test_the_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme[readme.index("\n## Library tour\n"):]
    code = re.search(r"^```python\n(.*?)^```$", tour, re.S | re.M).group(1)
    namespace = {}
    exec(compile(code, "README.md (Library tour)", "exec"), namespace)
    assert namespace["cert"].ratio <= 0.5
    assert namespace["bound"] <= namespace["achieved"]
