"""Exhaustive certification, property fuzzers, and error-variance limits."""

import dataclasses
import gc
import math
import time
import warnings
import weakref

import numpy as np
import pytest

import batchsched as bs
from batchsched import _linalg, analysis, objective
from batchsched.analysis import _random_feasible, _random_subschedule, random_schedule
from helpers import (
    ALL_KINDS,
    exploding_scalar_model,
    huge_sensor_model,
    iter_feasible_schedules,
    oracle_objective,
    overflow_index,
    per_trial_monotonicity,
    per_trial_supermodularity,
    precise_sensor_model,
    prior_information,
    refactoring_bound_inputs,
    root_entering,
    schedule_of,
    scenario_stream,
    stable_model,
    stacking_models,
)


def scalar_model():
    return bs.SystemModel(
        kind="discrete-invariant",
        state_dim=1,
        dynamics=np.eye(1),
        noise_input=np.eye(1),
        process_noise_cov=np.eye(1),
        initial_state_cov=np.eye(1),
        measurement_times=(1.0,),
        sensors=(bs.Sensor(C=np.eye(1), V=np.eye(1)),),
        budgets=(1,),
    )


def axis_model(budget=1):
    # Orthogonal rank-one sensors on a unit prior: a modular instance, so
    # greedy recovers the exhaustive optimum exactly.
    return bs.SystemModel(
        kind="discrete-invariant",
        state_dim=2,
        dynamics=np.eye(2),
        noise_input=np.eye(2),
        process_noise_cov=np.eye(2),
        initial_state_cov=np.eye(2),
        measurement_times=(1.0,),
        sensors=(
            bs.Sensor(C=np.array([[1.0, 0.0]]), V=np.eye(1)),
            bs.Sensor(C=np.array([[0.0, 1.0]]), V=np.eye(1)),
        ),
        budgets=(budget,),
    )


def test_feasible_schedule_count():
    model = bs.random_scenario(seed=0, n=2, m=4, K=3, r=2)
    per_time = 1 + 4 + 6
    assert bs.feasible_schedule_count(model) == per_time**3
    assert sum(1 for _ in iter_feasible_schedules(model)) == per_time**3


def test_enumeration_is_lexicographic():
    model = bs.random_scenario(seed=0, n=1, m=2, K=1, r=2)
    listed = [s.selections for s in iter_feasible_schedules(model)]
    assert listed == [((),), ((0,),), ((0, 1),), ((1,),)]


def test_brute_force_zero_budget():
    model = bs.random_scenario(seed=5, n=2, m=3, K=2, r=0)
    ev = bs.build_evaluator(model)
    schedule, value = bs.brute_force_opt(ev)
    assert schedule == bs.Schedule.empty(2)
    assert value == bs.objective_logdet(ev, schedule)
    sensorless = dataclasses.replace(model, sensors=())
    ev = bs.build_evaluator(sensorless)
    assert bs.brute_force_opt(ev) == (bs.Schedule.empty(2), -ev.prior_logdet)


def test_brute_force_single_sensor():
    model = scalar_model()
    ev = bs.build_evaluator(model)
    schedule, value = bs.brute_force_opt(ev)
    assert schedule.to_lists() == [[0]]
    assert value == pytest.approx(math.log(0.5), abs=1e-12)


def test_brute_force_upper_bounds_greedy():
    for model in scenario_stream(15, seed0=12):
        ev = bs.build_evaluator(model)
        greedy, _ = bs.greedy_schedule(ev)
        _, opt_value = bs.brute_force_opt(ev)
        assert opt_value <= bs.objective_logdet(ev, greedy) + 1e-12


def test_brute_force_cap(monkeypatch):
    monkeypatch.setenv(analysis.CAP_ENV_VAR, "100")
    model = bs.random_scenario(seed=5, n=1, m=4, K=3, r=2)
    ev = bs.build_evaluator(model)
    with pytest.raises(bs.EnumerationCapExceeded):
        bs.brute_force_opt(ev)


def test_worst_value_scalar():
    model = scalar_model()
    ev = bs.build_evaluator(model)
    assert bs.worst_value(ev) == pytest.approx(0.0, abs=1e-12)


def test_worst_value_matches_exhaustive_maximum():
    for model in scenario_stream(60, seed0=910):
        ev = bs.build_evaluator(model)
        analytic = bs.worst_value(ev)
        exhaustive = max(
            bs.objective_logdet(ev, s) for s in iter_feasible_schedules(model)
        )
        assert abs(analytic - exhaustive) <= 1e-9
        empty_value = bs.objective_logdet(ev, bs.Schedule.empty(model.horizon))
        assert analytic == empty_value


def test_certify_modular_instance_ratio_zero():
    model = axis_model(budget=1)
    ev = bs.build_evaluator(model)
    cert = bs.certify_ratio(ev)
    assert cert.ratio == pytest.approx(0.0, abs=1e-12)
    assert cert.opt_value <= cert.greedy_value <= cert.max_value + 1e-9


def test_certify_full_budget_selects_everything():
    model = axis_model(budget=2)
    ev = bs.build_evaluator(model)
    cert = bs.certify_ratio(ev)
    greedy, _ = bs.greedy_schedule(ev)
    assert greedy.to_lists() == [[0, 1]]
    assert cert.ratio == 0.0
    assert cert.opt_schedule == greedy


def test_certify_degenerate_spread():
    blank = bs.Sensor(C=np.zeros((1, 1)), V=np.eye(1))
    model = bs.SystemModel(
        kind="discrete-invariant",
        state_dim=1,
        dynamics=np.eye(1),
        noise_input=np.eye(1),
        process_noise_cov=np.eye(1),
        initial_state_cov=np.eye(1),
        measurement_times=(1.0,),
        sensors=(blank,),
        budgets=(1,),
    )
    ev = bs.build_evaluator(model)
    cert = bs.certify_ratio(ev)
    assert cert.ratio == 0.0
    assert cert.max_value == pytest.approx(cert.opt_value, abs=1e-12)


def test_certify_random_sample():
    for model in scenario_stream(50, seed0=2711):
        ev = bs.build_evaluator(model)
        cert = bs.certify_ratio(ev)
        assert cert.ratio <= 0.5 + 1e-9
        assert cert.opt_value <= cert.greedy_value <= cert.max_value + 1e-9


def test_certificate_serializes():
    model = axis_model()
    ev = bs.build_evaluator(model)
    payload = bs.certify_ratio(ev).to_dict()
    assert set(payload) == {
        "greedy_value", "opt_value", "max_value", "ratio", "opt_schedule", "fingerprint",
    }
    assert payload["fingerprint"] == bs.model_fingerprint(model)


def test_fuzz_monotonicity_clean_and_deterministic():
    model = bs.random_scenario(seed=31, n=2, m=3, K=2, r=2)
    ev = bs.build_evaluator(model)
    first = bs.fuzz_monotonicity(ev, trials=300, seed=5)
    second = bs.fuzz_monotonicity(ev, trials=300, seed=5)
    assert first.violations == 0
    assert first.max_excess <= 1e-9
    assert first.to_dict() == second.to_dict()


def test_fuzz_supermodularity_clean_and_deterministic():
    model = bs.random_scenario(seed=37, n=2, m=3, K=2, r=2)
    ev = bs.build_evaluator(model)
    first = bs.fuzz_supermodularity(ev, trials=300, seed=6)
    second = bs.fuzz_supermodularity(ev, trials=300, seed=6)
    assert first.violations == 0
    assert first.effective_trials > 0
    assert first.max_excess <= 1e-9
    assert first.to_dict() == second.to_dict()


def test_fuzz_supermodularity_skips_when_no_room():
    model = bs.random_scenario(seed=37, n=2, m=3, K=2, r=0)
    report = bs.fuzz_supermodularity(bs.build_evaluator(model), trials=50, seed=6)
    assert report.effective_trials == 0
    assert report.max_excess is None


def test_every_entry_point_reads_the_evaluators_own_model():
    # Each entry point once took a model beside the evaluator, and a model
    # other than the evaluator's (same horizon and sensor count) gave a
    # certificate with that model's fingerprint but the evaluator's values.
    a = bs.random_scenario(seed=1, n=2, m=3, K=3, r=1)
    b = bs.random_scenario(seed=2, n=2, m=3, K=3, r=1)
    for model, opt_value in ((a, -11.5755), (b, -9.7120)):
        ev = bs.build_evaluator(model)
        assert ev.model is model
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.model = None
        fingerprint = bs.model_fingerprint(model)
        cert = bs.certify_ratio(ev)
        assert cert.fingerprint == fingerprint
        assert cert.opt_value == pytest.approx(opt_value, abs=1e-4)
        assert (cert.opt_schedule, cert.opt_value) == _plain_minimum(ev, model)
        assert bs.bound_inputs(ev).sigma_w_inv == pytest.approx(
            max(float(np.diagonal(block).max()) for block in prior_information(model)[0]), rel=1e-12
        )
        assert bs.fuzz_monotonicity(ev, trials=1, seed=0).fingerprint == fingerprint
        assert bs.fuzz_supermodularity(ev, trials=1, seed=0).fingerprint == fingerprint


def test_bound_inputs_scalar():
    model = scalar_model()
    b = bs.bound_inputs(bs.build_evaluator(model))
    assert b.sigma_w_inv == pytest.approx(1.0, abs=1e-12)
    assert b.sigma_v_inv == pytest.approx(1.0, abs=1e-12)
    assert b.c_norm_sq == pytest.approx(1.0, abs=1e-12)
    assert b.r_max == 1 and b.state_dim == 1 and b.horizon == 1



STACKING_MODELS = dict(stacking_models())


@pytest.mark.parametrize("label", sorted(STACKING_MODELS))
def test_bound_inputs_match_the_assembled_prior_information(label):
    model = STACKING_MODELS[label]
    b = bs.bound_inputs(bs.build_evaluator(model))
    # Oracles: the assembled blocks' largest diagonal entry, and each V_i's
    # smallest eigenvalue on its own.
    assert b.sigma_w_inv == pytest.approx(
        max(float(np.diagonal(block).max()) for block in prior_information(model)[0]), rel=1e-12
    )
    assert b.sigma_v_inv == pytest.approx(
        max(1.0 / float(np.linalg.eigvalsh(sensor.V)[0]) for sensor in model.sensors), rel=1e-12
    )


def test_bound_inputs_read_no_assembled_prior(monkeypatch):
    model = bs.random_scenario(seed=4, n=3, m=4, K=5, r=2, kind="continuous-variant")
    ev = bs.build_evaluator(model)

    def assembled(*args):
        raise AssertionError("bound_inputs assembled the prior information")

    monkeypatch.setattr(analysis, "build_prior_information", assembled)
    bs.bound_inputs(ev)


# K = 1 has no interval; K = 70 keeps 69 Q_j factors.
@pytest.mark.parametrize("K", [1, 2, 7, 70])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_bound_inputs_factor_no_noise_covariance(monkeypatch, kind, K):
    model = bs.random_scenario(seed=K, n=3, m=4, K=K, r=2, kind=kind)
    ev = bs.build_evaluator(model)
    if K > 2:
        # The discrete-invariant kind keeps one factor for every interval.
        assert (ev.noise_factors.strides[0] == 0) == (kind == "discrete-invariant")
    shapes = []

    def recording(cholesky):
        def record(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return cholesky(a, *args, **kwargs)

        return record

    # numpy's Cholesky and the LAPACK kernel of the positive-definiteness gate.
    monkeypatch.setattr(np.linalg, "cholesky", recording(np.linalg.cholesky))
    monkeypatch.setattr(_linalg, "_cholesky", recording(_linalg._cholesky))
    want = refactoring_bound_inputs(ev, model)
    oracle_shapes, shapes[:] = shapes[:], []
    got = bs.bound_inputs(ev)
    monkeypatch.undo()
    noise_stack = (K - 1, 3, 3)
    assert (noise_stack in oracle_shapes) == (K > 1)
    assert noise_stack not in shapes and all(len(shape) == 2 for shape in shapes)
    # Nor P_1: bound_inputs solves against the factor the model kept.
    assert shapes == []
    assert [float(v).hex() for v in dataclasses.astuple(got)] == [float(v).hex() for v in dataclasses.astuple(want)]


def test_error_lower_bound_scalar_tight():
    model = scalar_model()
    ev = bs.build_evaluator(model)
    assert bs.error_lower_bound(bs.bound_inputs(ev)) == pytest.approx(0.5, abs=1e-12)
    achieved = bs.batch_error_trace(ev, schedule_of([[0]]))
    assert achieved == pytest.approx(0.5, abs=1e-12)


def test_error_lower_bound_zero_budget():
    model = bs.random_scenario(seed=3, n=2, m=2, K=3, r=0)
    ev = bs.build_evaluator(model)
    b = bs.bound_inputs(ev)
    bound = bs.error_lower_bound(b)
    assert bound == pytest.approx(b.state_dim / (b.sigma_w_inv / b.horizon), rel=1e-12)
    assert bs.batch_error_trace(ev, bs.Schedule.empty(3)) >= bound - 1e-9


def test_error_lower_bound_holds_for_random_schedules():
    rng = np.random.default_rng(11)
    for model in scenario_stream(20, seed0=404):
        ev = bs.build_evaluator(model)
        bound = bs.error_lower_bound(bs.bound_inputs(ev))
        for _ in range(5):
            schedule = _random_feasible(rng, model)
            assert bs.batch_error_trace(ev, schedule) >= bound - 1e-9


def test_min_sensors_scalar():
    model = scalar_model()
    ev = bs.build_evaluator(model)
    assert bs.min_sensors_for_error(bs.bound_inputs(ev), 0.5) == pytest.approx(1.0, abs=1e-12)


def test_min_sensors_vacuous_at_prior_trace():
    model = bs.random_scenario(seed=9, n=2, m=3, K=2, r=1)
    ev = bs.build_evaluator(model)
    prior_trace = bs.batch_error_trace(ev, bs.Schedule.empty(2))
    assert bs.min_sensors_for_error(bs.bound_inputs(ev), prior_trace) <= 0.0


def test_min_sensors_consistent_with_achieved_error():
    for model in scenario_stream(15, seed0=515):
        ev = bs.build_evaluator(model)
        schedule, _ = bs.greedy_schedule(ev)
        achieved = bs.batch_error_trace(ev, schedule)
        needed = bs.min_sensors_for_error(bs.bound_inputs(ev), achieved)
        assert needed <= max(map(len, schedule.selections)) + 1e-9


def test_min_sensors_rejects_bad_alpha():
    model = scalar_model()
    with pytest.raises(bs.InvalidArgument):
        bs.min_sensors_for_error(bs.bound_inputs(bs.build_evaluator(model)), 0.0)


def _plain_minimum(ev, model):
    best_schedule, best_value = None, math.inf
    for schedule in iter_feasible_schedules(model):
        value = bs.objective_logdet(ev, schedule)
        if value < best_value:
            best_schedule, best_value = schedule, value
    return best_schedule, best_value


def test_brute_force_matches_plain_enumeration():
    duplicate = bs.Sensor(C=np.array([[1.0, 0.5]]), V=np.eye(1))
    tied = bs.SystemModel(
        kind="discrete-invariant",
        state_dim=2,
        dynamics=np.eye(2),
        noise_input=np.eye(2),
        process_noise_cov=np.eye(2),
        initial_state_cov=np.eye(2),
        measurement_times=(1.0, 2.0),
        sensors=(duplicate, duplicate, duplicate),
        budgets=(1, 2),
    )
    medium = [
        bs.random_scenario(seed=seed, n=3, m=5, K=3, r=2, kind=kind)
        for seed, kind in enumerate(bs.ModelKind)
    ]
    large = bs.random_scenario(seed=4, n=3, m=4, K=4, r=2, kind="continuous-variant")
    assert bs.feasible_schedule_count(large) == 14_641
    models = scenario_stream(100, seed0=1234, n_max=3, m_max=4, k_max=3, r_max=2)
    models += medium + [large, tied]
    for model in models:
        ev = bs.build_evaluator(model)
        schedule, value = bs.brute_force_opt(ev)
        assert (schedule, value) == _plain_minimum(ev, model)
        assert value == bs.objective_logdet(ev, schedule)
    # Identical sensors tie exactly; the first schedule enumerated wins.
    assert schedule.to_lists() == [[0], [0, 1]]


def _search_stress_stream(count, seed0):
    """Small models with 1- and 2-row sensors, budgets up to 3 with zero
    budgets between branching slots, and a duplicated sensor."""
    rng = np.random.default_rng(seed0)
    models = []
    for idx in range(count):
        n, m, horizon = (int(v) for v in rng.integers((1, 2, 2), (4, 6, 6)))
        kind = list(bs.ModelKind)[idx % len(bs.ModelKind)]
        data = bs.model_to_dict(bs.random_scenario(seed=seed0 + idx, n=n, m=m, K=horizon, r=0, kind=kind))
        budgets = rng.integers(1, min(3, m) + 1, size=horizon)
        budgets[int(rng.integers(0, horizon - 1))] = 0
        # Plain enumeration is the oracle, so keep each model's count small.
        while math.prod(sum(math.comb(m, size) for size in range(r + 1)) for r in budgets.tolist()) > 3000:
            budgets[int(np.argmax(budgets))] -= 1
        data["budgets"] = budgets.tolist()
        data["sensors"][-1] = data["sensors"][int(rng.integers(0, m - 1))]
        models.append(bs.model_from_dict(data))
    return models


def test_brute_force_matches_plain_enumeration_on_interior_zero_budgets_and_duplicates():
    models = _search_stress_stream(60, seed0=5150)
    assert any(max(model.budgets) == 3 for model in models)
    assert any(0 in model.budgets[1:-1] and any(model.budgets[1:-1]) for model in models)
    assert any({len(sensor.C) for sensor in model.sensors} == {1, 2} for model in models)
    for model in models:
        ev = bs.build_evaluator(model)
        schedule, value = bs.brute_force_opt(ev)
        assert (schedule, value) == _plain_minimum(ev, model)
        assert value == bs.objective_logdet(ev, schedule)


def test_search_evaluates_past_the_index_where_the_unmeasured_variance_overflows():
    # Budgets at the first slots and at the last one, past the index where
    # the unmeasured variance leaves the double range: the covariance form
    # raised NumericOverflow there, while the information only underflows.
    horizon = overflow_index() + 2
    budgets = (1, 1, 1) + (0,) * (horizon - 4) + (1,)
    model = dataclasses.replace(exploding_scalar_model(horizon), budgets=budgets)
    ev = bs.build_evaluator(model)
    every = bs.Schedule(tuple((0,) if r else () for r in budgets))
    oracle = oracle_objective(ev, every)
    assert abs(oracle - -712.2104611293337) <= 1e-12 * abs(oracle)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for incumbent in (None, bs.Schedule.empty(horizon)):
            schedule, value = bs.brute_force_opt(ev, incumbent=incumbent)
            assert schedule == every
            assert abs(value - oracle) <= 1e-12 * abs(oracle)


def _count_visited(monkeypatch):
    """Schedules the search scores: the leaves it steps at the last branching
    slot, outside ``_child_bounds``, one entry each."""
    visited, bounding = [], []
    original_step, original_bounds = analysis.sweep_step, analysis._child_bounds

    def step(ev, roots, white, k, propagate):
        if not propagate and not bounding and k == max((j for j, r in enumerate(ev.model.budgets) if r), default=0):
            visited.extend([k] * len(white))
        return original_step(ev, roots, white, k, propagate)

    def bounds(*args):
        bounding.append(True)
        try:
            return original_bounds(*args)
        finally:
            bounding.pop()

    monkeypatch.setattr(analysis, "sweep_step", step)
    monkeypatch.setattr(analysis, "_child_bounds", bounds)
    return visited


def _greedy_runs(monkeypatch):
    """Calls the analysis layer makes to greedy_schedule."""
    runs = []
    original = analysis.greedy_schedule

    def counted(ev):
        runs.append(ev)
        return original(ev)

    monkeypatch.setattr(analysis, "greedy_schedule", counted)
    return runs


def test_branch_and_bound_visits_a_fraction_of_the_schedules(monkeypatch):
    visited = _count_visited(monkeypatch)
    for seed, kind in enumerate(bs.ModelKind):
        model = bs.random_scenario(seed=seed, n=3, m=5, K=3, r=2, kind=kind)
        visited.clear()
        bs.brute_force_opt(bs.build_evaluator(model))
        assert 0 < len(visited) < bs.feasible_schedule_count(model) / 4


def test_per_child_bounds_skip_most_schedules(monkeypatch):
    # Bounding each subset of a slot before stepping into it leaves few
    # schedules to score.
    visited = _count_visited(monkeypatch)
    for seed, kind in enumerate(bs.ModelKind):
        model = bs.random_scenario(seed=seed, n=3, m=5, K=3, r=2, kind=kind)
        visited.clear()
        bs.brute_force_opt(bs.build_evaluator(model))
        assert 0 < len(visited) < bs.feasible_schedule_count(model) / 32


def test_search_sweeps_only_its_incumbent_alone(monkeypatch):
    # The search's own leaf values are exact, so no schedule is scored a
    # second time: objective_logdet sweeps the incumbent, when there is one,
    # and nothing else.
    swept = _recorded_calls(monkeypatch, "objective_logdet")
    for seed, kind in enumerate(bs.ModelKind):
        model = bs.random_scenario(seed=seed, n=3, m=5, K=3, r=2, kind=kind)
        ev = bs.build_evaluator(model)
        greedy = bs.greedy_schedule(ev)[0]
        for incumbent in (None, greedy):
            swept.clear()
            schedule, value = bs.brute_force_opt(ev, incumbent=incumbent)
            assert [s.selections for _, s in swept] == ([] if incumbent is None else [greedy.selections])
            assert value == bs.objective_logdet(ev, schedule)


def _recorded_calls(monkeypatch, name):
    """The arguments of each call made to ``analysis.<name>``."""
    calls = []
    original = getattr(analysis, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(analysis, name, recorded)
    return calls


def _certify_box():
    """Models of every shape the certify-exhaustive benchmark certifies: m
    1-4, K 1-3, r in {1, 2} with r <= m, n cycling 1-3, each kind."""
    shapes = [(m, K, r) for m in range(1, 5) for K in range(1, 4) for r in (1, 2) if r <= m]
    return [
        bs.random_scenario(seed=index, n=1 + index % 3, m=m, K=K, r=r, kind=kind)
        for kind in bs.ModelKind
        for index, (m, K, r) in enumerate(shapes)
    ]


def test_search_bounds_only_spaces_wider_than_one_stacked_step(monkeypatch):
    # One stacked step scores every schedule of a small space, so bounding
    # them would cost more than it prunes.
    calls = _recorded_calls(monkeypatch, "_child_bounds")
    small = [model for model in _certify_box() if bs.feasible_schedule_count(model) <= analysis.VALUES_CHUNK]
    # The count depends on m, K and r alone.
    assert len(small) == 68
    for model in small:
        bs.brute_force_opt(bs.build_evaluator(model))
    assert calls == []
    for seed, kind in enumerate(bs.ModelKind):
        model = bs.random_scenario(seed=seed, n=3, m=5, K=3, r=2, kind=kind)
        calls.clear()
        bs.brute_force_opt(bs.build_evaluator(model))
        assert calls


def test_search_matches_plain_enumeration_over_the_certify_box():
    for model in _certify_box():
        ev = bs.build_evaluator(model)
        assert bs.brute_force_opt(ev) == _plain_minimum(ev, model)


def test_search_is_iterative_and_linear_along_zero_budget_slots(monkeypatch):
    # One branching slot at the end of a long chain: a walk that recursed
    # per slot would overflow the stack, and bounding every chain node would
    # cost O(K^2).
    horizon = 1500
    model = dataclasses.replace(stable_model(horizon, n=4), budgets=(0,) * (horizon - 1) + (2,))
    ev = bs.build_evaluator(model)
    steps = []

    def counted(original):
        def sweep_step(ev, roots, white, k, propagate):
            steps.append(k)
            return original(ev, roots, white, k, propagate)

        return sweep_step

    for module in (objective, analysis):
        monkeypatch.setattr(module, "sweep_step", counted(module.sweep_step))
    start = time.perf_counter()
    schedule, value = bs.brute_force_opt(ev)
    elapsed = time.perf_counter() - start
    # The walk to the branching slot and the leaf step there go through the
    # horizon once; the greedy seed steps through the scheduler's own name
    # for sweep_step, and no leaf is scored again.
    assert len(steps) <= horizon
    assert elapsed < 2e-3 * horizon
    assert (schedule, value) == _plain_minimum(ev, model)


def test_cap_counts_feasible_schedules_and_raises_before_any_work(monkeypatch):
    model = bs.random_scenario(seed=0, n=3, m=5, K=3, r=2)
    ev = bs.build_evaluator(model)
    count = bs.feasible_schedule_count(model)
    visited = _count_visited(monkeypatch)
    greedy_runs = _greedy_runs(monkeypatch)
    monkeypatch.setenv(analysis.CAP_ENV_VAR, str(count - 1))
    with pytest.raises(bs.EnumerationCapExceeded, match=f"{count} feasible schedules exceed cap {count - 1}"):
        bs.brute_force_opt(ev)
    with pytest.raises(bs.EnumerationCapExceeded):
        bs.certify_ratio(ev)
    assert visited == [] and greedy_runs == []
    # The cap bounds the feasible count, not the (smaller) number visited.
    monkeypatch.setenv(analysis.CAP_ENV_VAR, str(count))
    bs.brute_force_opt(ev)
    assert 0 < len(visited) < count


def test_certify_checks_the_cap_once(monkeypatch):
    checked = _recorded_calls(monkeypatch, "_check_enumeration_cap")
    ev = bs.build_evaluator(bs.random_scenario(seed=0, n=3, m=5, K=3, r=2))
    bs.certify_ratio(ev)
    assert checked == [(ev.model,)]
    # A direct call checks it itself, with or without an incumbent.
    bs.brute_force_opt(ev)
    bs.brute_force_opt(ev, incumbent=bs.greedy_schedule(ev)[0])
    assert len(checked) == 3


def test_no_search_keeps_its_evaluator_or_model_alive():
    model = bs.random_scenario(seed=2, n=2, m=3, K=2, r=1)
    ev = bs.build_evaluator(model)
    refs = [weakref.ref(ev), weakref.ref(model)]
    bs.certify_ratio(ev)
    bs.brute_force_opt(ev, incumbent=bs.Schedule.empty(2))
    del ev, model
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_the_search_names_the_slot_where_a_leaf_value_overflows():
    # Every schedule that measures sensor 0, whose whitened row's squared
    # norm passes the double range, has no finite value; the search meets
    # them among its leaves, at the last branching slot.
    ev = bs.build_evaluator(huge_sensor_model(r=1))
    with pytest.raises(bs.NumericOverflow, match="^objective term at time index 2 is not finite"):
        bs.brute_force_opt(ev, incumbent=schedule_of([[1], [1], [1]]))


@pytest.mark.parametrize("n", [1, 2])
def test_search_reaches_the_depth_the_default_cap_allows(monkeypatch, n):
    # 20 branching slots of two subsets each: 2^20 feasible schedules, under
    # the default cap, and one recursion level per branching slot.
    model = bs.random_scenario(seed=n, n=n, m=1, K=20, r=1, kind="continuous-variant")
    assert bs.feasible_schedule_count(model) == 2**20 <= analysis.ENUMERATION_CAP_DEFAULT
    ev = bs.build_evaluator(model)
    visited = _count_visited(monkeypatch)
    schedule, value = bs.brute_force_opt(ev)
    # The search steps 2,384 leaves at n=1 and 1,332 at n=2.
    assert 0 < len(visited) <= 2**12
    assert schedule == schedule_of([[0]] * 20)
    assert value == bs.objective_logdet(ev, schedule)


def test_child_bounds_where_the_information_along_one_axis_is_tiny():
    # A factor whose information along axis 1 is 1e-600, a variance past the
    # double range: sensor 1's singleton gain, the objective's decrease with
    # it measured, is log(1 + 1e600), which takes the whole value.
    ev = bs.build_evaluator(axis_model())
    root = np.diag([1.0, 1e-300])
    value = 600 * math.log(10)  # -2 log|det R~|, the objective with nothing measured
    (bounds,) = analysis._child_bounds(ev, [0], root[None], np.zeros(1), np.array([value]))
    assert analysis._subset_table(2, 1)[0] == ((), (0,), (1,))
    np.testing.assert_allclose(bounds, [value, value - math.log(2), 0.0], rtol=1e-12, atol=1e-12)


def test_subset_arrays_match_the_slot_subsets_row_by_row():
    for m, r in ((1, 0), (1, 1), (4, 2), (5, 5)):
        subsets, members, incidence = analysis._subset_table(m, r)
        assert members.shape == (len(subsets), r) and incidence.shape == (len(subsets), m)
        for subset, row, marks in zip(subsets, members.tolist(), incidence.tolist()):
            assert row == list(subset) + [m] * (r - len(subset))
            assert marks == [1.0 if i in subset else 0.0 for i in range(m)]
        assert not members.flags.writeable and not incidence.flags.writeable
        assert analysis._subset_table(m, r)[1] is members


def test_child_bounds_hold_for_every_subset_of_the_slot():
    rng = np.random.default_rng(3)
    for model in scenario_stream(20, seed0=77, n_max=3, m_max=4, k_max=3, r_max=2):
        ev = bs.build_evaluator(model)
        levels = [k for k, r in enumerate(model.budgets) if r]
        for level, k in enumerate(levels):
            prefix = _random_feasible(rng, model).selections[:k]
            root, swept = root_entering(ev, prefix, k)
            entering = bs.objective_logdet(ev, bs.Schedule(prefix + ((),) * (model.horizon - k)))
            best = {}
            for schedule in iter_feasible_schedules(model):
                if schedule.selections[:k] == prefix:
                    subset = schedule.selections[k]
                    value = bs.objective_logdet(ev, schedule)
                    best[subset] = min(best.get(subset, math.inf), value)
            (bounds,) = analysis._child_bounds(ev, levels[level:], root[None], np.array([swept]), np.array([entering]))
            subsets = analysis._subset_table(model.sensor_count, model.budgets[k])[0]
            assert len(bounds) == len(subsets) == len(best)
            for bound, subset in zip(bounds, subsets):
                assert bound <= best[subset] + 1e-9


def test_certify_runs_the_greedy_once(monkeypatch):
    runs = _greedy_runs(monkeypatch)
    for model in scenario_stream(10, seed0=2711):
        runs.clear()
        bs.certify_ratio(bs.build_evaluator(model))
        assert len(runs) == 1


def test_certify_sweeps_the_greedy_schedule_once(monkeypatch):
    swept = _recorded_calls(monkeypatch, "objective_logdet")
    for model in scenario_stream(10, seed0=2711) + [bs.random_scenario(seed=2, n=3, m=5, K=3, r=2)]:
        ev = bs.build_evaluator(model)
        greedy, _ = bs.greedy_schedule(ev)
        swept.clear()
        cert = bs.certify_ratio(ev)
        # The search's incumbent is a private Schedule subclass, equal to no plain schedule.
        assert [s.selections for _, s in swept].count(greedy.selections) == 1
        assert cert.greedy_value == bs.objective_logdet(ev, greedy)


def test_brute_force_takes_a_feasible_incumbent():
    model = bs.random_scenario(seed=2, n=2, m=3, K=2, r=1)
    ev = bs.build_evaluator(model)
    expected = bs.brute_force_opt(ev)
    for incumbent in (bs.Schedule.empty(2), expected[0], bs.greedy_schedule(ev)[0]):
        assert bs.brute_force_opt(ev, incumbent=incumbent) == expected
    with pytest.raises(bs.BudgetOutOfRange):
        bs.brute_force_opt(ev, incumbent=schedule_of([[0, 1], []]))


# Every entry point that evaluates a caller's schedule, called on
# (evaluator, schedule); each checks the schedule with Schedule.check_shape.
SCHEDULE_ENTRY_POINTS = {
    "objective_logdet": bs.objective_logdet,
    "marginal_gain": lambda ev, s: bs.marginal_gain(ev, s, 1, 1),
    "batch_error_trace": bs.batch_error_trace,
    "brute_force_opt": lambda ev, s: bs.brute_force_opt(ev, incumbent=s),
}


@pytest.mark.parametrize("name", SCHEDULE_ENTRY_POINTS)
def test_a_slot_that_lists_a_sensor_twice_is_rejected(name):
    # Counted twice, sensor 0 would give the objective -5.536, where the
    # schedule measuring it once gives -4.937.
    model = bs.random_scenario(seed=1, n=2, m=3, K=2, r=2)
    ev = bs.build_evaluator(model)
    with pytest.raises(bs.InvalidArgument, match="^time index 0 selects sensor 0 twice$"):
        SCHEDULE_ENTRY_POINTS[name](ev, bs.Schedule(((0, 0), ())))
    # A slot's order does not matter, so an unsorted slot stays accepted.
    assert bs.objective_logdet(ev, bs.Schedule(((2, 0), ()))) == pytest.approx(
        bs.objective_logdet(ev, schedule_of([[0, 2], []])), rel=1e-12, abs=1e-12
    )


@pytest.mark.parametrize("name", SCHEDULE_ENTRY_POINTS)
def test_a_sensor_index_that_is_no_integer_is_rejected(name):
    # 1.0 raised a raw TypeError from tuple indexing in most entry points,
    # but the stacked sweep read it as sensor 1; True was read as sensor 1
    # everywhere.
    model = bs.random_scenario(seed=1, n=2, m=3, K=2, r=2)
    ev = bs.build_evaluator(model)
    call = SCHEDULE_ENTRY_POINTS[name]
    for index in (1.0, True, np.bool_(True), "1", None):
        with pytest.raises(bs.InvalidArgument, match=r"^sensor index .+ at time index 0 is not an integer$"):
            call(ev, bs.Schedule(((index,), ())))
    # A NumPy integer is an integer.
    assert call(ev, bs.Schedule(((np.int64(1),), ()))) == call(ev, schedule_of([[1], []]))


@pytest.mark.parametrize("name", SCHEDULE_ENTRY_POINTS)
def test_a_schedule_whose_slots_are_lists_evaluates_as_its_tuples(name):
    # A report's to_lists() form: marginal_gain raised a raw TypeError
    # concatenating a list and a tuple, and brute_force_opt one hashing it.
    model = bs.random_scenario(seed=1, n=2, m=3, K=2, r=2)
    ev = bs.build_evaluator(model)
    listed = bs.Schedule(selections=[[0, 2], []])
    tupled = bs.Schedule(((0, 2), ()))
    assert listed == tupled and hash(listed) == hash(tupled)
    call = SCHEDULE_ENTRY_POINTS[name]
    assert call(ev, listed) == call(ev, tupled)


def test_a_repeated_incumbent_cannot_prune_the_optimum():
    # Sensor 0 three times in each slot reads -7.866, below the optimum, so
    # as an incumbent it pruned every schedule and the search returned
    # (None, inf).
    model = bs.random_scenario(seed=8, n=2, m=3, K=2, r=3)
    ev = bs.build_evaluator(model)
    with pytest.raises(bs.InvalidArgument, match="^time index 0 selects sensor 0 twice$"):
        bs.brute_force_opt(ev, incumbent=bs.Schedule(((0, 0, 0), (0, 0, 0))))
    best, value = bs.brute_force_opt(ev, incumbent=bs.Schedule(((2, 0, 1), (1, 0))))
    assert best == schedule_of([[0, 1, 2], [0, 1, 2]])
    assert value == pytest.approx(-5.8598, abs=1e-4)


def _budgeted_model(budgets, m=5):
    data = bs.model_to_dict(bs.random_scenario(seed=2, n=2, m=m, K=len(budgets), r=0))
    data["budgets"] = list(budgets)
    return bs.model_from_dict(data)


def test_random_feasible_sizes_are_uniform_and_sets_sorted():
    budgets = (0, 1, 2, 5)
    model = _budgeted_model(budgets)
    rng = np.random.default_rng(3)
    draws = 4000
    sizes = np.zeros((len(budgets), 6))
    members = np.zeros((len(budgets), 5))
    for _ in range(draws):
        for k, slot in enumerate(_random_feasible(rng, model).selections):
            assert list(slot) == sorted(set(slot)) and all(0 <= i < 5 for i in slot)
            sizes[k, len(slot)] += 1
            members[k, list(slot)] += 1
    for k, r in enumerate(budgets):
        assert not sizes[k, r + 1:].any()
        expected = draws / (r + 1)
        # Five standard deviations of a binomial count.
        assert np.all(np.abs(sizes[k, :r + 1] - expected) <= 5 * math.sqrt(expected))
        # Every sensor equally likely: r/2 expected members per draw.
        expected = draws * r / 2 / 5
        assert np.all(np.abs(members[k] - expected) <= 5 * math.sqrt(expected) + 1e-9)


def test_random_subschedule_keeps_each_sensor_with_probability_half():
    rng = np.random.default_rng(4)
    big = schedule_of([[0, 1, 2], [], [1, 4], [3]])
    kept = dict.fromkeys(((k, i) for k, slot in enumerate(big.selections) for i in slot), 0)
    draws = 4000
    for _ in range(draws):
        small = _random_subschedule(rng, big)
        assert len(small.selections) == len(big.selections)
        for k, slot in enumerate(small.selections):
            assert set(slot) <= set(big.selections[k]) and list(slot) == sorted(slot)
            for i in slot:
                kept[k, i] += 1
    assert all(abs(count - draws / 2) <= 5 * math.sqrt(draws / 4) for count in kept.values())


def test_samplers_are_reproducible_per_seed():
    model = _budgeted_model((3, 0, 1, 2, 3, 3))

    def draw(seed):
        rng = np.random.default_rng(seed)
        return [(sup, _random_subschedule(rng, sup)) for sup in (_random_feasible(rng, model) for _ in range(20))]

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)
    full = random_schedule(np.random.default_rng(5), model.sensor_count, model.budgets)
    assert full == random_schedule(np.random.default_rng(5), model.sensor_count, model.budgets)
    assert [len(slot) for slot in full.selections] == list(model.budgets)


def test_fuzzers_match_the_per_trial_oracles_on_criterion_4s_scenarios():
    for idx, model in enumerate(scenario_stream(20, seed0=555, m_max=4, r_max=3)):
        ev = bs.build_evaluator(model)
        mono = bs.fuzz_monotonicity(ev, trials=1000, seed=100 + idx)
        trials, max_excess = per_trial_monotonicity(model, 1000, 100 + idx)
        assert mono.effective_trials == trials
        assert mono.max_excess == max_excess
        report = bs.fuzz_supermodularity(ev, trials=1000, seed=200 + idx)
        effective, max_excess = per_trial_supermodularity(model, 1000, 200 + idx)
        assert report.effective_trials == effective
        if effective:
            assert report.max_excess == max_excess
        else:
            assert report.max_excess is None and max_excess is None


def _long_unmeasured_stretch_model():
    """Measurements only at slots 0, 128 and 255 of an unstable model (CHANGES.md line 7)."""
    model = bs.random_scenario(seed=0, n=6, m=10, K=256, r=3, kind="discrete-invariant")
    return dataclasses.replace(model, budgets=tuple(3 if k in (0, 128, 255) else 0 for k in range(256)))


@pytest.mark.parametrize("fuzzer, oracle", [
    (bs.fuzz_monotonicity, per_trial_monotonicity),
    (bs.fuzz_supermodularity, per_trial_supermodularity),
])
def test_fuzzers_evaluate_a_long_unmeasured_unstable_stretch(monkeypatch, fuzzer, oracle):
    # The covariance form raised NotPositiveDefinite here. Each batch is one
    # stacked sweep, and no schedule is swept alone. The stack gives each
    # schedule its one-schedule value, so the report is the per-trial
    # oracle's; with every excess counted as a violation, the first trial
    # in draw order raises it, as the oracle does.
    model = _long_unmeasured_stretch_model()
    ev = bs.build_evaluator(model)
    batches, swept = _recorded_batches(monkeypatch)
    report = fuzzer(ev, trials=8, seed=2)
    assert swept == [] and len(batches) == 1
    effective, max_excess = oracle(model, 8, 2)
    assert report.effective_trials == effective
    assert report.max_excess == max_excess
    monkeypatch.setattr(analysis, "PROPERTY_TOL", -math.inf)
    with pytest.raises(bs.PropertyViolated) as violated:
        fuzzer(ev, trials=8, seed=2)
    with pytest.raises(bs.PropertyViolated) as oracle_violated:
        oracle(model, 8, 2)
    assert str(violated.value).split(" by ")[0] == str(oracle_violated.value).split(" by ")[0]


def test_a_stack_gives_each_schedule_its_one_schedule_value_after_a_long_unmeasured_unstable_stretch(monkeypatch):
    # Here the factor's small entries keep only absolute accuracy, so any
    # change of a schedule's rows, such as zero rows that pad it to a wider
    # member of the stack, changed its value by up to 1e-5 relative. Both
    # sweeps pad each slot to its budget and add the terms in slot order,
    # so they agree bit for bit, whichever slot a schedule measures last.
    ev = bs.build_evaluator(_long_unmeasured_stretch_model())
    batches, _ = _recorded_batches(monkeypatch)
    bs.fuzz_monotonicity(ev, trials=8, seed=2)
    schedules = batches[0]
    lasts = {max((k for k, slot in enumerate(s.selections) if slot), default=-1) for s in schedules}
    assert {128, 255} <= lasts
    single = [bs.objective_logdet(ev, s) for s in schedules]
    assert objective.stacked_values(ev, schedules).tolist() == single


def _recorded_batches(monkeypatch):
    """Patch the fuzzers' batch sweep and single-schedule sweep to record the
    batches and any schedule swept alone."""
    batches, swept = [], []
    original_sweep, original_single = analysis.stacked_values, analysis.objective_logdet

    def sweep(ev, schedules):
        batches.append(list(schedules))
        return original_sweep(ev, schedules)

    def single(ev, schedule):
        swept.append(schedule)
        return original_single(ev, schedule)

    monkeypatch.setattr(analysis, "stacked_values", sweep)
    monkeypatch.setattr(analysis, "objective_logdet", single)
    return batches, swept


@pytest.mark.parametrize("fuzzer", [bs.fuzz_monotonicity, bs.fuzz_supermodularity])
def test_fuzzers_evaluate_at_most_one_chunk_of_schedules_per_call(monkeypatch, fuzzer):
    # Trials are drawn and evaluated a chunk at a time, so memory does not
    # grow with the trial count.
    model = bs.random_scenario(seed=3, n=2, m=3, K=3, r=2)
    batches, _ = _recorded_batches(monkeypatch)
    report = fuzzer(bs.build_evaluator(model), trials=1000, seed=9)
    sizes = [len(batch) for batch in batches]
    assert 0 < max(sizes) <= analysis.VALUES_CHUNK
    assert sum(sizes) == (2 if fuzzer is bs.fuzz_monotonicity else 4) * report.effective_trials


def overflowing_transition_model():
    """A scalar model whose whitened transition row -L_Q^-1 Phi leaves the
    double range: Phi = 1e200 against process noise 1e-300."""
    return bs.SystemModel(
        kind="discrete-invariant",
        state_dim=1,
        dynamics=np.array([[1e200]]),
        noise_input=np.eye(1),
        process_noise_cov=np.array([[1e-300]]),
        initial_state_cov=np.eye(1),
        measurement_times=(1.0, 2.0, 3.0),
        sensors=(bs.Sensor(C=np.eye(1), V=np.eye(1)),),
        budgets=(1, 1, 1),
    )


@pytest.mark.parametrize("fuzzer", [bs.fuzz_monotonicity, bs.fuzz_supermodularity])
def test_a_fuzz_batch_whose_sweep_overflows_names_the_time_index(fuzzer):
    ev = bs.build_evaluator(overflowing_transition_model())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bs.NumericOverflow, match=r"^objective term at time index 0 is not finite"):
            fuzzer(ev, trials=8, seed=0)


def test_fuzz_evaluates_past_the_index_where_the_unmeasured_variance_overflows():
    # Only the last slot has a budget, one past the index where the
    # unmeasured variance leaves the double range: the covariance form
    # raised NumericOverflow, while the information only underflows.
    horizon = overflow_index() + 2
    model = exploding_scalar_model(horizon)
    model = dataclasses.replace(model, budgets=(0,) * (horizon - 1) + (1,))
    ev = bs.build_evaluator(model)
    last = bs.Schedule(((),) * (horizon - 1) + ((0,),))
    oracle = oracle_objective(ev, last)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(bs.objective_logdet(ev, last) - oracle) <= 1e-12 * abs(oracle)
        report = bs.fuzz_monotonicity(ev, trials=8, seed=0)
    trials, max_excess = per_trial_monotonicity(model, 8, 0)
    assert report.effective_trials == trials == 8
    assert report.max_excess == max_excess


def test_fuzzers_sweep_nothing_without_an_effective_trial(monkeypatch):
    batches, swept = _recorded_batches(monkeypatch)
    ev = bs.build_evaluator(bs.random_scenario(seed=3, n=3, m=4, K=5, r=2))
    assert bs.fuzz_monotonicity(ev, trials=0, seed=0).effective_trials == 0
    # No slot has budget room, so every trial is skipped.
    ev = bs.build_evaluator(bs.random_scenario(seed=37, n=2, m=3, K=2, r=0))
    assert bs.fuzz_supermodularity(ev, trials=50, seed=6).effective_trials == 0
    assert batches == [] and swept == []


@pytest.mark.parametrize("p1, v", [(1e10, 1e-8), (1e6, 1e-12)])
def test_precise_sensors_evaluate_in_the_stack(monkeypatch, p1, v):
    # The covariance form's stacked factorization failed for every measured
    # schedule here, and both fallbacks swept one schedule at a time.
    ev = bs.build_evaluator(precise_sensor_model(p1, v))
    every = bs.Schedule(((0,),) * 4)
    oracle = oracle_objective(ev, every)
    (value,) = objective.stacked_values(ev, [every])
    assert abs(value - oracle) <= 1e-12 * abs(oracle)
    schedule, value = bs.brute_force_opt(ev)
    oracle = oracle_objective(ev, schedule)
    assert abs(value - oracle) <= 1e-12 * abs(oracle)
    assert bs.certify_ratio(ev).ratio <= 0.5
    batches, swept = _recorded_batches(monkeypatch)
    report = bs.fuzz_monotonicity(ev, trials=40, seed=0)
    assert report.effective_trials == 40 and report.max_excess <= analysis.PROPERTY_TOL
    assert swept == [] and len(batches) == 2


def test_the_precise_sensor_counterexample_has_equal_gains_by_the_oracle():
    # The counterexample that the supermodularity fuzzer reports below: by the
    # information form, the sensor's gain is the same on both schedules.
    for p1, v in [(1e10, 1e-8), (1e14, 1e-6)]:
        ev = bs.build_evaluator(precise_sensor_model(p1, v))
        small, big = schedule_of([[], [], [0], []]), schedule_of([[0], [0], [0], []])
        gains = [oracle_objective(ev, s) - oracle_objective(ev, s.with_added(3, 2)) for s in (small, big)]
        assert abs(gains[0] - gains[1]) <= 1e-12 * abs(gains[0])


@pytest.mark.parametrize("p1, v", [(1e10, 1e-8), (1e14, 1e-6)])
def test_supermodularity_fuzz_on_precise_sensors(p1, v):
    # CHANGES.md line 200: the single path's gains differed by roundoff past
    # the tolerance, a false violation with excess 1.0e-8 and 0.0157.
    report = bs.fuzz_supermodularity(bs.build_evaluator(precise_sensor_model(p1, v)), trials=40, seed=0)
    assert report.violations == 0 and report.max_excess <= analysis.PROPERTY_TOL


def test_monotonicity_fuzz_where_the_predicted_variance_dwarfs_the_noise():
    # CHANGES.md line 199: the covariance form reported an increase of 54.57
    # when sensors were added.
    model = exploding_scalar_model(6, 1e12)
    report = bs.fuzz_monotonicity(bs.build_evaluator(model), trials=8, seed=0)
    trials, max_excess = per_trial_monotonicity(model, 8, 0)
    assert report.effective_trials == trials == 8
    assert report.max_excess == max_excess <= analysis.PROPERTY_TOL
