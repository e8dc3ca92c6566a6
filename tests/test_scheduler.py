"""Greedy scheduling: worked examples, tie-breaking, fidelity to the oracles."""

import dataclasses
import itertools
import math
import time
import warnings

import numpy as np
import pytest

import batchsched as bs
from helpers import (
    exploding_scalar_model,
    oracle_objective,
    overflow_index,
    per_candidate_greedy,
    schedule_of,
    scenario_stream,
    stable_model,
    two_pass_greedy,
)


def one_shot_model(sensors, budget):
    return bs.SystemModel(
        kind="discrete-invariant",
        state_dim=2,
        dynamics=np.eye(2),
        noise_input=np.eye(2),
        process_noise_cov=np.eye(2),
        initial_state_cov=np.eye(2),
        measurement_times=(1.0,),
        sensors=tuple(sensors),
        budgets=(budget,),
    )


def test_zero_budgets_give_empty_schedule():
    model = bs.random_scenario(seed=3, n=2, m=3, K=3, r=0)
    ev = bs.build_evaluator(model)
    schedule, trace = bs.greedy_schedule(ev)
    assert schedule == bs.Schedule.empty(3)
    assert trace.entries == [] and trace.gain_evaluations == 0
    assert bs.objective_logdet(ev, schedule) == -ev.prior_logdet


def test_single_informative_sensor_selected_everywhere():
    model = bs.SystemModel(
        kind="discrete-invariant",
        state_dim=2,
        dynamics=0.5 * np.eye(2),
        noise_input=np.eye(2),
        process_noise_cov=np.eye(2),
        initial_state_cov=np.eye(2),
        measurement_times=(1.0, 2.0, 3.0),
        sensors=(bs.Sensor(C=np.array([[1.0, 1.0]]), V=np.array([[1.0]])),),
        budgets=(1, 1, 1),
    )
    ev = bs.build_evaluator(model)
    schedule, _ = bs.greedy_schedule(ev)
    assert schedule.to_lists() == [[0], [0], [0]]


def test_identical_sensors_tie_breaks_to_smaller_index():
    sensor = bs.Sensor(C=np.array([[1.0, 0.0]]), V=np.array([[1.0]]))
    model = one_shot_model([sensor, sensor], budget=1)
    ev = bs.build_evaluator(model)
    schedule, _ = bs.greedy_schedule(ev)
    assert schedule.to_lists() == [[0]]


def test_two_slot_worked_example():
    # Sensors on a unit prior: a and b read the two axes at noise 1,
    # c reads the first axis at noise 0.5.
    a = bs.Sensor(C=np.array([[1.0, 0.0]]), V=np.array([[1.0]]))
    b = bs.Sensor(C=np.array([[0.0, 1.0]]), V=np.array([[1.0]]))
    c = bs.Sensor(C=np.array([[1.0, 0.0]]), V=np.array([[0.5]]))
    model = one_shot_model([a, b, c], budget=2)
    ev = bs.build_evaluator(model)
    schedule, trace = bs.greedy_schedule(ev)

    assert schedule.to_lists() == [[1, 2]]
    assert trace.entries[0].sensor == 2
    assert trace.entries[0].gain == pytest.approx(math.log(3.0), abs=1e-12)
    assert trace.entries[1].sensor == 1
    assert trace.entries[1].gain == pytest.approx(math.log(2.0), abs=1e-12)
    # The runner-up gains as enumerated by hand: ln 2 for a or b first,
    # ln(4/3) for a after c.
    gain_a_after_c = bs.marginal_gain(ev, schedule_of([[2]]), 0, 0)
    assert gain_a_after_c == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
    # Exhaustive confirmation that greedy found the optimum here.
    opt_schedule, opt_value = bs.brute_force_opt(ev)
    assert opt_schedule == schedule
    assert bs.objective_logdet(ev, schedule) == pytest.approx(opt_value, abs=1e-12)


def test_schedules_are_feasible():
    for model in scenario_stream(30, seed0=404):
        ev = bs.build_evaluator(model)
        schedule, _ = bs.greedy_schedule(ev)
        schedule.validate_for(model)
        for slot in schedule.selections:
            assert len(set(slot)) == len(slot)


def test_within_step_gains_diminish():
    for model in scenario_stream(20, seed0=888, m_max=4, r_max=3):
        ev = bs.build_evaluator(model)
        _, trace = bs.greedy_schedule(ev)
        by_time = {}
        for entry in trace.entries:
            by_time.setdefault(entry.time_index, []).append(entry.gain)
        for gains in by_time.values():
            for earlier, later in zip(gains, gains[1:]):
                assert later <= earlier + 1e-9


def test_trace_objectives_non_increasing():
    for model in scenario_stream(20, seed0=321):
        ev = bs.build_evaluator(model)
        _, trace = bs.greedy_schedule(ev)
        values = [trace.start_objective] + [e.objective for e in trace.entries]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-9


def test_sensor_relabeling_permutes_selection():
    rng = np.random.default_rng(7)
    for model in scenario_stream(10, seed0=606):
        perm = rng.permutation(model.sensor_count)
        permuted = bs.SystemModel(
            kind=model.kind,
            state_dim=model.state_dim,
            dynamics=model.dynamics,
            noise_input=model.noise_input,
            process_noise_cov=model.process_noise_cov,
            initial_state_cov=model.initial_state_cov,
            measurement_times=model.measurement_times,
            sensors=tuple(model.sensors[int(j)] for j in perm),
            budgets=model.budgets,
        )
        # position of original sensor i in the permuted bank
        inverse = {int(orig): new for new, orig in enumerate(perm)}
        ev = bs.build_evaluator(model)
        ev_p = bs.build_evaluator(permuted)
        schedule, _ = bs.greedy_schedule(ev)
        schedule_p, _ = bs.greedy_schedule(ev_p)
        mapped = schedule_of(
            [[inverse[i] for i in slot] for slot in schedule.selections]
        )
        assert schedule_p == mapped


def test_repeat_runs_bit_identical():
    model = bs.random_scenario(seed=17, n=3, m=4, K=3, r=2)
    ev = bs.build_evaluator(model)
    first = bs.greedy_schedule(ev)
    second = bs.greedy_schedule(ev)
    assert first[0] == second[0]
    assert [e.objective for e in first[1].entries] == [e.objective for e in second[1].entries]


def test_zero_gain_sensors_fill_budget_by_default():
    blank = bs.Sensor(C=np.zeros((1, 2)), V=np.eye(1))
    model = one_shot_model([blank, blank], budget=2)
    ev = bs.build_evaluator(model)
    schedule, _ = bs.greedy_schedule(ev)
    assert schedule.to_lists() == [[0, 1]]


def test_eager_rescores_every_remaining_candidate():
    # Each accepted sensor costs one evaluation per candidate still left: a
    # round scores every remaining candidate, however stale gains might rank.
    for model in scenario_stream(200, seed0=4242, m_max=4, r_max=3):
        ev = bs.build_evaluator(model)
        _, trace = bs.greedy_schedule(ev)
        m = model.sensor_count
        assert trace.gain_evaluations == sum(m - j for r in model.budgets for j in range(r))


def test_greedy_matches_two_pass_information_form_greedy():
    # The criterion-1 stream, against a greedy whose every gain is the
    # difference of two full information-form evaluations, under the eager
    # and the lazy refresh rule alike. Only the eager rule re-scores every
    # remaining candidate, so only its evaluation count is compared.
    for model in scenario_stream(200, seed0=1234, n_max=3, m_max=4, k_max=3, r_max=2):
        ev = bs.build_evaluator(model)
        schedule, trace = bs.greedy_schedule(ev)
        for lazy in (False, True):
            oracle_schedule, oracle_trace, oracle_evaluations = two_pass_greedy(ev, model, lazy)
            assert schedule == oracle_schedule
            if not lazy:
                assert trace.gain_evaluations == oracle_evaluations
            assert [(e.time_index, e.sensor) for e in trace.entries] == [
                (k, i) for k, i, _, _ in oracle_trace
            ]
            for entry, (_, _, gain, value) in zip(trace.entries, oracle_trace):
                assert abs(entry.gain - gain) <= 1e-12 * max(1.0, abs(gain))
                assert abs(entry.objective - value) <= 1e-12 * max(1.0, abs(value))


def test_batched_scoring_matches_one_update_per_candidate():
    # Bit for bit against the loop that scores each candidate by its own
    # measurement update through sweep_step, under the eager and the lazy
    # refresh rule alike: the criterion-1 and criterion-6 streams, the
    # benchmark's greedy shapes for every kind, and 60 sensors whose rows
    # fill several scorer groups. Only the eager rule's evaluation count is
    # compared.
    models = scenario_stream(200, seed0=1234, n_max=3, m_max=4, k_max=3, r_max=2)
    models += scenario_stream(200, seed0=4242, m_max=4, r_max=3)
    models += [
        bs.random_scenario(seed=seed, n=6, m=10, K=horizon, r=3, kind=kind)
        for seed, (horizon, kind) in enumerate(itertools.product((8, 16, 32), bs.ModelKind))
    ]
    models.append(bs.random_scenario(seed=7, n=6, m=60, K=4, r=3))
    for model in models:
        ev = bs.build_evaluator(model)
        schedule, trace = bs.greedy_schedule(ev)
        for lazy in (False, True):
            oracle_schedule, oracle_trace, oracle_evaluations = per_candidate_greedy(ev, model, lazy)
            assert schedule == oracle_schedule
            assert [
                (e.time_index, e.sensor, e.gain, e.objective) for e in trace.entries
            ] == oracle_trace
            if not lazy:
                assert trace.gain_evaluations == oracle_evaluations


@pytest.mark.parametrize("first_budget", [0, 1])
def test_greedy_carries_the_covariance_only_to_the_last_slot_with_a_budget(first_budget):
    # The unmeasured variance overflows at the last slot, which has no
    # budget; neither the greedy nor the search it seeds may predict there.
    horizon = overflow_index() + 1
    budgets = (first_budget,) + (0,) * (horizon - 1)
    model = dataclasses.replace(exploding_scalar_model(horizon), budgets=budgets)
    ev = bs.build_evaluator(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        schedule, trace = bs.greedy_schedule(ev)
        opt_schedule, opt_value = bs.brute_force_opt(ev)
    expected = schedule_of([[0] * first_budget] + [[]] * (horizon - 1))
    assert schedule == opt_schedule == expected
    assert len(trace.entries) == first_budget
    assert opt_value == bs.objective_logdet(ev, expected)


def test_greedy_time_linear_in_horizon():
    # Each gain is one measurement update, so a run grows like K; two
    # full objective passes per gain would grow like K^2.
    # Host noise only ever adds time, so each horizon keeps its fastest run;
    # the rounds interleave the horizons, so a slow spell of the host falls
    # on all of them alike. The first round doubles as the warm-up.
    horizons = [64, 128, 256, 512]
    cases = [(model, bs.build_evaluator(model)) for model in map(stable_model, horizons)]
    samples = [[] for _ in horizons]
    for _ in range(7):
        for (model, ev), times in zip(cases, samples):
            start = time.perf_counter()
            bs.greedy_schedule(ev)
            times.append(time.perf_counter() - start)
    fastest = [min(times) for times in samples]
    exponent = float(np.polyfit(np.log(horizons), np.log(fastest), 1)[0])
    assert exponent <= 1.3, f"fitted exponent {exponent} with fastest runs {fastest}"


def test_greedy_survives_a_long_unmeasured_unstable_stretch():
    # CHANGES.md line 7: the covariance form lost the covariance's small
    # directions over the unmeasured stretches and raised here.
    model = bs.random_scenario(seed=0, n=6, m=10, K=256, r=3, kind="discrete-invariant")
    budgets = tuple(3 if k in (0, 128, 255) else 0 for k in range(256))
    model = dataclasses.replace(model, budgets=budgets)
    ev = bs.build_evaluator(model)
    schedule, _ = bs.greedy_schedule(ev)
    assert schedule.selections == tuple((1, 3, 7) if k in (0, 128, 255) else () for k in range(256))
    oracle = oracle_objective(ev, schedule)
    assert abs(bs.objective_logdet(ev, schedule) - oracle) <= 1e-12 * abs(oracle)
