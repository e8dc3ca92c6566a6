"""Objective evaluation: information assembly, sparse log-determinant,
marginal gains, and the error-variance trace."""

import math

import numpy as np
import pytest

import batchsched as bs
from batchsched import objective
from batchsched.analysis import _random_feasible
from helpers import (
    dense_error_trace,
    dense_logdet,
    dense_prior_covariance,
    measurement_form_covariance,
    oracle_objective,
    prior_information,
    random_block_tridiagonal_pd,
    scenario_stream,
    stable_model,
)


def scalar_model(p1=1.0, c=1.0, v=1.0):
    return bs.validate_model(
        bs.SystemModel(
            kind="discrete-invariant",
            state_dim=1,
            dynamics=np.eye(1),
            noise_input=np.eye(1),
            process_noise_cov=np.eye(1),
            initial_state_cov=np.array([[p1]]),
            measurement_times=(1.0,),
            sensors=(bs.Sensor(C=np.array([[c]]), V=np.array([[v]])),),
            budgets=(1,),
        )
    )


def planar_model(sensors, budgets=(2,)):
    return bs.validate_model(
        bs.SystemModel(
            kind="discrete-invariant",
            state_dim=2,
            dynamics=np.eye(2),
            noise_input=np.eye(2),
            process_noise_cov=np.eye(2),
            initial_state_cov=np.eye(2),
            measurement_times=(1.0,),
            sensors=tuple(sensors),
            budgets=budgets,
        )
    )


def sensor_information(ev, i):
    return ev.whitened[i].T @ ev.whitened[i]


def test_identity_sensor_info_block():
    model = planar_model([bs.Sensor(C=np.eye(2), V=np.eye(2))], budgets=(1,))
    ev = bs.build_evaluator(model)
    np.testing.assert_allclose(sensor_information(ev, 0), np.eye(2), atol=1e-15)


def test_rank_one_sensor_info_block():
    model = planar_model([bs.Sensor(C=np.array([[1.0, 0.0]]), V=np.array([[4.0]]))], budgets=(1,))
    ev = bs.build_evaluator(model)
    np.testing.assert_allclose(
        sensor_information(ev, 0), np.array([[0.25, 0.0], [0.0, 0.0]]), atol=1e-15
    )


def test_sensor_info_blocks_are_psd():
    for model in scenario_stream(20, seed0=31):
        ev = bs.build_evaluator(model)
        for i, sensor in enumerate(model.sensors):
            info = sensor_information(ev, i)
            eigs = np.linalg.eigvalsh(info)
            assert eigs.min() >= -1e-10
            assert np.linalg.matrix_rank(info) <= sensor.C.shape[0]


def test_empty_schedule_assembles_prior():
    model = bs.random_scenario(seed=2, n=2, m=3, K=3, r=2)
    ev = bs.build_evaluator(model)
    assembled = bs.assemble_information(ev, bs.Schedule.empty(3))
    prior = prior_information(model)
    np.testing.assert_array_equal(assembled.to_dense(), prior.to_dense())


def test_scalar_assembly():
    ev = bs.build_evaluator(scalar_model())
    assembled = bs.assemble_information(ev, bs.Schedule.from_sets([[0]]))
    np.testing.assert_allclose(assembled.to_dense(), np.array([[2.0]]), atol=1e-15)


def test_logdet_two_by_two():
    tri = bs.BlockTridiagonal.from_blocks(
        [np.array([[2.0]]), np.array([[1.0]])], [np.array([[-1.0]])]
    )
    assert bs.block_tridiag_logdet(tri) == pytest.approx(0.0, abs=1e-14)


def test_logdet_identity():
    tri = bs.BlockTridiagonal.from_blocks([np.eye(3)] * 4, [np.zeros((3, 3))] * 3)
    assert bs.block_tridiag_logdet(tri) == pytest.approx(0.0, abs=1e-14)


def test_logdet_matches_dense_oracle():
    rng = np.random.default_rng(101)
    for _ in range(60):
        tri = random_block_tridiagonal_pd(rng, int(rng.integers(1, 5)), int(rng.integers(1, 7)))
        sparse = bs.block_tridiag_logdet(tri)
        dense = dense_logdet(tri.to_dense())
        assert abs(sparse - dense) < 1e-9


def test_logdet_rejects_indefinite():
    tri = bs.BlockTridiagonal.from_blocks(
        [np.array([[1.0]]), np.array([[1.0]])], [np.array([[2.0]])]
    )
    with pytest.raises(bs.NotPositiveDefinite, match="D_2"):
        bs.block_tridiag_logdet(tri)


def test_objective_scalar_values():
    ev = bs.build_evaluator(scalar_model())
    assert bs.objective_logdet(ev, bs.Schedule.from_sets([[0]])) == pytest.approx(
        math.log(0.5), abs=1e-12
    )
    assert bs.objective_logdet(ev, bs.Schedule.empty(1)) == pytest.approx(0.0, abs=1e-12)


def test_objective_empty_equals_prior_logdet():
    for model in scenario_stream(10, seed0=8):
        ev = bs.build_evaluator(model)
        empty = bs.Schedule.empty(model.horizon)
        cov_logdet = dense_logdet(dense_prior_covariance(model))
        assert bs.objective_logdet(ev, empty) == pytest.approx(cov_logdet, abs=1e-8)
        # The cached prior log-determinant comes from the identical code path.
        assert bs.objective_logdet(ev, empty) == -ev.prior_logdet


def test_adding_a_sensor_never_increases_objective():
    rng = np.random.default_rng(55)
    for model in scenario_stream(12, seed0=19):
        ev = bs.build_evaluator(model)
        schedule = _random_feasible(rng, model)
        value = bs.objective_logdet(ev, schedule)
        for k in range(model.horizon):
            for i in range(model.sensor_count):
                if schedule.contains(k, i):
                    continue
                grown = bs.objective_logdet(ev, schedule.with_added(k, i))
                assert grown <= value + 1e-9


def test_marginal_gain_scalar():
    ev = bs.build_evaluator(scalar_model())
    gain = bs.marginal_gain(ev, bs.Schedule.empty(1), 0, 0)
    assert gain == pytest.approx(math.log(2.0), abs=1e-12)


def test_marginal_gain_zero_sensor():
    model = planar_model(
        [bs.Sensor(C=np.zeros((1, 2)), V=np.eye(1))], budgets=(1,)
    )
    ev = bs.build_evaluator(model)
    assert bs.marginal_gain(ev, bs.Schedule.empty(1), 0, 0) == pytest.approx(0.0, abs=1e-15)


def test_duplicate_sensor_gain_diminishes():
    sensor = bs.Sensor(C=np.array([[1.0, 1.0]]), V=np.array([[1.0]]))
    model = planar_model([sensor, sensor], budgets=(2,))
    ev = bs.build_evaluator(model)
    first = bs.marginal_gain(ev, bs.Schedule.empty(1), 0, 0)
    second = bs.marginal_gain(ev, bs.Schedule.from_sets([[0]]), 0, 1)
    assert second < first


def test_marginal_gains_nonnegative_up_to_roundoff():
    rng = np.random.default_rng(99)
    for model in scenario_stream(10, seed0=66):
        ev = bs.build_evaluator(model)
        for _ in range(10):
            schedule = _random_feasible(rng, model)
            k = int(rng.integers(0, model.horizon))
            free = [i for i in range(model.sensor_count) if not schedule.contains(k, i)]
            if not free:
                continue
            i = free[int(rng.integers(0, len(free)))]
            assert bs.marginal_gain(ev, schedule, k, i) >= -1e-10


def test_marginal_gain_rejects_duplicates_and_bad_indices():
    ev = bs.build_evaluator(scalar_model())
    with pytest.raises(bs.SensorAlreadySelected):
        bs.marginal_gain(ev, bs.Schedule.from_sets([[0]]), 0, 0)
    with pytest.raises(bs.InvalidArgument):
        bs.marginal_gain(ev, bs.Schedule.empty(1), 1, 0)
    with pytest.raises(bs.InvalidArgument):
        bs.marginal_gain(ev, bs.Schedule.empty(1), 0, 5)


def test_batch_error_trace_scalar():
    ev = bs.build_evaluator(scalar_model())
    assert bs.batch_error_trace(ev, bs.Schedule.from_sets([[0]])) == pytest.approx(0.5, abs=1e-12)
    assert bs.batch_error_trace(ev, bs.Schedule.empty(1)) == pytest.approx(1.0, abs=1e-12)


def test_batch_error_trace_empty_equals_prior_trace():
    model = bs.random_scenario(seed=6, n=3, m=2, K=3, r=1)
    ev = bs.build_evaluator(model)
    expected = float(np.trace(dense_prior_covariance(model)))
    assert bs.batch_error_trace(ev, bs.Schedule.empty(3)) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("K", [16, 32, 64])
@pytest.mark.parametrize("kind", [k.value for k in bs.ModelKind])
def test_batch_error_trace_empty_is_exact_prior_trace(kind, K):
    # With nothing measured the backward pass adds nothing: the trace is the
    # forward propagation of the prior, sum_k tr Var(x_k).
    model = bs.random_scenario(seed=0, n=6, m=10, K=K, r=3, kind=kind)
    ev = bs.build_evaluator(model)
    expected = float(np.trace(dense_prior_covariance(model)))
    assert abs(bs.batch_error_trace(ev, bs.Schedule.empty(K)) - expected) <= 1e-12 * expected


def test_batch_error_trace_matches_dense_oracle():
    # The streams of acceptance criteria 2, 3 and 5.
    rng = np.random.default_rng(5)
    models = list(_criterion_2_models())
    models += scenario_stream(100, seed0=777, n_max=4, k_max=6)
    models += scenario_stream(20, seed0=135, n_max=3, m_max=3, k_max=2, r_max=2)
    for model in models:
        ev = bs.build_evaluator(model)
        greedy, _ = bs.greedy_schedule(ev, model)
        for schedule in (bs.Schedule.empty(model.horizon), _random_feasible(rng, model), greedy):
            oracle = dense_error_trace(ev, schedule)
            assert abs(bs.batch_error_trace(ev, schedule) - oracle) <= 1e-10 * oracle


def test_batch_error_trace_rejects_a_mismatched_schedule():
    ev = bs.build_evaluator(scalar_model())
    with pytest.raises(bs.InvalidArgument):
        bs.batch_error_trace(ev, bs.Schedule.empty(2))
    with pytest.raises(bs.InvalidArgument):
        bs.batch_error_trace(ev, bs.Schedule.from_sets([[3]]))


def test_measurement_form_equivalence_sample():
    rng = np.random.default_rng(71)
    for model in scenario_stream(15, seed0=99, n_max=3, k_max=4):
        ev = bs.build_evaluator(model)
        schedule = _random_feasible(rng, model)
        info = bs.assemble_information(ev, schedule).to_dense()
        from_information = np.linalg.inv(info)
        from_measurements = measurement_form_covariance(model, schedule)
        rel = np.linalg.norm(from_information - from_measurements) / np.linalg.norm(
            from_measurements
        )
        assert rel < 1e-6


def test_assemble_rejects_wrong_horizon():
    ev = bs.build_evaluator(scalar_model())
    with pytest.raises(bs.InvalidArgument):
        bs.assemble_information(ev, bs.Schedule.empty(2))


def _criterion_2_models():
    # The draws of acceptance criterion 2, so the sweep is checked on its stream.
    rng = np.random.default_rng(321)
    for count in range(100):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(6, 60 // n) + 1))
        m = int(rng.integers(1, 5))
        r = int(rng.integers(1, min(2, m) + 1))
        kind = list(bs.ModelKind)[count % 4]
        yield bs.random_scenario(seed=9000 + count, n=n, m=m, K=k, r=r, kind=kind)


def test_sweep_matches_information_form_oracle():
    rng = np.random.default_rng(2)
    models = list(_criterion_2_models()) + scenario_stream(100, seed0=777, n_max=4, k_max=6)
    assert {model.kind for model in models} == set(bs.ModelKind)
    # Roundoff grows with the horizon in both forms: at K=256 they agree to
    # 1.5e-12 relative, and a sweep whose updates lose precision drifts far
    # past the looser bound.
    long_models = [stable_model(horizon, seed=seed) for horizon in (128, 256) for seed in (99, 2)]
    for group, tol in ((models, 1e-12), (long_models, 1e-11)):
        for model in group:
            ev = bs.build_evaluator(model)
            full = bs.Schedule(tuple(tuple(range(r)) for r in model.budgets))
            schedules = [bs.Schedule.empty(model.horizon), full]
            schedules += [_random_feasible(rng, model) for _ in range(3)]
            for schedule in schedules:
                oracle = oracle_objective(ev, schedule)
                error = abs(bs.objective_logdet(ev, schedule) - oracle)
                assert error <= tol * max(1.0, abs(oracle))


def test_sweep_resumes_from_a_shared_prefix_bit_for_bit():
    rng = np.random.default_rng(4)
    for model in scenario_stream(30, seed0=55, n_max=4, k_max=5):
        ev = bs.build_evaluator(model)
        schedule = _random_feasible(rng, model)
        value = bs.objective_logdet(ev, schedule)
        state = objective.SweepState.initial(ev)
        for k in range(model.horizon):
            state = objective.advance(ev, schedule.selections, state, k)
            assert bs.objective_logdet(ev, schedule, state) == value
        past_end = objective.SweepState(model.horizon, ev.initial_cov, 0.0)
        with pytest.raises(bs.InvalidArgument):
            bs.objective_logdet(ev, schedule, past_end)


def test_prior_logdet_matches_information_form_oracle():
    for model in scenario_stream(40, seed0=12, n_max=4, k_max=6):
        ev = bs.build_evaluator(model)
        oracle = bs.block_tridiag_logdet(prior_information(model))
        assert abs(ev.prior_logdet - oracle) <= 1e-12 * max(1.0, abs(oracle))
