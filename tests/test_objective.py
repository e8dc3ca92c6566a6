"""Objective evaluation: information assembly, sparse log-determinant,
marginal gains, and the error-variance trace."""

import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import batchsched as bs
from batchsched import objective
from batchsched.analysis import _random_feasible
from helpers import (
    assemble_information,
    block_tridiag_logdet,
    dense_error_trace,
    dense_logdet,
    dense_prior_covariance,
    exploding_scalar_model,
    generated_case,
    measurement_form_covariance,
    overflow_index,
    oracle_objective,
    prior_information,
    random_block_tridiagonal_pd,
    schedule_of,
    scenario_stream,
    selected_inversion_trace,
    stable_model,
    stacking_models,
    to_dense,
)


def scalar_model(p1=1.0, c=1.0, v=1.0):
    return bs.SystemModel(
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


def planar_model(sensors, budgets=(2,)):
    return bs.SystemModel(
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
    assembled = assemble_information(ev, bs.Schedule.empty(3))
    prior = prior_information(model)
    np.testing.assert_array_equal(to_dense(*assembled), to_dense(*prior))


def test_scalar_assembly():
    ev = bs.build_evaluator(scalar_model())
    assembled = assemble_information(ev, schedule_of([[0]]))
    np.testing.assert_allclose(to_dense(*assembled), np.array([[2.0]]), atol=1e-15)


def test_logdet_two_by_two():
    tri = [np.array([[2.0]]), np.array([[1.0]])], [np.array([[-1.0]])]
    assert block_tridiag_logdet(*tri) == pytest.approx(0.0, abs=1e-14)


def test_logdet_identity():
    tri = [np.eye(3)] * 4, [np.zeros((3, 3))] * 3
    assert block_tridiag_logdet(*tri) == pytest.approx(0.0, abs=1e-14)


def test_logdet_matches_dense_oracle():
    rng = np.random.default_rng(101)
    for _ in range(60):
        tri = random_block_tridiagonal_pd(rng, int(rng.integers(1, 5)), int(rng.integers(1, 7)))
        sparse = block_tridiag_logdet(*tri)
        dense = dense_logdet(to_dense(*tri))
        assert abs(sparse - dense) < 1e-9


def test_logdet_rejects_indefinite():
    tri = [np.array([[1.0]]), np.array([[1.0]])], [np.array([[2.0]])]
    with pytest.raises(bs.NotPositiveDefinite, match="D_2"):
        block_tridiag_logdet(*tri)


def test_objective_scalar_values():
    ev = bs.build_evaluator(scalar_model())
    assert bs.objective_logdet(ev, schedule_of([[0]])) == pytest.approx(
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
                if i in schedule.selections[k]:
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
    second = bs.marginal_gain(ev, schedule_of([[0]]), 0, 1)
    assert second < first


def test_marginal_gains_nonnegative_up_to_roundoff():
    rng = np.random.default_rng(99)
    for model in scenario_stream(10, seed0=66):
        ev = bs.build_evaluator(model)
        for _ in range(10):
            schedule = _random_feasible(rng, model)
            k = int(rng.integers(0, model.horizon))
            free = [i for i in range(model.sensor_count) if i not in schedule.selections[k]]
            if not free:
                continue
            i = free[int(rng.integers(0, len(free)))]
            assert bs.marginal_gain(ev, schedule, k, i) >= -1e-10


def test_marginal_gain_is_the_difference_of_two_full_sweeps_bit_for_bit():
    # The two sweeps share the state entering slot k; that must not change a bit.
    rng = np.random.default_rng(17)
    models = scenario_stream(40, seed0=71, k_max=5) + [stable_model(64, seed=s) for s in range(2)]
    for model in models:
        ev = bs.build_evaluator(model)
        for _ in range(4):
            schedule = _random_feasible(rng, model)
            k = int(rng.integers(0, model.horizon))
            free = [i for i in range(model.sensor_count) if i not in schedule.selections[k]]
            if not free:
                continue
            i = free[int(rng.integers(0, len(free)))]
            full = bs.objective_logdet(ev, schedule) - bs.objective_logdet(ev, schedule.with_added(k, i))
            assert bs.marginal_gain(ev, schedule, k, i) == full


def test_marginal_gain_rejects_duplicates_and_bad_indices():
    ev = bs.build_evaluator(scalar_model())
    with pytest.raises(bs.SensorAlreadySelected):
        bs.marginal_gain(ev, schedule_of([[0]]), 0, 0)
    with pytest.raises(bs.InvalidArgument):
        bs.marginal_gain(ev, bs.Schedule.empty(1), 1, 0)
    with pytest.raises(bs.InvalidArgument):
        bs.marginal_gain(ev, bs.Schedule.empty(1), 0, 5)


# Each was taken as an index, or raised a raw TypeError.
@pytest.mark.parametrize("k, i, message", [
    (1.0, 1, "time index must be a non-negative integer, got 1.0"),
    (True, 1, "time index must be a non-negative integer, got True"),
    (-1, 1, "time index must be a non-negative integer, got -1"),
    (2, 1, "time index 2 out of range for horizon 2"),
    (0, 1.0, "sensor index must be a non-negative integer, got 1.0"),
    (0, False, "sensor index must be a non-negative integer, got False"),
    (0, 3, "sensor index 3 out of range"),
])
def test_marginal_gain_rejects_indices_that_are_not_integers_in_range(k, i, message):
    model = bs.random_scenario(seed=1, n=2, m=3, K=2, r=2)
    ev = bs.build_evaluator(model)
    with pytest.raises(bs.InvalidArgument) as raised:
        bs.marginal_gain(ev, bs.Schedule.empty(2), k, i)
    assert str(raised.value) == message


def test_marginal_gain_takes_numpy_integers():
    model = bs.random_scenario(seed=1, n=2, m=3, K=2, r=2)
    ev = bs.build_evaluator(model)
    empty = bs.Schedule.empty(2)
    assert bs.marginal_gain(ev, empty, np.int64(0), np.int64(1)) == bs.marginal_gain(ev, empty, 0, 1)


@pytest.mark.parametrize("kind", list(bs.ModelKind))
def test_an_evaluator_pickles_as_its_model(kind):
    # Pickled array by array, the discrete-invariant kind's zero-stride
    # stacks came back as K-1 copies and each continuous Phi_j C- instead of
    # F-contiguous.
    ev = bs.build_evaluator(bs.random_scenario(seed=3, n=3, m=4, K=64, r=2, kind=kind))
    blob = pickle.dumps(ev)
    assert len(blob) < len(pickle.dumps(ev.model)) + 500
    copy = pickle.loads(blob)
    for name in ("initial_cov", "transitions", "noise_covs", "noise_factors", "padded"):
        original, copied = getattr(ev, name), getattr(copy, name)
        assert copied.strides == original.strides, name
        assert copied.flags.f_contiguous == original.flags.f_contiguous, name
        assert copied.flags.c_contiguous == original.flags.c_contiguous, name
        assert not copied.flags.writeable, name
        assert np.array_equal(copied, original), name
    rng = np.random.default_rng(3)
    for _ in range(10):
        schedule = _random_feasible(rng, ev.model)
        assert bs.objective_logdet(copy, schedule) == bs.objective_logdet(ev, schedule)
        assert bs.batch_error_trace(copy, schedule) == bs.batch_error_trace(ev, schedule)


def axis_sensor_model(n):
    """n one-row sensors, sensor i reading state i alone at unit noise."""
    return bs.SystemModel(
        kind="discrete-invariant",
        state_dim=n,
        dynamics=np.eye(n),
        noise_input=np.eye(n),
        process_noise_cov=np.eye(n),
        initial_state_cov=np.eye(n),
        measurement_times=(1.0, 2.0),
        sensors=tuple(bs.Sensor(C=np.eye(n)[i:i + 1], V=np.eye(1)) for i in range(n)),
        budgets=(1, 1),
    )


def test_singleton_scorer_matches_one_slot_step_per_sensor(monkeypatch):
    # The batched scorer against the sweep's own update: 1- and 2-row
    # sensors, covariances conditioned by earlier slots, and a 60-sensor
    # model whose rows fill several groups. No factorization may have more
    # rows than a group, which keeps the scorer linear in the sensor count.
    rng = np.random.default_rng(8)
    models = scenario_stream(40, seed0=5, n_max=4, m_max=5, k_max=3)
    wide = bs.random_scenario(seed=6, n=6, m=60, K=3, r=3)
    models.append(wide)
    factored_rows = []
    original = objective.lapack_cholesky

    def counted(a):
        factored_rows.append(len(a))
        return original(a)

    for model in models:
        ev = bs.build_evaluator(model)
        slots = _random_feasible(rng, model).selections
        swept, _ = objective.advance(ev, slots, model.horizon - 1)
        for k, cov in ((0, ev.initial_cov), (model.horizon - 1, swept)):
            reference = [objective.slot_step(ev, cov, (i,), k)[0] for i in range(model.sensor_count)]
            with monkeypatch.context() as patch:
                patch.setattr(objective, "lapack_cholesky", counted)
                gains = ev.scorer(cov, k)
            np.testing.assert_allclose(gains, reference, rtol=1e-12, atol=1e-14)
    assert sum(len(w) for w in bs.build_evaluator(wide).whitened) > 2 * objective.SCORER_GROUP_ROWS
    assert 0 < max(factored_rows) <= objective.SCORER_GROUP_ROWS


def test_singleton_scorer_names_the_sensor_whose_factorization_fails():
    # Sensor 35 sits in the second group: a covariance negative along its
    # axis breaks its innovation covariance and no other sensor's.
    ev = bs.build_evaluator(axis_sensor_model(40))
    cov = np.eye(40)
    cov[35, 35] = -2.0
    with pytest.raises(
        bs.NotPositiveDefinite,
        match=r"^innovation covariance of sensor 35 at time index 1: the filter covariance lost",
    ):
        ev.scorer(cov, 1)
    with pytest.raises(bs.NotPositiveDefinite, match=r"^innovation covariance of sensors \[35\] at"):
        objective.slot_step(ev, cov, (35,), 1)


STACKING_MODELS = dict(stacking_models())


@pytest.mark.parametrize("label", sorted(STACKING_MODELS))
def test_whitened_sensors_match_the_per_sensor_solve(label):
    # Whitening by one stacked factorization and solve per row count against
    # each sensor's own triangular solve. The evaluator keeps one copy of the
    # rows: each sensor's are a view of padded.
    model = STACKING_MODELS[label]
    ev = bs.build_evaluator(model)
    assert len(ev.whitened) == model.sensor_count
    for sensor, white in zip(model.sensors, ev.whitened):
        expected = solve_triangular(np.linalg.cholesky(sensor.V), sensor.C, lower=True)
        assert white.shape == sensor.C.shape
        assert white.flags.c_contiguous and not white.flags.writeable
        assert np.shares_memory(white, ev.padded)
        np.testing.assert_allclose(white, expected, rtol=1e-13, atol=1e-13)


def test_batch_error_trace_scalar():
    ev = bs.build_evaluator(scalar_model())
    assert bs.batch_error_trace(ev, schedule_of([[0]])) == pytest.approx(0.5, abs=1e-12)
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
        greedy, _ = bs.greedy_schedule(ev)
        for schedule in (bs.Schedule.empty(model.horizon), _random_feasible(rng, model), greedy):
            oracle = dense_error_trace(ev, schedule)
            assert abs(bs.batch_error_trace(ev, schedule) - oracle) <= 1e-10 * oracle
            assert abs(selected_inversion_trace(ev, schedule) - oracle) <= 1e-12 * oracle


# batch_error_trace against the selected-inversion oracle, relative. Over
# seeds 0-9 of every kind at n=6, m=10, r=3 and K in {128, 1024}, on a random
# and the greedy schedule (160 pairs), the largest gap was 2.2e-14
# (discrete-invariant, seed 0, the random schedule, at both horizons).
TRACE_ORACLE_RTOL = 10 * 2.2e-14


@pytest.mark.parametrize("K", [128, 1024])
@pytest.mark.parametrize("kind", [k.value for k in bs.ModelKind])
def test_batch_error_trace_matches_the_selected_inversion_oracle_at_long_horizons(kind, K):
    model, ev, greedy, _ = generated_case(kind, K, 0)
    random = _random_feasible(np.random.default_rng(0), model)
    for schedule in (random, greedy):
        oracle = selected_inversion_trace(ev, schedule)
        assert abs(bs.batch_error_trace(ev, schedule) - oracle) <= TRACE_ORACLE_RTOL * oracle


def test_batch_error_trace_rejects_a_mismatched_schedule():
    ev = bs.build_evaluator(scalar_model())
    with pytest.raises(bs.InvalidArgument):
        bs.batch_error_trace(ev, bs.Schedule.empty(2))
    with pytest.raises(bs.InvalidArgument):
        bs.batch_error_trace(ev, schedule_of([[3]]))


def test_batch_error_trace_names_the_time_index_where_the_covariance_overflows():
    index = overflow_index()
    finite = exploding_scalar_model(horizon=index)
    assert math.isfinite(bs.batch_error_trace(bs.build_evaluator(finite), bs.Schedule.empty(index)))
    model = exploding_scalar_model(horizon=index + 1)
    ev = bs.build_evaluator(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bs.NumericOverflow, match=f"predicted covariance at time index {index} "):
            bs.batch_error_trace(ev, bs.Schedule.empty(model.horizon))
        greedy, _ = bs.greedy_schedule(ev)
        assert math.isfinite(bs.batch_error_trace(ev, greedy))
        # The forward sweep stays finite; P Lambda P overflows going back.
        steep = exploding_scalar_model(horizon=3, growth=1e100)
        with pytest.raises(bs.NumericOverflow, match="total error variance is not finite"):
            bs.batch_error_trace(bs.build_evaluator(steep), bs.Schedule(((0,),) * 3))


def test_measurement_form_equivalence_sample():
    rng = np.random.default_rng(71)
    for model in scenario_stream(15, seed0=99, n_max=3, k_max=4):
        ev = bs.build_evaluator(model)
        schedule = _random_feasible(rng, model)
        info = to_dense(*assemble_information(ev, schedule))
        from_information = np.linalg.inv(info)
        from_measurements = measurement_form_covariance(model, schedule)
        rel = np.linalg.norm(from_information - from_measurements) / np.linalg.norm(
            from_measurements
        )
        assert rel < 1e-6


@pytest.mark.parametrize("horizon", [6, 64])
@pytest.mark.parametrize("growth", [1e6, 1e8, 1e12])
def test_the_trace_oracle_gives_every_measured_slot_of_the_exploding_model_its_closed_form(growth, horizon):
    # Each slot's variance is 1/growth^2 but the last's, 1.
    ev = bs.build_evaluator(exploding_scalar_model(horizon, growth=growth))
    every_slot = schedule_of([[0]] * horizon)
    closed_form = 1.0 + (horizon - 1) / growth**2
    assert abs(selected_inversion_trace(ev, every_slot) - closed_form) <= 1e-12
    if horizon <= 6:
        assert abs(dense_error_trace(ev, every_slot) - closed_form) <= 1e-12


def _assert_the_trace_of_every_measured_slot_is_exact(horizon, growth):
    ev = bs.build_evaluator(exploding_scalar_model(horizon, growth=growth))
    every_slot = schedule_of([[0]] * horizon)
    exact = selected_inversion_trace(ev, every_slot)
    assert abs(bs.batch_error_trace(ev, every_slot) - exact) <= 1e-12 * abs(exact)


@pytest.mark.xfail(
    strict=True,
    reason="the covariance-form measurement update cancels when the predicted variance dwarfs the "
    "noise (CHANGES.md FOUND line 22); the square-root core of ROADMAP item 1 flips this",
)
@pytest.mark.parametrize("growth", [1e6, 1e8, 1e12])
def test_error_trace_where_the_predicted_variance_dwarfs_the_noise(growth):
    _assert_the_trace_of_every_measured_slot_is_exact(6, growth)


@pytest.mark.xfail(
    strict=True,
    raises=(AssertionError, bs.NumericOverflow),
    reason="the cancellation of FOUND line 22 grows with the horizon: 1.0148 and 21.5 where the "
    "truth is 1.0, and NumericOverflow at growth 1e12 (CHANGES.md FOUND line 165); the square-root "
    "core of ROADMAP item 1 flips this",
)
@pytest.mark.parametrize("growth", [1e6, 1e8, 1e12])
def test_error_trace_where_the_predicted_variance_dwarfs_the_noise_over_64_slots(growth):
    _assert_the_trace_of_every_measured_slot_is_exact(64, growth)


def test_assemble_rejects_wrong_horizon():
    ev = bs.build_evaluator(scalar_model())
    with pytest.raises(bs.InvalidArgument):
        assemble_information(ev, bs.Schedule.empty(2))


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


def test_prior_logdet_matches_information_form_oracle():
    for model in scenario_stream(40, seed0=12, n_max=4, k_max=6):
        ev = bs.build_evaluator(model)
        oracle = block_tridiag_logdet(*prior_information(model))
        assert abs(ev.prior_logdet - oracle) <= 1e-12 * max(1.0, abs(oracle))


# values_in_order against objective_logdet, absolute. The two sum the same
# slot terms and differ only in roundoff, which the unstable models carry
# forward through the covariance: over a K = 1024 sweep of n = 6 states,
# where values reach 7e3, the largest difference seen is 2.8e-11 (12 models,
# 16 schedules each); against a long-double version of the same sweep, the
# stacked one is off by up to 2e-11 and objective_logdet by 6e-12. A dropped or
# misplaced row changes a value by a whole sensor gain, orders of magnitude
# more than this bound.
VALUES_ATOL = 1e-10


def _value_cases():
    """(model, schedules) pairs: the criterion 2 and 3 streams (1- and 2-row
    sensors) with empty, full and random schedules, random ones with their
    last slots emptied, and models whose odd slots have a zero budget."""
    rng = np.random.default_rng(8)
    models = list(_criterion_2_models()) + scenario_stream(100, seed0=777, n_max=4, k_max=6)
    for index, model in enumerate(models):
        if index % 3 == 0:
            budgets = tuple(0 if k % 2 else r for k, r in enumerate(model.budgets))
            model = dataclasses.replace(model, budgets=budgets)
        full = bs.Schedule(tuple(tuple(range(r)) for r in model.budgets))
        schedules = [bs.Schedule.empty(model.horizon), full]
        schedules += [_random_feasible(rng, model) for _ in range(4)]
        cut = int(rng.integers(0, model.horizon))
        schedules.append(bs.Schedule(schedules[-1].selections[:cut] + ((),) * (model.horizon - cut)))
        yield model, schedules


def _values(ev, schedules):
    """Every value ``values_in_order`` yields, with numpy's overflow warnings
    silenced as its consumers silence them."""
    with np.errstate(over="ignore", invalid="ignore"):
        return list(objective.values_in_order(ev, schedules))


def _assert_values_match_the_oracle(ev, schedules, values):
    oracle = [bs.objective_logdet(ev, schedule) for schedule in schedules]
    assert len(values) == len(oracle)
    assert np.abs(np.asarray(values) - oracle).max(initial=0.0) <= VALUES_ATOL


def test_values_in_order_match_objective_logdet_on_the_criterion_streams():
    for model, schedules in _value_cases():
        ev = bs.build_evaluator(model)
        # The stacked sweep itself, not a fallback to the oracle.
        _assert_values_match_the_oracle(ev, schedules, objective._stacked_sweep(ev, schedules))
        _assert_values_match_the_oracle(ev, schedules, _values(ev, schedules))
        for schedule in schedules:
            _assert_values_match_the_oracle(ev, [schedule], _values(ev, [schedule]))


def test_values_in_order_of_the_empty_schedule_and_of_none():
    model = bs.random_scenario(seed=3, n=3, m=4, K=5, r=2)
    ev = bs.build_evaluator(model)
    assert _values(ev, [bs.Schedule.empty(5)]) == [-ev.prior_logdet]
    assert _values(ev, []) == []


def test_values_in_order_span_several_chunks():
    model = bs.random_scenario(seed=4, n=3, m=5, K=8, r=2, kind="continuous-variant")
    ev = bs.build_evaluator(model)
    rng = np.random.default_rng(9)
    schedules = [_random_feasible(rng, model) for _ in range(2 * objective.VALUES_CHUNK + 3)]
    _assert_values_match_the_oracle(ev, schedules, _values(ev, schedules))


@pytest.mark.parametrize("K", [128, 256, 1024])
@pytest.mark.parametrize("kind", list(bs.ModelKind))
def test_values_in_order_match_objective_logdet_on_long_generated_models(kind, K):
    model = bs.random_scenario(seed=K, n=6, m=10, K=K, r=3, kind=kind)
    ev = bs.build_evaluator(model)
    rng = np.random.default_rng(K)
    schedules = [_random_feasible(rng, model) for _ in range(8)]
    _assert_values_match_the_oracle(ev, schedules, objective._stacked_sweep(ev, schedules))


def test_values_in_order_evaluate_a_failed_chunk_one_schedule_at_a_time(monkeypatch):
    model = bs.random_scenario(seed=5, n=3, m=4, K=6, r=2)
    ev = bs.build_evaluator(model)
    rng = np.random.default_rng(10)
    schedules = [_random_feasible(rng, model) for _ in range(5)]

    def failing(ev, schedules):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(objective, "_stacked_sweep", failing)
    oracle = [bs.objective_logdet(ev, schedule) for schedule in schedules]
    assert _values(ev, schedules) == oracle


def test_values_in_order_raise_the_oracles_error_for_the_first_failing_schedule():
    # Measurements only at slots 0, 128 and 255 of an unstable model: the
    # stacked factorization fails like objective_logdet's, and the error is
    # the one objective_logdet raises for the first failing schedule.
    model = bs.random_scenario(seed=0, n=6, m=10, K=256, r=3, kind="discrete-invariant")
    budgets = tuple(3 if k in (0, 128, 255) else 0 for k in range(256))
    model = dataclasses.replace(model, budgets=budgets)
    ev = bs.build_evaluator(model)
    rng = np.random.default_rng(1)
    schedules = [_random_feasible(rng, model) for _ in range(6)]
    errors = []
    for schedule in schedules:
        try:
            bs.objective_logdet(ev, schedule)
        except bs.NotPositiveDefinite as exc:
            errors.append(str(exc))
    assert errors
    with pytest.raises(bs.NotPositiveDefinite) as caught:
        _values(ev, schedules)
    assert str(caught.value) == errors[0]


def test_values_in_order_report_an_overflowing_gain_without_a_warning():
    horizon = overflow_index() + 2
    model = exploding_scalar_model(horizon)
    ev = bs.build_evaluator(model)
    late = bs.Schedule(((),) * (horizon - 1) + ((0,),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bs.NumericOverflow) as caught:
            _values(ev, [bs.Schedule.empty(horizon), late])
    assert f"at time index {horizon - 1} is not finite" in str(caught.value)
