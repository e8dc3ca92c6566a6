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
from batchsched.analysis import _random_feasible, random_schedule
from helpers import (
    MPMATH_TRACE_RTOL,
    assemble_information,
    block_tridiag_logdet,
    dense_error_trace,
    dense_logdet,
    dense_prior_covariance,
    exploding_scalar_model,
    generated_case,
    huge_sensor_model,
    measurement_form_covariance,
    mpmath_error_trace,
    overflow_index,
    oracle_objective,
    prior_information,
    random_block_tridiagonal_pd,
    root_entering,
    schedule_of,
    scenario_stream,
    selected_inversion_trace,
    sparse_unstable_model,
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
    for name in ("initial_cov", "transitions", "noise_covs", "noise_factors", "padded", "initial_root",
                 "time_rows", "trailing_logdet", "upper"):
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


def _update(ev, roots, white):
    """The sweep's measurement update: the closing terms -2 log|det R+| and
    the factors R+ as the QR left them, reflectors below the diagonal."""
    diagonal, factors = objective.sweep_step(ev, roots, white, 0, False)
    return objective.sweep_terms(diagonal), factors


def _covariance_form_gain(root, white):
    """logdet(I + W P W.T) for P = (R~.T R~)^-1, through the dense inverse."""
    cov = np.linalg.inv(root.T @ root)
    return dense_logdet(np.eye(len(white)) + white @ cov @ white.T)


def test_one_update_of_every_sensor_equals_one_update_per_sensor(monkeypatch):
    # The greedy's step against the per-candidate one: 1- and 2-row sensors,
    # factors conditioned by earlier slots, and a 60-sensor model. The gains
    # and factors are bit for bit those of one call per sensor, and each
    # gain is the covariance form's to roundoff. Every sensor is one QR of
    # its padded block under the factor, so the cost stays linear in the
    # sensor count.
    rng = np.random.default_rng(8)
    models = scenario_stream(40, seed0=5, n_max=4, m_max=5, k_max=3)
    models.append(bs.random_scenario(seed=6, n=6, m=60, K=3, r=3))
    original = objective.lapack_qr

    for model in models:
        ev = bs.build_evaluator(model)
        m, widest, n = ev.padded[:-1].shape
        slots = _random_feasible(rng, model).selections
        swept, _ = root_entering(ev, slots, model.horizon - 1)
        for root in (ev.initial_root, swept):
            factored = []

            def counted(a):
                factored.append(a.shape)
                return original(a)

            with monkeypatch.context() as patch:
                patch.setattr(objective, "lapack_qr", counted)
                closing, factors = _update(ev, root, ev.padded[:-1])
            assert factored == [(m, n + widest, n)]
            before = float(objective.sweep_terms(root.diagonal()))
            for i in range(m):
                one, factor = _update(ev, root, ev.padded[i:i + 1])
                assert closing[i] == one[0]
                np.testing.assert_array_equal(factors[i], factor[0])
                conditioned = np.triu(factors[i])
                np.testing.assert_allclose(conditioned.T @ conditioned, root.T @ root + ev.whitened[i].T @ ev.whitened[i],
                                           rtol=1e-9, atol=1e-9)
                reference = _covariance_form_gain(root, ev.whitened[i])
                assert abs(before - closing[i] - reference) <= 1e-9 * max(1.0, abs(reference))


def test_the_update_where_the_information_along_one_axis_is_tiny():
    # A factor whose information along axis 35 is 1e-600, a variance past
    # the double range: the covariance form cannot hold it, and the update
    # still gives the gain of the sensor on that axis, log(1 + 1e600), and
    # log 2 for every other sensor.
    ev = bs.build_evaluator(axis_sensor_model(40))
    root = np.eye(40)
    root[35, 35] = 1e-300
    closing, factors = _update(ev, root, ev.padded[:-1])
    # -2 log|det R~| is 600 log 10 here: each sensor's gain is that less its closing term.
    gains = 600 * math.log(10) - closing
    assert abs(gains[35] - 600 * math.log(10)) <= 1e-12 * gains[35]
    assert np.allclose(np.delete(gains, 35), math.log(2), rtol=1e-12)
    assert np.allclose(np.abs(factors[35].diagonal()), 1.0, rtol=1e-12)


STACKING_MODELS = dict(stacking_models())


@pytest.mark.parametrize("label", [*sorted(STACKING_MODELS), "m60"])
def test_the_update_on_a_stack_of_factors_equals_the_one_factor_calls(label):
    # Sensors of 1, 2 and 3 rows in mixed order and a 60-sensor model: the
    # closing terms and factors at a (schedules, slots, n, n) stack of
    # factors equal, bit for bit, the one-factor call at each member.
    model = STACKING_MODELS.get(label) or bs.random_scenario(seed=6, n=6, m=60, K=3, r=3)
    ev = bs.build_evaluator(model)
    rng = np.random.default_rng(12)
    slots = [_random_feasible(rng, model).selections for _ in range(3)]
    roots = np.array([[root_entering(ev, s, k)[0] for k in range(model.horizon)] for s in slots])
    stacked, factors = _update(ev, roots[:, :, None], np.broadcast_to(ev.padded[:-1], roots.shape[:2] + ev.padded[:-1].shape))
    assert stacked.shape == roots.shape[:2] + (model.sensor_count,)
    assert factors.shape == roots.shape[:2] + (model.sensor_count,) + roots.shape[2:]
    for p in range(len(slots)):
        for k in range(model.horizon):
            gains, one = _update(ev, roots[p, k], ev.padded[:-1])
            np.testing.assert_array_equal(stacked[p, k], gains)
            np.testing.assert_array_equal(factors[p, k], one)


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
        # Every slot measured: each variance is 1/growth^2 but the last's, 1.
        # The covariance form's backward pass overflowed here.
        steep = exploding_scalar_model(horizon=3, growth=1e100)
        variance = bs.batch_error_trace(bs.build_evaluator(steep), bs.Schedule(((0,),) * 3))
        assert variance == pytest.approx(1.0 + 2 / 1e100**2, rel=1e-12, abs=0)


def test_a_measured_sensor_past_the_double_range_names_its_time_index():
    # Sensor 0's whitened row has a squared norm past the double range, so
    # the first objective term is not finite; the trace sweeps it the same way.
    ev = bs.build_evaluator(huge_sensor_model(r=1))
    schedule = schedule_of([[0], [], []])
    for evaluate in (bs.objective_logdet, bs.batch_error_trace):
        with pytest.raises(bs.NumericOverflow, match="^objective term at time index 0 is not finite"):
            evaluate(ev, schedule)


def test_batch_error_trace_names_the_time_index_where_the_smoothed_covariance_overflows():
    # Phi = 1e-200 I decouples the slots, so Sigma_00 is about P_1 = 1e308 I
    # and the trace, about 2e308, passes the double range at slot 0, while
    # the value of the schedule that measures slot 1 is finite.
    eye = np.eye(2)
    model = bs.SystemModel(
        kind="discrete-invariant",
        state_dim=2,
        dynamics=1e-200 * eye,
        noise_input=eye,
        process_noise_cov=eye,
        initial_state_cov=1e308 * eye,
        measurement_times=(1.0, 2.0),
        sensors=(bs.Sensor(C=eye, V=eye),),
        budgets=(0, 1),
    )
    ev = bs.build_evaluator(model)
    schedule = schedule_of([[], [0]])
    assert math.isfinite(bs.objective_logdet(ev, schedule))
    with pytest.raises(bs.NumericOverflow, match="^smoothed covariance at time index 0 is not finite"):
        bs.batch_error_trace(ev, schedule)


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


@pytest.mark.parametrize("growth", [1e6, 1e8, 1e12])
def test_error_trace_where_the_predicted_variance_dwarfs_the_noise(growth):
    _assert_the_trace_of_every_measured_slot_is_exact(6, growth)


@pytest.mark.parametrize("growth", [1e6, 1e8, 1e12])
def test_error_trace_where_the_predicted_variance_dwarfs_the_noise_over_64_slots(growth):
    _assert_the_trace_of_every_measured_slot_is_exact(64, growth)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_both_traces_match_the_mpmath_reference_after_long_unmeasured_unstable_stretches(seed):
    model = sparse_unstable_model(seed)
    ev = bs.build_evaluator(model)
    greedy, _ = bs.greedy_schedule(ev)
    random = random_schedule(np.random.default_rng(seed), model.sensor_count, model.budgets)
    for schedule in (greedy, random):
        reference = mpmath_error_trace(ev, schedule)
        assert abs(bs.batch_error_trace(ev, schedule) - reference) <= MPMATH_TRACE_RTOL * reference
        assert abs(selected_inversion_trace(ev, schedule) - reference) <= MPMATH_TRACE_RTOL * reference


@pytest.mark.parametrize("K, growth, expected", [
    (6, 1e6, -138.1551055797), (6, 1e8, -184.206807439524), (6, 1e12, -276.310211159285),
    (64, 1e8, -2321.005773737998),
])
def test_objective_of_every_measured_slot_where_the_predicted_variance_dwarfs_the_noise(K, growth, expected):
    # CHANGES.md line 199: the covariance form gave -147.37, -165.79 and
    # -1548.03 for the last three, with no error.
    ev = bs.build_evaluator(exploding_scalar_model(K, growth))
    schedule = bs.Schedule(((0,),) * K)
    oracle = oracle_objective(ev, schedule)
    assert abs(oracle - expected) <= 1e-12 * abs(expected)
    assert abs(bs.objective_logdet(ev, schedule) - oracle) <= 1e-12 * abs(oracle)
    assert abs(objective.stacked_values(ev, [schedule])[0] - oracle) <= 1e-12 * abs(oracle)


def _truncated(model, horizon):
    """The model's first ``horizon`` slots."""
    data = bs.model_to_dict(model)
    data["measurement_times"] = data["measurement_times"][:horizon]
    data["budgets"] = data["budgets"][:horizon]
    if model.kind.variant:
        for key in ("dynamics", "noise_input", "process_noise_cov"):
            data[key] = data[key][:horizon - 1]
    return bs.model_from_dict(data)


@pytest.mark.parametrize("last", [0, 10, 40])
@pytest.mark.parametrize("kind", list(bs.ModelKind))
def test_the_sweep_stops_at_the_last_measured_slot(kind, last):
    # At K=1024 the information form fails on the whole model (D_1024), so
    # the oracle runs on the slots up to the last measured one; each later
    # interval adds logdet Q_j to the objective.
    model = bs.random_scenario(seed=5, n=6, m=10, K=1024, r=3, kind=kind)
    ev = bs.build_evaluator(model)
    rng = np.random.default_rng(last)
    head = _random_feasible(rng, model).selections[:last] + ((0, 2),)
    schedule = bs.Schedule(head + ((),) * (1023 - last))
    short = _truncated(model, last + 1)
    tail = sum(dense_logdet(q) for q in ev.noise_covs[last:])
    expected = oracle_objective(bs.build_evaluator(short), bs.Schedule(head)) + tail
    empty = bs.Schedule.empty(1024)
    values = objective.stacked_values(ev, [schedule, empty, schedule])
    for value in (bs.objective_logdet(ev, schedule), values[0], values[2]):
        assert abs(value - expected) <= 1e-12 * abs(expected)
    assert bs.objective_logdet(ev, empty) == values[1] == -ev.prior_logdet


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
    """``stacked_values`` as a list. No numpy error state is set, so an
    overflow or invalid-value warning in the sweep fails the test."""
    return objective.stacked_values(ev, schedules).tolist()


def _assert_values_match_the_oracle(ev, schedules, values):
    oracle = [bs.objective_logdet(ev, schedule) for schedule in schedules]
    assert values == oracle


def test_stacked_values_match_objective_logdet_on_the_criterion_streams():
    for model, schedules in _value_cases():
        ev = bs.build_evaluator(model)
        _assert_values_match_the_oracle(ev, schedules, _values(ev, schedules))
        for schedule in schedules:
            _assert_values_match_the_oracle(ev, [schedule], _values(ev, [schedule]))


def test_stacked_values_of_the_empty_schedule():
    model = bs.random_scenario(seed=3, n=3, m=4, K=5, r=2)
    ev = bs.build_evaluator(model)
    assert _values(ev, [bs.Schedule.empty(5)]) == [-ev.prior_logdet]


@pytest.mark.parametrize("K", [128, 256, 1024])
@pytest.mark.parametrize("kind", list(bs.ModelKind))
def test_stacked_values_match_objective_logdet_on_long_generated_models(kind, K):
    model = bs.random_scenario(seed=K, n=6, m=10, K=K, r=3, kind=kind)
    ev = bs.build_evaluator(model)
    rng = np.random.default_rng(K)
    schedules = [_random_feasible(rng, model) for _ in range(8)]
    _assert_values_match_the_oracle(ev, schedules, _values(ev, schedules))
    _assert_values_match_the_oracle(ev, schedules[:1], _values(ev, schedules[:1]))
