"""Interval discretization and the block tri-diagonal prior information."""

import math

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

import batchsched as bs
from batchsched._linalg import chol_pd, logdet_from_cholesky
from helpers import (
    ALL_KINDS,
    dense_prior_covariance,
    per_interval_discretization,
    prior_information,
    scenario_stream,
)


def make_continuous(A, F, W, P1, times, sensors=None, budgets=None):
    n = A.shape[0]
    sensors = sensors or (bs.Sensor(C=np.eye(n), V=np.eye(n)),)
    budgets = budgets or tuple(1 for _ in times)
    return bs.SystemModel(
        kind="continuous-invariant",
        state_dim=n,
        dynamics=A,
        noise_input=F,
        process_noise_cov=W,
        initial_state_cov=P1,
        measurement_times=tuple(times),
        sensors=sensors,
        budgets=budgets,
    )


def quadrature_noise_cov(A, F, W, dt):
    """Independent oracle: numerically integrate exp(As) F W F.T exp(A.T s)."""
    qc = F @ W @ F.T

    def integrand(s):
        e = expm(A * s)
        return e @ qc @ e.T

    value, _ = quad_vec(integrand, 0.0, dt, epsabs=1e-12, epsrel=1e-12)
    return value


def test_zero_dynamics_unit_interval():
    model = make_continuous(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2), [0.0, 1.0])
    prop = bs.discretize_interval(model, 0)
    np.testing.assert_allclose(prop.transition, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(prop.noise_cov, np.eye(2), atol=1e-12)


def test_scalar_closed_form():
    a, dt = 0.7, 0.9
    model = make_continuous(
        np.array([[a]]), np.eye(1), np.eye(1), np.eye(1), [0.0, dt],
        sensors=(bs.Sensor(C=np.eye(1), V=np.eye(1)),),
    )
    prop = bs.discretize_interval(model, 0)
    assert prop.transition[0, 0] == pytest.approx(math.exp(a * dt), rel=1e-12)
    expected_q = (math.exp(2 * a * dt) - 1.0) / (2 * a)
    assert prop.noise_cov[0, 0] == pytest.approx(expected_q, rel=1e-10)


def test_matrix_noise_against_quadrature():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3)) * 0.5
    F = rng.standard_normal((3, 2))
    G = rng.standard_normal((2, 2))
    W = G @ G.T + 0.1 * np.eye(2)
    dt = 0.8
    model = make_continuous(
        A, F, W, np.eye(3), [0.0, dt],
        sensors=(bs.Sensor(C=np.eye(3), V=np.eye(3)),),
    )
    prop = bs.discretize_interval(model, 0)
    np.testing.assert_allclose(prop.transition, expm(A * dt), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(
        prop.noise_cov, quadrature_noise_cov(A, F, W, dt), rtol=1e-8, atol=1e-10
    )


def test_discrete_transition_is_step_matrix():
    model = bs.random_scenario(seed=9, n=3, m=2, K=4, r=1, kind="discrete-variant")
    for j in range(model.horizon - 1):
        prop = bs.discretize_interval(model, j)
        np.testing.assert_array_equal(prop.transition, model.interval_dynamics(j))


def test_discrete_singular_noise_rejected():
    model = bs.SystemModel(
        kind="discrete-invariant",
        state_dim=2,
        dynamics=np.eye(2),
        noise_input=np.array([[1.0], [0.0]]),  # rank-1 injection
        process_noise_cov=np.eye(1),
        initial_state_cov=np.eye(2),
        measurement_times=(1.0, 2.0),
        sensors=(bs.Sensor(C=np.eye(2), V=np.eye(2)),),
        budgets=(1, 1),
    )
    with pytest.raises(bs.NotPositiveDefinite, match="Q_1"):
        bs.discretize_interval(model, 0)
    with pytest.raises(bs.NotPositiveDefinite, match="Q_1"):
        prior_information(model)


def assert_matches_per_interval_oracle(model):
    oracle = per_interval_discretization(model)
    batched = bs.discretize_intervals(model)
    singles = tuple(bs.discretize_interval(model, j) for j in range(model.horizon - 1))
    assert len(batched) == len(singles) == len(oracle) == model.horizon - 1
    for props in (batched, singles):
        for prop, want in zip(props, oracle):
            np.testing.assert_array_equal(prop.transition, want.transition)
            np.testing.assert_array_equal(prop.noise_cov, want.noise_cov)
            assert prop.noise_logdet == want.noise_logdet
            # The layout decides the BLAS calls of every later product.
            assert prop.transition.flags.f_contiguous == want.transition.flags.f_contiguous
            assert prop.transition.flags.c_contiguous == want.transition.flags.c_contiguous
    prior_logdet = logdet_from_cholesky(chol_pd(model.initial_state_cov, "P_1"))
    for want in oracle:
        prior_logdet += want.noise_logdet
    assert bs.build_evaluator(model).prior_logdet == -prior_logdet


# K = 200 spans several batches of DISCRETIZE_BATCH intervals, the last one partial.
@pytest.mark.parametrize("K", [1, 2, 5, 64, 200])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batched_discretization_is_the_per_interval_loop_bit_for_bit(kind, K):
    model = bs.random_scenario(seed=K, n=3, m=2, K=K, r=1, kind=kind)
    assert_matches_per_interval_oracle(model)
    # A scenario file holds lists, not arrays.
    assert_matches_per_interval_oracle(bs.model_from_dict(bs.model_to_dict(model)))


def variant_model(kind, noise_inputs, noise_covs, n=2):
    intervals = len(noise_inputs)
    rng = np.random.default_rng(intervals)
    return bs.SystemModel(
        kind=kind,
        state_dim=n,
        dynamics=[0.3 * rng.standard_normal((n, n)) for _ in range(intervals)],
        noise_input=noise_inputs,
        process_noise_cov=noise_covs,
        initial_state_cov=np.eye(n),
        measurement_times=tuple(0.5 * k + 0.1 * k * k for k in range(intervals + 1)),
        sensors=(bs.Sensor(C=np.eye(n), V=np.eye(n)),),
        budgets=(1,) * (intervals + 1),
    )


@pytest.mark.parametrize("kind", ["continuous-variant", "discrete-variant"])
def test_intervals_with_different_noise_widths_are_accepted_and_discretized(kind):
    widths = (2, 3, 4, 2)
    rng = np.random.default_rng(3)
    noise_inputs = [rng.standard_normal((2, p)) for p in widths]
    noise_covs = [np.eye(p) + 0.1 * np.ones((p, p)) for p in widths]
    model = variant_model(kind, noise_inputs, noise_covs)
    assert [f.shape[1] for f in model.noise_input] == list(widths)
    assert_matches_per_interval_oracle(model)
    assert bs.model_to_dict(bs.model_from_dict(bs.model_to_dict(model))) == bs.model_to_dict(model)


@pytest.mark.parametrize("ragged", [False, True])
def test_singular_discrete_noise_names_its_interval(ragged):
    full = [np.eye(2)] * 4
    singular = np.array([[1.0], [0.0]]) if ragged else np.array([[1.0, 0.0], [0.0, 0.0]])
    noise_inputs = full[:2] + [singular] + full[3:]
    noise_covs = [np.eye(2)] * 2 + [np.eye(singular.shape[1])] + [np.eye(2)]
    model = variant_model("discrete-variant", noise_inputs, noise_covs)
    assert isinstance(model.noise_input, tuple) == ragged
    for props in (bs.discretize_intervals, per_interval_discretization):
        with pytest.raises(bs.NotPositiveDefinite, match=r"^Q_3 is not positive definite"):
            props(model)
    bs.discretize_interval(model, 3)
    with pytest.raises(bs.NotPositiveDefinite, match=r"^Q_3 "):
        bs.discretize_interval(model, 2)


def test_interval_index_range():
    model = bs.random_scenario(seed=1, n=2, m=1, K=2, r=1)
    with pytest.raises(bs.InvalidArgument):
        bs.discretize_interval(model, 1)
    with pytest.raises(bs.InvalidArgument):
        bs.discretize_interval(model, -1)


def scalar_two_step_model():
    return bs.SystemModel(
        kind="discrete-invariant",
        state_dim=1,
        dynamics=np.eye(1),
        noise_input=np.eye(1),
        process_noise_cov=np.eye(1),
        initial_state_cov=np.eye(1),
        measurement_times=(1.0, 2.0),
        sensors=(bs.Sensor(C=np.eye(1), V=np.eye(1)),),
        budgets=(1, 1),
    )


def test_two_step_scalar_information_blocks():
    info = prior_information(scalar_two_step_model())
    np.testing.assert_allclose(info.to_dense(), np.array([[2.0, -1.0], [-1.0, 1.0]]), atol=1e-12)


def test_two_step_scalar_dense_covariance():
    cov = dense_prior_covariance(scalar_two_step_model())
    np.testing.assert_allclose(cov, np.array([[1.0, 1.0], [1.0, 2.0]]), atol=1e-12)


def test_single_time_prior_is_initial_information():
    model = bs.random_scenario(seed=4, n=3, m=2, K=1, r=1)
    info = prior_information(model)
    assert info.block_count == 1 and info.upper == ()
    np.testing.assert_allclose(
        info.diag[0] @ model.initial_state_cov, np.eye(3), atol=1e-10
    )
    np.testing.assert_array_equal(dense_prior_covariance(model), model.initial_state_cov)


def test_information_matches_dense_oracle():
    model = bs.random_scenario(seed=21, n=3, m=2, K=4, r=1, kind="continuous-invariant")
    dense_info = prior_information(model).to_dense()
    oracle = np.linalg.inv(dense_prior_covariance(model))
    rel = np.linalg.norm(dense_info - oracle) / np.linalg.norm(oracle)
    assert rel < 1e-8


def test_inverse_consistency_hundred_scenarios():
    for model in scenario_stream(100, seed0=77, n_max=4, k_max=6):
        dense_info = prior_information(model).to_dense()
        cov = dense_prior_covariance(model)
        size = dense_info.shape[0]
        residual = np.linalg.norm(dense_info @ cov - np.eye(size)) / math.sqrt(size)
        assert residual < 1e-6


def test_prior_information_is_positive_definite():
    for model in scenario_stream(40, seed0=5, n_max=4, k_max=6):
        info = prior_information(model)
        value = bs.block_tridiag_logdet(info)  # raises if any pivot fails
        assert math.isfinite(value)


def test_continuous_discrete_agreement():
    times = (0.0, 1.0, 2.0)
    cont = make_continuous(
        np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2), times,
        budgets=(1, 1, 1),
    )
    disc = bs.SystemModel(
        kind="discrete-invariant",
        state_dim=2,
        dynamics=np.eye(2),
        noise_input=np.eye(2),
        process_noise_cov=np.eye(2),
        initial_state_cov=np.eye(2),
        measurement_times=times,
        sensors=(bs.Sensor(C=np.eye(2), V=np.eye(2)),),
        budgets=(1, 1, 1),
    )
    info_c = prior_information(cont)
    info_d = prior_information(disc)
    np.testing.assert_allclose(info_c.to_dense(), info_d.to_dense(), atol=1e-12)


def test_block_tridiagonal_shape_validation():
    with pytest.raises(bs.DimensionMismatch):
        bs.BlockTridiagonal.from_blocks([np.eye(2), np.eye(3)], [np.eye(2)])
    with pytest.raises(bs.DimensionMismatch):
        bs.BlockTridiagonal.from_blocks([np.eye(2), np.eye(2)], [])
    tri = bs.BlockTridiagonal.from_blocks([np.array([[1.0, 2.0], [0.0, 1.0]])], [])
    np.testing.assert_allclose(tri.diag[0], np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_variant_kinds_match_dense_oracle():
    for kind in ("continuous-variant", "discrete-variant"):
        model = bs.random_scenario(seed=13, n=2, m=2, K=4, r=1, kind=kind)
        dense_info = prior_information(model).to_dense()
        oracle = np.linalg.inv(dense_prior_covariance(model))
        rel = np.linalg.norm(dense_info - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-8
