"""Interval discretization and the block tri-diagonal prior information."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

import batchsched as bs
from batchsched import prior
from batchsched._linalg import chol_pd, logdet_from_cholesky
from helpers import (
    ALL_KINDS,
    block_tridiag_logdet,
    dense_prior_covariance,
    halving_scalar_model,
    interval_matrices,
    per_block_prior_information,
    per_interval_discretization,
    prior_information,
    scenario_stream,
    to_dense,
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
    phi, q, _ = bs.discretize_interval(model, 0)
    np.testing.assert_allclose(phi, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(q, np.eye(2), atol=1e-12)


def test_scalar_closed_form():
    a, dt = 0.7, 0.9
    model = make_continuous(
        np.array([[a]]), np.eye(1), np.eye(1), np.eye(1), [0.0, dt],
        sensors=(bs.Sensor(C=np.eye(1), V=np.eye(1)),),
    )
    phi, q, _ = bs.discretize_interval(model, 0)
    assert phi[0, 0] == pytest.approx(math.exp(a * dt), rel=1e-12)
    expected_q = (math.exp(2 * a * dt) - 1.0) / (2 * a)
    assert q[0, 0] == pytest.approx(expected_q, rel=1e-10)


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
    phi, q, _ = bs.discretize_interval(model, 0)
    np.testing.assert_allclose(phi, expm(A * dt), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(q, quadrature_noise_cov(A, F, W, dt), rtol=1e-8, atol=1e-10)


def test_discrete_transition_is_step_matrix():
    model = bs.random_scenario(seed=9, n=3, m=2, K=4, r=1, kind="discrete-variant")
    for j in range(model.horizon - 1):
        phi, _, _ = bs.discretize_interval(model, j)
        np.testing.assert_array_equal(phi, model.dynamics[j])


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
    stacks = bs.discretize_intervals(model)
    ev = bs.build_evaluator(model)
    shape = (model.horizon - 1, model.state_dim, model.state_dim)
    for stack, kept in zip(stacks, (ev.transitions, ev.noise_covs, ev.noise_factors)):
        assert stack.shape == kept.shape == shape
        assert not stack.flags.writeable and not kept.flags.writeable
        if len(stack) > 1:
            # The discrete-invariant kind's stacks repeat one matrix with no copies.
            assert (stack.strides[0] == 0) == (model.kind is bs.ModelKind.DISCRETE_INVARIANT)
    batched = zip(*stacks)
    singles = (bs.discretize_interval(model, j) for j in range(model.horizon - 1))
    for intervals in (batched, singles, zip(ev.transitions, ev.noise_covs, ev.noise_factors)):
        intervals = tuple(intervals)
        assert len(intervals) == len(oracle)
        for (phi, q, lower), (phi_want, q_want, lower_want) in zip(intervals, oracle):
            np.testing.assert_array_equal(phi, phi_want)
            np.testing.assert_array_equal(q, q_want)
            np.testing.assert_array_equal(lower, lower_want)
            assert logdet_from_cholesky(lower) == logdet_from_cholesky(lower_want)
            # The layout decides the BLAS calls of every later product.
            assert phi.flags.f_contiguous == phi_want.flags.f_contiguous
            assert phi.flags.c_contiguous == phi_want.flags.c_contiguous
    # The evaluator sums the same logdets in another order, with numpy's log:
    # each of the K n logs and sums may round, by at most eps of the terms'
    # magnitude.
    terms = [logdet_from_cholesky(chol_pd(model.initial_state_cov, "P_1"))]
    terms += [logdet_from_cholesky(lower) for _, _, lower in oracle]
    bound = model.horizon * model.state_dim * np.finfo(float).eps * sum(map(abs, terms))
    assert abs(ev.prior_logdet + math.fsum(terms)) <= bound


# K = 200 discretizes 199 intervals in one stacked call.
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
    for discretize in (bs.discretize_intervals, per_interval_discretization):
        with pytest.raises(bs.NotPositiveDefinite, match=r"^Q_3 is not positive definite"):
            discretize(model)
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
    np.testing.assert_allclose(to_dense(*info), np.array([[2.0, -1.0], [-1.0, 1.0]]), atol=1e-12)


def test_two_step_scalar_dense_covariance():
    cov = dense_prior_covariance(scalar_two_step_model())
    np.testing.assert_allclose(cov, np.array([[1.0, 1.0], [1.0, 2.0]]), atol=1e-12)


def test_single_time_prior_is_initial_information():
    model = bs.random_scenario(seed=4, n=3, m=2, K=1, r=1)
    diag, upper = prior_information(model)
    assert len(diag) == 1 and len(upper) == 0
    np.testing.assert_allclose(
        diag[0] @ model.initial_state_cov, np.eye(3), atol=1e-10
    )
    np.testing.assert_array_equal(dense_prior_covariance(model), model.initial_state_cov)


def test_information_matches_dense_oracle():
    model = bs.random_scenario(seed=21, n=3, m=2, K=4, r=1, kind="continuous-invariant")
    dense_info = to_dense(*prior_information(model))
    oracle = np.linalg.inv(dense_prior_covariance(model))
    rel = np.linalg.norm(dense_info - oracle) / np.linalg.norm(oracle)
    assert rel < 1e-8


def test_inverse_consistency_hundred_scenarios():
    for model in scenario_stream(100, seed0=77, n_max=4, k_max=6):
        dense_info = to_dense(*prior_information(model))
        cov = dense_prior_covariance(model)
        size = dense_info.shape[0]
        residual = np.linalg.norm(dense_info @ cov - np.eye(size)) / math.sqrt(size)
        assert residual < 1e-6


def test_prior_information_is_positive_definite():
    for model in scenario_stream(40, seed0=5, n_max=4, k_max=6):
        info = prior_information(model)
        value = block_tridiag_logdet(*info)  # raises if any pivot fails
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
    np.testing.assert_allclose(to_dense(*info_c), to_dense(*info_d), atol=1e-12)


def test_variant_kinds_match_dense_oracle():
    for kind in ("continuous-variant", "discrete-variant"):
        model = bs.random_scenario(seed=13, n=2, m=2, K=4, r=1, kind=kind)
        dense_info = to_dense(*prior_information(model))
        oracle = np.linalg.inv(dense_prior_covariance(model))
        rel = np.linalg.norm(dense_info - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-8


@pytest.mark.parametrize("K", [1, 2, 7, 33])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_stacked_prior_information_matches_the_per_block_formula(kind, K):
    for n in (1, 2, 3, 4):
        model = bs.random_scenario(seed=K + 10 * n, n=n, m=2, K=K, r=1, kind=kind)
        ev = bs.build_evaluator(model)
        diag, upper = bs.build_prior_information(ev.initial_cov, ev.transitions, ev.noise_covs)
        assert diag.shape == (K, n, n) and upper.shape == (K - 1, n, n)
        assert not diag.flags.writeable and not upper.flags.writeable
        want_diag, want_upper = per_block_prior_information(ev.initial_cov, ev.transitions, ev.noise_covs)
        for got, want in ((diag, want_diag), (upper, want_upper)):
            want = np.reshape(want, got.shape)
            if want.size:
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("singular", ["P_1", "Q_1", "Q_3"])
def test_prior_information_names_its_singular_covariance(singular):
    model = bs.random_scenario(seed=3, n=2, m=2, K=5, r=1, kind="continuous-variant")
    ev = bs.build_evaluator(model)
    initial_cov, noise_covs = ev.initial_cov, ev.noise_covs.copy()
    rank_one = np.array([[1.0, 1.0], [1.0, 1.0]])
    if singular == "P_1":
        initial_cov = rank_one
    else:
        noise_covs[int(singular[2:]) - 1] = rank_one
    for build in (bs.build_prior_information, per_block_prior_information):
        with pytest.raises(bs.NotPositiveDefinite, match=rf"^{singular} is not positive definite"):
            build(initial_cov, ev.transitions, noise_covs)


def van_loan_blocks(model):
    """M = [[-A, F W F.T], [0, A.T]] * dt of every interval of a continuous model."""
    n = model.state_dim
    blocks = []
    for j in range(model.horizon - 1):
        a, f, w = interval_matrices(model, j)
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n], block[:n, n:], block[n:, n:] = -a, f @ w @ f.T, a.T
        blocks.append(block * (model.measurement_times[j + 1] - model.measurement_times[j]))
    return np.array(blocks)


def norm_gap(got, want):
    """The 1-norm of the error of each matrix of a stack relative to the 1-norm of its reference."""
    return np.abs(got - want).sum(axis=-2).max(axis=-1) / np.abs(want).sum(axis=-2).max(axis=-1)


CONTINUOUS_KINDS = ("continuous-invariant", "continuous-variant")


def test_exponential_matches_scipy_on_the_van_loan_blocks_of_the_continuous_streams():
    # scipy.linalg.expm chooses its scaling by another rule (Al-Mohy and
    # Higham 2009), and it is the less accurate of the two on some of these
    # blocks (against 40-digit values): the gap is scipy's error as much as ours.
    models = scenario_stream(100, seed0=3, n_max=5, k_max=6, kinds=CONTINUOUS_KINDS)
    models += [bs.random_scenario(seed=s, n=6, m=2, K=16, r=1, kind=kind) for s in range(10) for kind in CONTINUOUS_KINDS]
    gaps = []
    for blocks in (van_loan_blocks(model) for model in models if model.horizon > 1):
        gaps.extend(norm_gap(prior.expm(blocks), np.array([expm(block) for block in blocks])))
    assert len(gaps) > 250
    assert max(gaps) <= 2e-12


def mp_expm(a):
    """exp(a) from 40-digit arithmetic, rounded to doubles."""
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix(a.tolist()), method="taylor")
        return np.array(e.tolist(), dtype=float)


@pytest.mark.parametrize("norm, squarings", [
    (1e-8, 0), (1e-5, 0), (1e-3, 0), (0.2, 0), (0.9, 0), (2.0, 0), (5.0, 0), (50.0, 4), (700.0, 8),
])
def test_exponential_against_40_digits_from_tiny_to_squared_norms(norm, squarings):
    # Every matrix takes the degree-13 approximant, the tiny ones included;
    # the last two 1-norms lie past theta_13, so they are scaled and squared,
    # and the tolerance grows with the squarings, which amplify the roundoff.
    rng = np.random.default_rng(int(norm * 1000))
    stack = rng.standard_normal((3, 4, 4))
    stack *= norm / np.abs(stack).sum(axis=1).max(axis=1)[:, None, None]
    assert squarings == max(0, math.ceil(math.log2(norm / prior.PADE_THETA)))
    want = np.array([mp_expm(a) for a in stack])
    assert norm_gap(prior.expm(stack), want).max() <= 4e-15 * 2 ** squarings


def test_exponential_of_zero_diagonal_and_non_finite_matrices():
    np.testing.assert_array_equal(prior.expm(np.zeros((2, 3, 3))), np.broadcast_to(np.eye(3), (2, 3, 3)))
    diagonal = np.diag([-30.0, -3.0, 1e-9, 0.5, 2.0, 30.0])
    got = prior.expm(diagonal[None])[0]
    want = np.diag([math.exp(x) for x in np.diag(diagonal)])
    assert np.all(got[want == 0] == 0)
    np.testing.assert_allclose(np.diag(got), np.diag(want), rtol=1e-13)
    # A matrix whose 1-norm is not finite gives NaN and spoils no other.
    stack = np.stack([np.full((2, 2), 1e308), np.eye(2), np.array([[np.inf, 0], [0, 1]])])
    got = prior.expm(stack)
    assert np.isnan(got[0]).all() and np.isnan(got[2]).all()
    np.testing.assert_array_equal(got[1], prior.expm(np.eye(2)[None])[0])


def mp_van_loan(a, noise):
    """Phi and Q of ``prior.van_loan`` from a 40-digit exponential of the
    unbalanced block, rounded to doubles."""
    n = len(a)
    with mpmath.workdps(40):
        block = mpmath.matrix(2 * n)
        for i in range(n):
            for j in range(n):
                block[i, j], block[i, n + j], block[n + i, n + j] = -a[i, j], noise[i, j], a[j, i]
        e = mpmath.expm(block, method="taylor")
        phi = e[n:, n:].T
        q = phi * e[:n, n:]
        return np.array(phi.tolist(), dtype=float), np.array(q.tolist(), dtype=float)


@pytest.mark.parametrize("a_norm", [1e-3, 1.0])
@pytest.mark.parametrize("ratio", [1.0, 1e2, 1e4, 1e6])
def test_van_loan_against_40_digits_however_large_the_noise(a_norm, ratio):
    # A noise block 10^6 times the dynamics would set 20 squarings by the
    # block's own norm, and they would cost Phi five digits; balancing the
    # block keeps both results at the roundoff of one exponential.
    rng = np.random.default_rng(int(ratio))
    a = rng.standard_normal((3, 3, 3))
    a *= a_norm / np.abs(a).sum(axis=1).max(axis=1)[:, None, None]
    g = rng.standard_normal((3, 3, 3))
    noise = g @ g.swapaxes(1, 2)
    noise *= a_norm * ratio / np.abs(noise).sum(axis=1).max(axis=1)[:, None, None]
    phi, q = prior.van_loan(a, noise)
    want = [mp_van_loan(*pair) for pair in zip(a, noise)]
    assert norm_gap(phi, np.array([p for p, _ in want])).max() <= 2e-15
    assert norm_gap(q, np.array([q for _, q in want])).max() <= 2e-15


def test_a_noise_variance_past_half_the_double_range_discretizes():
    # W = 1e308: Q_1's symmetric part, taken as (Q + Q.T) / 2, overflowed, and
    # the interval was reported as leaving the double range.
    model = halving_scalar_model(w=1e308)
    _, noise_covs, _ = prior.discretize_intervals(model)
    assert noise_covs.tolist() == [[[1e308]], [[1e308]]]
    ev = bs.build_evaluator(model)
    assert math.isfinite(bs.objective_logdet(ev, bs.greedy_schedule(ev)[0]))
