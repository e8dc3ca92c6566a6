"""Shared test utilities: deterministic scenario streams, dense oracles and
the information-form oracle on (diag, upper) stacks of blocks."""

from __future__ import annotations

import dataclasses
import functools
import heapq
import math
from itertools import chain, combinations, product

import mpmath
import numpy as np
from scipy.linalg import block_diag, solve_triangular

import batchsched as bs
from batchsched._linalg import chol_pd, logdet_from_cholesky, sym
from batchsched.model import _random_spd
from batchsched.prior import van_loan

ALL_KINDS = tuple(bs.ModelKind)


def scenario_stream(count, seed0=0, n_max=3, m_max=4, k_max=3, r_max=2, kinds=ALL_KINDS):
    """Deterministic list of small random models with mixed dimensions."""
    rng = np.random.default_rng(seed0)
    models = []
    for idx in range(count):
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, m_max + 1))
        k = int(rng.integers(1, k_max + 1))
        r = int(rng.integers(1, min(r_max, m) + 1))
        kind = kinds[idx % len(kinds)]
        models.append(
            bs.random_scenario(seed=seed0 * 100_003 + idx, n=n, m=m, K=k, r=r, kind=kind)
        )
    return models


def iter_feasible_schedules(model):
    """Every feasible schedule, in lexicographic order of the slot tuples: the
    plain enumeration that the exhaustive search and its count are checked against."""
    per_slot = [
        sorted(chain.from_iterable(combinations(range(model.sensor_count), size) for size in range(r + 1)))
        for r in model.budgets
    ]
    return (bs.Schedule(slots) for slots in product(*per_slot))


def schedule_of(sets):
    """The schedule selecting each slot's sensors, given in any order."""
    return bs.Schedule(tuple(tuple(sorted({int(i) for i in s})) for s in sets))


def interval_matrices(model, j):
    """A, F and W of interval j (0-based); time-invariant kinds store one of each."""
    fields = (model.dynamics, model.noise_input, model.process_noise_cov)
    return tuple(field[j if model.kind.variant else 0] for field in fields)


def prior_information(model):
    """(diag, upper) stacks of a model's prior information, every interval discretized."""
    transitions, noise_covs, _ = bs.discretize_intervals(model)
    return bs.build_prior_information(model.initial_state_cov, transitions, noise_covs)


def pd_inverse(a, name):
    """Inverse of a positive-definite matrix; raises NotPositiveDefinite naming ``name``."""
    lower = chol_pd(a, name)
    inv_lower = solve_triangular(lower, np.eye(a.shape[0]), lower=True)
    return sym(inv_lower.T @ inv_lower)


def per_block_prior_information(initial_cov, transitions, noise_covs):
    """``build_prior_information`` one block at a time, each P_1 and Q_j inverted
    on its own: the oracle for its stacked factorization and solve."""
    p1_inv = pd_inverse(initial_cov, "P_1")
    q_inv = [pd_inverse(q, f"Q_{j + 1}") for j, q in enumerate(noise_covs)]
    # Block k starts from P_1^-1 or Q_{k-1}^-1; interval k adds to it.
    diag = [p1_inv] + q_inv
    for k, (phi, q_inv_k) in enumerate(zip(transitions, q_inv)):
        diag[k] = diag[k] + phi.T @ q_inv_k @ phi
    upper = [-(phi.T @ q_inv_k) for phi, q_inv_k in zip(transitions, q_inv)]
    return [sym(b) for b in diag], upper


def to_dense(diag, upper):
    """Dense form of the symmetric block tri-diagonal matrix with diagonal
    blocks ``diag`` and super-diagonal blocks ``upper``; block (k+1, k) is
    upper[k].T."""
    n, count = len(diag[0]), len(diag)
    out = np.zeros((n * count, n * count))
    for k, b in enumerate(diag):
        out[k * n:(k + 1) * n, k * n:(k + 1) * n] = b
    for k, b in enumerate(upper):
        out[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = b
        out[(k + 1) * n:(k + 2) * n, k * n:(k + 1) * n] = b.T
    return out


def assemble_information(ev, schedule):
    """(diag, upper) stacks of the prior information plus
    C_i.T V_i^-1 C_i = W_i.T W_i per scheduled sensor.

    Built from the evaluator's stored intervals, so no interval is
    discretized again.
    """
    schedule.check_shape(ev.horizon, ev.sensor_count)
    diag, upper = bs.build_prior_information(ev.initial_cov, ev.transitions, ev.noise_covs)
    diag = diag.copy()
    for k, slot in enumerate(schedule.selections):
        if slot:
            total = diag[k].copy()
            for i in slot:
                total += ev.whitened[i].T @ ev.whitened[i]
            diag[k] = sym(total)
    return diag, upper


def block_tridiag_logdet(diag, upper):
    """Log-determinant of a positive-definite symmetric block tri-diagonal matrix.

    Forward block Schur recursion: D_1 = diag_1 and
    D_k = diag_k - upper_{k-1}.T D_{k-1}^-1 upper_{k-1}; the log determinant
    is the sum of the D_k log determinants, each read off a Cholesky factor,
    which raises NotPositiveDefinite naming the first D_k that fails.
    Single pass, K block operations.
    """
    total = 0.0
    d = diag[0]
    for k in range(len(diag)):
        lower = chol_pd(d, f"D_{k + 1}")
        total += logdet_from_cholesky(lower)
        if k + 1 < len(diag):
            # lower^-1 upper_k, so that D_{k+1} subtracts its Gram matrix.
            half = solve_triangular(lower, upper[k], lower=True)
            d = sym(diag[k + 1] - half.T @ half)
    return total


def per_interval_discretization(model):
    """Every interval discretized on its own, one ``prior.van_loan`` and one
    Cholesky factorization each: the oracle for the batched
    ``discretize_intervals``. One (Phi_j, Q_j, lower Cholesky factor of Q_j)
    triple per interval."""
    intervals = []
    for j in range(model.horizon - 1):
        a, f, w = interval_matrices(model, j)
        if model.kind.continuous:
            dt = model.measurement_times[j + 1] - model.measurement_times[j]
            phi, q = van_loan((a * dt)[None], (f @ w @ f.T * dt)[None])
            phi, q = np.array(phi[0]), sym(q[0])
        else:
            phi = np.array(a)
            q = sym(f @ w @ f.T)
        intervals.append((phi, q, chol_pd(q, f"Q_{j + 1}")))
    return tuple(intervals)


@functools.lru_cache(maxsize=None)
def generated_case(kind, K, seed):
    """``random_scenario(seed, n=6, m=10, K, r=3, kind)``, its evaluator, and
    their greedy schedule and trace; built once per test session and shared,
    so none of them may be changed."""
    model = bs.random_scenario(seed=seed, n=6, m=10, K=K, r=3, kind=kind)
    ev = bs.build_evaluator(model)
    return (model, ev, *bs.greedy_schedule(ev))


def stable_model(horizon, n=8, m=3, r=2, seed=99):
    """Discrete-invariant model with contracting dynamics, for timings over the horizon."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sensors = tuple(bs.Sensor(C=rng.standard_normal((1, n)), V=np.eye(1)) for _ in range(m))
    return bs.SystemModel(
        kind="discrete-invariant",
        state_dim=n,
        dynamics=0.95 * q,
        noise_input=np.eye(n),
        process_noise_cov=np.eye(n),
        initial_state_cov=np.eye(n),
        measurement_times=tuple(float(k + 1) for k in range(horizon)),
        sensors=sensors,
        budgets=tuple(r for _ in range(horizon)),
    )


def stacking_models():
    """(label, model) pairs for checking the stacked model preparation against
    per-matrix oracles: every kind at K = 1, 2 and 64, a continuous-variant
    model whose noise widths differ between intervals, and one with sensors
    of 1, 2 and 3 rows in mixed index order."""
    cases = [
        (f"{kind.value}-K{K}", bs.random_scenario(seed=K, n=3, m=6, K=K, r=2, kind=kind))
        for kind in ALL_KINDS
        for K in (1, 2, 64)
    ]
    rng = np.random.default_rng(21)
    n, widths = 3, (2, 3, 4, 2)
    sensors = tuple(bs.Sensor(C=rng.standard_normal((d, n)), V=_random_spd(rng, d)) for d in (3, 1, 2, 1, 3, 2, 2))
    cases.append(("widths-and-rows", bs.SystemModel(
        kind="continuous-variant",
        state_dim=n,
        dynamics=[0.3 * rng.standard_normal((n, n)) for _ in widths],
        noise_input=[rng.standard_normal((n, p)) for p in widths],
        process_noise_cov=[_random_spd(rng, p) for p in widths],
        initial_state_cov=_random_spd(rng, n),
        measurement_times=tuple(0.5 * k + 0.1 * k * k for k in range(len(widths) + 1)),
        sensors=sensors,
        budgets=(2,) * (len(widths) + 1),
    )))
    cases.append(("rows-1-2-3", bs.SystemModel(
        kind="discrete-invariant",
        state_dim=n,
        dynamics=0.9 * np.eye(n),
        noise_input=np.eye(n),
        process_noise_cov=_random_spd(rng, n),
        initial_state_cov=_random_spd(rng, n),
        measurement_times=(1.0, 2.0, 3.0),
        sensors=sensors[:3],
        budgets=(1, 2, 3),
    )))
    return cases


def exploding_scalar_model(horizon, growth=2.0):
    """Scalar model whose variance grows by growth**2 per unmeasured step.

    One sensor, budget 1 per slot: a measured slot holds the variance
    near 1, while the empty schedule's variance leaves the double range at
    ``overflow_index(growth)``.
    """
    return bs.SystemModel(
        kind="discrete-invariant",
        state_dim=1,
        dynamics=np.array([[growth]]),
        noise_input=np.eye(1),
        process_noise_cov=np.eye(1),
        initial_state_cov=np.eye(1),
        measurement_times=tuple(float(k + 1) for k in range(horizon)),
        sensors=(bs.Sensor(C=np.eye(1), V=np.eye(1)),),
        budgets=(1,) * horizon,
    )


def halving_scalar_model(p1=1.0, w=1.0):
    """Scalar model x_{k+1} = x_k / 2 + w_k over K = 3 slots, with initial
    variance p1 and process noise variance w, watched by one sensor C = V = 1
    with budget 1 per slot."""
    return bs.SystemModel(
        kind="discrete-invariant",
        state_dim=1,
        dynamics=np.array([[0.5]]),
        noise_input=np.eye(1),
        process_noise_cov=np.array([[w]]),
        initial_state_cov=np.array([[p1]]),
        measurement_times=(1.0, 2.0, 3.0),
        sensors=(bs.Sensor(C=np.eye(1), V=np.eye(1)),),
        budgets=(1,) * 3,
    )


def huge_sensor_model(r):
    """``random_scenario(seed=0, n=2, m=3, K=3, r)`` with sensor 0 reading
    C = [[1e308, 1e308]]: valid doubles whose squared norm, once whitened,
    leaves the double range."""
    data = bs.model_to_dict(bs.random_scenario(seed=0, n=2, m=3, K=3, r=r))
    data["sensors"][0]["C"] = [[1e308, 1e308]]
    return bs.model_from_dict(data)


def sparse_unstable_model(seed, horizon=48, radius=1.2):
    """The shape of CHANGES.md line 7's input at a size mpmath evaluates:
    ``random_scenario(seed, n=2, m=3, horizon, r=2)`` of the
    discrete-invariant kind, its dynamics scaled to spectral radius
    ``radius``, with budget 2 only at slots 0, horizon // 2 and horizon - 1."""
    model = bs.random_scenario(seed=seed, n=2, m=3, K=horizon, r=2, kind="discrete-invariant")
    dynamics = model.dynamics * (radius / np.abs(np.linalg.eigvals(model.dynamics)).max())
    budgets = tuple(2 if k in (0, horizon // 2, horizon - 1) else 0 for k in range(horizon))
    return dataclasses.replace(model, dynamics=dynamics, budgets=budgets)


def precise_sensor_model(p1, v):
    """Scalar random walk (A = F = W = 1) with initial variance p1, watched by
    three sensors C = 1 with noise variances v, 2v and 3v over K = 4 slots of
    budget 1. Where p1 dwarfs v, the stacked kernels' bordered factorization
    of a measured slot loses the conditioned variance and gives NaN, while
    the single path evaluates."""
    return bs.SystemModel(
        kind="discrete-invariant",
        state_dim=1,
        dynamics=np.eye(1),
        noise_input=np.eye(1),
        process_noise_cov=np.eye(1),
        initial_state_cov=np.array([[p1]]),
        measurement_times=(1.0, 2.0, 3.0, 4.0),
        sensors=tuple(bs.Sensor(C=np.eye(1), V=np.array([[v * (i + 1)]])) for i in range(3)),
        budgets=(1,) * 4,
    )


def overflow_index(growth=2.0):
    """First time index at which the unmeasured variance of
    ``exploding_scalar_model`` is not a finite double."""
    variance, k = 1.0, 0
    while math.isfinite(variance):
        variance = growth * variance * growth + 1.0
        k += 1
    return k


def dense_logdet(matrix):
    """Positive-definite log-determinant through numpy's slogdet."""
    sign, value = np.linalg.slogdet(matrix)
    assert sign > 0, "matrix is not positive definite"
    return float(value)


def dense_prior_covariance(model):
    """Dense covariance of the stacked state, by direct propagation.

    Block (j, k) with j >= k equals Phi(t_j, t_k) Var(x(t_k)), where the
    per-time variances follow Var(x(t_{k+1})) = Phi_k Var(x(t_k)) Phi_k.T + Q_k
    from Var(x(t_1)) = P_1.
    """
    n, horizon = model.state_dim, model.horizon
    transitions, noise_covs, _ = bs.discretize_intervals(model)
    variances = [np.array(model.initial_state_cov)]
    for phi, q in zip(transitions, noise_covs):
        variances.append(sym(phi @ variances[-1] @ phi.T + q))
    out = np.zeros((n * horizon, n * horizon))
    for k in range(horizon):
        out[k * n:(k + 1) * n, k * n:(k + 1) * n] = variances[k]
        cross = variances[k]
        for j in range(k + 1, horizon):
            cross = transitions[j - 1] @ cross
            out[j * n:(j + 1) * n, k * n:(k + 1) * n] = cross
            out[k * n:(k + 1) * n, j * n:(j + 1) * n] = cross.T
    return sym(out)


def dense_error_trace(ev, schedule):
    """Trace of the batch error covariance by inverting the dense information matrix."""
    dense = to_dense(*assemble_information(ev, schedule))
    lower = np.linalg.cholesky(dense)
    inv_lower = solve_triangular(lower, np.eye(len(dense)), lower=True)
    return float(np.sum(inv_lower * inv_lower))


def selected_inversion_trace(ev, schedule):
    """Trace of the batch error covariance J^-1, by selected inversion of the
    assembled information matrix J (Takahashi, Fagan & Chin, 1973).

    Block LDL.T by the forward Schur recursion S_1 = D_1 and
    S_{k+1} = D_{k+1} - U_k.T S_k^-1 U_k, then backward Sigma_KK = S_K^-1 and
    Sigma_kk = S_k^-1 + G_k Sigma_{k+1,k+1} G_k.T with G_k = S_k^-1 U_k; the
    trace is the sum of the tr Sigma_kk. O(K n^3), and it shares nothing with
    the filter's backward pass. Raises NotPositiveDefinite naming the first
    S_k that fails.
    """
    diag, upper = assemble_information(ev, schedule)
    inverses, gains = [], []
    schur = diag[0]
    for k in range(len(diag)):
        # S_k = L L.T; the Schur complement subtracts the Gram matrix of
        # L^-1 U_k, as block_tridiag_logdet does.
        inv_lower = solve_triangular(chol_pd(schur, f"S_{k + 1}"), np.eye(len(schur)), lower=True)
        inverses.append(inv_lower.T @ inv_lower)
        if k + 1 < len(diag):
            half = inv_lower @ upper[k]
            gains.append(inv_lower.T @ half)
            schur = sym(diag[k + 1] - half.T @ half)
    sigma = inverses[-1]
    total = float(np.trace(sigma))
    for k in range(len(diag) - 2, -1, -1):
        sigma = inverses[k] + gains[k] @ sigma @ gains[k].T
        total += float(np.trace(sigma))
    return total


# Both float traces against the 50-digit reference, relative. Over seeds 0-2
# of sparse_unstable_model at horizons 48, 96 and 128, on the greedy and a
# full-budget random schedule, the largest gap was 7.6e-16 for
# batch_error_trace and 7.0e-15 for selected_inversion_trace. The covariance
# form was off by 1.5e-12 to 5.0e-10 at horizon 48 and by up to 1.8e7 at 128.
MPMATH_TRACE_RTOL = 1e-13


def mpmath_error_trace(ev, schedule, digits=50):
    """Trace of the batch error covariance in ``digits``-digit arithmetic:
    the selected inversion of ``selected_inversion_trace`` on the
    information matrix J of the evaluator's P_1, Phi_j, Q_j and whitened
    rows, each read as exact. No step rounds to a double, so it checks both
    float traces where the covariance loses precision."""
    schedule.check_shape(ev.horizon, ev.sensor_count)
    with mpmath.workdps(digits):
        exact = lambda a: mpmath.matrix(np.asarray(a).tolist())
        diag = [exact(ev.initial_cov) ** -1]
        upper = []
        for phi, noise in zip(ev.transitions, ev.noise_covs):
            phi, noise_inv = exact(phi), exact(noise) ** -1
            diag[-1] += phi.T * noise_inv * phi
            upper.append(-phi.T * noise_inv)
            diag.append(noise_inv)
        for k, slot in enumerate(schedule.selections):
            for i in slot:
                white = exact(ev.whitened[i])
                diag[k] += white.T * white
        inverses, gains = [], []
        schur = diag[0]
        for k in range(len(diag)):
            inverses.append(schur**-1)
            if k + 1 < len(diag):
                gains.append(inverses[k] * upper[k])
                schur = diag[k + 1] - upper[k].T * gains[k]
        sigma = inverses[-1]
        total = sum(sigma[j, j] for j in range(sigma.rows))
        for k in range(len(diag) - 2, -1, -1):
            sigma = inverses[k] + gains[k] * sigma * gains[k].T
            total += sum(sigma[j, j] for j in range(sigma.rows))
        return float(total)


def refactoring_bound_inputs(ev, model):
    """``bound_inputs`` with every Q_j stacked and factored again rather than
    read from the evaluator's kept factors: the oracle for its fields."""
    n = model.state_dim
    eye = np.eye(n)
    diagonals = np.square(np.linalg.solve(np.linalg.cholesky(ev.initial_cov), eye)).sum(axis=0)[None]
    if model.horizon > 1:
        rhs = np.stack([np.concatenate((eye, phi), axis=1) for phi in ev.transitions])
        lower = np.linalg.cholesky(np.stack(list(ev.noise_covs)))
        sums = np.square(np.linalg.solve(lower, rhs)).sum(axis=1)
        diagonals = np.concatenate((diagonals, sums[:, :n]))
        diagonals[:-1] += sums[:, n:]
    if model.sensor_count:
        sigma_v_inv = max(
            float((1.0 / np.linalg.eigvalsh(noise)[:, 0]).max()) for _, _, noise, _ in model._sensor_groups
        )
        with np.errstate(over="ignore"):
            c_norm_sq = float(np.square(np.linalg.norm(np.vstack([s.C for s in model.sensors]), 2)))
    else:
        sigma_v_inv = c_norm_sq = 0.0
    return bs.BoundInputs(
        sigma_w_inv=float(diagonals.max()),
        sigma_v_inv=sigma_v_inv,
        c_norm_sq=c_norm_sq,
        r_max=max(model.budgets),
        state_dim=n,
        horizon=model.horizon,
    )


def measurement_form_covariance(model, schedule):
    """Batch error covariance assembled literally from stacked selection matrices.

    Builds O = S_{1:K} C_{1:K} with per-time selection matrices S(t_k), then
    Sigma = Cx - Cx O.T (O Cx O.T + S Cv S.T)^-1 O Cx with Cx the dense prior
    covariance and Cv the stacked sensor noise covariance.
    """
    n = model.state_dim
    horizon = model.horizon
    dims = [s.C.shape[0] for s in model.sensors]
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    total = int(offsets[-1])

    stacked_c = (
        np.vstack([s.C for s in model.sensors]) if model.sensors else np.zeros((0, n))
    )
    stacked_v = (
        block_diag(*[s.V for s in model.sensors]) if model.sensors else np.zeros((0, 0))
    )

    selection_blocks = []
    for slot in schedule.selections:
        rows = sum(dims[i] for i in slot)
        sel = np.zeros((rows, total))
        row = 0
        for i in slot:
            sel[row:row + dims[i], offsets[i]:offsets[i] + dims[i]] = np.eye(dims[i])
            row += dims[i]
        selection_blocks.append(sel)
    selection = block_diag(*selection_blocks) if selection_blocks else np.zeros((0, 0))
    if selection.size == 0:
        selection = selection.reshape(0, total * horizon)

    cov_x = dense_prior_covariance(model)
    c_full = np.kron(np.eye(horizon), stacked_c)
    v_full = np.kron(np.eye(horizon), stacked_v)
    observed = selection @ c_full
    mid = observed @ cov_x @ observed.T + selection @ v_full @ selection.T
    if mid.shape[0] == 0:
        return cov_x.copy()
    return cov_x - cov_x @ observed.T @ np.linalg.inv(mid) @ observed @ cov_x


def random_block_tridiagonal_pd(rng, block_dim, block_count):
    """(diag, upper) stacks of a random symmetric positive-definite matrix with
    block tri-diagonal sparsity."""
    diag = rng.standard_normal((block_count, block_dim, block_dim))
    diag = 0.5 * (diag + diag.transpose(0, 2, 1))
    upper = rng.standard_normal((block_count - 1, block_dim, block_dim))
    smallest = float(np.linalg.eigvalsh(to_dense(diag, upper))[0])
    shift = abs(smallest) + 0.5
    return diag + shift * np.eye(block_dim), upper


def oracle_objective(ev, schedule):
    """Objective through the information form: block Schur recursion on the assembled matrix."""
    return -block_tridiag_logdet(*assemble_information(ev, schedule))


def two_pass_greedy(ev, model, lazy):
    """Greedy whose every gain is the difference of two full oracle evaluations.

    Stale gains kept in a heap and refreshed by the eager rule (every
    remaining candidate each round) or the lazy one (only those whose stale
    gain could still win), with the tie-break of ``greedy_schedule``, on
    the information form. Returns the schedule, the trace as (time index,
    sensor, gain, objective after) tuples, and the number of gain evaluations.
    """
    tol = bs.scheduler.GAIN_TIE_TOL
    schedule = bs.Schedule.empty(model.horizon)
    value = oracle_objective(ev, schedule)
    trace = []
    evaluations = 0
    for k, budget in enumerate(model.budgets):
        heap = [(-math.inf, i) for i in range(model.sensor_count)]
        while heap and len(schedule.selections[k]) < budget:
            pool = []
            best = -math.inf
            while heap and (not lazy or not pool or -heap[0][0] >= best - tol):
                _, i = heapq.heappop(heap)
                with_value = oracle_objective(ev, schedule.with_added(k, i))
                evaluations += 1
                pool.append((value - with_value, i, with_value))
                best = max(best, value - with_value)
            pool.sort(key=lambda entry: entry[1])
            gain, winner, value = next(e for e in pool if e[0] >= best - tol)
            for other_gain, other, _ in pool:
                if other != winner:
                    heapq.heappush(heap, (-other_gain, other))
            schedule = schedule.with_added(k, winner)
            trace.append((k, winner, gain, value))
    return schedule, trace, evaluations


def per_candidate_greedy(ev, model, lazy):
    """Greedy that scores each candidate by its own measurement update.

    The heap and refresh rules of ``two_pass_greedy`` and the tie-break of
    ``greedy_schedule``, with one ``sweep_step`` measurement update per
    candidate instead of one for every sensor, and the winner's factor taken
    from its own update. Returns the schedule, the trace as (time index,
    sensor, gain, objective after) tuples, and the number of gain
    evaluations.
    """
    tol = bs.scheduler.GAIN_TIE_TOL
    value = -ev.prior_logdet
    root = ev.initial_root
    offset = float(bs.objective.sweep_terms(root.diagonal()))
    slots, trace, evaluations = [], [], 0
    for k, budget in enumerate(model.budgets):
        if k:
            ahead, skipped = bs.objective.carry(ev, root[None], np.zeros(1), k - 1, k)
            root, offset = ahead[0], offset - float(skipped[0]) + logdet_from_cholesky(ev.noise_factors[k - 1])
        heap = [(-math.inf, i) for i in range(model.sensor_count)]
        accepted = []
        while heap and len(accepted) < budget:
            pool = []
            best = -math.inf
            while heap and (not lazy or not pool or -heap[0][0] >= best - tol):
                _, i = heapq.heappop(heap)
                diagonal, factors = bs.objective.sweep_step(ev, root, ev.padded[i:i + 1], k, False)
                closing = float(bs.objective.sweep_terms(diagonal)[0])
                gain = offset - closing
                evaluations += 1
                pool.append((gain, i, factors[0] * ev.upper, closing))
                best = max(best, gain)
            pool.sort(key=lambda entry: entry[1])
            gain, winner, root, offset = next(e for e in pool if e[0] >= best - tol)
            for other_gain, other, _, _ in pool:
                if other != winner:
                    heapq.heappush(heap, (-other_gain, other))
            value -= gain
            accepted.append(winner)
            trace.append((k, winner, gain, value))
        slots.append(tuple(sorted(accepted)))
    return bs.Schedule(selections=tuple(slots)), trace, evaluations


def root_entering(ev, slots, stop):
    """The square-root information factor entering slot ``stop``, swept one
    slot at a time through ``sweep_step`` with ``slots[k]`` measured at each
    slot k before it, and the sweep's sum of terms -2 log|det R_kk| over
    those slots."""
    root, swept = ev.initial_root[None], 0.0
    for k in range(stop):
        white = ev.padded[list(slots[k])].reshape(1, -1, ev.state_dim)
        diagonal, root = bs.objective.sweep_step(ev, root, white, k, True)
        swept += float(bs.objective.sweep_terms(diagonal)[0])
    return root[0], swept


def per_trial_monotonicity(model, trials, seed):
    """The monotonicity fuzzer one trial at a time, each schedule through its
    own ``objective_logdet``: the oracle for ``fuzz_monotonicity``'s stacked
    evaluation, with the same draws, checks and report."""
    ev = bs.build_evaluator(model)
    rng = np.random.default_rng(seed)
    max_excess = None
    for _ in range(trials):
        sup = bs.analysis._random_feasible(rng, model)
        sub = bs.analysis._random_subschedule(rng, sup)
        excess = bs.objective_logdet(ev, sup) - bs.objective_logdet(ev, sub)
        if max_excess is None or excess > max_excess:
            max_excess = excess
        if excess > bs.analysis.PROPERTY_TOL:
            raise bs.PropertyViolated(f"objective increased by {excess} when sensors were added")
    return trials, max_excess


def per_trial_supermodularity(model, trials, seed):
    """The supermodularity fuzzer one trial at a time, each gain from
    ``marginal_gain``: the oracle for ``fuzz_supermodularity``'s stacked
    evaluation, with the same draws and checks. Returns the effective
    trials and the largest excess."""
    ev = bs.build_evaluator(model)
    rng = np.random.default_rng(seed)
    max_excess = None
    effective = 0
    for _ in range(trials):
        big = bs.analysis._random_feasible(rng, model)
        room = [k for k, slot in enumerate(big.selections) if len(slot) < model.budgets[k]]
        if not room:
            continue
        k = int(room[int(rng.integers(0, len(room)))])
        free = [i for i in range(model.sensor_count) if i not in big.selections[k]]
        i = int(free[int(rng.integers(0, len(free)))])
        small = bs.analysis._random_subschedule(rng, big)
        gain_small = bs.marginal_gain(ev, small, k, i)
        excess = bs.marginal_gain(ev, big, k, i) - gain_small
        effective += 1
        if max_excess is None or excess > max_excess:
            max_excess = excess
        if excess > bs.analysis.PROPERTY_TOL:
            raise bs.PropertyViolated(f"marginal gain grew by {excess} on the larger schedule")
    return effective, max_excess
