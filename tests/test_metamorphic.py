"""Metamorphic relations of the objective, at horizons no oracle reaches.

Past n*K of about 64 neither a high-precision sweep nor the information
form can say whether a value is right. But two rewrites of a scenario
leave every value unchanged in exact arithmetic, so the package must give
the rewritten scenario the same greedy schedule and, to roundoff, the same
gains, objectives and error traces:

- an orthogonal change of state coordinates x -> T x: A -> T A T.T,
  F -> T F, P_1 -> T P_1 T.T and C_i -> C_i T.T. Every Phi_j and Q_j is
  rotated alike (for the continuous kinds through expm), every whitened
  W_i P W_i.T is unchanged, the objective shifts by 2K log|det T| = 0 and
  each smoothed covariance is rotated, so its trace is unchanged;
- sensor re-whitening C_i -> M_i C_i, V_i -> M_i V_i M_i.T for an
  invertible M_i: W_i changes by an orthogonal factor on the left, so
  W_i.T W_i, and with it every gain and the error trace, is unchanged.

Three more rewrites change the values in a known way, or not at all:

- the scaling x -> 8 x (T = 8 I): F -> 8 F, P_1 -> 64 P_1, C_i -> C_i / 8.
  Every gain is unchanged, every covariance is 64 times larger, so the
  objective shifts by exactly 2 K n log 8 and the error trace is 64 times
  larger;
- a sensor permutation: the greedy schedule maps back through it, and the
  greedy's gains are the same numbers;
- an invariant kind written as its variant kind, with K-1 copies of A, F
  and W: every value is the same.

Each rewritten scenario goes through model_to_dict and model_from_dict, as
a file would. The tolerances are relative to max(1, |value|): ten times
the largest gap seen in two sweeps, with different random T and M_i, over
all four kinds at n=6, m=10, r=3, K in {8, 256} with three seeds each and
the continuous-invariant kind at K=1024 (50 rewritten scenarios a sweep):
gains 1.46e-12 under rotation and 4.1e-14 under re-whitening, objectives
1.4e-13 and error traces 3.0e-14. Over the same grid, scaling by 8 gave
bit-identical gains for the discrete kinds and gaps up to 6.5e-12 for the
continuous ones, whose expm takes another path; the shifted objectives
stayed within 6.9e-14 and the scaled error traces within 2.1e-14, under
LOGDET_RTOL and TRACE_RTOL. A permutation leaves the greedy's gains and
objectives bit-identical, since each is a one-sensor update of the same
covariance; a fixed schedule's objective and error trace, whose slots
stack their sensors in another order, moved by up to 8.7e-16 and 7.4e-15.
Written as its variant kind, an invariant scenario gave bit-identical
values. At K=1024 (seed 0 of each kind) scaling by 8 gave gaps up to
3.0e-15 for gains (8.1e-16 for the discrete kinds), 1.4e-14 for the greedy
trace's objectives by the rule below, 8.3e-16 for objectives and none for
error traces; the permutation moved a fixed schedule's objective and error
trace by up to 1.2e-16 and 1.7e-16, and the variant form gave
bit-identical values. The rotation's gaps at K=1024 for the other three kinds (seed 0)
were up to 3.9e-13 for gains, 1.21e-12 for objectives (discrete-invariant)
and 1.2e-15 for error traces.

A greedy trace's objectives are the exception. Entry j is the start
objective less the first j gains, and at K=1024 it passes through zero
(continuous-invariant, seed 0: from 3.3e3 to -9.9e3), where max(1, |value|)
asks for an absolute 1.4e-12 of a sum whose terms reach 2.8e4. So each
entry's gap is taken relative to the trace's term sum, |start objective|
plus the sum of |gain|: ten times the largest such gap seen, 1.22e-14,
under scaling (discrete-invariant, K=256, seed 2). Under rotation the
largest was 5.73e-15 (continuous-variant, K=1024, seed 2; three T each
for seeds 0-5 of every kind), where max(1, |value|) gave up to 2.0e-11;
discrete-invariant at K=1024, seed 6, gives 3.67e-12 by the old rule
against 1.8e-16 by this one, so it runs here too.
"""

import functools
import math

import numpy as np
import pytest

import batchsched as bs
from batchsched.analysis import _random_feasible
from helpers import generated_case

MARGIN = 10
GAIN_RTOL = {"rotation": MARGIN * 1.46e-12, "rewhitening": MARGIN * 4.1e-14, "scaling": MARGIN * 6.5e-12}
LOGDET_RTOL = MARGIN * 1.4e-13
TERMS_RTOL = MARGIN * 1.22e-14
TRACE_RTOL = MARGIN * 3.0e-14


def _rotated(model, rng):
    """The scenario in the state coordinates T x, for a random orthogonal T."""
    q, r = np.linalg.qr(rng.standard_normal((model.state_dim,) * 2))
    t = q * np.sign(np.diagonal(r))
    data = bs.model_to_dict(model)
    data["dynamics"] = (t @ np.asarray(data["dynamics"]) @ t.T).tolist()
    data["noise_input"] = (t @ np.asarray(data["noise_input"])).tolist()
    data["initial_state_cov"] = (t @ np.asarray(data["initial_state_cov"]) @ t.T).tolist()
    for sensor in data["sensors"]:
        sensor["C"] = (np.asarray(sensor["C"]) @ t.T).tolist()
    return bs.model_from_dict(data)


def _rewhitened(model, rng):
    """The scenario with each sensor's rows mixed by M_i = randn + 3 I."""
    data = bs.model_to_dict(model)
    for sensor in data["sensors"]:
        c, v = np.asarray(sensor["C"]), np.asarray(sensor["V"])
        mix = rng.standard_normal((len(c), len(c))) + 3.0 * np.eye(len(c))
        sensor["C"] = (mix @ c).tolist()
        sensor["V"] = (mix @ v @ mix.T).tolist()
    return bs.model_from_dict(data)


def _scaled(model):
    """The scenario in the state coordinates 8 x."""
    data = bs.model_to_dict(model)
    data["noise_input"] = (8.0 * np.asarray(data["noise_input"])).tolist()
    data["initial_state_cov"] = (64.0 * np.asarray(data["initial_state_cov"])).tolist()
    for sensor in data["sensors"]:
        sensor["C"] = (np.asarray(sensor["C"]) / 8.0).tolist()
    return bs.model_from_dict(data)


def _permuted(model, order):
    """The scenario whose sensor j is the model's sensor ``order[j]``."""
    data = bs.model_to_dict(model)
    data["sensors"] = [data["sensors"][i] for i in order]
    return bs.model_from_dict(data)


def _relabeled(schedule, labels):
    """The schedule with each sensor i renamed ``labels[i]``."""
    return bs.Schedule(tuple(tuple(sorted(int(labels[i]) for i in slot)) for slot in schedule.selections))


def _as_variant(model):
    """An invariant kind's scenario written as its variant kind."""
    data = bs.model_to_dict(model)
    data["kind"] = data["kind"].replace("invariant", "variant")
    for key in ("dynamics", "noise_input", "process_noise_cov"):
        data[key] = [data[key]] * (model.horizon - 1)
    return bs.model_from_dict(data)


def _gap(new, old):
    """The largest gap between two lists of values, relative to max(1, |old|)."""
    old = np.asarray(old, dtype=float)
    return float(np.max(np.abs(np.subtract(new, old)) / np.maximum(1.0, np.abs(old)), initial=0.0))


def _trace_gap(new, old, shift=0.0):
    """The largest gap between two greedy traces' objectives, the old ones
    shifted by ``shift``, relative to the old trace's term sum: |start
    objective| plus the sum of |gain|."""
    terms = abs(old.start_objective + shift) + sum(abs(gain) for gain in _gains(old))
    gaps = np.abs(np.subtract(_objectives(new), np.add(_objectives(old), shift)))
    return float(np.max(gaps, initial=0.0)) / terms


def _gains(trace):
    return [e.gain for e in trace.entries]


def _objectives(trace):
    return [e.objective for e in trace.entries]


# One seed per kind at K=256 and K=1024 keeps the module within its budget;
# K=8 takes three seeds, for more distinct schedules. Re-whitening does not
# run at K=1024: it changes only each W_i, by roundoff in its solve,
# whatever the horizon.
SHORT_CASES = (
    [(kind.value, 8, seed) for kind in bs.ModelKind for seed in range(3)]
    + [(kind.value, 256, seed) for seed, kind in enumerate(bs.ModelKind)]
)
LONG_CASES = [(kind.value, 1024, 0) for kind in bs.ModelKind]
CASES = SHORT_CASES + LONG_CASES + [("discrete-invariant", 1024, 6)]


@functools.lru_cache(maxsize=None)
def _fixed_values(kind, K, seed):
    """The objective and error trace, on ``generated_case(kind, K, seed)``, of
    the schedule each test draws first from ``default_rng(seed)``; computed
    once per test run, since every relation compares against them."""
    model, ev, _, _ = generated_case(kind, K, seed)
    fixed = _random_feasible(np.random.default_rng(seed), model)
    return bs.objective_logdet(ev, fixed), bs.batch_error_trace(ev, fixed)


@pytest.mark.parametrize("kind, K, seed", CASES)
def test_rewritten_scenarios_give_the_same_schedule_and_values(kind, K, seed):
    model, _, schedule, trace = generated_case(kind, K, seed)
    rng = np.random.default_rng(seed)
    fixed = _random_feasible(rng, model)
    value, variance = _fixed_values(kind, K, seed)
    relations = (("rotation", _rotated), ("rewhitening", _rewhitened))
    for relation, rewrite in relations[:1] if K > 256 else relations:
        ev_new = bs.build_evaluator(rewrite(model, rng))
        schedule_new, trace_new = bs.greedy_schedule(ev_new)
        assert schedule_new == schedule, relation
        assert _gap(_gains(trace_new), _gains(trace)) <= GAIN_RTOL[relation], relation
        # The greedy schedule's objective, step by step, and a fixed schedule's.
        assert _trace_gap(trace_new, trace) <= TERMS_RTOL, relation
        assert _gap([bs.objective_logdet(ev_new, fixed)], [value]) <= LOGDET_RTOL, relation
        if relation == "rotation":
            assert _gap([bs.batch_error_trace(ev_new, fixed)], [variance]) <= TRACE_RTOL


@pytest.mark.parametrize("kind, K, seed", SHORT_CASES + LONG_CASES)
def test_scaling_the_state_by_8_shifts_the_objective_by_2_K_n_log_8(kind, K, seed):
    model, _, schedule, trace = generated_case(kind, K, seed)
    fixed = _random_feasible(np.random.default_rng(seed), model)
    ev_new = bs.build_evaluator(_scaled(model))
    schedule_new, trace_new = bs.greedy_schedule(ev_new)
    assert schedule_new == schedule
    assert _gap(_gains(trace_new), _gains(trace)) <= GAIN_RTOL["scaling"]
    shift = 2 * K * model.state_dim * math.log(8)
    assert _trace_gap(trace_new, trace, shift) <= TERMS_RTOL
    value, variance = _fixed_values(kind, K, seed)
    assert _gap([bs.objective_logdet(ev_new, fixed)], [value + shift]) <= LOGDET_RTOL
    assert _gap([bs.batch_error_trace(ev_new, fixed)], [64 * variance]) <= TRACE_RTOL


@pytest.mark.parametrize("kind, K, seed", SHORT_CASES + LONG_CASES)
def test_a_sensor_permutation_permutes_the_greedy_schedule(kind, K, seed):
    model, _, schedule, trace = generated_case(kind, K, seed)
    rng = np.random.default_rng(seed)
    fixed = _random_feasible(rng, model)
    order = rng.permutation(model.sensor_count)
    ev_new = bs.build_evaluator(_permuted(model, order))
    schedule_new, trace_new = bs.greedy_schedule(ev_new)
    assert _relabeled(schedule_new, order) == schedule
    assert sorted(_gains(trace_new)) == sorted(_gains(trace))
    assert trace_new.entries[-1].objective == trace.entries[-1].objective
    fixed_new = _relabeled(fixed, np.argsort(order))
    value, variance = _fixed_values(kind, K, seed)
    assert _gap([bs.objective_logdet(ev_new, fixed_new)], [value]) <= LOGDET_RTOL
    assert _gap([bs.batch_error_trace(ev_new, fixed_new)], [variance]) <= TRACE_RTOL


@pytest.mark.parametrize("kind, K, seed", [case for case in SHORT_CASES + LONG_CASES if case[0].endswith("-invariant")])
def test_an_invariant_kind_written_as_its_variant_kind_gives_the_same_values(kind, K, seed):
    model, _, schedule, trace = generated_case(kind, K, seed)
    fixed = _random_feasible(np.random.default_rng(seed), model)
    ev_new = bs.build_evaluator(_as_variant(model))
    schedule_new, trace_new = bs.greedy_schedule(ev_new)
    assert schedule_new == schedule
    assert trace_new.entries == trace.entries
    assert (bs.objective_logdet(ev_new, fixed), bs.batch_error_trace(ev_new, fixed)) == _fixed_values(kind, K, seed)
