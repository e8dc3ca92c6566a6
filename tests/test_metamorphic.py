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

Each rewritten scenario goes through model_to_dict and model_from_dict, as
a file would. The tolerances are relative to max(1, |value|): ten times
the largest gap seen in two sweeps, with different random T and M_i, over
all four kinds at n=6, m=10, r=3, K in {8, 256} with three seeds each and
the continuous-invariant kind at K=1024 (50 rewritten scenarios a sweep):
gains 1.46e-12 under rotation and 4.1e-14 under re-whitening, objectives
1.4e-13 and error traces 3.0e-14.
"""

import numpy as np
import pytest

import batchsched as bs
from batchsched.analysis import _random_feasible

MARGIN = 10
GAIN_RTOL = {"rotation": MARGIN * 1.46e-12, "rewhitening": MARGIN * 4.1e-14}
LOGDET_RTOL = MARGIN * 1.4e-13
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


def _close(value, tol):
    return pytest.approx(value, rel=tol, abs=tol)


# One seed per kind at K=256 and one rotated continuous-invariant scenario
# at K=1024 keep the module under 2 s; K=8 takes three seeds, for more
# distinct schedules. Re-whitening changes only each W_i, by roundoff in its
# solve, whatever the horizon, so it is not repeated at K=1024.
CASES = (
    [(kind.value, 8, seed) for kind in bs.ModelKind for seed in range(3)]
    + [(kind.value, 256, seed) for seed, kind in enumerate(bs.ModelKind)]
    + [("continuous-invariant", 1024, 0)]
)


@pytest.mark.parametrize("kind, K, seed", CASES)
def test_rewritten_scenarios_give_the_same_schedule_and_values(kind, K, seed):
    model = bs.random_scenario(seed=seed, n=6, m=10, K=K, r=3, kind=kind)
    rng = np.random.default_rng(seed)
    ev = bs.build_evaluator(model)
    schedule, trace = bs.greedy_schedule(ev)
    fixed = _random_feasible(rng, model)
    value, variance = bs.objective_logdet(ev, fixed), bs.batch_error_trace(ev, fixed)
    relations = (("rotation", _rotated), ("rewhitening", _rewhitened))
    for relation, rewrite in relations[:1] if K > 256 else relations:
        ev_new = bs.build_evaluator(rewrite(model, rng))
        schedule_new, trace_new = bs.greedy_schedule(ev_new)
        assert schedule_new == schedule, relation
        tol = GAIN_RTOL[relation]
        assert [e.gain for e in trace_new.entries] == [_close(e.gain, tol) for e in trace.entries], relation
        # The greedy schedule's objective, step by step, and a fixed schedule's.
        assert [e.objective for e in trace_new.entries] == [
            _close(e.objective, LOGDET_RTOL) for e in trace.entries
        ], relation
        assert bs.objective_logdet(ev_new, fixed) == _close(value, LOGDET_RTOL), relation
        if relation == "rotation":
            assert bs.batch_error_trace(ev_new, fixed) == _close(variance, TRACE_RTOL)
