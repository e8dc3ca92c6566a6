"""Covariance checks at model construction: each matrix factored once, and
single faults rejected with the class and message that the per-matrix
checks give."""

import math
from itertools import chain

import numpy as np
import pytest

import batchsched as bs
from batchsched import _linalg, prior
from batchsched import model as model_module


def _spd(rng, d):
    g = rng.standard_normal((d, d))
    return (g @ g.T + np.eye(d)).tolist()


SENSOR_ROWS = (2, 1, 2, 1, 2)


def fault_scenario(mixed_widths):
    """A discrete-variant scenario with n = 2, K = 3 and sensors of 2, 1, 2,
    1 and 2 rows. W_1, W_2, P_1 and the 2-row V_i have one size; with
    ``mixed_widths``, W_1 is 1x1, the size of the 1-row V_i."""
    rng = np.random.default_rng(3)
    widths = (1, 2) if mixed_widths else (2, 2)
    return {
        "kind": "discrete-variant",
        "state_dim": 2,
        "dynamics": [rng.standard_normal((2, 2)).tolist() for _ in widths],
        "noise_input": [rng.standard_normal((2, p)).tolist() for p in widths],
        "process_noise_cov": [_spd(rng, p) for p in widths],
        "initial_state_cov": _spd(rng, 2),
        "measurement_times": [1.0, 2.0, 3.0],
        "sensors": [{"C": rng.standard_normal((d, 2)).tolist(), "V": _spd(rng, d)} for d in SENSOR_ROWS],
        "budgets": [1, 1, 1],
    }


def _asymmetric(m):
    return [[m[0][0], m[0][1] + 1e-6], m[1]]


def _indefinite(m):
    return [[-x for x in row] for row in m]


def _near_singular(m):
    # Pivot ratio 1e-14, below PD_PIVOT_RTOL.
    return (np.diag([1.0] + [1e-14] * (len(m) - 1))).tolist()


def _not_finite(m):
    return [[math.nan] + m[0][1:], *m[1:]]


FAULTS = {
    "asymmetric": _asymmetric,
    "indefinite": _indefinite,
    "near_singular": _near_singular,
    "not_finite": _not_finite,
}


def _targets(mixed_widths):
    """Each covariance of a fault scenario: (name, its row count)."""
    widths = (1, 2) if mixed_widths else (2, 2)
    return [(f"W_{j + 1}", p) for j, p in enumerate(widths)] + [("P_1", 2)] + [
        (f"V_{i + 1}", d) for i, d in enumerate(SENSOR_ROWS)
    ]


def with_faults(mixed_widths, faults):
    """The fault scenario with each (target, fault) of ``faults`` applied."""
    data = fault_scenario(mixed_widths)
    for target, fault in faults:
        change = FAULTS[fault]
        index = int(target[2:]) - 1
        if target.startswith("W"):
            data["process_noise_cov"][index] = change(data["process_noise_cov"][index])
        elif target == "P_1":
            data["initial_state_cov"] = change(data["initial_state_cov"])
        else:
            data["sensors"][index]["V"] = change(data["sensors"][index]["V"])
    return data


def _case_id(mixed_widths, faults):
    return ("mixed:" if mixed_widths else "stacked:") + "+".join(f"{t}-{f}" for t, f in faults)


# A 1x1 matrix has no asymmetry, and its only pivot ratio is 1.
SINGLE_FAULTS = [
    (mixed, ((target, fault),))
    for mixed in (False, True)
    for target, rows in _targets(mixed)
    for fault in FAULTS
    if rows > 1 or fault in ("indefinite", "not_finite")
]
# Two faults, where the first in the order W_1..W_J, P_1, V_1..V_m sits in a
# stack of another size, or checked after the other fault's stack.
MULTI_FAULTS = [
    (False, (("V_2", "indefinite"), ("V_3", "indefinite"))),
    (False, (("V_4", "indefinite"), ("V_5", "asymmetric"))),
    (False, (("P_1", "near_singular"), ("V_2", "indefinite"))),
    (False, (("W_2", "asymmetric"), ("V_1", "indefinite"))),
    (True, (("W_2", "indefinite"), ("V_2", "indefinite"))),
    (True, (("W_1", "indefinite"), ("P_1", "asymmetric"))),
    (True, (("P_1", "indefinite"), ("V_4", "indefinite"))),
]

PD_PIVOT = (
    "is not positive definite: its Cholesky factorization meets a pivot <= 0 (pivot ratio <= 0, PD_PIVOT_RTOL = 1e-12)"
)
PD_RATIO = "is not positive definite: smallest Cholesky pivot ratio 1e-14 <= PD_PIVOT_RTOL = 1e-12"

# The class and message each input raised when every W_j, P_1 and V_i was
# checked on its own, before construction stacked the checks by size.
EXPECTED = {
    "stacked:W_1-asymmetric": ("NotPositiveDefinite", "W_1 must be symmetric"),
    "stacked:W_1-indefinite": ("NotPositiveDefinite", f"W_1 {PD_PIVOT}"),
    "stacked:W_1-near_singular": ("NotPositiveDefinite", f"W_1 {PD_RATIO}"),
    "stacked:W_1-not_finite": ("DimensionMismatch", "process_noise_cov[0] must contain only finite entries"),
    "stacked:W_2-asymmetric": ("NotPositiveDefinite", "W_2 must be symmetric"),
    "stacked:W_2-indefinite": ("NotPositiveDefinite", f"W_2 {PD_PIVOT}"),
    "stacked:W_2-near_singular": ("NotPositiveDefinite", f"W_2 {PD_RATIO}"),
    "stacked:W_2-not_finite": ("DimensionMismatch", "process_noise_cov[1] must contain only finite entries"),
    "stacked:P_1-asymmetric": ("NotPositiveDefinite", "P_1 must be symmetric"),
    "stacked:P_1-indefinite": ("NotPositiveDefinite", f"P_1 {PD_PIVOT}"),
    "stacked:P_1-near_singular": ("NotPositiveDefinite", f"P_1 {PD_RATIO}"),
    "stacked:P_1-not_finite": ("DimensionMismatch", "P_1 must contain only finite entries"),
    "stacked:V_1-asymmetric": ("NotPositiveDefinite", "V_1 must be symmetric"),
    "stacked:V_1-indefinite": ("NotPositiveDefinite", f"V_1 {PD_PIVOT}"),
    "stacked:V_1-near_singular": ("NotPositiveDefinite", f"V_1 {PD_RATIO}"),
    "stacked:V_1-not_finite": ("InvalidArgument", "sensors[0].V must contain only finite entries"),
    "stacked:V_2-indefinite": ("NotPositiveDefinite", f"V_2 {PD_PIVOT}"),
    "stacked:V_2-not_finite": ("InvalidArgument", "sensors[1].V must contain only finite entries"),
    "stacked:V_3-asymmetric": ("NotPositiveDefinite", "V_3 must be symmetric"),
    "stacked:V_3-indefinite": ("NotPositiveDefinite", f"V_3 {PD_PIVOT}"),
    "stacked:V_3-near_singular": ("NotPositiveDefinite", f"V_3 {PD_RATIO}"),
    "stacked:V_3-not_finite": ("InvalidArgument", "sensors[2].V must contain only finite entries"),
    "stacked:V_4-indefinite": ("NotPositiveDefinite", f"V_4 {PD_PIVOT}"),
    "stacked:V_4-not_finite": ("InvalidArgument", "sensors[3].V must contain only finite entries"),
    "stacked:V_5-asymmetric": ("NotPositiveDefinite", "V_5 must be symmetric"),
    "stacked:V_5-indefinite": ("NotPositiveDefinite", f"V_5 {PD_PIVOT}"),
    "stacked:V_5-near_singular": ("NotPositiveDefinite", f"V_5 {PD_RATIO}"),
    "stacked:V_5-not_finite": ("InvalidArgument", "sensors[4].V must contain only finite entries"),
    "mixed:W_1-indefinite": ("NotPositiveDefinite", f"W_1 {PD_PIVOT}"),
    "mixed:W_1-not_finite": ("DimensionMismatch", "process_noise_cov[0] must contain only finite entries"),
    "mixed:W_2-asymmetric": ("NotPositiveDefinite", "W_2 must be symmetric"),
    "mixed:W_2-indefinite": ("NotPositiveDefinite", f"W_2 {PD_PIVOT}"),
    "mixed:W_2-near_singular": ("NotPositiveDefinite", f"W_2 {PD_RATIO}"),
    "mixed:W_2-not_finite": ("DimensionMismatch", "process_noise_cov[1] must contain only finite entries"),
    "mixed:P_1-asymmetric": ("NotPositiveDefinite", "P_1 must be symmetric"),
    "mixed:P_1-indefinite": ("NotPositiveDefinite", f"P_1 {PD_PIVOT}"),
    "mixed:P_1-near_singular": ("NotPositiveDefinite", f"P_1 {PD_RATIO}"),
    "mixed:P_1-not_finite": ("DimensionMismatch", "P_1 must contain only finite entries"),
    "mixed:V_1-asymmetric": ("NotPositiveDefinite", "V_1 must be symmetric"),
    "mixed:V_1-indefinite": ("NotPositiveDefinite", f"V_1 {PD_PIVOT}"),
    "mixed:V_1-near_singular": ("NotPositiveDefinite", f"V_1 {PD_RATIO}"),
    "mixed:V_1-not_finite": ("InvalidArgument", "sensors[0].V must contain only finite entries"),
    "mixed:V_2-indefinite": ("NotPositiveDefinite", f"V_2 {PD_PIVOT}"),
    "mixed:V_2-not_finite": ("InvalidArgument", "sensors[1].V must contain only finite entries"),
    "mixed:V_3-asymmetric": ("NotPositiveDefinite", "V_3 must be symmetric"),
    "mixed:V_3-indefinite": ("NotPositiveDefinite", f"V_3 {PD_PIVOT}"),
    "mixed:V_3-near_singular": ("NotPositiveDefinite", f"V_3 {PD_RATIO}"),
    "mixed:V_3-not_finite": ("InvalidArgument", "sensors[2].V must contain only finite entries"),
    "mixed:V_4-indefinite": ("NotPositiveDefinite", f"V_4 {PD_PIVOT}"),
    "mixed:V_4-not_finite": ("InvalidArgument", "sensors[3].V must contain only finite entries"),
    "mixed:V_5-asymmetric": ("NotPositiveDefinite", "V_5 must be symmetric"),
    "mixed:V_5-indefinite": ("NotPositiveDefinite", f"V_5 {PD_PIVOT}"),
    "mixed:V_5-near_singular": ("NotPositiveDefinite", f"V_5 {PD_RATIO}"),
    "mixed:V_5-not_finite": ("InvalidArgument", "sensors[4].V must contain only finite entries"),
    "stacked:V_2-indefinite+V_3-indefinite": ("NotPositiveDefinite", f"V_2 {PD_PIVOT}"),
    "stacked:V_4-indefinite+V_5-asymmetric": ("NotPositiveDefinite", f"V_4 {PD_PIVOT}"),
    "stacked:P_1-near_singular+V_2-indefinite": ("NotPositiveDefinite", f"P_1 {PD_RATIO}"),
    "stacked:W_2-asymmetric+V_1-indefinite": ("NotPositiveDefinite", "W_2 must be symmetric"),
    "mixed:W_2-indefinite+V_2-indefinite": ("NotPositiveDefinite", f"W_2 {PD_PIVOT}"),
    "mixed:W_1-indefinite+P_1-asymmetric": ("NotPositiveDefinite", f"W_1 {PD_PIVOT}"),
    "mixed:P_1-indefinite+V_4-indefinite": ("NotPositiveDefinite", f"P_1 {PD_PIVOT}"),
}


@pytest.mark.parametrize(
    "mixed_widths, faults", SINGLE_FAULTS + MULTI_FAULTS, ids=[_case_id(*c) for c in SINGLE_FAULTS + MULTI_FAULTS]
)
def test_a_covariance_fault_is_rejected_as_the_per_matrix_checks_reject_it(mixed_widths, faults):
    error, message = EXPECTED[_case_id(mixed_widths, faults)]
    with pytest.raises(bs.BatchSchedError) as raised:
        bs.model_from_dict(with_faults(mixed_widths, faults))
    assert type(raised.value).__name__ == error
    assert str(raised.value) == message


def test_the_fault_scenarios_are_valid():
    for mixed_widths in (False, True):
        model = bs.model_from_dict(fault_scenario(mixed_widths))
        assert [len(s.C) for s in model.sensors] == list(SENSOR_ROWS)
        assert isinstance(model.process_noise_cov, tuple) == mixed_widths


def _recording_cholesky(patch):
    """Patch the gate's LAPACK Cholesky kernel to record, per call, the matrices
    it factors."""
    calls = []
    cholesky = _linalg._cholesky

    def recording(a, *args, **kwargs):
        calls.append([matrix.copy() for matrix in a.reshape(-1, *a.shape[-2:])])
        return cholesky(a, *args, **kwargs)

    patch.setattr(_linalg, "_cholesky", recording)
    return calls


def _recording_gate(patch):
    """Patch the gate where model intake and ``prior`` call it, to record each
    call's stacks and the factors it returns."""
    calls = []
    for owner in (model_module, prior):
        def recording(stacks, named, gate=owner.pd_factors):
            factors = gate(stacks, named)
            calls.append((stacks, factors))
            return factors

        patch.setattr(owner, "pd_factors", recording)
    return calls


@pytest.mark.parametrize("kind", ["discrete-variant", "continuous-invariant"])
def test_model_and_evaluator_factor_p1_and_each_v_once(monkeypatch, kind):
    call_counts = {}
    for m in (3, 60):
        data = bs.model_to_dict(bs.random_scenario(seed=1, n=3, m=m, K=4, r=1, kind=kind))
        with monkeypatch.context() as patch:
            calls = _recording_cholesky(patch)
            gate_calls = _recording_gate(patch)
            model = bs.model_from_dict(data)
            bs.build_evaluator(model)
        factored = list(chain.from_iterable(calls))

        def times_factored(matrix):
            return sum(f.shape == matrix.shape and np.array_equal(f, matrix) for f in factored)

        assert {len(s.C) for s in model.sensors} == {1, 2}
        assert times_factored(model.initial_state_cov) == 1
        assert [times_factored(s.V) for s in model.sensors] == [1] * m
        assert len(calls) == sum(len(stacks) for stacks, _ in gate_calls)
        call_counts[m] = len(calls)
    assert call_counts[3] == call_counts[60]


def ragged_scenario(kind):
    """A variant scenario with n = 2, K = 6 and noise widths alternating 2 and
    3, so that the W_j of each width form one stack."""
    rng = np.random.default_rng(5)
    widths = (2, 3, 2, 3, 2)
    return {
        "kind": kind,
        "state_dim": 2,
        "dynamics": [(0.5 * rng.standard_normal((2, 2))).tolist() for _ in widths],
        "noise_input": [rng.standard_normal((2, p)).tolist() for p in widths],
        "process_noise_cov": [_spd(rng, p) for p in widths],
        "initial_state_cov": _spd(rng, 2),
        "measurement_times": [1.0, 1.5, 2.5, 3.0, 4.0, 4.5],
        "sensors": [{"C": rng.standard_normal((d, 2)).tolist(), "V": _spd(rng, d)} for d in SENSOR_ROWS],
        "budgets": [1] * 6,
    }


# Each scenario, whether it evaluates, and the stacks intake hands the gate:
# one per noise width, P_1, and one per sensor row count.
GATED = {
    "stacked": (fault_scenario(False), True, 4),
    "mixed": (fault_scenario(True), False, 5),
    "ragged-discrete": (ragged_scenario("discrete-variant"), True, 5),
    "ragged-continuous": (ragged_scenario("continuous-variant"), True, 5),
}


@pytest.mark.parametrize("case", GATED)
def test_every_factor_of_the_gate_is_numpys_cholesky_bit_for_bit(monkeypatch, case):
    data, evaluate, intake_stacks = GATED[case]
    with monkeypatch.context() as patch:
        gate_calls = _recording_gate(patch)
        model = bs.model_from_dict(data)
        if evaluate:  # the mixed scenario's 1x1 W_1 makes Q_1 singular
            transitions, noise_covs, _ = prior.discretize_intervals(model)
            prior.build_prior_information(model.initial_state_cov, transitions, noise_covs)
    # Intake, then the Q stack, then [P_1, Q_1, ..., Q_{K-1}].
    assert len(gate_calls) == (3 if evaluate else 1)
    assert len(gate_calls[0][0]) == intake_stacks
    for stacks, factors in gate_calls:
        assert len(factors) == len(stacks)
        for stack, factor in zip(stacks, factors):
            assert factor.dtype == np.float64 and not factor.flags.writeable
            assert factor.tobytes() == np.linalg.cholesky(stack).tobytes()


@pytest.mark.parametrize("case", GATED)
def test_kept_factors_share_no_memory_with_other_stacks(monkeypatch, case):
    data, _, _ = GATED[case]
    with monkeypatch.context() as patch:
        gate_calls = _recording_gate(patch)
        model = bs.model_from_dict(data)
    kept = [model._initial_factor] + [group[-1] for group in model._sensor_groups]
    ((_, factors),) = gate_calls
    for own in kept:
        others = [factor for factor in factors if not np.shares_memory(own, factor)]
        assert len(others) == len(factors) - 1
