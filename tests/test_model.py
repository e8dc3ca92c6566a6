"""Model validation, random scenario generation, and serialization."""

import dataclasses
import hashlib
import json
import math
import pickle
import re

import numpy as np
import pytest

import batchsched as bs
from helpers import interval_matrices, schedule_of, scenario_stream


def tiny_model(**overrides):
    fields = dict(
        kind="discrete-invariant",
        state_dim=2,
        dynamics=np.eye(2),
        noise_input=np.eye(2),
        process_noise_cov=np.eye(2),
        initial_state_cov=np.eye(2),
        measurement_times=(1.0,),
        sensors=(bs.Sensor(C=np.array([[1.0, 0.0]]), V=np.array([[1.0]])),),
        budgets=(1,),
    )
    fields.update(overrides)
    return bs.SystemModel(**fields)


def test_valid_tiny_model():
    model = tiny_model()
    assert model.kind is bs.ModelKind.DISCRETE_INVARIANT
    assert model.horizon == 1
    assert model.sensor_count == 1


def test_zero_noise_covariance_rejected():
    with pytest.raises(bs.NotPositiveDefinite, match="V_1"):
        tiny_model(sensors=(bs.Sensor(C=np.array([[1.0, 0.0]]), V=np.array([[0.0]])),))


def test_sensor_column_mismatch_rejected():
    with pytest.raises(bs.DimensionMismatch, match="C_1"):
        tiny_model(sensors=(bs.Sensor(C=np.ones((1, 3)), V=np.eye(1)),))


def test_non_increasing_times_rejected():
    with pytest.raises(bs.NonIncreasingTimes):
        tiny_model(measurement_times=(1.0, 1.0), budgets=(1, 1))


@pytest.mark.parametrize("budget", [-1, 5])
def test_budget_out_of_range_rejected(budget):
    with pytest.raises(bs.BudgetOutOfRange):
        tiny_model(budgets=(budget,))


def test_indefinite_initial_covariance_rejected():
    with pytest.raises(bs.NotPositiveDefinite, match="P_1"):
        tiny_model(initial_state_cov=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_asymmetric_covariance_rejected():
    with pytest.raises(bs.NotPositiveDefinite, match="P_1 must be symmetric"):
        tiny_model(initial_state_cov=np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_indefinite_process_noise_rejected():
    with pytest.raises(bs.NotPositiveDefinite, match="W"):
        tiny_model(process_noise_cov=-np.eye(2))


def test_dynamics_shape_rejected():
    with pytest.raises(bs.DimensionMismatch, match="A"):
        tiny_model(dynamics=np.ones((2, 3)))


def test_variant_interval_count_enforced():
    with pytest.raises(bs.DimensionMismatch, match="dynamics"):
        tiny_model(
            kind="discrete-variant",
            measurement_times=(1.0, 2.0, 3.0),
            budgets=(1, 1, 1),
            dynamics=[np.eye(2)],  # needs K-1 = 2 matrices
            noise_input=[np.eye(2), np.eye(2)],
            process_noise_cov=[np.eye(2), np.eye(2)],
        )


def test_bad_kind_rejected():
    with pytest.raises(bs.InvalidArgument, match="kind"):
        tiny_model(kind="weekly")


def test_input_matrix_accepted_and_ignored():
    with_b = tiny_model(input_matrix=np.ones((2, 1)))
    without_b = tiny_model()
    ev_b = bs.build_evaluator(with_b)
    ev = bs.build_evaluator(without_b)
    s = schedule_of([[0]])
    assert bs.objective_logdet(ev_b, s) == bs.objective_logdet(ev, s)
    with pytest.raises(bs.DimensionMismatch, match="input_matrix"):
        tiny_model(input_matrix=np.ones((3, 1)))


def test_validated_model_is_immutable():
    model = tiny_model()
    with pytest.raises(ValueError):
        model.initial_state_cov[0, 0] = 5.0


def test_input_signal_is_kept_as_a_copy_the_caller_cannot_change():
    # The signal is stored as its canonical JSON text, written at intake;
    # appending to the caller's lists afterwards changes neither the stored
    # signal nor the fingerprint.
    inner = [3.0, {"u": [4.0]}]
    signal = [1.0, 2.0, inner, {"w": inner}]
    model = dataclasses.replace(bs.random_scenario(seed=0, n=2, m=3, K=3, r=1), input_signal=signal)
    fingerprint = bs.model_fingerprint(model)
    text = '[1.0,2.0,[3.0,{"u":[4.0]}],{"w":[3.0,{"u":[4.0]}]}]'
    assert model.input_signal == text
    signal.append(9.0)
    inner.append(5.0)
    inner[1]["u"].append(6.0)
    inner[1]["v"] = 7.0
    assert isinstance(model.input_signal, str)
    assert model.input_signal == text
    assert bs.model_fingerprint(model) == fingerprint
    # The text serializes as the signal did: the fingerprint of a model
    # given the unchanged lists again is the same.
    again = dataclasses.replace(model, input_signal=[1.0, 2.0, [3.0, {"u": [4.0]}], {"w": [3.0, {"u": [4.0]}]}])
    assert bs.model_fingerprint(again) == fingerprint
    # A string cannot be changed, and model_to_dict hands out new plain
    # dicts and lists parsed from it: changing those moves no fingerprint.
    m = dataclasses.replace(bs.random_scenario(seed=0, n=2, m=3, K=3, r=1), input_signal={"u": [1.0]})
    fingerprint = bs.model_fingerprint(m)
    assert fingerprint.startswith("747f6bf0d6ce")
    with pytest.raises(TypeError):
        m.input_signal["v"] = 2.0
    data = bs.model_to_dict(m)
    assert type(data["input_signal"]) is dict and type(data["input_signal"]["u"]) is list
    data["input_signal"]["w"] = 3.0
    data["input_signal"]["u"].append(2.0)
    assert m.input_signal == '{"u":[1.0]}'
    assert bs.model_fingerprint(m) == fingerprint
    # The model pickles, alone and inside an evaluator, and survives
    # dataclasses.replace, which hands the text back to intake and must not
    # encode it a second time: each time the same signal and fingerprint.
    for copy in (
        pickle.loads(pickle.dumps(m)),
        pickle.loads(pickle.dumps(bs.build_evaluator(m))).model,
        dataclasses.replace(m, budgets=(1, 1, 1)),
    ):
        assert copy.input_signal == '{"u":[1.0]}'
        with pytest.raises(TypeError):
            copy.input_signal["v"] = 2.0
        assert bs.model_fingerprint(copy) == fingerprint


@pytest.mark.parametrize(
    "signal",
    [[1.0, float("nan")], {"u": -math.inf}, np.arange(3), {1, 2}, np.int64(3)],
    ids=["nan", "infinity", "ndarray", "set", "numpy-integer"],
)
def test_input_signal_that_is_not_finite_json_is_rejected_naming_it(signal):
    # Each once built a model whose saved file did not load, or whose
    # fingerprint raised a raw TypeError.
    with pytest.raises(bs.InvalidArgument, match="^input_signal must be JSON with finite numbers: "):
        dataclasses.replace(bs.random_scenario(seed=0, n=2, m=3, K=3, r=1), input_signal=signal)


def test_input_signal_with_mixed_key_types_fingerprints_and_round_trips(tmp_path):
    # JSON names every key with a string, so an int key is "1" in the
    # fingerprint as in the saved file; sorting 1 against "a" once raised.
    model = dataclasses.replace(bs.random_scenario(seed=0, n=2, m=3, K=3, r=1), input_signal={1: 0, "a": 0})
    assert model.input_signal == '{"1":0,"a":0}'
    fingerprint = bs.model_fingerprint(model)
    path = tmp_path / "scenario.json"
    bs.save_scenario(model, str(path))
    assert bs.model_fingerprint(bs.load_scenario(str(path))) == fingerprint
    ev = bs.build_evaluator(model)
    assert bs.certify_ratio(ev).fingerprint == fingerprint
    assert bs.fuzz_monotonicity(ev, 4, 0).fingerprint == fingerprint


def _reachable_arrays(value, seen):
    """Every array reachable from ``value`` through attributes, tuples, lists and dicts."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _reachable_arrays(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _reachable_arrays(item, seen)
    elif hasattr(value, "__dict__"):
        yield from _reachable_arrays(vars(value), seen)


def test_every_array_stays_read_only_through_a_pickle_round_trip():
    # NumPy does not pickle the write flag.
    model = dataclasses.replace(
        bs.random_scenario(seed=1, n=2, m=3, K=3, r=1, kind="continuous-variant"), input_matrix=np.ones((2, 1))
    )
    ev = bs.build_evaluator(model)
    for original in (model, ev):
        arrays = list(_reachable_arrays(original, set()))
        copy = pickle.loads(pickle.dumps(original))
        copied = list(_reachable_arrays(copy, set()))
        assert len(copied) == len(arrays) > 10
        assert not any(a.flags.writeable for a in arrays + copied)
    copy = pickle.loads(pickle.dumps(model))
    schedule = schedule_of([[0], [1, 2], []])
    assert bs.objective_logdet(bs.build_evaluator(copy), schedule) == bs.objective_logdet(ev, schedule)


def test_random_scenario_deterministic():
    a = bs.random_scenario(seed=1, n=3, m=4, K=3, r=2)
    b = bs.random_scenario(seed=1, n=3, m=4, K=3, r=2)
    assert bs.model_to_dict(a) == bs.model_to_dict(b)
    assert bs.model_fingerprint(a) == bs.model_fingerprint(b)


def test_random_scenario_seed_sensitive():
    a = bs.random_scenario(seed=1, n=3, m=4, K=3, r=2)
    b = bs.random_scenario(seed=2, n=3, m=4, K=3, r=2)
    assert bs.model_to_dict(a) != bs.model_to_dict(b)


def test_random_scenario_output_validates():
    model = bs.random_scenario(seed=7, n=3, m=4, K=3, r=2)
    rebuilt = dataclasses.replace(model)
    assert bs.model_to_dict(rebuilt) == bs.model_to_dict(model)


@pytest.mark.parametrize(
    "bad_kwargs",
    [
        dict(n=0), dict(m=0), dict(K=0), dict(r=-1), dict(r=5), dict(kind="bogus"),
    ],
)
def test_random_scenario_rejects_bad_arguments(bad_kwargs):
    kwargs = dict(seed=0, n=2, m=2, K=2, r=1)
    kwargs.update(bad_kwargs)
    with pytest.raises(bs.InvalidArgument):
        bs.random_scenario(**kwargs)


def test_random_scenario_never_fails_validation_fuzzed():
    rng = np.random.default_rng(42)
    kinds = list(bs.ModelKind)
    for trial in range(1000):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        r = int(rng.integers(0, m + 1))
        kind = kinds[trial % len(kinds)]
        model = bs.random_scenario(seed=trial, n=n, m=m, K=k, r=r, kind=kind)
        assert model.horizon == k


def test_round_trip_preserves_downstream_results():
    for model in scenario_stream(6, seed0=11):
        data = json.loads(json.dumps(bs.model_to_dict(model)))
        restored = bs.model_from_dict(data)
        assert bs.model_fingerprint(restored) == bs.model_fingerprint(model)
        ev_a = bs.build_evaluator(model)
        ev_b = bs.build_evaluator(restored)
        sched_a, trace_a = bs.greedy_schedule(ev_a)
        sched_b, trace_b = bs.greedy_schedule(ev_b)
        assert sched_a == sched_b
        assert bs.objective_logdet(ev_a, sched_a) == bs.objective_logdet(ev_b, sched_b)
        assert [e.objective for e in trace_a.entries] == [e.objective for e in trace_b.entries]


def test_scenario_file_round_trip(tmp_path):
    model = bs.random_scenario(seed=5, n=2, m=3, K=2, r=1, kind="continuous-variant")
    path = tmp_path / "scenario.json"
    bs.save_scenario(model, str(path))
    loaded = bs.load_scenario(str(path))
    assert bs.model_fingerprint(loaded) == bs.model_fingerprint(model)


def _with_input(model):
    data = bs.model_to_dict(model)
    data["input_matrix"] = [[0.5], [-0.0], [1e-300]]
    data["input_signal"] = [1.0, 2.0]
    return bs.model_from_dict(data)


@pytest.mark.parametrize(
    "model_of, fingerprint, file_sha256",
    [
        (
            lambda: _with_input(bs.random_scenario(seed=17, n=3, m=2, K=3, r=1, kind="continuous-variant")),
            "16ce1ae86da910e49909a22738b259d5edc68ec4666479ea240f7a7ac8db7aed",
            "53b40111cc154c0463e1f9ad43b3745264b0e9842af99156bb5b8b401834d02e",
        ),
        (
            lambda: bs.random_scenario(seed=17, n=2, m=3, K=2, r=2, kind="discrete-invariant"),
            "260f03e987bce6307ba1f781b00cface335e8a24a779d8a973ab23e92e6fc8cc",
            "a42f7050ebb5e514bebea733544f61ab562313665a5ac7425da8fbca239ed6f0",
        ),
        (
            # Unsorted keys: the saved file keeps the caller's order, and the
            # fingerprint sorts them.
            lambda: dataclasses.replace(
                bs.random_scenario(seed=0, n=2, m=3, K=3, r=1),
                input_signal={"b": [1.0, 2], "a": {"z": True, "c": None}},
            ),
            "6f2033a6bec508d83bdb90bf74af0508d865e21cd568fcfd0c9016a4c01aa9a2",
            "4bdb142ded60b22522dead90dd942b23fac8c152569b1031281b39d1c4862924",
        ),
    ],
)
def test_fingerprint_and_saved_bytes_are_pinned(tmp_path, model_of, fingerprint, file_sha256):
    # Any change to the canonical serialization changes every report's fingerprint.
    model = model_of()
    path = tmp_path / "scenario.json"
    bs.save_scenario(model, str(path))
    assert bs.model_fingerprint(model) == fingerprint
    assert hashlib.sha256(path.read_bytes()).hexdigest() == file_sha256


def test_loader_names_json_path(tmp_path):
    model = bs.random_scenario(seed=5, n=2, m=2, K=1, r=1)
    data = bs.model_to_dict(model)
    data["sensors"][1]["V"] = [[1.0], "x"]  # structurally broken matrix
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(bs.InvalidArgument, match=r"sensors\[1\].V"):
        bs.load_scenario(str(path))
    # Shape-level problems surface from validation, naming the matrix.
    data["sensors"][1]["V"] = [[1.0, 0.0]]  # not square
    path.write_text(json.dumps(data))
    with pytest.raises(bs.DimensionMismatch, match="V_2"):
        bs.load_scenario(str(path))


def test_loader_rejects_non_finite(tmp_path):
    model = bs.random_scenario(seed=5, n=2, m=2, K=1, r=1)
    text = json.dumps(bs.model_to_dict(model)).replace("1.0", "NaN", 1)
    path = tmp_path / "nan.json"
    path.write_text(text)
    with pytest.raises(bs.InvalidArgument, match="non-finite"):
        bs.load_scenario(str(path))


def test_loader_rejects_numbers_out_of_range(tmp_path):
    model = bs.random_scenario(seed=5, n=2, m=2, K=1, r=1)
    data = bs.model_to_dict(model)
    data["initial_state_cov"][0][0] = 10**400  # beyond the double range
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    with pytest.raises(bs.DimensionMismatch, match="P_1"):
        bs.load_scenario(str(path))
    # Beyond the JSON parser's integer digit limit.
    path.write_text(json.dumps(data).replace(str(10**400), "1" * 5000))
    with pytest.raises(bs.InvalidArgument, match="invalid JSON"):
        bs.load_scenario(str(path))


def test_loader_rejects_booleans_in_matrices(tmp_path):
    model = bs.random_scenario(seed=5, n=2, m=2, K=2, r=1)
    path = tmp_path / "bool.json"
    for field, label in (("dynamics", "dynamics"), ("initial_state_cov", "P_1")):
        data = bs.model_to_dict(model)
        data[field][0][0] = True
        path.write_text(json.dumps(data))
        with pytest.raises(bs.DimensionMismatch, match=f"{label}.*booleans"):
            bs.load_scenario(str(path))
    data = bs.model_to_dict(model)
    data["sensors"][0]["C"][0][1] = False
    path.write_text(json.dumps(data))
    with pytest.raises(bs.InvalidArgument, match=r"sensors\[0\].C.*booleans"):
        bs.load_scenario(str(path))
    with pytest.raises(bs.DimensionMismatch, match="P_1"):
        tiny_model(initial_state_cov=np.eye(2, dtype=bool))


def _bool_row_first(matrix):
    """The matrix as a list of rows whose first row is a boolean ndarray."""
    rows = [list(row) for row in matrix]
    return [np.array([bool(x) for x in rows[0]])] + rows[1:]


@pytest.mark.parametrize("where", ["P_1", "C", "dynamics", "input_matrix"])
def test_a_boolean_ndarray_row_is_rejected_naming_the_field(where):
    # NumPy would read the row as 1.0 and 0.0; only Python callers can pass
    # one. INTERVAL_FAULTS["boolean_row"] puts one in a time-variant list.
    data = bs.model_to_dict(bs.random_scenario(seed=5, n=2, m=2, K=3, r=1))
    error, message = bs.DimensionMismatch, f"^{where} must contain numbers, not booleans$"
    if where == "P_1":
        data["initial_state_cov"] = _bool_row_first(data["initial_state_cov"])
    elif where == "C":
        data["sensors"][1]["C"] = _bool_row_first(data["sensors"][1]["C"])
        error, message = bs.InvalidArgument, r"^sensors\[1\]\.C must contain numbers, not booleans$"
    else:
        data[where] = _bool_row_first(np.eye(2) if where == "input_matrix" else data[where])
    with pytest.raises(error, match=message):
        bs.model_from_dict(data)


def _bool_in_object_array(matrix):
    """The matrix as an object-dtype array whose first entry is True."""
    array = np.array(matrix, dtype=object)
    array[0, 0] = True
    return array


def _bool_0d_entry(matrix):
    """The matrix as a list of rows whose first entry is a 0-d boolean array."""
    rows = [list(row) for row in matrix]
    rows[0][0] = np.array(True)
    return rows


@pytest.mark.parametrize("hide", [_bool_in_object_array, _bool_0d_entry])
@pytest.mark.parametrize("where", ["P_1", "C", "dynamics[2]"])
def test_a_boolean_hidden_in_an_object_array_or_a_0d_array_is_rejected(where, hide):
    # NumPy would read either as 1.0; only Python callers can pass one.
    data = bs.model_to_dict(bs.random_scenario(seed=8, n=3, m=2, K=6, r=1, kind="discrete-variant"))
    error, message = bs.DimensionMismatch, rf"^{re.escape(where)} must contain numbers, not booleans$"
    if where == "P_1":
        data["initial_state_cov"] = hide(data["initial_state_cov"])
    elif where == "C":
        data["sensors"][1]["C"] = hide(data["sensors"][1]["C"])
        error, message = bs.InvalidArgument, r"^sensors\[1\]\.C must contain numbers, not booleans$"
    else:
        data["dynamics"][2] = hide(data["dynamics"][2])
    with pytest.raises(error, match=message):
        bs.model_from_dict(data)


def _string_entry(matrix):
    """The matrix as a list of rows whose first entry is numeric text."""
    rows = [list(row) for row in matrix]
    rows[0][0] = str(rows[0][0])
    return rows


def _string_in_object_array(matrix):
    """The matrix as an object-dtype array whose first entry is numeric text."""
    array = np.array(matrix, dtype=object)
    array[0, 0] = str(array[0, 0])
    return array


@pytest.mark.parametrize("hide", [
    _string_entry,
    lambda matrix: np.array(matrix).astype(str),
    lambda matrix: np.array(matrix).astype(bytes),
    _string_in_object_array,
], ids=["entry", "str_array", "bytes_array", "object_array"])
@pytest.mark.parametrize("where", ["P_1", "C", "dynamics[2]"])
def test_numeric_strings_in_a_matrix_are_rejected_naming_the_field(where, hide):
    # NumPy would parse "2.0" as 2.0; measurement_times and budgets reject text too.
    data = bs.model_to_dict(bs.random_scenario(seed=8, n=3, m=2, K=6, r=1, kind="discrete-variant"))
    error, message = bs.DimensionMismatch, rf"^{re.escape(where)} must contain numbers, not strings$"
    if where == "P_1":
        data["initial_state_cov"] = hide(data["initial_state_cov"])
    elif where == "C":
        data["sensors"][1]["C"] = hide(data["sensors"][1]["C"])
        error, message = bs.InvalidArgument, r"^sensors\[1\]\.C must contain numbers, not strings$"
    else:
        data["dynamics"][2] = hide(data["dynamics"][2])
    with pytest.raises(error, match=message):
        bs.model_from_dict(data)


@pytest.mark.parametrize("value, fault", [("2.0", "must be a non-empty 2-D matrix"),
                                          ({"0": [1.0, 0.0]}, "is not a numeric matrix")])
def test_a_string_or_a_mapping_in_place_of_a_matrix_is_no_matrix(value, fault):
    # Not "must contain numbers, not strings": the value is no matrix at all.
    data = bs.model_to_dict(bs.random_scenario(seed=8, n=2, m=2, K=3, r=1))
    data["initial_state_cov"] = value
    with pytest.raises(bs.DimensionMismatch, match=f"^P_1 {fault}$"):
        bs.model_from_dict(data)


@pytest.mark.parametrize("rows", [[{"a": 1.0}, {"b": 2.0}], [{True: 1.0}, {False: 2.0}]], ids=["text_keys", "bool_keys"])
@pytest.mark.parametrize("where", ["P_1", "C", "dynamics[2]"])
def test_a_matrix_whose_rows_are_mappings_is_no_numeric_matrix(where, rows):
    # Not "must contain numbers, not strings" (or booleans): a mapping's
    # keys are no entries of the matrix.
    data = bs.model_to_dict(bs.random_scenario(seed=8, n=3, m=2, K=6, r=1, kind="discrete-variant"))
    error, message = bs.DimensionMismatch, rf"^{re.escape(where)} is not a numeric matrix$"
    if where == "P_1":
        data["initial_state_cov"] = rows
    elif where == "C":
        data["sensors"][0]["C"] = rows
        error, message = bs.InvalidArgument, r"^sensors\[0\]\.C is not a numeric matrix$"
    else:
        data["dynamics"][2] = rows
    with pytest.raises(error, match=message):
        bs.model_from_dict(data)


def test_a_time_invariant_kind_rejects_a_list_of_interval_matrices():
    data = bs.model_to_dict(bs.random_scenario(seed=8, n=3, m=2, K=6, r=1, kind="discrete-invariant"))
    data["dynamics"] = [data["dynamics"], data["dynamics"]]
    with pytest.raises(bs.DimensionMismatch, match="^dynamics must be a single matrix for a time-invariant model$"):
        bs.model_from_dict(data)


def test_atomic_write_that_fails_to_rename_keeps_the_target_and_removes_its_temporary(tmp_path, monkeypatch):
    target = tmp_path / "r.json"
    target.write_text("before\n")

    def failing(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(bs.model.os, "replace", failing)
    with pytest.raises(OSError, match="rename refused"):
        bs.model.write_texts_atomic({str(target): "after\n"})
    assert target.read_text() == "before\n"
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_loader_rejects_unknown_and_missing_keys(tmp_path):
    model = bs.random_scenario(seed=5, n=2, m=2, K=1, r=1)
    data = bs.model_to_dict(model)
    data["extra"] = 1
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(data))
    with pytest.raises(bs.InvalidArgument, match="extra"):
        bs.load_scenario(str(path))
    del data["extra"]
    del data["budgets"]
    path.write_text(json.dumps(data))
    with pytest.raises(bs.InvalidArgument, match="budgets"):
        bs.load_scenario(str(path))


def test_schedule_operations():
    s = bs.Schedule.empty(2)
    s = s.with_added(0, 2).with_added(0, 1)
    assert s.selections == ((1, 2), ())
    assert 2 in s.selections[0] and 2 not in s.selections[1]
    with pytest.raises(bs.SensorAlreadySelected):
        s.with_added(0, 1)


def test_schedule_validate_for():
    model = bs.random_scenario(seed=0, n=2, m=3, K=2, r=1)
    schedule_of([[0], []]).validate_for(model)
    with pytest.raises(bs.BudgetOutOfRange):
        schedule_of([[0, 1], []]).validate_for(model)
    with pytest.raises(bs.InvalidArgument):
        schedule_of([[7], []]).validate_for(model)
    with pytest.raises(bs.InvalidArgument):
        schedule_of([[0]]).validate_for(model)


def _noise_fault_model(faults):
    # Sensors of 1, 2, 2 and 1 rows, so V_1 and V_4 stack in one group and
    # V_2 and V_3 in the other; ``faults`` replaces some V_i (1-based).
    rng = np.random.default_rng(2)
    sensors = []
    for index, d in enumerate((1, 2, 2, 1), start=1):
        g = rng.standard_normal((d, d))
        V = faults.get(index, g @ g.T + np.eye(d))
        sensors.append(bs.Sensor(C=rng.standard_normal((d, 2)), V=V))
    return tiny_model(sensors=tuple(sensors))


def test_sensor_noise_fault_names_the_lowest_failing_sensor():
    indefinite = "is not positive definite: its Cholesky factorization meets a pivot <= 0"
    with pytest.raises(bs.NotPositiveDefinite) as raised:
        _noise_fault_model({2: -np.eye(2), 4: np.array([[-1.0]])})
    assert str(raised.value).startswith(f"V_2 {indefinite}")
    with pytest.raises(bs.NotPositiveDefinite) as raised:
        _noise_fault_model({4: np.array([[0.0]])})
    assert str(raised.value).startswith(f"V_4 {indefinite}")
    asymmetric = np.array([[2.0, 1.0], [0.0, 2.0]])
    for faults in ({3: asymmetric}, {3: asymmetric, 4: np.array([[-1.0]])}):
        with pytest.raises(bs.NotPositiveDefinite) as raised:
            _noise_fault_model(faults)
        assert str(raised.value) == "V_3 must be symmetric"
    model = _noise_fault_model({})
    assert [s.V.shape for s in model.sensors] == [(1, 1), (2, 2), (2, 2), (1, 1)]


def test_schedule_shape_names_the_first_index_out_of_range():
    schedule_of([[0, 2], [], [1]]).check_shape(3, 3)
    for slots, message in (
        ([[0, 2], [], [1, 3]], "sensor index 3 out of range at time index 2"),
        ([[0], [-1, 5], []], "sensor index -1 out of range at time index 1"),
    ):
        with pytest.raises(bs.InvalidArgument, match=f"^{message}$"):
            bs.Schedule(tuple(map(tuple, slots))).check_shape(3, 3)


def _negated(m):
    return [[-x for x in row] for row in m]


# One fault in one interval's matrix of a five-interval model (n = 3, noise
# width 3): the field, how the matrix changes, and the error it must raise,
# with {j} the list index and {label} the 1-based interval.
INTERVAL_FAULTS = {
    "boolean": ("dynamics", lambda m: [[True] + m[0][1:]] + m[1:],
                bs.DimensionMismatch, "dynamics[{j}] must contain numbers, not booleans"),
    "boolean_row": ("dynamics", _bool_row_first,
                    bs.DimensionMismatch, "dynamics[{j}] must contain numbers, not booleans"),
    "nan": ("noise_input", lambda m: [m[0], [m[1][0], math.nan, m[1][2]], m[2]],
            bs.DimensionMismatch, "noise_input[{j}] must contain only finite entries"),
    "shape": ("dynamics", lambda m: [row[:2] for row in m],
              bs.DimensionMismatch, "A_{label} must be 3x3, got 3x2"),
    "rows": ("noise_input", lambda m: m[:2],
             bs.DimensionMismatch, "F_{label} must have 3 rows, got 2"),
    "asymmetric": ("process_noise_cov", lambda m: [[m[0][0], m[0][1] + 1.0, m[0][2]]] + m[1:],
                   bs.NotPositiveDefinite, "W_{label} must be symmetric"),
    "indefinite": ("process_noise_cov", _negated,
                   bs.NotPositiveDefinite,
                   "W_{label} is not positive definite: its Cholesky factorization meets a pivot "
                   "<= 0 (pivot ratio <= 0, PD_PIVOT_RTOL = 1e-12)"),
    "near_singular": ("process_noise_cov", lambda m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-14]],
                      bs.NotPositiveDefinite,
                      "W_{label} is not positive definite: smallest Cholesky pivot ratio 1e-14 "
                      "<= PD_PIVOT_RTOL = 1e-12"),
}


@pytest.mark.parametrize("j", [0, 2, 4])
@pytest.mark.parametrize("fault", sorted(INTERVAL_FAULTS))
def test_interval_fault_names_its_interval(fault, j):
    field, change, error, message = INTERVAL_FAULTS[fault]
    data = bs.model_to_dict(bs.random_scenario(seed=8, n=3, m=2, K=6, r=1, kind="discrete-variant"))
    data[field][j] = change(data[field][j])
    expected = message.format(j=j, label=j + 1)
    with pytest.raises(error) as raised:
        bs.model_from_dict(data)
    assert type(raised.value) is error and str(raised.value) == expected
    if fault in ("nan", "asymmetric", "indefinite", "near_singular"):
        # The same fault inside one (intervals, rows, cols) array.
        data[field] = np.array(data[field])
        with pytest.raises(error) as raised:
            bs.model_from_dict(data)
        assert type(raised.value) is error and str(raised.value) == expected


def test_interval_fields_are_stored_as_read_only_stacks():
    model = bs.random_scenario(seed=8, n=3, m=2, K=6, r=1, kind="discrete-variant")
    for field in (model.dynamics, model.noise_input, model.process_noise_cov):
        assert isinstance(field, np.ndarray) and field.shape == (5, 3, 3)
        assert not field.flags.writeable
    invariant = bs.random_scenario(seed=8, n=3, m=2, K=6, r=1, kind="continuous-invariant")
    assert invariant.dynamics.shape == (1, 3, 3)
    np.testing.assert_array_equal(interval_matrices(invariant, 4)[0], invariant.dynamics[0])
