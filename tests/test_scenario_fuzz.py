"""Scenario-file fuzzing: a malformed field is rejected with exit 2, never a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import batchsched as bs
from batchsched.cli import main

BASES = tuple(
    bs.model_to_dict(bs.random_scenario(seed=4, n=2, m=2, K=K, r=1, kind=kind))
    # The K=4 base lists three matrices per interval field.
    for kind, K in (("discrete-invariant", 2), ("continuous-variant", 2), ("discrete-variant", 4))
)
REPLACEMENTS = ("x", None, True, [], [1.0], {}, {"C": [[1.0]]})


def json_paths(node, path=()):
    """Every location in a JSON tree, the root included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from json_paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from json_paths(child, path + (index,))


@st.composite
def mutated_scenarios(draw):
    """A base scenario with one value's type or one list's length changed."""
    data = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    path = draw(st.sampled_from(list(json_paths(data))))
    parent, target = None, data
    for step in path:
        parent, target = target, target[step]
    ops = ["replace", "drop", "duplicate"] if isinstance(target, list) and target else ["replace"]
    op = draw(st.sampled_from(ops))
    if op == "replace":
        value = draw(st.sampled_from(REPLACEMENTS))
        if parent is None:
            return value
        parent[path[-1]] = value
        return data
    index = draw(st.integers(0, len(target) - 1))
    if op == "drop":
        del target[index]
    else:
        target.insert(index, target[index])
    return data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=mutated_scenarios())
def test_mutated_scenario_exits_0_or_2(workdir, data):
    scenario = workdir / "s.json"
    scenario.write_text(json.dumps(data))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "schedule", "--algorithm", "empty",
            "--config", str(scenario), "--out", str(workdir / "r.json"),
        ])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
