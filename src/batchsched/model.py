"""System, sensor bank, horizon, and schedule definitions.

Single source of truth for every other module: a SystemModel is valid by
construction, immutable, serializes to a JSON scenario file, and can be
generated pseudo-randomly for tests and benchmarks.

Indexing conventions: sensor indices and time indices are 0-based
everywhere in code and in JSON. Diagnostics name matrices in the
conventional 1-based mathematical style (the first sensor's noise
covariance is "V_1").
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Any, Sequence

import numpy as np

from ._linalg import pd_factors
from .errors import (
    BudgetOutOfRange,
    DimensionMismatch,
    InvalidArgument,
    NonIncreasingTimes,
    SensorAlreadySelected,
)

SCENARIO_KEYS = (
    "kind",
    "state_dim",
    "dynamics",
    "noise_input",
    "process_noise_cov",
    "initial_state_cov",
    "measurement_times",
    "sensors",
    "budgets",
)
# Accepted for fidelity to the full system description; never used by any
# covariance computation (known inputs shift the estimate mean only).
OPTIONAL_SCENARIO_KEYS = ("input_matrix", "input_signal")
# The deepest nesting of lists and objects accepted in input_signal, far
# below the interpreter's recursion limit, which the JSON decoder behind
# model_to_dict must stay under however deep the stack it is called from.
INPUT_SIGNAL_MAX_DEPTH = 32


class ModelKind(str, Enum):
    """Dynamics flavor: continuous vs discrete, time-invariant vs per-interval."""

    CONTINUOUS_INVARIANT = "continuous-invariant"
    CONTINUOUS_VARIANT = "continuous-variant"
    DISCRETE_INVARIANT = "discrete-invariant"
    DISCRETE_VARIANT = "discrete-variant"

    @property
    def continuous(self) -> bool:
        return self in (ModelKind.CONTINUOUS_INVARIANT, ModelKind.CONTINUOUS_VARIANT)

    @property
    def variant(self) -> bool:
        return self in (ModelKind.CONTINUOUS_VARIANT, ModelKind.DISCRETE_VARIANT)


def freeze_arrays(value: Any) -> None:
    """Make every array in ``value``, through nested tuples and lists, read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, list)):
        for item in value:
            freeze_arrays(item)


class ReadOnlyArrays:
    """Base of immutable classes: NumPy does not pickle the write flag, so unpickling refreezes."""

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        freeze_arrays(list(state.values()))


@dataclass(frozen=True, eq=False)
class Sensor(ReadOnlyArrays):
    """One linear sensor: measurement matrix C (d x n), noise covariance V (d x d)."""

    C: np.ndarray
    V: np.ndarray


@dataclass(frozen=True, eq=False)
class SystemModel(ReadOnlyArrays):
    """Dynamical system, sensor bank, measurement grid, and per-time budgets.

    ``dynamics``, ``noise_input`` and ``process_noise_cov`` hold one matrix
    for time-invariant kinds and one matrix per inter-measurement interval
    (K-1 of them) for time-variant kinds. Construction checks every
    invariant and stores each as one (J, rows, cols) array, J = 1 or K-1,
    or as a tuple of J matrices when the noise widths differ between
    intervals. ``input_signal`` is stored as its canonical JSON text (a
    ``str``), or None. So every model is valid; models are immutable and
    safe to share across workers.
    """

    kind: ModelKind
    state_dim: int
    dynamics: np.ndarray | tuple[np.ndarray, ...]
    noise_input: np.ndarray | tuple[np.ndarray, ...]
    process_noise_cov: np.ndarray | tuple[np.ndarray, ...]
    initial_state_cov: np.ndarray
    measurement_times: tuple[float, ...]
    sensors: tuple[Sensor, ...]
    budgets: tuple[int, ...]
    input_matrix: np.ndarray | None = None
    input_signal: Any = None  # any JSON value on input; its canonical text once built
    # Kept from construction for build_evaluator: P_1's lower Cholesky factor and,
    # per row count d, the sensors' indices and (len, d, n) C, (len, d, d) V and V-factor stacks.
    _initial_factor: np.ndarray = field(init=False, repr=False)
    _sensor_groups: tuple[tuple, ...] = field(init=False, repr=False)

    @property
    def horizon(self) -> int:
        return len(self.measurement_times)

    @property
    def sensor_count(self) -> int:
        return len(self.sensors)

    def __post_init__(self) -> None:
        """Check every model invariant and normalize the fields in place."""
        for name, value in _normalized_fields(self).items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Schedule:
    """Selected sensor index sets per measurement time, stored as tuples
    whatever sequences they are given (as by ``to_lists``)."""

    selections: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "selections", tuple(map(tuple, self.selections)))

    @classmethod
    def empty(cls, horizon: int) -> "Schedule":
        return cls(tuple(() for _ in range(horizon)))

    def with_added(self, k: int, i: int) -> "Schedule":
        slot = self.selections[k]
        if i in slot:
            raise SensorAlreadySelected(f"sensor {i} already selected at time index {k}")
        new_slot = tuple(sorted(slot + (i,)))
        return Schedule(self.selections[:k] + (new_slot,) + self.selections[k + 1:])

    def to_lists(self) -> list[list[int]]:
        return [list(s) for s in self.selections]

    def check_shape(self, horizon: int, sensor_count: int) -> None:
        """Raise InvalidArgument unless the schedule has ``horizon`` slots,
        every sensor index is an integer (a bool is not) in [0, sensor_count)
        and no slot lists a sensor twice (a slot's order does not matter)."""
        if len(self.selections) != horizon:
            raise InvalidArgument(f"schedule has {len(self.selections)} slots, expected {horizon}")
        flat = list(chain.from_iterable(self.selections))
        wrong = [t for t in set(map(type, flat)) if issubclass(t, bool) or not issubclass(t, (int, np.integer))]
        if wrong:
            k, i = next((k, i) for k, slot in enumerate(self.selections) for i in slot if type(i) in wrong)
            raise InvalidArgument(f"sensor index {i!r} at time index {k} is not an integer")
        if flat and (min(flat) < 0 or max(flat) >= sensor_count):
            k, i = next(
                (k, i) for k, slot in enumerate(self.selections) for i in slot if not 0 <= i < sensor_count
            )
            raise InvalidArgument(f"sensor index {i} out of range at time index {k}")
        if sum(map(len, map(set, self.selections))) != len(flat):
            k, i = next(
                (k, i) for k, slot in enumerate(self.selections) for j, i in enumerate(slot) if i in slot[:j]
            )
            raise InvalidArgument(f"time index {k} selects sensor {i} twice")

    def validate_for(self, model: SystemModel) -> "Schedule":
        self.check_shape(model.horizon, model.sensor_count)
        for k, slot in enumerate(self.selections):
            if len(slot) > model.budgets[k]:
                raise BudgetOutOfRange(
                    f"time index {k} selects {len(slot)} sensors, budget is {model.budgets[k]}"
                )
        return self


def _is_sequence(value: Any) -> bool:
    return isinstance(value, (list, tuple, np.ndarray))


# What a non-object ndarray dtype kind holds that NumPy would read as numbers.
_NON_NUMBER_KINDS = {"b": "booleans", "U": "strings", "S": "strings"}


def _floats(value: Any, ndim: int) -> np.ndarray | str:
    """A matrix (``ndim`` 2) or a sequence of matrices (``ndim`` 3) as a float
    array, converted once, or why not: "booleans" or "strings" if it holds
    what NumPy would read as numbers although it is none (True as 1.0, numeric
    text such as "2.0" as its value), "" if it does not convert. Those are
    bool, str or bytes entries, ndarray entries (0-d ones too, as in an object
    array) of boolean or string dtype, or a whole boolean or string ndarray.
    Entries are read only if the value has ``ndim`` levels: a string, a
    mapping or a ragged list is no matrix, whatever it holds."""
    found = None
    try:
        if isinstance(value, np.ndarray) and value.dtype != object:
            array, found = np.asarray(value), _NON_NUMBER_KINDS.get(value.dtype.kind)  # a plain array, not np.matrix
        elif (array := np.array(value, dtype=object)).ndim == ndim:
            entries = array.ravel().tolist()  # the entries themselves, not float copies
            types = set(map(type, entries))
            if bool in types or np.bool_ in types:
                found = "booleans"
            elif any(issubclass(t, (str, bytes)) for t in types):
                found = "strings"
            elif any(issubclass(t, np.ndarray) for t in types):
                kinds = {e.dtype.kind for e in entries if isinstance(e, np.ndarray)}
                found = "booleans" if "b" in kinds else "strings" if kinds & {"U", "S"} else None
        return found or array.astype(float)
    except (TypeError, ValueError, OverflowError):
        return ""


def _as_matrix(value: Any, name: str) -> np.ndarray:
    arr = _floats(value, 2)
    if isinstance(arr, str):
        raise DimensionMismatch(f"{name} must contain numbers, not {arr}" if arr else f"{name} is not a numeric matrix")
    if arr.ndim != 2 or 0 in arr.shape:
        raise DimensionMismatch(f"{name} must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch(f"{name} must contain only finite entries")
    return arr


def _lists_matrices(value: Sequence) -> bool:
    """Whether a nonempty sequence lists matrices rather than being one matrix's rows."""
    head = value[0]
    return _is_sequence(head) and len(head) > 0 and _is_sequence(head[0])


def _float_stack(mats: Any) -> np.ndarray | None:
    """A sequence of matrices as one read-only float array (len, rows, cols), in one
    conversion; None unless they convert into nonempty, finite matrices of one shape, with no booleans or strings."""
    stack = _floats(mats, 3)
    if isinstance(stack, str) or stack.ndim != 3 or 0 in stack.shape or not np.isfinite(stack).all():
        return None
    stack.setflags(write=False)
    return stack


def _interval_field(value: Any, kind: ModelKind, horizon: int, name: str) -> np.ndarray | tuple[np.ndarray, ...]:
    """The field, one matrix or a list of matrices, as a (J, rows, cols) stack,
    or as a tuple of J matrices when their shapes differ."""
    if isinstance(value, np.ndarray) and value.ndim in (2, 3):
        listed = value.ndim == 3
        mats = value if listed else value[None]
    elif isinstance(value, (list, tuple)):
        listed = len(value) == 0 or _lists_matrices(value)
        mats = value if listed else [value]
    else:
        raise DimensionMismatch(f"{name} must be a matrix or a list of matrices")
    field = _float_stack(mats)
    if field is None:  # it does not convert whole; name the first fault
        names = [f"{name}[{j}]" for j in range(len(mats))] if listed else [name]
        mats = [_as_matrix(m, label) for m, label in zip(mats, names)]
        field = np.stack(mats) if mats and len({m.shape for m in mats}) == 1 else tuple(mats)
    if kind.variant:
        expected = horizon - 1
        if len(field) != expected:
            raise DimensionMismatch(
                f"{name} must list {expected} per-interval matrices for a time-variant model, got {len(field)}"
            )
    else:
        if len(field) != 1:
            raise DimensionMismatch(f"{name} must be a single matrix for a time-invariant model")
    return field


def _interval_label(base: str, j: int, variant: bool) -> str:
    return f"{base}_{j + 1}" if variant else base


def _check_interval_shapes(n: int, a_shape: tuple, f_shape: tuple, w_shape: tuple, j: int, variant: bool) -> None:
    a_name, f_name, w_name = (_interval_label(base, j, variant) for base in "AFW")
    if a_shape != (n, n):
        raise DimensionMismatch(f"{a_name} must be {n}x{n}, got {a_shape[0]}x{a_shape[1]}")
    if f_shape[0] != n:
        raise DimensionMismatch(f"{f_name} must have {n} rows, got {f_shape[0]}")
    p = f_shape[1]
    if w_shape != (p, p):
        raise DimensionMismatch(f"{w_name} must be {p}x{p} to match {f_name}, got {w_shape[0]}x{w_shape[1]}")


def _sensor_entries(obj: Any, index: int) -> tuple[Any, Any]:
    if isinstance(obj, Sensor):
        return obj.C, obj.V
    if isinstance(obj, dict) and set(obj) == {"C", "V"}:
        return obj["C"], obj["V"]
    raise DimensionMismatch(
        f"sensors[{index}] must be a Sensor or an object with exactly the keys C and V"
    )


def _as_sensor(obj: Any, index: int, n: int) -> Sensor:
    """One sensor converted and checked; the error names its first fault."""
    c_raw, v_raw = _sensor_entries(obj, index)
    try:
        c = _as_matrix(c_raw, f"sensors[{index}].C")
        v = _as_matrix(v_raw, f"sensors[{index}].V")
    except DimensionMismatch as exc:
        raise InvalidArgument(str(exc)) from None
    if c.shape[1] != n:
        raise DimensionMismatch(f"C_{index + 1} must have {n} columns, got {c.shape[1]}")
    d = c.shape[0]
    if v.shape != (d, d):
        raise DimensionMismatch(f"V_{index + 1} must be {d}x{d} to match C_{index + 1}")
    return Sensor(C=c, V=v)


def _grouped_sensors(sensors: Sequence, n: int) -> list[tuple[tuple[int, ...], np.ndarray, np.ndarray]] | None:
    """Per row count d, in order of first appearance: the indices of the sensors
    with d rows and their C and V as (len, d, n) and (len, d, d) float stacks,
    one conversion each. None if a sensor is not valid; ``_as_sensor`` names its fault."""
    groups: dict[int, list] = {}
    try:
        for i, obj in enumerate(sensors):
            c, v = _sensor_entries(obj, i)
            groups.setdefault(len(c), []).append((i, c, v))
    except (DimensionMismatch, TypeError):  # TypeError: a C with no length
        return None
    stacks = []
    for d, members in groups.items():
        indices, cs, vs = zip(*members)
        c, v = _float_stack(cs), _float_stack(vs)
        if c is None or v is None or c.shape != (len(indices), d, n) or v.shape != (len(indices), d, d):
            return None
        stacks.append((indices, c, v))
    return stacks


class _SignalText(str):
    """A stored input_signal's text, which intake keeps as it is (as from
    ``dataclasses.replace``): a plain str is a JSON signal and would be encoded again."""


def _model_kind(value: Any) -> ModelKind:
    try:
        return ModelKind(value)
    except ValueError:
        raise InvalidArgument(f"kind must be one of {[k.value for k in ModelKind]}, got {value!r}") from None


def _normalized_fields(model: SystemModel) -> dict[str, Any]:
    """The model's fields checked and converted: frozen float arrays, plain
    ints and floats, a ModelKind, tuples and input_signal's canonical JSON
    text, keys in the caller's order (the fingerprint sorts them).

    Raises DimensionMismatch, NotPositiveDefinite, NonIncreasingTimes,
    BudgetOutOfRange or InvalidArgument with a message naming the offending
    field.
    """
    kind = _model_kind(model.kind)
    n = model.state_dim
    if not is_integer(n) or n < 1:
        raise DimensionMismatch("state_dim must be a positive integer")
    n = int(n)

    times_raw = model.measurement_times
    if not _is_sequence(times_raw) or len(times_raw) < 1:
        raise DimensionMismatch("measurement_times must be a non-empty list")
    times = []
    for k, t in enumerate(times_raw):
        if isinstance(t, bool) or not isinstance(t, (int, float, np.integer, np.floating)):
            raise DimensionMismatch(f"measurement_times[{k}] must be a number, got {t!r}")
        try:
            tf = float(t)
        except OverflowError:
            tf = np.inf
        if not math.isfinite(tf):
            raise DimensionMismatch(f"measurement_times[{k}] must be finite")
        times.append(tf)
    for a, b in zip(times, times[1:]):
        if not b > a:
            raise NonIncreasingTimes(f"measurement_times must be strictly increasing ({a} then {b})")
    horizon = len(times)

    dynamics = _interval_field(model.dynamics, kind, horizon, "dynamics")
    noise_input = _interval_field(model.noise_input, kind, horizon, "noise_input")
    process = _interval_field(model.process_noise_cov, kind, horizon, "process_noise_cov")

    if all(isinstance(field, np.ndarray) for field in (dynamics, noise_input, process)):
        # Every interval has the first one's shapes.
        _check_interval_shapes(n, dynamics.shape[1:], noise_input.shape[1:], process.shape[1:], 0, kind.variant)
    else:  # the noise widths differ between intervals
        for j, (a, f, w) in enumerate(zip(dynamics, noise_input, process)):
            _check_interval_shapes(n, a.shape, f.shape, w.shape, j, kind.variant)

    p1 = _as_matrix(model.initial_state_cov, "P_1")
    if p1.shape != (n, n):
        raise DimensionMismatch(f"P_1 must be {n}x{n}, got {p1.shape[0]}x{p1.shape[1]}")

    if not _is_sequence(model.sensors):
        raise DimensionMismatch("sensors must be a list")
    stacks = _grouped_sensors(model.sensors, n)
    if stacks is None:
        stacks = _grouped_sensors([_as_sensor(raw, i, n) for i, raw in enumerate(model.sensors)], n)
    sensors = [None] * len(model.sensors)
    for indices, measurement, noise in stacks:
        for i, c, v in zip(indices, measurement, noise):
            sensors[i] = Sensor(C=c, V=v)
    m = len(sensors)
    # One stack per noise width: the W_j are only checked, so their order does not matter.
    w_stacks = [process] if isinstance(process, np.ndarray) else [
        np.stack([w for w in process if len(w) == p]) for p in dict.fromkeys(map(len, process))
    ]
    names = chain(
        (_interval_label("W", j, kind.variant) for j in range(len(process))), ["P_1"], (f"V_{i + 1}" for i in range(m))
    )
    factors = pd_factors(
        [*w_stacks, p1[None], *(noise for _, _, noise in stacks)],
        zip(names, chain(process, [p1], (sensor.V for sensor in sensors))),
    )
    groups = tuple((*stack, factor) for stack, factor in zip(stacks, factors[len(w_stacks) + 1:]))

    budgets_raw = model.budgets
    if not _is_sequence(budgets_raw) or len(budgets_raw) != horizon:
        raise DimensionMismatch(f"budgets must be a list of {horizon} integers")
    budgets = []
    for k, r in enumerate(budgets_raw):
        if not is_integer(r):
            raise DimensionMismatch(f"budgets[{k}] must be an integer")
        r = int(r)
        if not 0 <= r <= m:
            raise BudgetOutOfRange(f"budgets[{k}] = {r} outside [0, {m}]")
        budgets.append(r)

    input_matrix = None
    if model.input_matrix is not None:
        input_matrix = _as_matrix(model.input_matrix, "input_matrix")
        if input_matrix.shape[0] != n:
            raise DimensionMismatch(f"input_matrix must have {n} rows, got {input_matrix.shape[0]}")

    signal = model.input_signal
    if signal is not None and not isinstance(signal, _SignalText):
        level = [signal]
        for _ in range(INPUT_SIGNAL_MAX_DEPTH):
            level = [
                child
                for item in level if isinstance(item, (list, tuple, dict))
                for child in (item.values() if isinstance(item, dict) else item)
            ]
        if level:
            raise InvalidArgument(f"input_signal must nest lists and objects at most {INPUT_SIGNAL_MAX_DEPTH} deep")
        try:
            signal = _SignalText(json.dumps(signal, separators=(",", ":"), allow_nan=False))
        except (TypeError, ValueError, RecursionError) as exc:
            raise InvalidArgument(f"input_signal must be JSON with finite numbers: {exc}") from None

    fields = {
        "kind": kind,
        "state_dim": n,
        "dynamics": dynamics,
        "noise_input": noise_input,
        "process_noise_cov": process,
        "initial_state_cov": p1,
        "measurement_times": tuple(times),
        "sensors": tuple(sensors),
        "budgets": tuple(budgets),
        "input_matrix": input_matrix,
        "input_signal": signal,
        "_initial_factor": factors[len(w_stacks)][0],
        "_sensor_groups": groups,
    }
    # The sensors, their groups and the factors are read-only already.
    freeze_arrays([dynamics, noise_input, process, p1, input_matrix])
    return fields


def _random_spd(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d))
    return g @ g.T + 0.1 * np.eye(d)


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def _random_dynamics(rng: np.random.Generator, n: int, kind: ModelKind) -> np.ndarray:
    g = rng.standard_normal((n, n))
    eig = np.linalg.eigvals(g)
    if kind.continuous:
        shift = float(eig.real.max()) - 0.2
        if shift > 0.0:
            g = g - shift * np.eye(n)
    else:
        radius = float(np.abs(eig).max())
        if radius > 1.2:
            g = g * (1.2 / radius)
    return g


def is_integer(value: Any) -> bool:
    """Whether ``value`` is an int or a NumPy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_int(label: str, value, low: int) -> None:
    """Raise InvalidArgument, naming ``label``, unless ``value`` is an
    integer of at least ``low`` (0 or 1)."""
    if not is_integer(value) or value < low:
        sign = "positive" if low == 1 else "non-negative"
        raise InvalidArgument(f"{label} must be a {sign} integer, got {value!r}")


def seeded_rng(seed: int) -> np.random.Generator:
    """The random generator for ``seed``, a non-negative integer."""
    require_int("seed", seed, 0)
    return np.random.default_rng(seed)


def random_scenario(
    seed: int,
    n: int,
    m: int,
    K: int,
    r: int,
    kind: ModelKind | str = ModelKind.DISCRETE_INVARIANT,
) -> SystemModel:
    """Deterministic random model: a pure function of the arguments.

    Dynamics are scaled to spectral radius at most 1.2 (discrete) or shifted
    to eigenvalue real parts at most 0.2 (continuous); every covariance is
    G G.T + 0.1 I with G standard normal, so positive definiteness holds by
    construction; each sensor reads a random 1- or 2-dimensional linear
    functional of the state.
    """
    kind = _model_kind(kind)
    for label, value in (("n", n), ("m", m), ("K", K)):
        require_int(label, value, 1)
    if not is_integer(r) or not 0 <= r <= m:
        raise InvalidArgument(f"r must be an integer in [0, {m}], got {r!r}")

    rng = seeded_rng(seed)
    intervals = (K - 1) if kind.variant else 1
    dynamics = [_random_dynamics(rng, n, kind) for _ in range(intervals)]
    noise_input = [_random_orthogonal(rng, n) for _ in range(intervals)]
    process = [_random_spd(rng, n) for _ in range(intervals)]
    initial = _random_spd(rng, n)
    if kind.continuous:
        gaps = rng.uniform(0.2, 1.0, size=max(K - 1, 0))
        times = [0.0]
        for gap in gaps:
            times.append(times[-1] + float(gap))
    else:
        times = [float(k + 1) for k in range(K)]
    sensors = []
    for _ in range(m):
        d = int(rng.integers(1, 3))
        sensors.append(Sensor(C=rng.standard_normal((d, n)), V=_random_spd(rng, d)))

    return SystemModel(
        kind=kind,
        state_dim=int(n),
        dynamics=tuple(dynamics),
        noise_input=tuple(noise_input),
        process_noise_cov=tuple(process),
        initial_state_cov=initial,
        measurement_times=tuple(times),
        sensors=tuple(sensors),
        budgets=tuple(int(r) for _ in range(K)),
    )


def _interval_field_to_json(field: np.ndarray | tuple[np.ndarray, ...], variant: bool):
    mats = field.tolist() if isinstance(field, np.ndarray) else [m.tolist() for m in field]
    return mats if variant else mats[0]


def model_to_dict(model: SystemModel) -> dict:
    """Scenario-file representation; inverse of model_from_dict."""
    kind = ModelKind(model.kind)
    data: dict[str, Any] = {
        "kind": kind.value,
        "state_dim": int(model.state_dim),
        "dynamics": _interval_field_to_json(model.dynamics, kind.variant),
        "noise_input": _interval_field_to_json(model.noise_input, kind.variant),
        "process_noise_cov": _interval_field_to_json(model.process_noise_cov, kind.variant),
        "initial_state_cov": model.initial_state_cov.tolist(),
        "measurement_times": [float(t) for t in model.measurement_times],
        "sensors": [{"C": s.C.tolist(), "V": s.V.tolist()} for s in model.sensors],
        "budgets": [int(r) for r in model.budgets],
    }
    if model.input_matrix is not None:
        data["input_matrix"] = model.input_matrix.tolist()
    if model.input_signal is not None:
        data["input_signal"] = json.loads(model.input_signal)
    return data


def model_from_dict(data: dict) -> SystemModel:
    """Build a model from a scenario dictionary.

    Rejection messages name the offending JSON path, e.g. "sensors[0].V" or
    "measurement_times[2]".
    """
    if not isinstance(data, dict):
        raise InvalidArgument("scenario must be a JSON object")
    allowed = set(SCENARIO_KEYS) | set(OPTIONAL_SCENARIO_KEYS)
    for key in data:
        if key not in allowed:
            raise InvalidArgument(f"unexpected key {key!r} in scenario")
    for key in SCENARIO_KEYS:
        if key not in data:
            raise InvalidArgument(f"missing required key {key!r} in scenario")
    # The keys are exactly SystemModel's fields; a missing optional one takes its default.
    return SystemModel(**data)


def model_fingerprint(model: SystemModel) -> str:
    """SHA-256 of the canonical scenario serialization."""
    canonical = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _reject_constant(token: str):
    raise InvalidArgument(f"non-finite number {token!r} in scenario file")


def load_scenario(path: str) -> SystemModel:
    """Read, parse, and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidArgument(
            f"scenario file {path} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # malformed, an integer too long, or nested too deep
        raise InvalidArgument(f"invalid JSON in scenario file: {exc}") from None
    return model_from_dict(data)


def write_texts_atomic(files: dict[str, str]) -> None:
    """Write each path's text via a temporary file in the same directory, then
    rename. With several paths, all are written, and none may be a directory,
    before any is renamed: such a failure writes no path, and its OSError names it."""
    staged = []
    try:
        for path, text in files.items():
            try:
                if len(files) > 1 and os.path.isdir(path):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                directory = os.path.dirname(os.path.abspath(path))
                fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".batchsched-", suffix=".tmp")
                staged.append(tmp_path)
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
        for tmp_path, path in zip(staged, files):
            os.replace(tmp_path, path)
    except BaseException:
        for tmp_path in staged:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
        raise


def save_scenario(model: SystemModel, path: str) -> None:
    write_texts_atomic({path: json.dumps(model_to_dict(model), indent=2) + "\n"})
