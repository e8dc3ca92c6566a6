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

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ._linalg import chol_pd_stack
from .errors import (
    BudgetOutOfRange,
    DimensionMismatch,
    InvalidArgument,
    NonIncreasingTimes,
    NotPositiveDefinite,
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


@dataclass(frozen=True, eq=False)
class Sensor:
    """One linear sensor: measurement matrix C (d x n), noise covariance V (d x d)."""

    C: np.ndarray
    V: np.ndarray


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Dynamical system, sensor bank, measurement grid, and per-time budgets.

    ``dynamics``, ``noise_input`` and ``process_noise_cov`` hold one matrix
    for time-invariant kinds and one matrix per inter-measurement interval
    (K-1 of them) for time-variant kinds. Construction checks every
    invariant and stores each as one (J, rows, cols) array, J = 1 or K-1,
    or as a tuple of J matrices when the noise widths differ between
    intervals. So every model is valid; models are immutable and safe to
    share across workers.
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
    input_signal: Any = None

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

    def interval_dynamics(self, j: int) -> np.ndarray:
        """Dynamics matrix governing interval j (0-based, j < K-1)."""
        return self.dynamics[j] if self.kind.variant else self.dynamics[0]

    def interval_noise_input(self, j: int) -> np.ndarray:
        return self.noise_input[j] if self.kind.variant else self.noise_input[0]

    def interval_process_noise(self, j: int) -> np.ndarray:
        return self.process_noise_cov[j] if self.kind.variant else self.process_noise_cov[0]

    def interval_length(self, j: int) -> float:
        return self.measurement_times[j + 1] - self.measurement_times[j]


@dataclass(frozen=True)
class Schedule:
    """Selected sensor index sets per measurement time, as sorted tuples."""

    selections: tuple[tuple[int, ...], ...]

    @classmethod
    def empty(cls, horizon: int) -> "Schedule":
        return cls(tuple(() for _ in range(horizon)))

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]]) -> "Schedule":
        return cls(tuple(tuple(sorted({int(i) for i in s})) for s in sets))

    def __len__(self) -> int:
        return len(self.selections)

    def contains(self, k: int, i: int) -> bool:
        return i in self.selections[k]

    def with_added(self, k: int, i: int) -> "Schedule":
        slot = self.selections[k]
        if i in slot:
            raise SensorAlreadySelected(f"sensor {i} already selected at time index {k}")
        new_slot = tuple(sorted(slot + (i,)))
        return Schedule(self.selections[:k] + (new_slot,) + self.selections[k + 1:])

    def to_lists(self) -> list[list[int]]:
        return [list(s) for s in self.selections]

    def check_shape(self, horizon: int, sensor_count: int) -> None:
        """Raise InvalidArgument unless the schedule has ``horizon`` slots
        and every sensor index lies in [0, sensor_count)."""
        if len(self.selections) != horizon:
            raise InvalidArgument(f"schedule has {len(self.selections)} slots, expected {horizon}")
        flat = list(chain.from_iterable(self.selections))
        if flat and (min(flat) < 0 or max(flat) >= sensor_count):
            k, i = next(
                (k, i) for k, slot in enumerate(self.selections) for i in slot if not 0 <= i < sensor_count
            )
            raise InvalidArgument(f"sensor index {i} out of range at time index {k}")

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


def _has_bool(value: Any) -> bool:
    """Whether a matrix-like value holds booleans, which NumPy would turn into 1.0 and 0.0."""
    if isinstance(value, np.ndarray):
        return value.dtype == bool
    try:
        return bool in set(map(type, chain.from_iterable(value)))
    except TypeError:  # not a sequence of rows; the shape check rejects it
        return False


def _as_matrix(value: Any, name: str) -> np.ndarray:
    if _has_bool(value):
        raise DimensionMismatch(f"{name} must contain numbers, not booleans")
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DimensionMismatch(f"{name} is not a numeric matrix") from None
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatch(f"{name} must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch(f"{name} must contain only finite entries")
    return arr


def _as_matrix_seq(value: Any, name: str) -> list[np.ndarray]:
    """Accept a single matrix, a 3-D array, or a sequence of matrices."""
    if isinstance(value, np.ndarray):
        if value.ndim == 2:
            return [_as_matrix(value, name)]
        if value.ndim == 3:
            return [_as_matrix(m, f"{name}[{j}]") for j, m in enumerate(value)]
        raise DimensionMismatch(f"{name} must be a matrix or a list of matrices")
    if _is_sequence(value):
        if len(value) == 0:
            return []
        if _lists_matrices(value):
            return [_as_matrix(m, f"{name}[{j}]") for j, m in enumerate(value)]
        return [_as_matrix(value, name)]
    raise DimensionMismatch(f"{name} must be a matrix or a list of matrices")


def _lists_matrices(value: Sequence) -> bool:
    """Whether a nonempty sequence lists matrices rather than being one matrix's rows."""
    head = value[0]
    return _is_sequence(head) and len(head) > 0 and _is_sequence(head[0])


def _as_stack(value: Any) -> np.ndarray | None:
    """A per-interval field as one float array (J, rows, cols), in one conversion.

    None unless the field converts whole into nonempty, finite matrices of
    one shape, with no booleans; ``_as_matrix_seq`` then names the faulty
    matrix, or takes matrices whose shapes differ.
    """
    if isinstance(value, np.ndarray):
        single = value.ndim == 2
        if value.dtype == bool:
            return None
    elif _is_sequence(value) and len(value) > 0:
        single = not _lists_matrices(value)
        # One scan of every entry of the field; a boolean ndarray among the
        # matrices shows as np.bool_ entries.
        rows = value if single else chain.from_iterable(value)
        try:
            types = set(map(type, chain.from_iterable(rows)))
        except TypeError:  # not a sequence of matrices; _as_matrix_seq names the fault
            return None
        if bool in types or np.bool_ in types:
            return None
    else:
        return None
    try:
        stack = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if single:
        stack = stack[None]
    if stack.ndim != 3 or 0 in stack.shape or not np.isfinite(stack).all():
        return None
    return stack


def _interval_field(value: Any, kind: ModelKind, horizon: int, name: str) -> np.ndarray | tuple[np.ndarray, ...]:
    """The field as a (J, rows, cols) stack, or as a tuple of J matrices when their shapes differ."""
    field = _as_stack(value)
    if field is None:
        mats = _as_matrix_seq(value, name)
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


def _as_sensor(obj: Any, index: int) -> Sensor:
    if isinstance(obj, Sensor):
        c_raw, v_raw = obj.C, obj.V
    elif isinstance(obj, dict) and set(obj) == {"C", "V"}:
        c_raw, v_raw = obj["C"], obj["V"]
    else:
        raise DimensionMismatch(
            f"sensors[{index}] must be a Sensor or an object with exactly the keys C and V"
        )
    try:
        c = _as_matrix(c_raw, f"sensors[{index}].C")
        v = _as_matrix(v_raw, f"sensors[{index}].V")
    except DimensionMismatch as exc:
        raise InvalidArgument(str(exc)) from None
    return Sensor(C=c, V=v)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _freeze_field(field: np.ndarray | tuple[np.ndarray, ...]):
    return _freeze(field) if isinstance(field, np.ndarray) else tuple(map(_freeze, field))


def _check_spd_stack(stack: np.ndarray, label: Callable[[int], str]) -> None:
    """Check every matrix of a (J, p, p) stack is symmetric positive definite;
    an error names the first that is not, as ``label(j)``."""
    # Cholesky only reads the lower triangle, so symmetry needs its own check.
    scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
    asymmetric = np.abs(stack - stack.swapaxes(1, 2)).max(axis=(1, 2)) > 1e-9 * scale
    first = int(asymmetric.argmax()) if asymmetric.any() else len(stack)
    if first:
        chol_pd_stack(stack[:first], label)
    if first < len(stack):
        raise NotPositiveDefinite(f"{label(first)} must be symmetric")


def _check_spd(matrix: np.ndarray, name: str) -> None:
    _check_spd_stack(matrix[None], lambda j: name)


def sensor_stacks(sensors: Sequence[Sensor]) -> Iterator[tuple[list[int], np.ndarray, np.ndarray]]:
    """Per row count d: the indices of the sensors with d rows, in index
    order, and their C and V matrices stacked into (len, d, n) and
    (len, d, d) arrays."""
    groups: dict[int, list[int]] = {}
    for i, sensor in enumerate(sensors):
        groups.setdefault(len(sensor.C), []).append(i)
    for group in groups.values():
        yield group, np.stack([sensors[i].C for i in group]), np.stack([sensors[i].V for i in group])


def _check_sensor_noise(sensors: Sequence[Sensor]) -> None:
    """Check every V_i is symmetric positive definite, one stacked check per
    row count; an error names the lowest-index V_i that fails."""
    try:
        for group, _, noise in sensor_stacks(sensors):
            _check_spd_stack(noise, lambda j: f"V_{group[j] + 1}")
    except NotPositiveDefinite:
        # A later group may hold a lower-index failure; one at a time, in index order.
        for i, sensor in enumerate(sensors):
            _check_spd(sensor.V, f"V_{i + 1}")
        raise


def _normalized_fields(model: SystemModel) -> dict[str, Any]:
    """The model's fields checked and converted: frozen float arrays, plain
    ints and floats, a ModelKind and tuples.

    Raises DimensionMismatch, NotPositiveDefinite, NonIncreasingTimes,
    BudgetOutOfRange or InvalidArgument with a message naming the offending
    field.
    """
    try:
        kind = ModelKind(model.kind)
    except ValueError:
        raise InvalidArgument(
            f"kind must be one of {[k.value for k in ModelKind]}, got {model.kind!r}"
        ) from None

    n = model.state_dim
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
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
    if len(noise_input) != len(dynamics) or len(process) != len(dynamics):
        raise DimensionMismatch("dynamics, noise_input, and process_noise_cov must align per interval")

    if all(isinstance(field, np.ndarray) for field in (dynamics, noise_input, process)):
        # Every interval has the first one's shapes; W is checked as one stack.
        _check_interval_shapes(n, dynamics.shape[1:], noise_input.shape[1:], process.shape[1:], 0, kind.variant)
        _check_spd_stack(process, lambda j: _interval_label("W", j, kind.variant))
    else:  # the noise widths differ between intervals
        for j, (a, f, w) in enumerate(zip(dynamics, noise_input, process)):
            _check_interval_shapes(n, a.shape, f.shape, w.shape, j, kind.variant)
            _check_spd(w, _interval_label("W", j, kind.variant))

    p1 = _as_matrix(model.initial_state_cov, "P_1")
    if p1.shape != (n, n):
        raise DimensionMismatch(f"P_1 must be {n}x{n}, got {p1.shape[0]}x{p1.shape[1]}")
    _check_spd(p1, "P_1")

    if not _is_sequence(model.sensors):
        raise DimensionMismatch("sensors must be a list")
    sensors = []
    for idx, raw in enumerate(model.sensors):
        sensor = _as_sensor(raw, idx)
        if sensor.C.shape[1] != n:
            raise DimensionMismatch(f"C_{idx + 1} must have {n} columns, got {sensor.C.shape[1]}")
        d = sensor.C.shape[0]
        if sensor.V.shape != (d, d):
            raise DimensionMismatch(f"V_{idx + 1} must be {d}x{d} to match C_{idx + 1}")
        sensors.append(Sensor(C=_freeze(sensor.C), V=_freeze(sensor.V)))
    _check_sensor_noise(sensors)
    m = len(sensors)

    budgets_raw = model.budgets
    if not _is_sequence(budgets_raw) or len(budgets_raw) != horizon:
        raise DimensionMismatch(f"budgets must be a list of {horizon} integers")
    budgets = []
    for k, r in enumerate(budgets_raw):
        if isinstance(r, bool) or not isinstance(r, (int, np.integer)):
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
        input_matrix = _freeze(input_matrix)

    return {
        "kind": kind,
        "state_dim": n,
        "dynamics": _freeze_field(dynamics),
        "noise_input": _freeze_field(noise_input),
        "process_noise_cov": _freeze_field(process),
        "initial_state_cov": _freeze(p1),
        "measurement_times": tuple(times),
        "sensors": tuple(sensors),
        "budgets": tuple(budgets),
        "input_matrix": input_matrix,
    }


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


def require_int(label: str, value, low: int) -> None:
    """Raise InvalidArgument, naming ``label``, unless ``value`` is an
    integer of at least ``low`` (0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
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
    try:
        kind = ModelKind(kind)
    except ValueError:
        raise InvalidArgument(
            f"kind must be one of {[k.value for k in ModelKind]}, got {kind!r}"
        ) from None
    for label, value in (("n", n), ("m", m), ("K", K)):
        require_int(label, value, 1)
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or not 0 <= r <= m:
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
        data["input_signal"] = model.input_signal
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
    return SystemModel(
        kind=data["kind"],
        state_dim=data["state_dim"],
        dynamics=data["dynamics"],
        noise_input=data["noise_input"],
        process_noise_cov=data["process_noise_cov"],
        initial_state_cov=data["initial_state_cov"],
        measurement_times=data["measurement_times"],
        sensors=data["sensors"],
        budgets=data["budgets"],
        input_matrix=data.get("input_matrix"),
        input_signal=data.get("input_signal"),
    )


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
    except ValueError as exc:  # malformed JSON, or an integer too long to convert
        raise InvalidArgument(f"invalid JSON in scenario file: {exc}") from None
    return model_from_dict(data)


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temporary file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".batchsched-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def save_scenario(model: SystemModel, path: str) -> None:
    write_text_atomic(path, json.dumps(model_to_dict(model), indent=2) + "\n")
