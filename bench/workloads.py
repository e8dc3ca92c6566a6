"""Seeded scenario generator and the fixed op list of each workload.

The generator is the benchmark's own, so changes to the package's samplers
cannot silently change what the benchmark runs. Its distribution matches the
one the package's tests use: discrete dynamics scaled to spectral radius at
most 1.2, continuous dynamics shifted to eigenvalue real parts at most 0.2,
covariances G G.T + 0.1 I, sensors reading 1- or 2-dimensional functionals.
Those unstable modes are what make long horizons fail today; they are kept.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

KINDS = ("continuous-invariant", "continuous-variant", "discrete-invariant", "discrete-variant")


@dataclass(frozen=True, eq=False)
class Scenario:
    """One generated scenario file and the dictionary it was written from."""

    name: str
    path: str
    data: dict
    fingerprint: str

    @property
    def state_dim(self) -> int:
        return self.data["state_dim"]

    @property
    def horizon(self) -> int:
        return len(self.data["measurement_times"])

    @property
    def sensor_count(self) -> int:
        return len(self.data["sensors"])

    @property
    def budgets(self) -> list[int]:
        return self.data["budgets"]


@dataclass(frozen=True, eq=False)
class Op:
    """One CLI invocation: ``label`` names the op class its latency joins."""

    op_id: int
    label: str
    scenario: Scenario
    argv: tuple[str, ...]
    out: str


@dataclass(eq=False)
class Workload:
    ops: list[Op]
    warmup: Op
    inputs_sha256: str


def _spd(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d))
    return g @ g.T + 0.1 * np.eye(d)


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def _dynamics(rng: np.random.Generator, n: int, continuous: bool) -> np.ndarray:
    g = rng.standard_normal((n, n))
    eig = np.linalg.eigvals(g)
    if continuous:
        shift = float(eig.real.max()) - 0.2
        if shift > 0.0:
            g = g - shift * np.eye(n)
    else:
        radius = float(np.abs(eig).max())
        if radius > 1.2:
            g = g * (1.2 / radius)
    return g


def generate_scenario(rng: np.random.Generator, n: int, m: int, K: int, r: int, kind: str) -> dict:
    """Scenario dictionary in the CLI's file schema; a pure function of the rng state."""
    continuous = kind.startswith("continuous")
    variant = kind.endswith("-variant")
    intervals = (K - 1) if variant else 1
    dynamics = [_dynamics(rng, n, continuous).tolist() for _ in range(intervals)]
    noise_input = [_orthogonal(rng, n).tolist() for _ in range(intervals)]
    process = [_spd(rng, n).tolist() for _ in range(intervals)]
    initial = _spd(rng, n).tolist()
    if continuous:
        gaps = rng.uniform(0.2, 1.0, size=K - 1)
        times = [0.0] + [float(t) for t in np.cumsum(gaps)]
    else:
        times = [float(k + 1) for k in range(K)]
    sensors = []
    for _ in range(m):
        d = int(rng.integers(1, 3))
        sensors.append({"C": rng.standard_normal((d, n)).tolist(), "V": _spd(rng, d).tolist()})

    def per_interval(mats):
        return mats if variant else mats[0]

    return {
        "kind": kind,
        "state_dim": n,
        "dynamics": per_interval(dynamics),
        "noise_input": per_interval(noise_input),
        "process_noise_cov": per_interval(process),
        "initial_state_cov": initial,
        "measurement_times": times,
        "sensors": sensors,
        "budgets": [r] * K,
    }


def canonical_json(data: dict) -> str:
    """The serialization the scenario fingerprint is defined over."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class _Builder:
    """Writes scenarios and ops into a work directory and digests both."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.scenarios: list[Scenario] = []
        self.ops: list[Op] = []
        self._digest = hashlib.sha256()

    def scenario(self, tag: str, n: int, m: int, K: int, r: int, kind: str) -> Scenario:
        index = len(self.scenarios)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, index]))
        data = generate_scenario(rng, n, m, K, r, kind)
        canonical = canonical_json(data)
        path = os.path.join(self.workdir, f"scenario-{index:03d}-{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical)
        self._digest.update(canonical.encode("utf-8"))
        fingerprint = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        scenario = Scenario(name=tag, path=path, data=data, fingerprint=fingerprint)
        self.scenarios.append(scenario)
        return scenario

    def op(self, label: str, scenario: Scenario, *args: str) -> Op:
        op_id = len(self.ops)
        out = os.path.join(self.workdir, "report.json")
        command = label.split(":")[0]
        argv = (command, "--config", scenario.path, *args, "--out", out)
        self._digest.update(json.dumps([label, scenario.name, *args]).encode("utf-8"))
        op = Op(op_id=op_id, label=label, scenario=scenario, argv=argv, out=out)
        self.ops.append(op)
        return op

    def op_seed(self) -> str:
        # Per-op seeds for the CLI's own randomness, drawn from the workload seed.
        return str((self.seed * 1_000_003 + len(self.ops)) % 2**31)

    def finish(self, warmup: Op) -> Workload:
        # The warm-up op runs before timing starts and is not part of the list.
        self.ops.remove(warmup)
        # A seeded shuffle spreads every op class over the whole pass, so a
        # median or tail is not read from the few seconds in which one class
        # happened to run while the host was unusually fast or slow.
        order = np.random.default_rng(np.random.SeedSequence([self.seed, len(self.ops)])).permutation(len(self.ops))
        return Workload(
            ops=[self.ops[i] for i in order],
            warmup=warmup,
            inputs_sha256=self._digest.hexdigest(),
        )


def _greedy_horizon(b: _Builder) -> Op:
    warm = b.scenario("warmup", 6, 10, 4, 3, "continuous-invariant")
    warmup = b.op("schedule:greedy", warm, "--algorithm", "greedy")
    for K in (8, 16, 32):
        for kind in KINDS:
            s = b.scenario(f"K{K}-{kind}", 6, 10, K, 3, kind)
            b.op("schedule:greedy", s, "--algorithm", "greedy")
            b.op("schedule:lazy-greedy", s, "--algorithm", "lazy-greedy")
            b.op("bounds", s, "--alpha", "0.5")
    return warmup


# Acceptance-criterion-1 shapes (n <= 3, m <= 4, K <= 3, r <= 2): every
# (m, K, r) in the box once per kind, with n cycling through 1..3. The shapes
# are fixed so that every seed runs the same amount of enumeration.
_CERTIFY_SHAPES = tuple(
    (m, K, r) for m in range(1, 5) for K in range(1, 4) for r in (1, 2) if r <= m
)
# 4,096 feasible schedules each; these set the certify latency tail.
_CERTIFY_MEDIUM = (3, 5, 3, 2)
_CERTIFY_MEDIUM_PER_KIND = 3


def _certify_exhaustive(b: _Builder) -> Op:
    warm = b.scenario("warmup", 2, 3, 2, 1, "continuous-invariant")
    warmup = b.op("certify", warm)
    for kind in KINDS:
        for index, (m, K, r) in enumerate(_CERTIFY_SHAPES):
            n = 1 + index % 3
            b.op("certify", b.scenario(f"tiny{index}-{kind}", n, m, K, r, kind))
        for copy in range(_CERTIFY_MEDIUM_PER_KIND):
            n, m, K, r = _CERTIFY_MEDIUM
            b.op("certify", b.scenario(f"medium{copy}-{kind}", n, m, K, r, kind))
    return warmup


# Several scenarios per kind at the shorter horizons, where the seed decides
# whether a discrete-variant scenario fails (about one in six at K=128, five
# in six at K=256); the invariant kinds always fail there and the
# continuous-variant kind never does. The share of successful ops moves from
# seed to seed by the spread of the discrete-variant outcomes over the number
# of scenarios that cannot fail, so the continuous-variant kind gets twice as
# many copies as the others.
_LONG_COPIES = {
    128: {"continuous-invariant": 6, "continuous-variant": 12, "discrete-invariant": 6, "discrete-variant": 6},
    256: {"continuous-invariant": 6, "continuous-variant": 12, "discrete-invariant": 6, "discrete-variant": 6},
    1024: dict.fromkeys(KINDS, 1),
}


def _long_horizon(b: _Builder) -> Op:
    warm = b.scenario("warmup", 6, 10, 8, 3, "continuous-invariant")
    warmup = b.op("schedule:random", warm, "--algorithm", "random", "--seed", "0")
    for K, copies in _LONG_COPIES.items():
        for kind in KINDS:
            for copy in range(copies[kind]):
                s = b.scenario(f"K{K}-{kind}-{copy}", 6, 10, K, 3, kind)
                b.op("schedule:random", s, "--algorithm", "random", "--seed", b.op_seed())
                b.op("fuzz", s, "--property", "super", "--trials", "4", "--seed", b.op_seed())
    return warmup


WORKLOADS = {
    "greedy-horizon": _greedy_horizon,
    "certify-exhaustive": _certify_exhaustive,
    "long-horizon": _long_horizon,
}


def build_workload(name: str, seed: int, workdir: str) -> Workload:
    """Generate the workload's scenario files under ``workdir`` and its op list."""
    builder = _Builder(seed, workdir)
    warmup = WORKLOADS[name](builder)
    return builder.finish(warmup)
