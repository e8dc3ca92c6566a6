"""batchsched benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload greedy-horizon --seed 1 --seconds 10 --trace 0

Generates the workload's scenario files from the seed, measures set-up in
fresh interpreters, then drives ``batchsched.cli.main(argv)`` in this
process, one op after another, in whole passes over the op list until
``--seconds`` have passed. Every op's report is checked. After every op a
fixed reference loop measures the host's speed, and ``ok_ops_per_s``
counts op seconds scaled to the reference speed (see ``reference.py``).
With ``--trace 1``
passes alternate untraced and traced, and the per-layer metrics come from
the traced ones. The last stdout line is one JSON object; the lines before
it are the full report, and the same record is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import environment
from stats import Outcome, error_rate, error_table, latency_summary, latencies
from tracing import ROOT as ROOT_SPAN
from tracing import Tracer, failing_exceptions, installed, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
OP_CLASSES = ("schedule", "bounds", "certify", "fuzz")
ERROR_METRICS = (
    "exit_1",
    "exit_2",
    "exit_3",
    "exit_4",
    "uncaught",
    "check",
    "NotPositiveDefinite",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("greedy-horizon", "certify-exhaustive", "long-horizon")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def execute(op, cli_main, tracer=None):
    """Run one op through ``main`` and time it; the report is checked separately."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(op.out)
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error_key, message = None, None, ""
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli_main(list(op.argv))
            else:
                tracer.op_id = op.op_id
                rc = tracer.call(ROOT_SPAN, "bench", cli_main, (list(op.argv),), {})
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            # A CLI user would see this as a traceback: record it, keep running.
            error_key, message = "uncaught", f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    outcome = Outcome(op_id=op.op_id, label=op.label, rc=rc, seconds=seconds)
    if error_key is None and rc != 0:
        lines = [line for line in stderr.getvalue().splitlines() if line.strip()]
        error_key, message = f"exit_{rc}", lines[-1] if lines else ""
    outcome.error_key, outcome.message = error_key, message
    # Exit 4 is the program reporting its own guarantee or property violated.
    outcome.incorrect = rc == 4
    return outcome


def evaluate(op, outcome, checker) -> None:
    """Check the report of an op that exited 0; a failed check fails the op."""
    if outcome.failed:
        return
    try:
        report = json.loads(Path(op.out).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problem = f"report unreadable: {exc}"
    else:
        problem = checker.check(op, report)
    if problem is not None:
        outcome.error_key = "check"
        outcome.message = f"{op.label} on {op.scenario.name}: {problem}"
        outcome.incorrect = True


def run_pass(ops, cli_main, checker, tracer=None, reference=None):
    """One pass over the op list; with a reference, each op's scaled seconds are set too."""
    outcomes = []
    for op in ops:
        outcome = execute(op, cli_main, tracer)
        if reference is not None:
            outcome.scaled_seconds = reference.after(outcome.seconds)
        evaluate(op, outcome, checker)
        outcomes.append(outcome)
    return outcomes


def measure_setup(warmup) -> list[dict]:
    """Import plus warm-up op in fresh interpreters; the benchmark's input generation is excluded."""
    probes = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *warmup.argv],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        probes.append(json.loads(lines[-1]))
    return probes


END_TO_END_UNITS = {"ok_ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.startswith("errors.") or name.endswith(("_calls", "_evaluations", "_visited", "_trials")):
        return "count"
    if name.endswith("_pct"):
        return "%"
    if "us_per_" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", "_rate")) else "1"


def _class_latencies(outcomes, passes: int) -> dict[str, dict]:
    summaries = {}
    for cls in OP_CLASSES:
        values = latencies(outcomes, cls)
        if values:
            summaries[f"{cls}_s"] = latency_summary(values, passes)
    return summaries


def timed_run(workload, cli_main, checker, seconds: float) -> dict:
    # Imported here, after ``main`` has pinned the BLAS threads: it loads numpy.
    from reference import Reference, host_factor

    outcomes, passes = [], 0
    ref = Reference()
    ref.prime()
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        outcomes += run_pass(workload.ops, cli_main, checker, reference=ref)
        passes += 1
    ok = sum(not o.failed for o in outcomes)
    wall = sum(o.seconds for o in outcomes)
    return {
        "passes": passes,
        "outcomes": outcomes,
        "metrics": {"ok_ops_per_s": ok / sum(o.scaled_seconds for o in outcomes)},
        "host": {"ok_ops_per_wall_s": ok / wall, "host_factor": host_factor(ref.units, ref.seconds)},
        "latency": {"op_s": latency_summary(latencies(outcomes), passes), **_class_latencies(outcomes, passes)},
    }


def traced_run(workload, cli_main, checker, seconds: float) -> dict:
    tracer = Tracer()
    labels = {op.op_id: op.label for op in workload.ops}
    outcomes, untraced, untraced_walls, traced_walls, per_pass = [], [], [], [], []
    error_detail: dict[str, dict] = {}
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        plain = run_pass(workload.ops, cli_main, checker)
        untraced_walls.append(sum(o.seconds for o in plain))
        first = len(tracer.spans)
        with installed(tracer):
            traced = run_pass(workload.ops, cli_main, checker, tracer)
        window = range(first, len(tracer.spans))
        traced_walls.append(sum(o.seconds for o in traced))
        layers = layer_metrics(tracer.spans, window, labels)
        causes = failing_exceptions(tracer.spans, window)
        errors: dict[str, dict] = {}
        for o in traced:
            if not o.failed:
                continue
            # Each failure counts under its exit code and under the exception class behind it.
            for key, message in [(o.error_key, o.message), causes.get(o.op_id, (None, ""))]:
                if key is not None:
                    entry = errors.setdefault(key, {"count": 0, "first_message": message})
                    entry["count"] += 1
        layers.update({f"errors.{k}": errors.get(k, {}).get("count", 0) for k in ERROR_METRICS})
        error_detail = error_detail or errors
        per_pass.append(layers)
        outcomes += plain + traced
        untraced += plain
    metrics = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        metrics[name] = statistics.median(values)
    overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / statistics.median(untraced_walls)
    metrics["error_rate"] = error_rate(outcomes)
    unstable = [n for n in per_pass[0] if _unit(n) == "count" and len({p[n] for p in per_pass}) > 1]
    return {
        "passes": len(traced_walls),
        "outcomes": outcomes,
        "metrics": metrics,
        "latency": _class_latencies(untraced, len(untraced_walls)),
        "errors": error_detail,
        "spans": tracer.spans,
        "counts_repeat": not unstable,
        "unstable_counts": unstable,
    }


def _print_report(args, workload, result, setup, env) -> None:
    outcomes = result["outcomes"]
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(workload.ops)} ops per pass, {result['passes']} passes, "
        f"inputs sha256 {workload.inputs_sha256}"
    )
    for name, value in result["metrics"].items():
        print(f"  {name:32s} {value:.6g} {_unit(name)}")
    for name, value in result.get("host", {}).items():
        print(f"  {name:32s} {value:.6g}")
    for cls, summary in result["latency"].items():
        line = f"  {cls + '.p50':32s} {summary['p50']:.6g} s (n={summary['count']})"
        if "tail" in summary:
            line += f"; tail {summary['tail']:.6g} s at p{summary['tail_percentile']:.1f}"
        print(line)
    print(f"  {'setup_s (each probe)':32s} " + " ".join(f"{p['import_s'] + p['warmup_s']:.4f}" for p in setup))
    print(f"  {'error_rate':32s} {error_rate(outcomes):.6g} ratio ({len(outcomes)} ops)")
    for key, entry in result.get("errors", error_table(outcomes)).items():
        print(f"  errors.{key}: {entry['count']} (first: {entry['first_message']})")
    if "counts_repeat" in result and not result["counts_repeat"]:
        print(f"  warning: counts differ between traced passes: {result['unstable_counts']}")
    print("environment " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "batchsched" / "cli.py").is_file():
        print(f"error: no batchsched sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # Thread pinning and the default size caps must be in place before numpy
    # and batchsched are imported, so the imports below come after them.
    environment.pin_threads()
    os.environ.pop("BATCHSCHED_ORACLE_CAP", None)
    sys.path.insert(0, str(SRC))
    from checks import Checker
    from workloads import build_workload

    from batchsched.cli import main as cli_main

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = build_workload(args.workload, args.seed, str(workdir))
        setup = measure_setup(workload.warmup)
        warm = execute(workload.warmup, cli_main)
        if warm.failed:
            print(f"error: warm-up op failed: {warm.message}", file=sys.stderr)
            return 1
        checker = Checker()
        if args.trace:
            result = traced_run(workload, cli_main, checker, args.seconds)
        else:
            result = timed_run(workload, cli_main, checker, args.seconds)
            result["metrics"]["setup_s"] = statistics.median(p["import_s"] + p["warmup_s"] for p in setup)
            result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        env = environment.describe(ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _print_report(args, workload, result, setup, env)
    outcomes = result["outcomes"]
    summary = {
        "correct": not any(o.incorrect for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in result["metrics"].items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": workload.inputs_sha256,
        "passes": result["passes"],
        "environment": env,
        "setup_probes": setup,
        "latency": result["latency"],
        "host": result.get("host", {}),
        "outcomes": [vars(o) for o in outcomes],
        **summary,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(result["spans"]) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
