"""Command-line front end.

Subcommands: ``gen`` writes a scenario file, ``schedule`` runs a scheduling
algorithm, ``certify`` checks the approximation guarantee by exhaustive
search, ``bounds`` reports the error-variance limits, and ``fuzz`` drives
the property fuzzers. Every command reads and writes JSON; output files are
written atomically, and ``schedule --csv`` writes both its files or neither.
All randomness flows through an explicit --seed.

Exit codes: 0 success, 1 internal numeric failure, 2 invalid configuration,
flags or output path, 3 exhaustive-search enumeration cap exceeded, 4 certified
guarantee or fuzzed property violated (an implementation-bug signal).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from functools import lru_cache

from .analysis import (
    bound_inputs,
    brute_force_opt,
    certify_ratio,
    error_lower_bound,
    fuzz_monotonicity,
    fuzz_supermodularity,
    min_sensors_for_error,
    random_schedule,
)
from .errors import (
    BatchSchedError,
    EnumerationCapExceeded,
    GuaranteeViolated,
    InvalidArgument,
    NumericOverflow,
    PropertyViolated,
)
from .model import (
    ModelKind,
    Schedule,
    load_scenario,
    model_fingerprint,
    random_scenario,
    require_int,
    save_scenario,
    seeded_rng,
    write_texts_atomic,
)
from .objective import batch_error_trace, build_evaluator, objective_logdet
from .scheduler import TraceEntry, greedy_schedule

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_VIOLATION = 4

# "lazy-greedy" is an alias of "greedy", kept for scripts that name it.
ALGORITHMS = ("greedy", "lazy-greedy", "brute", "random", "empty")


@contextmanager
def _timed(timings: dict[str, float], name: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = time.perf_counter() - start


def _load_model(path: str):
    try:
        return load_scenario(path)
    except FileNotFoundError:
        raise InvalidArgument(f"scenario file not found: {path}") from None
    except OSError as exc:  # a directory, or no permission to read
        raise InvalidArgument(f"cannot read scenario file {path}: {exc.strerror}") from None
    except BatchSchedError as exc:  # any invalid scenario exits 2
        raise InvalidArgument(str(exc)) from exc


def _load_and_build(path: str):
    """The timings and the evaluator of the model loaded from ``path``."""
    timings: dict[str, float] = {}
    with _timed(timings, "load"):
        model = _load_model(path)
    with _timed(timings, "build"):
        ev = build_evaluator(model)
    return timings, ev


@contextmanager
def _writing():
    """Raise InvalidArgument, naming the path, for a file that cannot be written."""
    try:
        yield
    except OSError as exc:  # a missing directory, or a directory
        # A failed rename names the path second, after its temporary file.
        raise InvalidArgument(f"cannot write {exc.filename2 or exc.filename}: {exc.strerror}") from None


def _write_report(out: str | None, report: dict, timings: dict, extra: dict | None = None) -> None:
    """Write ``report`` as JSON with ``timings`` as its last key: to ``out``
    with the ``extra`` files (every file or none), or to stdout if ``out`` is None."""
    report["timings"] = timings
    text = json.dumps(report, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with _writing():
            write_texts_atomic({out: text, **(extra or {})})


def _violated(out: str | None, fingerprint: str, fields: dict, timings: dict, line: str) -> int:
    """Report a violated guarantee or property: the report, then ``line`` on stderr."""
    _write_report(out, {"fingerprint": fingerprint, **fields}, timings)
    print(line, file=sys.stderr)
    return EXIT_VIOLATION


def _trace_csv(trace) -> str:
    """One row per trace entry; csv writes each float as its repr."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([f.name for f in dataclasses.fields(TraceEntry)])
    writer.writerows(vars(e).values() for e in trace.entries)
    return buffer.getvalue()


def cmd_gen(args) -> int:
    model = random_scenario(
        seed=args.seed, n=args.n, m=args.m, K=args.K, r=args.r, kind=args.kind
    )
    with _writing():
        save_scenario(model, args.out)
    print(f"wrote scenario {model_fingerprint(model)[:12]} to {args.out}")
    return EXIT_OK


def cmd_schedule(args) -> int:
    if args.csv is not None and args.algorithm not in ("greedy", "lazy-greedy"):
        raise InvalidArgument("--csv requires a greedy algorithm with a trace")
    if args.csv is not None and os.path.realpath(args.csv) == os.path.realpath(args.out):
        raise InvalidArgument(f"--out {args.out} and --csv {args.csv} name the same file")
    if args.seed is not None:
        # Only --algorithm random uses the seed, but every report records it.
        require_int("seed", args.seed, 0)
    timings, ev = _load_and_build(args.config)

    trace = None
    with _timed(timings, "solve"):
        if args.algorithm in ("greedy", "lazy-greedy"):
            schedule, trace = greedy_schedule(ev)
            objective = objective_logdet(ev, schedule)
        elif args.algorithm == "brute":
            schedule, objective = brute_force_opt(ev)
        elif args.algorithm == "random":
            if args.seed is None:
                raise InvalidArgument("--seed is required for --algorithm random")
            schedule = random_schedule(seeded_rng(args.seed), ev.sensor_count, ev.model.budgets)
            objective = objective_logdet(ev, schedule)
        else:  # empty
            schedule = Schedule.empty(ev.horizon)
            objective = objective_logdet(ev, schedule)

    report = {
        "fingerprint": model_fingerprint(ev.model),
        "algorithm": args.algorithm,
        "schedule": schedule.to_lists(),
        "objective": objective,
    }
    if args.seed is not None:
        report["seed"] = args.seed
    if trace is not None:
        report["start_objective"] = trace.start_objective
        report["trace"] = [vars(e) for e in trace.entries]
        report["gain_evaluations"] = trace.gain_evaluations
    _write_report(args.out, report, timings, None if args.csv is None else {args.csv: _trace_csv(trace)})
    print(f"{args.algorithm}: objective {objective:.9g}, schedule {schedule.to_lists()}")
    return EXIT_OK


def cmd_certify(args) -> int:
    timings, ev = _load_and_build(args.config)
    try:
        with _timed(timings, "solve"):
            cert = certify_ratio(ev)
    except GuaranteeViolated as exc:
        fields = {"violation": str(exc), "details": exc.details}
        return _violated(args.out, exc.details["fingerprint"], fields, timings, f"guarantee violated: {exc}")
    _write_report(args.out, cert.to_dict(), timings)
    print(f"ratio {cert.ratio:.9g} (greedy {cert.greedy_value:.9g}, opt {cert.opt_value:.9g})")
    return EXIT_OK


def cmd_bounds(args) -> int:
    timings, ev = _load_and_build(args.config)
    with _timed(timings, "solve"):
        inputs = bound_inputs(ev)
        report = {
            "fingerprint": model_fingerprint(ev.model),
            "lower_bound": error_lower_bound(inputs),
        }
        if args.alpha is not None:
            needed = min_sensors_for_error(inputs, args.alpha)
            # JSON has no infinity: with no sensors, no finite count exists.
            report["min_sensors"] = needed if math.isfinite(needed) else None
        schedule, _ = greedy_schedule(ev)
        report["trace_greedy"] = batch_error_trace(ev, schedule)
        # Nor a variance past the double range: the empty schedule's may pass it alone.
        try:
            report["trace_empty"] = batch_error_trace(ev, Schedule.empty(ev.horizon))
        except NumericOverflow:
            report["trace_empty"] = None
    _write_report(args.out, report, timings)
    print(f"lower bound {report['lower_bound']:.9g}, greedy trace {report['trace_greedy']:.9g}")
    return EXIT_OK


def cmd_fuzz(args) -> int:
    timings, ev = _load_and_build(args.config)
    fuzzer = fuzz_monotonicity if args.property == "mono" else fuzz_supermodularity
    try:
        with _timed(timings, "solve"):
            report = fuzzer(ev, args.trials, args.seed)
    except PropertyViolated as exc:
        fields = {"property": args.property, "violation": str(exc), "counterexample": exc.counterexample}
        return _violated(args.out, exc.counterexample["fingerprint"], fields, timings, f"property violated: {exc}")
    _write_report(args.out, report.to_dict(), timings)
    print(
        f"{report.property_name}: {report.effective_trials}/{report.trials} trials, "
        f"max excess {report.max_excess}"
    )
    return EXIT_OK


# Built once per process: building costs far more than a parse, and parsing
# leaves no state on the parser (each parse fills a fresh namespace).
@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchsched",
        description="Sensor scheduling for minimum-variance batch state estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random scenario file")
    gen.add_argument("--n", type=int, required=True, help="state dimension")
    gen.add_argument("--m", type=int, required=True, help="number of sensors")
    gen.add_argument("--K", type=int, required=True, help="number of measurement times")
    gen.add_argument("--r", type=int, required=True, help="per-time sensor budget")
    gen.add_argument(
        "--kind",
        choices=[k.value for k in ModelKind],
        default=ModelKind.DISCRETE_INVARIANT.value,
    )
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=cmd_gen)

    sched = sub.add_parser("schedule", help="run a scheduling algorithm on a scenario")
    sched.add_argument("--config", required=True)
    sched.add_argument("--algorithm", choices=ALGORITHMS, default="greedy")
    sched.add_argument("--out", required=True)
    sched.add_argument("--seed", type=int, default=None, help="required for --algorithm random")
    sched.add_argument("--csv", default=None, help="also write the greedy trace as CSV")
    sched.set_defaults(handler=cmd_schedule)

    cert = sub.add_parser("certify", help="certify the greedy guarantee by brute force")
    cert.add_argument("--config", required=True)
    cert.add_argument("--out", required=True)
    cert.set_defaults(handler=cmd_certify)

    bounds = sub.add_parser("bounds", help="report error-variance limits")
    bounds.add_argument("--config", required=True)
    bounds.add_argument("--out", required=True)
    bounds.add_argument("--alpha", type=float, default=None, help="target total error variance")
    bounds.set_defaults(handler=cmd_bounds)

    fuzz = sub.add_parser("fuzz", help="fuzz a structural property of the objective")
    fuzz.add_argument("--config", required=True)
    fuzz.add_argument("--property", choices=("mono", "super"), required=True)
    fuzz.add_argument("--trials", type=int, required=True)
    fuzz.add_argument("--seed", type=int, required=True)
    fuzz.add_argument("--out", default=None)
    fuzz.set_defaults(handler=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BatchSchedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InvalidArgument):
            return EXIT_CONFIG
        return EXIT_CAP if isinstance(exc, EnumerationCapExceeded) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
