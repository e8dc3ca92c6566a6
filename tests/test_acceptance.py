"""Acceptance suite.

One test per release criterion, each printing a PASS/FAIL line; run with
``pytest -s tests/test_acceptance.py`` to see the lines as they complete.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

import batchsched as bs
from batchsched.analysis import _random_feasible
from batchsched.cli import main as cli_main
from helpers import (
    assemble_information,
    block_tridiag_logdet,
    dense_logdet,
    dense_prior_covariance,
    iter_feasible_schedules,
    measurement_form_covariance,
    per_candidate_greedy,
    prior_information,
    random_block_tridiagonal_pd,
    schedule_of,
    scenario_stream,
    stable_model,
    to_dense,
)


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    print(f"\n[PASS] criterion {number}: {description} ({time.perf_counter() - start:.1f}s)")


def test_criterion_1_approximation_guarantee():
    with criterion(1, "greedy within half of the worst-vs-optimal spread on 500 instances"):
        deadline = 300.0
        start = time.perf_counter()
        models = scenario_stream(500, seed0=1234, n_max=3, m_max=4, k_max=3, r_max=2)
        for model in models:
            ev = bs.build_evaluator(model)
            cert = bs.certify_ratio(ev)
            assert cert.ratio <= 0.5 + 1e-9
            assert cert.opt_value <= cert.greedy_value <= cert.max_value + 1e-9
        assert time.perf_counter() - start < deadline


def test_criterion_2_measurement_form_equivalence():
    with criterion(2, "information form inverts to the measurement-form covariance (100 instances)"):
        rng = np.random.default_rng(321)
        count = 0
        while count < 100:
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, min(6, 60 // n) + 1))
            m = int(rng.integers(1, 5))
            r = int(rng.integers(1, min(2, m) + 1))
            kind = list(bs.ModelKind)[count % 4]
            model = bs.random_scenario(seed=9000 + count, n=n, m=m, K=k, r=r, kind=kind)
            assert model.state_dim * model.horizon <= 60
            assert sum(s.C.shape[0] for s in model.sensors) * model.horizon <= 60
            ev = bs.build_evaluator(model)
            schedule = _random_feasible(rng, model)
            info = to_dense(*assemble_information(ev, schedule))
            from_information = np.linalg.inv(info)
            from_measurements = measurement_form_covariance(model, schedule)
            rel = np.linalg.norm(from_information - from_measurements) / np.linalg.norm(
                from_measurements
            )
            assert rel < 1e-6
            count += 1


def test_criterion_3_sparsity_correctness():
    with criterion(3, "block formulas invert the dense prior; sparse log det matches dense"):
        for model in scenario_stream(100, seed0=777, n_max=4, k_max=6):
            dense_info = to_dense(*prior_information(model))
            oracle = np.linalg.inv(dense_prior_covariance(model))
            rel = np.linalg.norm(dense_info - oracle) / np.linalg.norm(oracle)
            assert rel < 1e-8
        rng = np.random.default_rng(888)
        for _ in range(200):
            tri = random_block_tridiagonal_pd(
                rng, int(rng.integers(1, 5)), int(rng.integers(1, 7))
            )
            assert abs(block_tridiag_logdet(*tri) - dense_logdet(to_dense(*tri))) < 1e-9


def test_criterion_4_monotonicity_and_supermodularity():
    with criterion(4, "fuzzers find zero violations in 1000 trials on each of 20 scenarios"):
        for idx, model in enumerate(scenario_stream(20, seed0=555, m_max=4, r_max=3)):
            ev = bs.build_evaluator(model)
            mono = bs.fuzz_monotonicity(ev, trials=1000, seed=100 + idx)
            assert mono.violations == 0
            assert mono.max_excess <= 1e-9
            super_report = bs.fuzz_supermodularity(ev, trials=1000, seed=200 + idx)
            assert super_report.violations == 0
            assert super_report.max_excess is None or super_report.max_excess <= 1e-9


def test_criterion_5_fundamental_limits():
    with criterion(5, "error trace of every feasible schedule respects the lower bound"):
        for model in scenario_stream(20, seed0=135, n_max=3, m_max=3, k_max=2, r_max=2):
            ev = bs.build_evaluator(model)
            bound = bs.error_lower_bound(bs.bound_inputs(ev))
            for schedule in iter_feasible_schedules(model):
                assert bs.batch_error_trace(ev, schedule) >= bound - 1e-9
        scalar = bs.SystemModel(
            kind="discrete-invariant",
            state_dim=1,
            dynamics=np.eye(1),
            noise_input=np.eye(1),
            process_noise_cov=np.eye(1),
            initial_state_cov=np.eye(1),
            measurement_times=(1.0,),
            sensors=(bs.Sensor(C=np.eye(1), V=np.eye(1)),),
            budgets=(1,),
        )
        ev = bs.build_evaluator(scalar)
        achieved = bs.batch_error_trace(ev, schedule_of([[0]]))
        inputs = bs.bound_inputs(ev)
        assert abs(bs.error_lower_bound(inputs) - 0.5) <= 1e-12
        assert abs(achieved - 0.5) <= 1e-12
        assert abs(bs.min_sensors_for_error(inputs, 0.5) - 1.0) <= 1e-12


def test_criterion_6_lazy_evaluation_fidelity():
    with criterion(6, "the greedy is bit-identical to the lazy-refresh oracle (200 instances)"):
        for model in scenario_stream(200, seed0=4242, m_max=4, r_max=3):
            ev = bs.build_evaluator(model)
            schedule, trace = bs.greedy_schedule(ev)
            oracle_schedule, oracle_trace, _ = per_candidate_greedy(ev, model, lazy=True)
            assert schedule == oracle_schedule
            assert [
                (e.time_index, e.sensor, e.gain, e.objective) for e in trace.entries
            ] == oracle_trace


def test_criterion_7_linear_in_horizon_scaling():
    with criterion(7, "objective evaluation time grows at most like K^1.3 for fixed n=8"):
        deadline = 120.0
        start = time.perf_counter()
        horizons = [64, 128, 256, 512]
        medians = []
        for horizon in horizons:
            model = stable_model(horizon)
            ev = bs.build_evaluator(model)
            rng = np.random.default_rng(5)
            slots = tuple(
                tuple(sorted(int(i) for i in rng.choice(3, size=2, replace=False)))
                for _ in range(horizon)
            )
            schedule = bs.Schedule(selections=slots)
            bs.objective_logdet(ev, schedule)  # warm-up
            samples = []
            for _ in range(9):
                t0 = time.perf_counter()
                bs.objective_logdet(ev, schedule)
                samples.append(time.perf_counter() - t0)
            medians.append(float(np.median(samples)))
        exponent = float(np.polyfit(np.log(horizons), np.log(medians), 1)[0])
        assert exponent <= 1.3, f"fitted exponent {exponent} with medians {medians}"
        assert time.perf_counter() - start < deadline


def _strip_timings(payload):
    payload = dict(payload)
    payload.pop("timings", None)
    return payload


def test_criterion_8_cli_pipeline_reproducible(tmp_path):
    with criterion(8, "gen -> schedule -> certify emits identical reports across runs"):
        snapshots = []
        for name in ("one", "two"):
            base = tmp_path / name
            base.mkdir()
            scenario = base / "scenario.json"
            sched_out = base / "schedule.json"
            cert_out = base / "certificate.json"
            assert cli_main([
                "gen", "--n", "3", "--m", "4", "--K", "3", "--r", "2",
                "--kind", "continuous-invariant", "--seed", "77", "--out", str(scenario),
            ]) == 0
            assert cli_main([
                "schedule", "--config", str(scenario), "--algorithm", "lazy-greedy",
                "--out", str(sched_out),
            ]) == 0
            assert cli_main([
                "certify", "--config", str(scenario), "--out", str(cert_out),
            ]) == 0
            snapshots.append(
                (
                    scenario.read_bytes(),
                    _strip_timings(json.loads(sched_out.read_text())),
                    _strip_timings(json.loads(cert_out.read_text())),
                )
            )
        assert snapshots[0] == snapshots[1]
