#!/usr/bin/env python3
"""Self-test of the benchmark, on a tiny chain and a short sweep.

Run from the root of a source checkout (takes under a minute)::

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted on every
workload with tracing off and on, that the correctness gate flags a
deliberately wrong norm, that a traced attribute which no longer exists is
reported rather than fatal, and that the benchmark refuses to run without
the package sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import run  # pins BLAS to one thread before numpy is imported

sys.path.insert(0, str(run.SRC))

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from delayh2 import synthesis  # noqa: E402


def tiny_workload(name: str, seed: int):
    if name == "chain-large":
        return workloads.ChainWorkload(name, (3, 4), seed, loop_norm=False, reps=(1, 2))
    if name == "chain-verify":
        return workloads.ChainWorkload(name, (3, 4), seed, loop_norm=True, reps=(2, 1))
    return workloads.SweepWorkload(name, seed, run.WORK_DIR, n_max=6, verify_horizons=(2, 3),
                                   verify_reps=2)


def declared_metrics() -> dict:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS), doc["workloads"]
    return {
        0: {m["name"]: m["unit"] for m in doc["end_to_end"]},
        1: {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


def measure_tiny(name: str, trace: int, seed: int = 7) -> dict:
    workload = tiny_workload(name, seed)
    try:
        workload.setup(spans.Tracer(enabled=False))
        runner, samples, units, _ = run.measure(workload, bool(trace), 0.0, 0.1, lambda: 0.1)
    finally:
        workload.close()
    return run.result_object(runner, samples, units)


def test_every_metric_emitted() -> None:
    declared = declared_metrics()
    for name in run.WORKLOADS:
        for trace in (0, 1):
            result = measure_tiny(name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == declared[trace], (name, trace, set(emitted) ^ set(declared[trace]))
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert result["attempted"] >= 1
            timings = ("synth_s", "verify_s", "setup_s") if trace == 0 else ("trace.synth_s",)
            for metric in timings:
                assert result["metrics"][metric]["value"] > 0, (name, metric)


def test_gate_flags_wrong_norm() -> None:
    for loop_norm, expected in ((False, "markov_norm_gap"), (True, "loop_norm_gap")):
        workload = workloads.ChainWorkload("chain", (3,), 7, loop_norm=loop_norm)
        workload.setup(spans.Tracer(enabled=False))
        prob = workload.problems[0]
        result = synthesis.synthesize(prob.plant, prob.space, delays=prob.delays)
        out, _ = workloads._timed_verify(
            spans.Tracer(enabled=False), prob.plant, result.controller, prob.space, loop_norm
        )
        _, failures = workload._check(prob, result, out, thorough=True)
        assert failures == [], failures
        wrong = dataclasses.replace(result, total_norm_sq=result.total_norm_sq * (1 + 1e-6))
        _, failures = workload._check(prob, wrong, out, thorough=False)
        assert "cost_identity" in failures and expected in failures, failures
        assert "not_repeatable" in failures, failures

    assert gate.reference_checks(gate.CHAIN_NORM * 1.001, gate.CENTRALIZED_NORM) == [
        "reference_chain_norm"
    ]
    assert workloads.reference_failures() == []

    good = "N,norm\n1,2.0\n2,2.5\n3,3.0\n"
    assert gate.sweep_csv(good, 1, 3)[0] == []
    assert gate.sweep_csv("N,norm\n1,2.0\n2,1.5\n3,3.0\n", 1, 3)[0] == ["csv_not_monotone"]
    assert gate.sweep_csv("N,norm\n1,2.0\n2,\n3,3.0\n", 1, 3)[0] == [
        "csv_empty_cell", "csv_missing_row"
    ]


def test_absent_span_is_reported() -> None:
    saved = run.WRAPPED
    run.WRAPPED = saved + (("synthesis", "no_such_stage", "synthesis.no_such_stage"),)
    try:
        result = measure_tiny("chain-large", trace=1)
    finally:
        run.WRAPPED = saved
    assert result["metrics"]["trace.absent_spans"]["value"] == 1, result["metrics"]
    assert result["correct"]


def test_refuses_without_sources() -> None:
    bare = run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "chain-large",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc
    assert "correct" not in proc.stdout, proc.stdout


def main() -> int:
    run.WORK_DIR.mkdir(exist_ok=True)
    tests = [
        test_every_metric_emitted,
        test_gate_flags_wrong_norm,
        test_absent_span_is_reported,
        test_refuses_without_sources,
    ]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
