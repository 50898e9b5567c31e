"""Smoke tests of the benchmark on tiny inputs.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def spec_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units_match_spec(workload, trace, section):
    stdout, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == spec_units(section)
    printed = {tuple(line.split()[::2]) for line in stdout.splitlines() if len(line.split()) == 3}
    for name, unit in got.items():
        assert (name, unit) in printed


def test_search_trace_counts():
    _, result = smoke("search", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["maxclass.search_nodes"] > 0
    assert m["subfield.generate_calls"] == 0


def _args(workload):
    return run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"])


def test_wrong_expectation_raises_fail_ratio(monkeypatch):
    monkeypatch.setitem(workloads.SEARCH_COUNTS, (2, 8), workloads.SEARCH_COUNTS[(2, 8)] + 1)
    record = run.run(_args("search"))
    assert record["fail_ratio"] == 1.0
    assert record["result"]["correct"] is False
    assert record["result"]["failed"] == record["result"]["attempted"] == run.SMOKE_ROUNDS


def test_failed_job_does_not_stop_the_run(monkeypatch):
    """A directory passed as the file must count as a failed job, not end the run."""
    real = workloads.build_jobs

    def with_bad_job(workload, seed, workdir, smoke):
        bad = workloads.Job("bad/directory", ["check", "."], lambda r, w: None)
        return [bad] + real(workload, seed, workdir, smoke)

    monkeypatch.setattr(workloads, "build_jobs", with_bad_job)
    record = run.run(_args("scan"))
    failed = [j for j in record["jobs"] if j["failures"]]
    assert {j["key"] for j in failed} == {"bad/directory"}
    assert record["result"]["attempted"] == 2 * run.SMOKE_ROUNDS
    assert record["fail_ratio"] == 0.5


def test_order_tail():
    assert run.order_tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    xs = [float(i) for i in range(1, 61)]
    assert run.order_tail(xs) == (50.0, 100.0 * 50 / 60, 60)


def test_irreducible_quadratics():
    assert workloads.irreducible_quadratics(2) == [(1, 1)]
    assert len(workloads.irreducible_quadratics(5)) == (5 * 5 - 5) // 2
