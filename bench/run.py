"""Benchmark for the thinlie CLI: timed or traced runs of one workload.

Usage (from the repository root)::

    python3 bench/run.py --workload search|pipeline|scan --seed N \\
        --seconds S --trace 0|1 [--smoke]

Load model: closed loop, one client, one job at a time.  Each job is one
CLI call in a fresh ``python3 -I -S`` process (see job.py), with
``THINLIE_THREADS`` unset, in a work directory under bench/out/.

``--trace 0`` runs whole rounds of the workload's menu, enough rounds to
fill about ``--seconds`` at the seed commit's speed, and prints the
end-to-end metrics.  ``--trace 1`` runs one round in each of three
passes -- plain, spans, counts -- and prints the per-layer metrics.
Every job's report is checked, and every job's stdout must be
byte-identical across rounds and passes.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The full
record (environment, per-job times, failures) goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
JOB = os.path.join(HERE, "job.py")

WORKLOADS = ("search", "pipeline", "scan")
# Seconds one round of each menu took at the seed commit (2 cores, one job
# at a time).  A timed run does ceil(--seconds / this) whole rounds, so
# every run of a workload measures the same job mix whatever the seed.
ROUND_S = {"search": 18.0, "pipeline": 13.0, "scan": 8.0, "baseline": 20.0}
SMOKE_ROUNDS = 2
SETUP_REPEATS = 7
# No job starts after this and a running one is killed then, so that a
# hung program still lets the run end within 180 s.
RUN_DEADLINE_S = 170.0

# Per-job calls and counts printed by a traced run.
JOB_LAYERS = ("maxclass.validate", "subfield.generate_subalgebra", "gf.rref", "gf.insert")
JOB_COUNTERS = ("maxclass.search_nodes", "gf.ext_mul")

UNITS = {
    "jobs_per_s": "1/s",
    "job_geomean_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


@dataclass
class Result:
    job: workloads.Job
    mode: str
    stdout: bytes = b""
    record: Optional[dict] = None
    wall: float = 0.0
    failures: List[str] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("THINLIE_THREADS", None)
    return env


def run_job(job: workloads.Job, workdir: str, mode: str, deadline: float) -> Result:
    """Run one CLI call in a fresh process; never raises for a bad job."""
    res = Result(job, mode)
    rec_path = os.path.join(workdir, ".job_record.json")
    if os.path.exists(rec_path):
        os.remove(rec_path)
    cmd = [sys.executable, "-I", "-S", JOB, SRC, mode, rec_path, "--", *job.argv]
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=max(0.1, deadline - t0))
    except subprocess.TimeoutExpired:
        res.failures.append(f"killed at the run's {RUN_DEADLINE_S} s deadline")
        return res
    finally:
        res.wall = perf_counter() - t0
    res.stdout = proc.stdout
    try:
        with open(rec_path, encoding="utf-8") as fh:
            res.record = json.load(fh)
    except (OSError, ValueError):
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        res.failures.append(f"process ended with {proc.returncode} and no record: {tail}")
        return res
    if res.record["escaped"]:
        res.failures.append("exception escaped cli.main: " + res.record["escaped"].strip().splitlines()[-1])
    elif res.record["exit"] != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        res.failures.append(f"exit code {res.record['exit']}: {tail}")
    return res


def verify(results: List[Result], workdir: str) -> None:
    """Check each report, and that one argv always prints the same bytes."""
    first: dict = {}
    for res in results:
        if res.failures:
            continue
        try:
            report = json.loads(res.stdout)
            bad = res.job.check(report["results"], workdir)
        except (ValueError, KeyError, TypeError, OSError, IndexError) as exc:
            bad = f"unreadable report: {exc!r}"
        if bad:
            res.failures.append(bad)
        seen = first.setdefault(res.job.key, res.stdout)
        if seen != res.stdout:
            res.failures.append(f"stdout differs from the first run of the same argv ({res.mode})")


def preflight(workdir: str, deadline: float) -> None:
    """Refuse to run unless this checkout's thinlie imports and answers."""
    res = run_job(workloads.Job("preflight", ["--version"], lambda r, w: None), workdir, "plain", deadline)
    if res.failures or not res.stdout.startswith(b"thinlie "):
        raise SystemExit(f"thinlie under {SRC} does not run: {res.failures or res.stdout[:80]}")


def setup(workload: str, seed: int, workdir: str, smoke: bool, deadline: float) -> tuple:
    """Write inputs and draw choices SETUP_REPEATS times; median seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        jobs = workloads.build_jobs(workload, seed, workdir, smoke)
        preflight(workdir, deadline)
        times.append(perf_counter() - t0)
    return jobs, statistics.median(times)


def order_tail(times: List[float]) -> tuple:
    """(value, percentile, n): the highest order statistic with 10 samples beyond it."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def timed_run(jobs, workdir: str, rounds: int, deadline: float) -> List[Result]:
    results: List[Result] = []
    for _ in range(rounds):
        for job in jobs:
            if perf_counter() < deadline:
                results.append(run_job(job, workdir, "plain", deadline))
    verify(results, workdir)
    return results


def end_to_end(results: List[Result], setup_s: float) -> tuple:
    """Metrics of a timed run, taken over a median round.

    Each menu job's times are reduced to their median across the rounds
    first.  On a host whose per-core speed swings by up to 2x within
    seconds, order statistics of the raw job times (the median of a mixed
    menu, a p83) spread across runs by up to 0.31 of their median, while
    these aggregates stay near 0.15-0.2 (see README.md).
    """
    walls: dict = {}
    job_s: dict = {}
    for r in results:
        walls.setdefault(r.job.key, []).append(r.wall)
        if r.record:
            job_s.setdefault(r.job.key, []).append(r.record["job_s"])
    medians = {k: statistics.median(t) for k, t in job_s.items()}
    ok_share = sum(1 for r in results if not r.failures) / len(results)
    slowest = max(medians, key=medians.get, default=None)
    times = [t for ts in job_s.values() for t in ts]
    tail_s, tail_pct, n = order_tail(times) if times else (0.0, 0.0, 0)
    metrics = {
        "jobs_per_s": ok_share * len(walls) / sum(statistics.median(w) for w in walls.values()),
        "job_geomean_s": statistics.geometric_mean(medians.values()) if medians else 0.0,
        "job_tail_s": medians.get(slowest, 0.0),
        "setup_s": setup_s,
        "peak_rss_mb": max((r.record["rss_kb"] for r in results if r.record), default=0) / 1024.0,
    }
    details = {
        "slowest_job": slowest,
        "job_p50_all_s": statistics.median(times) if times else 0.0,
        "job_tail_order_stat": {"value_s": tail_s, "percentile": tail_pct, "n": n},
        "timed_wall_s": sum(r.wall for r in results),
    }
    return metrics, details


def traced_run(jobs, workdir: str, deadline: float) -> dict:
    passes = {
        mode: [run_job(job, workdir, mode, deadline) for job in jobs if perf_counter() < deadline]
        for mode in ("plain", "spans", "counts")
    }
    verify([r for rs in passes.values() for r in rs], workdir)
    return passes


def _sum_layers(results: List[Result]) -> dict:
    """name -> (calls, self seconds), summed over the jobs of a spans pass."""
    layers: dict = {}
    for r in results:
        for name, agg in (r.record or {}).get("trace", {}).get("layers", {}).items():
            calls, secs = layers.get(name, (0, 0.0))
            layers[name] = (calls + agg["calls"], secs + agg["self_s"])
    return layers


def _sum_counters(results: List[Result]) -> dict:
    counters: dict = {}
    for r in results:
        for name, val in (r.record or {}).get("trace", {}).get("counters", {}).items():
            counters[name] = counters.get(name, 0) + val
    return counters


def _overhead_pct(traced: List[Result], plain: List[Result]) -> float:
    t = sum(r.record["job_s"] for r in traced if r.record)
    p = sum(r.record["job_s"] for r in plain if r.record)
    return 100.0 * (t / p - 1.0) if p else 0.0


def per_layer(passes: dict) -> tuple:
    """(metrics, units): totals over one round of the workload's menu."""
    layers = _sum_layers(passes["spans"])
    counts = _sum_counters(passes["counts"])

    def s(*names):
        return sum(layers.get(n, (0, 0.0))[1] for n in names)

    def calls(name):
        return layers.get(name, (0, 0.0))[0]

    nodes = counts.get("maxclass.search_nodes", 0)
    metrics = {
        "cli.import_s": s("cli.import"),
        "cli.self_s": s("cli.main"),
        "maxclass.search_s": s("maxclass.search_sequences"),
        "maxclass.search_nodes": nodes,
        "maxclass.search_accept_ratio": counts.get("maxclass.check_new_passes", 0) / nodes if nodes else 0.0,
        "maxclass.validate_calls": calls("maxclass.validate"),
        "maxclass.validate_s": s("maxclass.validate"),
        "maxclass.jacobi_triples": counts.get("maxclass.jacobi_triples", 0),
        "subfield.generate_calls": calls("subfield.generate_subalgebra"),
        "subfield.generate_s": s("subfield.generate_subalgebra"),
        "subfield.d_sequence_s": s("subfield.d_sequence"),
        "subfield.line_count_s": s("subfield.line_count"),
        "subfield.scan_s": s("subfield.scan"),
        "endo.grend0_s": s("endo.compute_grend0"),
        "endo.identify_s": s("endo.identify_field"),
        "reconstruct.detect_s": s("reconstruct.detect_structure"),
        "reconstruct.rho_s": s("reconstruct.build_rho", "reconstruct.build_rho_prime"),
        "reconstruct.assemble_s": s("reconstruct.assemble_N"),
        "reconstruct.roundtrip_s": s("reconstruct.verify_roundtrip"),
        "gf.ext_mul_calls": counts.get("gf.ext_mul", 0),
        "gf.ext_inv_calls": counts.get("gf.ext_inv", 0),
        "gf.rref_calls": calls("gf.rref"),
        "gf.rref_s": s("gf.rref"),
        "gf.insert_calls": calls("gf.insert"),
        "gf.insert_s": s("gf.insert"),
        "trace.overhead_pct": _overhead_pct(passes["spans"], passes["plain"]),
        "trace.count_overhead_pct": _overhead_pct(passes["counts"], passes["plain"]),
    }
    units = {}
    for name in metrics:
        if name.endswith("_pct"):
            units[name] = "%"
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "1"
        else:
            units[name] = "count"
    return metrics, units


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "n/a"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("baseline",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, two rounds (for tests)")
    return ap.parse_args(argv)


def run(args) -> dict:
    """Run one benchmark invocation; returns the full record."""
    if not os.path.isfile(os.path.join(SRC, "thinlie", "cli.py")):
        raise SystemExit(f"no thinlie sources under {SRC}")
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "loadavg_start": _loadavg(),
    }
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    deadline = perf_counter() + RUN_DEADLINE_S
    try:
        jobs, setup_s = setup(args.workload, args.seed, workdir, args.smoke, deadline)
        if args.trace:
            passes = traced_run(jobs, workdir, deadline)
            results = [r for rs in passes.values() for r in rs]
            metrics, units = per_layer(passes)
            details = {"passes": list(passes)}
        else:
            rounds = SMOKE_ROUNDS if args.smoke else max(1, math.ceil(args.seconds / ROUND_S[args.workload]))
            results = timed_run(jobs, workdir, rounds, deadline)
            metrics, details = end_to_end(results, setup_s)
            units = UNITS
            details["rounds"] = rounds
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = _loadavg()
    failed = sum(1 for r in results if r.failures)
    record = {
        "result": {
            "correct": failed == 0,
            "attempted": len(results),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "fail_ratio": failed / len(results) if results else 1.0,
        "env": env,
        "details": details,
        "jobs": [
            {
                "key": r.job.key,
                "mode": r.mode,
                "argv": r.job.argv,
                "job_s": r.record["job_s"] if r.record else None,
                "failures": r.failures,
                "trace": (r.record or {}).get("trace"),
            }
            for r in results
        ],
    }
    tag = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        spans = [{"key": r.job.key, "spans": r.record.get("spans")} for r in passes["spans"] if r.record]
        with open(os.path.join(OUT, tag + "-spans.json"), "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    return record


def print_report(record: dict) -> None:
    env, res = record["env"], record["result"]
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in res["metrics"].items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{name:32s} {value} {m['unit']}")
    details = record["details"]
    if "slowest_job" in details:
        order = details["job_tail_order_stat"]
        print(f"job_tail_s is the median of the slowest job, {details['slowest_job']}, over"
              f" {details['rounds']} rounds; all {order['n']} jobs: p50 {details['job_p50_all_s']:.6g} s,"
              f" p{order['percentile']:.1f} {order['value_s']:.6g} s")
    print(f"fail_ratio {record['fail_ratio']:.6g} ({res['failed']}/{res['attempted']} jobs failed)")
    counted = {j["key"]: j["trace"]["counters"] for j in record["jobs"] if j["mode"] == "counts" and j["trace"]}
    for job in record["jobs"]:
        if job["mode"] == "spans" and job["trace"]:
            calls = {k: v["calls"] for k, v in job["trace"]["layers"].items()}
            counts = counted.get(job["key"], {})
            fields = [f"{name}={calls.get(name, 0)}" for name in JOB_LAYERS]
            fields += [f"{name}={counts.get(name, 0)}" for name in JOB_COUNTERS]
            print(f"job {job['key']:28s} {job['job_s']:8.4f} s  " + " ".join(fields))
    print(json.dumps(res))


def main(argv=None) -> int:
    print_report(run(parse_args(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
