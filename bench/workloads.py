"""The benchmark's workloads: seeded inputs, the jobs run on them, and checks.

Every check uses facts the benchmark knows without running ``thinlie``:
closed-form counts, the shape of the inputs it wrote itself, or counts
recorded at the seed commit (search counts and oracle verdict counts,
which the project promises never change).  No check compares bytes
against a stored digest, so report-schema changes such as a new
``triples_checked`` value do not break the benchmark.

Workloads (the seed picks the order of the menu and every free choice):

* ``search``   -- full ``build search`` enumerations over q = |E| = 4, 9,
  25, 49.  The time is ``maxclass`` push/check/retract and ``gf``
  arithmetic; no subfield, endo or reconstruct code runs.
* ``pipeline`` -- one user session (check, analyze, endo, roundtrip,
  stats) per algebra file: metabelian GF(9) at classes 80/120/160 and
  GF(25) at class 80 (the rho' branch), and two deviating oracles (the
  rho branch).  The time is ``validate`` at large class, ``reconstruct``
  and ``endo``: few, large ``generate_subalgebra`` calls.
* ``scan``     -- normalized scans of metabelian GF(25) and GF(49) files
  and of both oracles, plus a raw scan of the GF(9) oracle: thousands of
  small ``generate_subalgebra`` calls, so ``subfield`` and
  ``gf.RowSpace`` dominate.
* ``baseline`` -- not part of BENCHMARK.json: the inputs of the ROADMAP
  re-anchor baseline, for the layer comparison in README.md.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

SEARCH_LIMIT = 10**6  # above every count below, so each search is exhaustive

# Found counts of `build search` recorded at the seed commit.  A count does
# not depend on the defining quadratic: an isomorphism of fields maps the
# canonical presentations of one onto those of the other.
SEARCH_COUNTS = {
    (2, 8): 45,
    (2, 16): 405,
    (3, 12): 100,
    (3, 14): 1000,
    (3, 16): 190,
    (5, 14): 676,
    (7, 10): 50,
}

# The deviating oracles shipped in data/: their deviating degrees (where
# the adjoint pair is (0, 1), so the two-step centralizer is Ex) and the
# normalized-scan verdict counts recorded at the seed commit.
ORACLES = {
    "dev9_14": {"p": 3, "deviations": [6, 9, 12], "scan": {"thin": 40, "maximal": 0, "rconstrained": 32}},
    "dev25_14": {"p": 5, "deviations": [10], "scan": {"thin": 456, "maximal": 0, "rconstrained": 144}},
}
# Raw scan of dev9_14 (window 14), recorded at the seed commit.
RAW_SCAN_DEV9 = {"thin": 1920, "maximal": 768, "rconstrained": 3072}

# Generator pairs pinned in tests/conftest.py, as CLI coordinates a0,a1,b0,b1.
THIN_PAIR = ("1,0,1,0", "0,1,1,1")  # X = x + y, Y = mu*x + (mu+1)*y
RC_PAIR = ("0,0,1,0", "1,0,0,1")  # X = y, Y = x + mu*y

EY = [[0, 0], [1, 0]]
EX = [[1, 0], [0, 0]]


@dataclass
class Job:
    """One CLI call: its argv (relative to the work directory) and its check.

    ``check(results, workdir)`` gets the parsed ``results`` of the JSON
    report and returns None when the output is right, else a reason.
    """

    key: str
    argv: List[str]
    check: Callable[[dict, str], Optional[str]]


# -- fields -------------------------------------------------------------------


def irreducible_quadratics(p: int) -> List[tuple]:
    """All (u, v) with t^2 - u*t - v irreducible over GF(p), in order."""
    return [
        (u, v)
        for u in range(p)
        for v in range(p)
        if all((t * t - u * t - v) % p for t in range(p))
    ]


def mu_times(p: int, u: int, v: int, e: tuple) -> tuple:
    """mu * (e0 + e1*mu) where mu^2 = u*mu + v."""
    e0, e1 = e
    return ((e1 * v) % p, (e0 + e1 * u) % p)


def draw_thin_pair(rng: random.Random, p: int, u: int, v: int) -> tuple:
    """A normalized pair X = x + beta*y, Y = mu*x + delta*y with delta != mu*beta.

    On a metabelian algebra every centralizer is Ey, so every E-independent
    normalized pair is thin.
    """
    elems = [(a, b) for b in range(p) for a in range(p)]
    beta = rng.choice(elems)
    delta = rng.choice([d for d in elems if d != mu_times(p, u, v, beta)])
    return (f"1,0,{beta[0]},{beta[1]}", f"0,1,{delta[0]},{delta[1]}")


def write_metabelian(workdir: str, name: str, p: int, u: int, v: int, class_n: int) -> str:
    doc = {"p": p, "ext_min_poly": [v, u], "class": class_n, "adjoint": [EX] * (class_n - 2)}
    path = name + ".json"
    with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def copy_oracle(workdir: str, name: str) -> str:
    path = name + ".json"
    shutil.copyfile(os.path.join(DATA, path), os.path.join(workdir, path))
    return path


# -- checks -------------------------------------------------------------------


def _expect(results: dict, **want) -> Optional[str]:
    for key, val in want.items():
        if results.get(key) != val:
            return f"{key} = {results.get(key)!r}, expected {val!r}"
    return None


def check_search(p: int, u: int, v: int, class_n: int, prefix: str):
    def check(results: dict, workdir: str) -> Optional[str]:
        want = SEARCH_COUNTS[(p, class_n)]
        bad = _expect(results, count=want)
        if bad:
            return bad
        files = results.get("files", [])
        if len(files) != want or files[0] != f"{prefix}_000.json":
            return f"{len(files)} files listed, first {files[:1]}"
        with open(os.path.join(workdir, files[0]), encoding="utf-8") as fh:
            first = json.load(fh)
        meta = {"p": p, "ext_min_poly": [v, u], "class": class_n, "adjoint": [EX] * (class_n - 2)}
        if first != meta:
            return f"{files[0]} is not the metabelian presentation"
        return None

    return check


def check_stats(class_n: int, deviations: List[int]):
    """Centralizer stats: Ey everywhere except Ex at the deviating degrees."""
    degrees = range(2, class_n)
    want = [[EY, [d for d in degrees if d not in deviations]]]
    if deviations:
        want.append([EX, list(deviations)])

    def check(results: dict, workdir: str) -> Optional[str]:
        got = [[e["point"], e["occurrences"]] for e in results.get("entries", [])]
        if results.get("class") != class_n or got != want:
            return f"centralizer entries {got} differ from {want}"
        return None

    return check


def check_scan(q: int, raw: bool, verdicts: dict):
    """total is q^2 (normalized) or q^4 - 1 (raw); degenerate pairs by formula.

    Normalized pairs x + b*y, mu*x + d*y are E-dependent iff d = mu*b: q
    of them.  Raw pairs are nonzero 2x2 matrices over E, and the
    degenerate ones are the singular ones: q^4 - |GL_2(q)| - 1.
    """
    total = q**4 - 1 if raw else q * q
    degenerate = q**4 - (q * q - 1) * (q * q - q) - 1 if raw else q

    def check(results: dict, workdir: str) -> Optional[str]:
        counts = dict(verdicts, degenerate=degenerate)
        bad = _expect(results, total=total, counts=counts)
        if bad:
            return bad
        if not raw:
            return _expect(results, agree=True, thin_by_lines=counts["thin"])
        return None

    return check


def _session(name: str, path: str, class_n: int, pair: tuple, analyze_pair: tuple,
             analyze_want: dict, branch: str, deviations: List[int]) -> List[Job]:
    """check, analyze, endo, roundtrip, stats on one file, as a user would."""

    def args(p):
        return ["--X", p[0], "--Y", p[1]]

    def analyze(results, workdir):
        bad = _expect(results, **analyze_want)
        if bad is None and analyze_want["verdict"] == "thin":
            bad = _expect(results.get("endo") or {}, dim=2, is_field=True)
        return bad

    return [
        Job(f"{name}/check", ["check", path], lambda r, w: _expect(r, ok=True, first_failure=None)),
        Job(f"{name}/analyze", ["analyze", path, *args(analyze_pair)], analyze),
        Job(f"{name}/endo", ["endo", path, *args(pair)], lambda r, w: _expect(r, dim=2, is_field=True)),
        Job(f"{name}/roundtrip", ["roundtrip", path, *args(pair)],
            lambda r, w: _expect(r, branch=branch, iso=True, first_failure=None)),
        Job(f"{name}/stats", ["stats", path], check_stats(class_n, deviations)),
    ]


# -- workloads ----------------------------------------------------------------


def _search_job(p: int, class_n: int, u: int, v: int) -> Job:
    prefix = f"s{p}_{class_n}"
    argv = ["build", "search", "--p", str(p), "--ext", f"{v},{u}", "--class", str(class_n),
            "--limit", str(SEARCH_LIMIT), "-o", prefix]
    return Job(f"search/GF({p * p})/class{class_n}", argv, check_search(p, u, v, class_n, prefix))


def _metabelian_session(rng, workdir: str, p: int, class_n: int) -> List[Job]:
    u, v = rng.choice(irreducible_quadratics(p))
    name = f"m{p * p}_{class_n}"
    path = write_metabelian(workdir, name, p, u, v, class_n)
    pair = draw_thin_pair(rng, p, u, v)
    return _session(name, path, class_n, pair, pair, {"verdict": "thin"}, "rho_prime", [])


def _oracle_session(workdir: str, name: str) -> List[Job]:
    info = ORACLES[name]
    path = copy_oracle(workdir, name)
    want = {"verdict": "rconstrained", "t1": info["deviations"][0]}
    return _session(name, path, 14, THIN_PAIR, RC_PAIR, want, "rho", info["deviations"])


def _metabelian_scan(workdir: str, p: int, class_n: int, u: int, v: int) -> Job:
    q = p * p
    path = write_metabelian(workdir, f"m{q}_{class_n}", p, u, v, class_n)
    verdicts = {"thin": q * q - q, "maximal": 0, "rconstrained": 0}
    return Job(f"scan/m{q}_{class_n}/window{class_n}", ["scan", path, "--window", str(class_n)],
               check_scan(q, False, verdicts))


def _oracle_scan(workdir: str, name: str, raw: bool) -> Job:
    info = ORACLES[name]
    path = copy_oracle(workdir, name)
    argv = ["scan", path] + (["--raw"] if raw else [])
    verdicts = RAW_SCAN_DEV9 if raw else info["scan"]
    return Job(f"scan/{name}" + ("/raw" if raw else ""), argv, check_scan(info["p"] ** 2, raw, verdicts))


def build_jobs(workload: str, seed: int, workdir: str, smoke: bool) -> List[Job]:
    """Write the inputs into ``workdir`` and return the jobs of one round.

    Only the seed decides the choices, so the same seed gives the same jobs.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search":
        menu = [(2, 8)] if smoke else [(2, 16), (3, 16), (5, 14), (7, 10)]
        rng.shuffle(menu)
        return [_search_job(p, n, *rng.choice(irreducible_quadratics(p))) for p, n in menu]
    if workload == "pipeline":
        if smoke:
            return _metabelian_session(rng, workdir, 3, 12)
        menu = [(3, 80), (3, 120), (3, 160), (5, 80), "dev9_14", "dev25_14"]
        rng.shuffle(menu)
        jobs: List[Job] = []
        for item in menu:
            if isinstance(item, str):
                jobs += _oracle_session(workdir, item)
            else:
                jobs += _metabelian_session(rng, workdir, *item)
        return jobs
    if workload == "scan":
        menu = [(5, 40), (7, 20), ("dev25_14", False), ("dev9_14", False), ("dev9_14", True)]
        if smoke:
            menu = [(3, 12)]
        rng.shuffle(menu)
        return [
            _oracle_scan(workdir, a, b) if isinstance(a, str)
            else _metabelian_scan(workdir, a, b, *rng.choice(irreducible_quadratics(a)))
            for a, b in menu
        ]
    if workload == "baseline":
        return _baseline_jobs(workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _baseline_jobs(workdir: str) -> List[Job]:
    """The ROADMAP re-anchor baseline inputs, with mu^2 = 2 for p = 3, 5 and mu^2 = 3 for p = 7."""
    jobs = []
    for n in (80, 160):
        path = write_metabelian(workdir, f"m9_{n}", 3, 0, 2, n)
        jobs.append(Job(f"validate/m9_{n}", ["check", path], lambda r, w: _expect(r, ok=True)))
    jobs += [_search_job(3, n, 0, 2) for n in (12, 14, 16)]
    for n in (40, 80, 160):
        path = write_metabelian(workdir, f"m9_{n}", 3, 0, 2, n)
        jobs.append(Job(f"roundtrip/m9_{n}", ["roundtrip", path, "--X", THIN_PAIR[0], "--Y", THIN_PAIR[1]],
                        lambda r, w: _expect(r, branch="rho_prime", iso=True)))
    jobs += [_metabelian_scan(workdir, 5, 40, 0, 2), _metabelian_scan(workdir, 7, 20, 0, 3)]
    return jobs
