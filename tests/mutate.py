"""Mutation testing of ``src/thinlie``: which tests run a line, and which kill a mutant of it.

Stdlib only; pytest runs in child processes.  The name has no ``test_``
prefix, so pytest does not collect it.  Three subcommands, run from the
repository root::

    python tests/mutate.py trace COVER.json [PYTEST_ARGS...]
    python tests/mutate.py sites COVER.json [--tests REGEX]
    python tests/mutate.py run COVER.json KILLS.json [--tests REGEX] [--run REGEX]
        [--only KILLS.json] [--tree DIR] [--timeout S] [--jobs N]

``trace`` runs pytest with this module as a plugin (``-p mutate``) and
writes, for each test id, its wall time and the ``src/thinlie`` lines it
runs (``sys.settrace``).  The lines of a fixture's setup are credited to
every test that names the fixture, since a module- or session-scoped
fixture is set up only once.  Lines run at import or collection time are
credited to no test, and subprocesses are not traced.

``sites`` lists the mutants on the lines that the tests matching REGEX run.
There are four operators: a flipped comparison (``<`` and ``>=``, ``>`` and
``<=``, ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``), an
int constant c replaced by c - 1 (0 by 1), a dropped ``% p`` (the right
operand named ``p`` or ``.p``), and swapped operands of ``-``, ``//``, ``/``
and ``**``.  A mutant replaces one node's source text in place, so no line
number moves.  Nodes inside f-strings are left alone.

``run`` copies the tree (default: this repository) to a temporary
directory per job.  For each mutant it writes the mutated module into the
copy's ``src`` and runs pytest there with ``PYTHONPATH`` at the copy's
``src``, so subprocess CLI tests see the mutant too.  The tests run are
``tests/test_golden.py`` and ``tests/test_cli.py`` first, then the tests of
the copy that run the mutated line, fastest first; ``-x`` stops at the
first failure.  A failure, an error or a timeout kills the mutant; a
mutant that no chosen test reaches is recorded as "no tests".
``--run`` keeps only the tests matching REGEX, and ``--only`` only the
mutants that survived in an earlier KILLS.json.  KILLS.json maps each
mutant id (``file:line:col-end col:operator``) to its result and, for a kill, the
first failing test.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "thinlie"
FIRST = ("tests/test_golden.py", "tests/test_cli.py")
TRACE_ENV = "MUTATE_TRACE_OUT"


# -- trace: the pytest plugin --------------------------------------------------


class _Recorder:
    """A pytest plugin: line events in ``src/thinlie``, bucketed by the
    running test or fixture, written to ``path`` at the end of the session."""

    def __init__(self, package: str, path: str):
        self.package = os.path.realpath(package) + os.sep
        self.path = path
        self.buckets: dict = {}
        self.current = None
        self.fixtures: dict = {}
        self.seconds: dict = {}
        self._mine: dict = {}
        threading.settrace(self._global)
        sys.settrace(self._global)

    def switch(self, key) -> None:
        self.current = None if key is None else self.buckets.setdefault(key, set())

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        mine = self._mine.get(name)
        if mine is None:
            real = os.path.realpath(name)
            mine = self._mine[name] = real[len(self.package):] if real.startswith(self.package) else ""
        return self._local if mine else None

    def _local(self, frame, event, arg):
        if event == "line" and self.current is not None:
            self.current.add((self._mine[frame.f_code.co_filename], frame.f_lineno))
        return self._local

    def lines_of(self, nodeid: str) -> dict:
        seen = set(self.buckets.get(nodeid, ()))
        for name in self.fixtures.get(nodeid, ()):
            seen |= self.buckets.get(("fixture", name), set())
        out: dict = {}
        for file, line in sorted(seen):
            out.setdefault(file, []).append(line)
        return out

    def pytest_runtest_logstart(self, nodeid, location):
        self.seconds[nodeid] = time.perf_counter()
        self.switch(nodeid)

    def pytest_runtest_setup(self, item):
        self.fixtures[item.nodeid] = list(item.fixturenames)

    def pytest_fixture_setup(self, fixturedef, request):
        self.switch(("fixture", fixturedef.argname))

    def pytest_runtest_call(self, item):
        self.switch(item.nodeid)

    def pytest_runtest_logfinish(self, nodeid, location):
        self.seconds[nodeid] = time.perf_counter() - self.seconds[nodeid]
        self.switch(None)

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        threading.settrace(None)
        tests = {
            nodeid: {"seconds": round(secs, 4), "lines": self.lines_of(nodeid)}
            for nodeid, secs in self.seconds.items()
        }
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump({"tests": tests}, fh, indent=1, sort_keys=True)


def pytest_configure(config):
    """Register the recorder when ``trace`` started this pytest."""
    if os.environ.get(TRACE_ENV):
        recorder = _Recorder(str(Path(config.rootpath) / PACKAGE), os.environ[TRACE_ENV])
        config.pluginmanager.register(recorder, "mutate-recorder")


def trace(out: str, pytest_args: list) -> int:
    here = str(Path(__file__).resolve().parent)
    env = dict(os.environ, **{TRACE_ENV: os.path.abspath(out)})
    env["PYTHONPATH"] = os.pathsep.join([here, str(ROOT / "src")])
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "mutate", "-p", "no:cacheprovider", *pytest_args]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


# -- the mutants ---------------------------------------------------------------

FLIP = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SWAP = (ast.Sub, ast.FloorDiv, ast.Div, ast.Pow)


def _named_p(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "p") or (
        isinstance(node, ast.Attribute) and node.attr == "p"
    )


def _replace(data: bytes, starts: list, node, text: str) -> str:
    """data with node's source replaced by text, padded to keep its line count."""
    begin = starts[node.lineno - 1] + node.col_offset
    end = starts[node.end_lineno - 1] + node.end_col_offset
    pad = "\n" * (node.end_lineno - node.lineno)
    text = f"({text}{pad})" if pad else text
    return (data[:begin] + text.encode() + data[end:]).decode()


def mutants(source: str, lines=None):
    """Yield (line, "col-end col", operator, mutated source) for each
    mutation site whose node starts on one of ``lines`` (every line if
    None).  Nested nodes of one operator can start at the same column, so
    a site is named by its span."""
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    tree = ast.parse(source)
    in_fstring = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}
    for node in ast.walk(tree):
        if id(node) in in_fstring or (lines is not None and getattr(node, "lineno", None) not in lines):
            continue
        at = f"{getattr(node, 'col_offset', 0)}-{getattr(node, 'end_col_offset', 0)}"
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                new = copy.deepcopy(node)
                new.ops[i] = FLIP[type(op)]()
                yield node.lineno, at, f"cmp{i}", _replace(data, starts, node, f"({ast.unparse(new)})")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            text = str(node.value - 1 if node.value else 1)
            yield node.lineno, at, "int", _replace(data, starts, node, text)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) and _named_p(node.right):
            yield node.lineno, at, "mod", _replace(data, starts, node, f"({ast.unparse(node.left)})")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, SWAP):
            new = ast.BinOp(node.right, node.op, node.left)
            yield node.lineno, at, "swap", _replace(data, starts, node, f"({ast.unparse(new)})")


def _covered(cover: dict, pattern: str) -> dict:
    """file -> set of lines run by the tests whose ids match pattern."""
    rx = re.compile(pattern)
    out: dict = {}
    for nodeid, rec in cover["tests"].items():
        if rx.search(nodeid):
            for file, lines in rec["lines"].items():
                out.setdefault(file, set()).update(lines)
    return out


def sites(cover: dict, pattern: str, tree: Path = ROOT) -> list:
    """[(mutant id, file, line, mutated source)] on the lines the matching tests run."""
    out = []
    for file, lines in sorted(_covered(cover, pattern).items()):
        source = (tree / PACKAGE / file).read_text(encoding="utf-8")
        for line, at, op, text in mutants(source, lines):
            out.append((f"{file}:{line}:{at}:{op}", file, line, text))
    return out


# -- run -----------------------------------------------------------------------


def _pytest(tree: Path, tests: list, timeout: float):
    """(returncode or None on timeout, output) of pytest -x on tests in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(
        cmd, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""


def _copy(tree: Path, into: Path) -> Path:
    dest = into / "tree"
    shutil.copytree(tree, dest, ignore=shutil.ignore_patterns(".git", "__pycache__", "out", ".pytest_cache"))
    return dest


def run(args) -> int:
    cover = json.loads(Path(args.cover).read_text(encoding="utf-8"))
    tree = Path(args.tree).resolve()
    todo = sites(cover, args.tests, tree)
    if args.only:
        earlier = json.loads(Path(args.only).read_text(encoding="utf-8"))
        todo = [s for s in todo if earlier.get(s[0], {}).get("result") == "survived"]
    keep = re.compile(args.run)
    listed = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        capture_output=True, text=True,
    ).stdout
    present = {line.strip() for line in listed.splitlines() if "::" in line}
    by_line: dict = {}
    for nodeid, rec in cover["tests"].items():
        if nodeid in present and not nodeid.startswith(FIRST):
            for file, lines in rec["lines"].items():
                for line in lines:
                    by_line.setdefault((file, line), []).append((rec["seconds"], nodeid))

    def tests_for(file, line):
        chosen = [t for t in FIRST if keep.search(t)]
        return chosen + [n for _, n in sorted(by_line.get((file, line), [])) if keep.search(n)]

    scratch = Path(tempfile.mkdtemp(prefix="mutate-"))
    copies = [_copy(tree, scratch / str(j)) for j in range(args.jobs)]
    code, out = _pytest(copies[0], list(FIRST), args.timeout)
    if code != 0:
        print(out[-2000:], file=sys.stderr)
        sys.exit("the unmutated tree fails its first tests")
    free = list(copies)
    lock = threading.Lock()
    results: dict = {}

    def one(site):
        mid, file, line, text = site
        tests = tests_for(file, line)
        if not tests:  # pytest given no test ids would run the whole suite
            return record(mid, line, "no tests", None, None, 0.0)
        with lock:
            work = free.pop()
        target = work / PACKAGE / file
        original = target.read_text(encoding="utf-8")
        target.write_text(text, encoding="utf-8")
        started = time.perf_counter()
        try:
            code, out = _pytest(work, tests, args.timeout)
        finally:
            target.write_text(original, encoding="utf-8")
            with lock:
                free.append(work)
        failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.M)
        result = "timeout" if code is None else "survived" if code == 0 else "killed"
        record(mid, line, result, failed.group(1) if failed else None, code, time.perf_counter() - started)

    def record(mid, line, result, by, code, seconds):
        rec = {"line": line, "op": mid.rsplit(":", 1)[1].rstrip("0123456789"), "result": result,
               "by": by, "returncode": code, "seconds": round(seconds, 2)}
        with lock:
            results[mid] = rec
            done = len(results)
            if done % 10 == 0 or done == len(todo):
                Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True), encoding="utf-8")
        print(f"[{done}/{len(todo)}] {mid} {result} {rec['by'] or ''}", flush=True)

    started = time.perf_counter()
    with ThreadPoolExecutor(args.jobs) as pool:
        list(pool.map(one, todo))
    shutil.rmtree(scratch)
    Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True), encoding="utf-8")
    counts: dict = {}
    for rec in results.values():
        counts.setdefault(rec["op"], {}).setdefault(rec["result"], 0)
        counts[rec["op"]][rec["result"]] += 1
    print(json.dumps({"mutants": len(results), "by_operator": counts,
                      "seconds": round(time.perf_counter() - started)}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_trace = sub.add_parser("trace", help="record the src lines each test runs")
    p_trace.add_argument("out")
    p_trace.add_argument("pytest_args", nargs=argparse.REMAINDER)
    p_sites = sub.add_parser("sites", help="list the mutants on the lines the chosen tests run")
    p_sites.add_argument("cover")
    p_sites.add_argument("--tests", default="")
    p_run = sub.add_parser("run", help="run the tests against each mutant")
    p_run.add_argument("cover")
    p_run.add_argument("out")
    p_run.add_argument("--tests", default="", help="mutate the lines these tests run")
    p_run.add_argument("--run", default="", help="run only the tests matching this")
    p_run.add_argument("--only", help="only the mutants that survived in this KILLS.json")
    p_run.add_argument("--tree", default=str(ROOT))
    p_run.add_argument("--timeout", type=float, default=300.0)
    p_run.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    if args.cmd == "trace":
        return trace(args.out, args.pytest_args)
    if args.cmd == "sites":
        cover = json.loads(Path(args.cover).read_text(encoding="utf-8"))
        for mid, *_ in sites(cover, args.tests):
            print(mid)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
