"""Run one ``thinlie`` command in this fresh process and record how it went.

Usage::

    python3 -I -S job.py SRC_DIR MODE RECORD_PATH -- CLI_ARGV...

``SRC_DIR`` is the directory that holds the ``thinlie`` package under
test; it is put first on ``sys.path`` and the import is refused if the
package comes from anywhere else.  The command's stdout and stderr pass
through untouched.  The record (JSON) is written to ``RECORD_PATH``:
job time from just before ``import thinlie.cli`` to the return of
``cli.main``, the exit code, any exception that escaped ``cli.main``,
``ru_maxrss`` and, when traced, the per-layer spans and counters.

MODE is one of

* ``plain``  -- no instrumentation (the timed run);
* ``spans``  -- wrap each layer's public entry points in spans;
* ``counts`` -- count ``ExtField.mul`` / ``ExtField.inv`` calls, search
  nodes (``_Structure.extend`` under ``search_sequences``), ``check_new``
  passes there, and Jacobi triples.  These cost a wrapper call per event,
  up to ~10^7 per job, so they run as their own pass and do not inflate
  the span pass's self times.

The tracer lives here, outside the program: it patches every binding of
a target in every loaded ``thinlie`` module, so names imported with
``from .x import y`` are wrapped too.  A target that no longer exists is
skipped and listed under ``missing``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from time import perf_counter

ESCAPED_EXIT = 70

# (module, attribute path, span name, kind).  "span" records one span per
# call; "leaf" adds count and time to the caller's span without recording a
# span per call, because these run up to ~10^6 times per job.
SPAN_TARGETS = [
    ("thinlie.maxclass", "validate", "maxclass.validate", "span"),
    ("thinlie.maxclass", "search_sequences", "maxclass.search_sequences", "span"),
    ("thinlie.subfield", "generate_subalgebra", "subfield.generate_subalgebra", "span"),
    ("thinlie.subfield", "d_sequence", "subfield.d_sequence", "span"),
    ("thinlie.subfield", "count_thin_by_line_avoidance", "subfield.line_count", "span"),
    ("thinlie.subfield", "scan", "subfield.scan", "span"),
    ("thinlie.endo", "compute_grend0", "endo.compute_grend0", "span"),
    ("thinlie.endo", "identify_field", "endo.identify_field", "span"),
    ("thinlie.reconstruct", "detect_structure", "reconstruct.detect_structure", "span"),
    ("thinlie.reconstruct", "build_rho", "reconstruct.build_rho", "span"),
    ("thinlie.reconstruct", "build_rho_prime", "reconstruct.build_rho_prime", "span"),
    ("thinlie.reconstruct", "assemble_N", "reconstruct.assemble_N", "span"),
    ("thinlie.reconstruct", "verify_roundtrip", "reconstruct.verify_roundtrip", "span"),
    ("thinlie.gf", "rref", "gf.rref", "leaf"),
    ("thinlie.gf", "RowSpace.insert", "gf.insert", "leaf"),
]


def _resolve(modname: str, path: str):
    """(owner, attribute, original) for a dotted attribute, or None."""
    owner = sys.modules.get(modname)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


def _patch(modname: str, path: str, wrap) -> bool:
    found = _resolve(modname, path)
    if found is None:
        return False
    owner, attr, orig = found
    wrapped = wrap(orig)
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        return True
    # Module-level function: rebind it in every thinlie module that holds it.
    for name, mod in list(sys.modules.items()):
        if name == "thinlie" or name.startswith("thinlie."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
    return True


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, child time]."""

    def __init__(self, t0: float):
        self.spans = [["job", t0, 0.0, -1, 0.0]]
        self.stack = [0]
        self.leaf_calls: dict = {}
        self.leaf_s: dict = {}
        self.missing: list = []

    def add_span(self, name: str, start: float, end: float) -> None:
        parent = self.stack[-1]
        self.spans.append([name, start, end, parent, 0.0])
        self.spans[parent][4] += end - start

    def span(self, name: str):
        spans, stack = self.spans, self.stack

        def wrap(fn):
            def traced(*args, **kwargs):
                parent = stack[-1]
                rec = [name, perf_counter(), 0.0, parent, 0.0]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[2] = perf_counter()
                    stack.pop()
                    spans[parent][4] += rec[2] - rec[1]

            return traced

        return wrap

    def leaf(self, name: str):
        spans, stack = self.spans, self.stack
        calls, secs = self.leaf_calls, self.leaf_s
        calls[name] = 0
        secs[name] = 0.0

        def wrap(fn):
            def timed(*args, **kwargs):
                t = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = perf_counter() - t
                    spans[stack[-1]][4] += d
                    calls[name] += 1
                    secs[name] += d

            return timed

        return wrap

    def install(self) -> None:
        for modname, path, name, kind in SPAN_TARGETS:
            wrap = self.span(name) if kind == "span" else self.leaf(name)
            if not _patch(modname, path, wrap):
                self.missing.append(f"{modname}.{path}")

    def summary(self) -> dict:
        """Per-name call count and self time of the spans and timed leaves."""
        by_name: dict = {}
        for name, start, end, _parent, child in self.spans[1:]:
            calls, self_s = by_name.get(name, (0, 0.0))
            by_name[name] = (calls + 1, self_s + (end - start) - child)
        for name in self.leaf_calls:
            by_name[name] = (self.leaf_calls[name], self.leaf_s[name])
        return {
            "layers": {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(by_name.items())},
            "missing": self.missing,
        }


def install_counts() -> tuple:
    """Counters for the counts pass: (counts dict, missing targets)."""
    counts = {
        "gf.ext_mul": 0,
        "gf.ext_inv": 0,
        "maxclass.search_nodes": 0,
        "maxclass.check_new_passes": 0,
        "maxclass.jacobi_triples": 0,
    }
    in_search = [0]
    missing = []

    def counter(name):
        def wrap(fn):
            def counted(*args):
                counts[name] += 1
                return fn(*args)

            return counted

        return wrap

    def wrap_search(fn):
        def search(*args, **kwargs):
            in_search[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                in_search[0] -= 1

        return search

    def wrap_extend(fn):
        def extend(st, *args, **kwargs):
            if in_search[0]:
                counts["maxclass.search_nodes"] += 1
            return fn(st, *args, **kwargs)

        return extend

    def wrap_check_new(fn):
        def check_new(st, *args, **kwargs):
            fail, checked = fn(st, *args, **kwargs)
            counts["maxclass.jacobi_triples"] += checked
            if fail is None and in_search[0]:
                counts["maxclass.check_new_passes"] += 1
            return fail, checked

        return check_new

    for modname, path, wrap in (
        ("thinlie.gf", "ExtField.mul", counter("gf.ext_mul")),
        ("thinlie.gf", "ExtField.inv", counter("gf.ext_inv")),
        ("thinlie.maxclass", "search_sequences", wrap_search),
        ("thinlie.maxclass", "_Structure.extend", wrap_extend),
        ("thinlie.maxclass", "_Structure.check_new", wrap_check_new),
    ):
        if not _patch(modname, path, wrap):
            missing.append(f"{modname}.{path}")
    return counts, missing


def main() -> int:
    src, mode, record_path, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "spans", "counts"):
        print("usage: job.py SRC_DIR plain|spans|counts RECORD_PATH -- ARGV...", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = perf_counter()
    import thinlie.cli as cli

    t_import = perf_counter()
    pkg_dir = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(pkg_dir) != os.path.abspath(src):
        print(f"thinlie imported from {pkg_dir}, not from {src}", file=sys.stderr)
        return 2
    tracer = counts = None
    run = cli.main
    if mode == "spans":
        tracer = Tracer(t0)
        tracer.add_span("cli.import", t0, t_import)
        tracer.install()
        run = tracer.span("cli.main")(cli.main)
    elif mode == "counts":
        counts, missing = install_counts()
    escaped = None
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse and --version leave through here
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # an exception that escapes cli.main is a failed job, not a crash
        escaped = traceback.format_exc(limit=8)
        code = ESCAPED_EXIT
    t_end = perf_counter()
    sys.stdout.flush()
    record = {
        "exit": code,
        "escaped": escaped,
        "job_s": t_end - t0,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.spans[0][2] = t_end
        record["trace"] = tracer.summary()
        record["spans"] = tracer.spans
    if counts is not None:
        record["trace"] = {"counters": counts, "missing": missing}
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
