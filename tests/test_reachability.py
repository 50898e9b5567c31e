"""The package is what the CLI runs.

The golden cases (``test_golden.CASES``: every README example and the CLI
branches no README example reaches) run once under ``sys.settrace``, and
every ``def`` in ``src/thinlie`` must be entered, apart from dunders and
the entries of ``NOT_RUN``, each with its reason.  Code that only a test
needs lives under ``tests/`` (``paper_checks`` and the oracles of
``test_lemma``), so a function that no subcommand reaches fails here.
The comparison is exact: an entry of ``NOT_RUN`` that the cases enter,
or that names no def, fails too.  The same run records the lines of the
package it executes, and every ``raise`` statement must be among them,
apart from the entries of ``NOT_RAISED``, keyed by (module, function,
exception) and each with its reason; that comparison is exact as well.
Likewise every error class of ``thinlie.errors`` but the base class must
be named by some ``raise`` of the package, so a class whose last raise
is deleted fails here.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

import thinlie
from test_golden import run_cases
from thinlie import maxclass as mc
from thinlie.gf import make_ext_field

SRC = Path(thinlie.__file__).resolve().parent

# Every other def of the package runs in some case.
NOT_RUN = {
    "_record.record": "runs at import time, once per record class, before any case",
    "maxclass.is_standard": "bench/make_oracles.py calls it; scan checks the"
    " standard form on the centralizer sequence it reuses",
}

# Every other raise of the package runs in some case.  An entry names the
# test that trips the raise, or why no command line can.
NOT_RAISED = {
    ("cli", "_emit", "OSError"): "stdout closed at start-up, seen only in a child process"
    " (test_cli TestUnwritableStdout)",
    ("cli", "_load", "SchemaError"): "JSON nested too deeply (test_cli"
    " test_deeply_nested_json_exits_2)",
    ("gf", "ExtField.inv", "DivisionByZero"): "no command inverts 0; test_gf test_inv_zero does",
    ("gf", "ExtField.quadratic_roots", "ValueError"): "free_children passes a nonzero minor;"
    " test_gf passes the zero polynomial",
    ("maxclass", "MaxClassPresentation.__post_init__", "ValueError"): "from_json checks the"
    " number of pairs first; test_record test_presentation_gate builds one pair short",
    ("maxclass", "centralizer_stats", "NotStandardForm"): "cmd_stats standardizes first;"
    " test_maxclass test_gated_on_standard_form",
    ("reconstruct", "detect_structure", "PreconditionFailed"): "verify_roundtrip checks for a thin"
    " pair first; test_lemma test_detect_structure_matches_tail_scans",
    ("subfield", "_check_scan_budget", "WindowTooLarge"): "a scan over its budget (test_cli"
    " test_scan_over_budget_exits_2)",
}


def _is_dunder(name: str) -> bool:
    short = name.rsplit(".", 1)[1]
    return short.startswith("__") and short.endswith("__")


def package_defs() -> dict:
    """{(file, first line): dotted name} of every def in the package.

    The first line is that of the code object: the first decorator's, if
    the def has one.
    """
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, first)] = name
                visit(child, path, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem)
    return out


def _both(mine, theirs):
    """A trace function that passes each event to both, each keeping the
    local trace function it returns; either may be None."""
    if theirs is None or mine is None:
        return mine or theirs

    def trace(frame, event, arg):
        return _both(mine(frame, event, arg), theirs(frame, event, arg))

    return trace


def trace_package(run) -> tuple:
    """Call ``run()`` under ``sys.settrace``: ({(file, first line)} of every
    function it enters, {(file, line)} of every package line it executes).
    A tracer already set (``tests/mutate.py trace`` sets one) sees every
    event as well, and is set again afterwards."""
    codes, lines, mine = set(), set(), {}

    def local(frame, event, arg):
        if event == "line":
            lines.add((mine[frame.f_code.co_filename], frame.f_lineno))
        return local

    def call(frame, event, arg):
        codes.add(frame.f_code)
        name = frame.f_code.co_filename
        if name not in mine:
            real = os.path.realpath(name)
            mine[name] = real if Path(real).parent == SRC else None
        return local if mine[name] else None

    previous = sys.gettrace()
    sys.settrace(_both(call, previous))
    try:
        run()
    finally:
        sys.settrace(previous)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}, lines


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> tuple:
    """``trace_package`` of the golden cases."""
    return trace_package(lambda: run_cases(tmp_path_factory.mktemp("cases")))


def test_outer_tracer_sees_the_package_lines():
    """A tracer set before ``trace_package`` receives every package line
    event while it runs, and is set again afterwards."""
    seen = set()

    def outer(frame, event, arg):
        if event == "line" and Path(frame.f_code.co_filename).resolve().parent == SRC:
            seen.add((os.path.realpath(frame.f_code.co_filename), frame.f_lineno))
        return outer

    previous = sys.gettrace()
    both = _both(outer, previous)
    sys.settrace(both)
    try:
        _, lines = trace_package(lambda: mc.validate(mc.make_metabelian(make_ext_field(3, 0, 2), 8)))
        assert sys.gettrace() is both
    finally:
        sys.settrace(previous)
    assert lines and seen == lines


def test_every_def_is_entered(traced):
    defs = package_defs()
    entered, _ = traced
    missed = sorted(
        name for key, name in defs.items() if key not in entered and not _is_dunder(name)
    )
    assert missed == sorted(NOT_RUN)


def _raised_name(node: ast.Raise) -> str:
    """The name a ``raise`` names: ``raise E(...)``, ``raise E`` and
    ``raise mod.E(...)`` all name E, and a bare ``raise`` names nothing."""
    if node.exc is None:
        return ""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else exc.attr


def package_raises() -> dict:
    """{(file, line): (module, function, exception)} of every ``raise`` of
    the package; the function is dotted as in ``package_defs``."""
    out = {}

    def visit(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, module, f"{prefix}.{child.name}" if prefix else child.name)
            else:
                if isinstance(child, ast.Raise):
                    out[(path, child.lineno)] = (module, prefix, _raised_name(child))
                visit(child, path, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem, "")
    return out


def test_every_raise_is_reached(traced):
    """A raise counts as reached when its line runs; each raise starts its
    own line, so no other statement shares the line event.  A key of
    ``NOT_RAISED`` is listed when any raise under it is not reached."""
    _, lines = traced
    raises = package_raises()
    for path, line in raises:
        text = Path(path).read_text(encoding="utf-8").splitlines()[line - 1]
        assert text.lstrip().startswith("raise "), (path, line)
    missed = {key for at, key in raises.items() if at not in lines}
    assert sorted(missed) == sorted(NOT_RAISED)


def test_every_error_is_raised():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert "ThinLieError" in classes
    raised = {exception for _, _, exception in package_raises().values()}
    assert sorted(classes - {"ThinLieError"} - raised) == []
