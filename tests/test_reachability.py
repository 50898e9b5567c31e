"""The package is what the CLI runs.

The golden cases (``test_golden.CASES``: every README example and the CLI
branches no README example reaches) run under ``sys.setprofile``, and
every ``def`` in ``src/thinlie`` must be entered, apart from dunders and
the entries of ``NOT_RUN``, each with its reason.  Code that only a test
needs lives under ``tests/`` (``paper_checks`` and the oracles of
``test_lemma``), so a function that no subcommand reaches fails here.
The comparison is exact: an entry of ``NOT_RUN`` that the cases enter,
or that names no def, fails too.  Likewise every error class of
``thinlie.errors`` but the base class must be named by some ``raise`` of
the package, so a class whose last raise is deleted fails here.
"""

import ast
import os
import sys
from pathlib import Path

import thinlie
from test_golden import run_cases

SRC = Path(thinlie.__file__).resolve().parent

# Only import-time code: every other def of the package runs in some case.
NOT_RUN = {
    "_record.record": "runs at import time, once per record class, before any case",
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


def entered_by_cases(workdir: Path) -> set:
    """{(file, first line)} of every package function the golden cases enter."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_cases(workdir)
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


def test_every_def_is_entered(tmp_path):
    defs = package_defs()
    entered = entered_by_cases(tmp_path)
    missed = sorted(
        name for key, name in defs.items() if key not in entered and not _is_dunder(name)
    )
    assert missed == sorted(NOT_RUN)


def raised_names() -> set:
    """The names the package's ``raise`` statements raise: ``raise E(...)``,
    ``raise E`` and ``raise mod.E(...)`` all name E."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    out.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    out.add(exc.attr)
    return out


def test_every_error_is_raised():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert "ThinLieError" in classes
    assert sorted(classes - {"ThinLieError"} - raised_names()) == []
