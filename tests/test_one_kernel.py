"""One row elimination in the repository: ``tests/int_kernel.py``.

The package eliminates no rows, and the tests share the one kernel of
``int_kernel`` (E-linear checks run on it through restriction of scalars,
its module docstring), apart from the Gauss-Jordan reference it is tested
against in ``test_lemma``.  A def or class counts as an elimination
routine when its name, less leading underscores and an ``oracle_``
prefix, is one of ``ELIMINATION``.  The comparisons are exact both ways.
"""

import ast
from pathlib import Path

import thinlie

TESTS = Path(__file__).resolve().parent
SRC = Path(thinlie.__file__).resolve().parent

ELIMINATION = {"RowSpace", "span", "solve", "rref"}

ALLOWED = {
    ("int_kernel.py", "RowSpace"),
    ("int_kernel.py", "span"),
    ("int_kernel.py", "solve"),
    ("test_lemma.py", "oracle_rref"),
    ("test_lemma.py", "oracle_solve"),
}

HELPERS = {"argparse_oracle", "dict_structure", "int_kernel", "mutate", "paper_checks"}

# the Gauss-Jordan reference of test_lemma, which must not lean on int_kernel
REFERENCE = {"oracle_apply", "oracle_mul", "oracle_rref", "oracle_solve", "_random_matrix"}


def _trees(root):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _eliminations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.lstrip("_").removeprefix("oracle_") in ELIMINATION:
                yield node.name


def test_int_kernel_is_the_only_elimination():
    found = {(path.name, name) for path, tree in _trees(TESTS) for name in _eliminations(tree)}
    assert sorted(found) == sorted(ALLOWED)
    assert [name for _, tree in _trees(SRC) for name in _eliminations(tree)] == []


def test_no_second_kernel_module():
    """The helper modules of the tests are exactly ``HELPERS``: the
    field-generic kernel the E-linear checks once ran on cannot return as
    a module of its own."""
    helpers = {
        path.stem for path in TESTS.glob("*.py")
        if not path.stem.startswith("test_") and path.stem != "conftest"
    }
    assert sorted(helpers) == sorted(HELPERS)


def test_gauss_jordan_reference_uses_no_int_kernel():
    tree = ast.parse((TESTS / "test_lemma.py").read_text(encoding="utf-8"))
    from_kernel = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "int_kernel"
        for alias in node.names
    }
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert REFERENCE <= set(defs)
    used = {
        node.id for name in REFERENCE for node in ast.walk(defs[name]) if isinstance(node, ast.Name)
    }
    assert from_kernel and not used & (from_kernel | {"int_kernel"})
