"""The mutant generator of ``tests/mutate.py`` on one ``src`` module.

Every mutant compiles, differs from the source and keeps its line count,
each of the four operators occurs, and a line filter keeps only the sites
on its lines, also when the lines are those a fixed ``git diff -U0``
changes.  The tests chosen for a mutant are those that run its line or,
for a line run outside any test, those whose file imports its module.
No test is run against a mutant here.
"""

import ast
import re
from pathlib import Path

import mutate
from thinlie import endo


def test_every_mutant_of_endo_compiles_and_differs():
    path = Path(endo.__file__)
    source = path.read_text(encoding="utf-8")
    base = ast.dump(ast.parse(source))
    ops, lines = set(), set()
    for line, _, op, text in mutate.mutants(source):
        compile(text, str(path), "exec")
        assert ast.dump(ast.parse(text)) != base, (line, op)
        assert text.count("\n") == source.count("\n"), (line, op)
        ops.add(op.rstrip("0123456789"))
        lines.add(line)
    assert ops == {"cmp", "int", "mod", "swap"}
    some = set(sorted(lines)[::2])
    assert {line for line, *_ in mutate.mutants(source, some)} == some


DIFF = """\
diff --git a/src/thinlie/endo.py b/src/thinlie/endo.py
index 1111111..2222222 100644
--- a/src/thinlie/endo.py
+++ b/src/thinlie/endo.py
@@ -10 +10 @@ one changed line
-old
+new
@@ -40,0 +41,3 @@ three added lines
+a
+b
+c
@@ -90,2 +93,0 @@ two deleted lines
-x
-y
diff --git a/src/thinlie/gone.py b/src/thinlie/gone.py
deleted file mode 100644
--- a/src/thinlie/gone.py
+++ /dev/null
@@ -1 +0,0 @@
-z
diff --git a/tests/other.py b/tests/other.py
--- a/tests/other.py
+++ b/tests/other.py
@@ -5 +5,2 @@
-q
+r
+s
"""


def test_changed_lines_of_a_fixed_diff():
    assert mutate.changed_lines(DIFF) == {"endo.py": {10, 41, 42, 43}}


def test_changed_sites_are_on_changed_lines():
    source = Path(endo.__file__).read_text(encoding="utf-8")
    lines = sorted({line for line, *_ in mutate.mutants(source)})
    changed = {"endo.py": set(lines[1::3])}
    got = mutate.sites({"tests": {}}, "", changed=changed)
    assert {line for _, file, line, _ in got} == changed["endo.py"]
    assert {file for _, file, _, _ in got} == {"endo.py"}
    # with a --tests pattern, only the changed lines its tests run
    cover = {"tests": {"t::a": {"seconds": 0.1, "lines": {"endo.py": lines[1:4]}}}}
    got = mutate.sites(cover, "t::a", changed=changed)
    assert {line for _, _, line, _ in got} == changed["endo.py"] & set(lines[1:4])


def test_importers_follow_conftest_helpers_and_package():
    imports = mutate.importers(mutate.ROOT)
    assert "tests/test_mutate.py" in imports and "tests/conftest.py" not in imports
    # conftest imports paper_checks, which imports maxclass; every module imports gf
    assert imports["tests/test_gf.py"] >= {"__init__.py", "gf.py", "errors.py", "maxclass.py"}
    assert "cli.py" in imports["tests/test_cli.py"]
    assert "cli.py" in imports["tests/test_reachability.py"]  # through test_golden
    assert "cli.py" not in imports["tests/test_gf.py"]


def test_outside_lines_go_to_every_importing_test():
    cover = {
        "tests": {
            "tests/test_golden.py::t": {"seconds": 0.1, "lines": {"gf.py": [5]}},
            "tests/test_gf.py::slow": {"seconds": 2.0, "lines": {}},
            "tests/test_gf.py::fast": {"seconds": 0.5, "lines": {}},
            "tests/test_maxclass.py::runs": {"seconds": 1.0, "lines": {"maxclass.py": [7, 8]}},
            "tests/test_maxclass.py::gone": {"seconds": 0.1, "lines": {"maxclass.py": [7]}},
        },
        "outside": {"gf.py": [5], "maxclass.py": [8]},
    }
    present = set(cover["tests"]) - {"tests/test_maxclass.py::gone"}
    imports = {"tests/test_gf.py": {"gf.py"}, "tests/test_maxclass.py": {"gf.py", "maxclass.py"}}
    every = re.compile("")

    def chosen(file, line, keep=every):
        return mutate.tests_for(cover, present, imports, file, line, keep)

    first = list(mutate.FIRST)
    gf_fast, gf_slow, runs = "tests/test_gf.py::fast", "tests/test_gf.py::slow", "tests/test_maxclass.py::runs"
    assert chosen("gf.py", 5) == [*first, gf_fast, runs, gf_slow]
    assert chosen("gf.py", 6) == first
    assert chosen("maxclass.py", 7) == [*first, runs]
    assert chosen("maxclass.py", 8) == [*first, runs]
    assert chosen("gf.py", 5, re.compile("gf")) == [gf_fast, gf_slow]
