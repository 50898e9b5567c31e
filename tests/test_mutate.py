"""The mutant generator of ``tests/mutate.py`` on one ``src`` module.

Every mutant compiles, differs from the source and keeps its line count,
each of the four operators occurs, and a line filter keeps only the sites
on its lines, also when the lines are those a fixed ``git diff -U0``
changes.  No test is run against a mutant here.
"""

import ast
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
