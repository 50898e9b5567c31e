"""The mutant generator of ``tests/mutate.py`` on one ``src`` module.

Every mutant compiles, differs from the source and keeps its line count,
each of the four operators occurs, and a line filter keeps only the sites
on its lines.  No test is run against a mutant here.
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
