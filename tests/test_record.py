"""Record semantics the package relies on, and what ``import thinlie.cli`` loads.

The records (``StructureFlags``, ``GeneratorPair``, ``MaxClassPresentation``,
``Verdict``, ...) are plain classes whose ``__init__``, ``__eq__`` and
``__repr__`` ``record`` makes without compiling code.  These tests pin
what the rest of the code uses of them: construction, defaults, the
presentation gate, equality and repr of the fields alone, which records
are hashable, and that a report record holds its fields alone, in order,
since the CLI writes ``vars`` of it.  The last tests pin what a
``thinlie`` process loads: no module of ``dataclasses`` or ``typing``,
and of the layers ``subfield``, ``endo`` and ``reconstruct`` only those
its command runs.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paper_checks as pc
from thinlie import endo
from thinlie import maxclass as mc
from thinlie import reconstruct as rec
from thinlie import subfield as sf
from thinlie.errors import BadBound

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LAYERS = ["thinlie.endo", "thinlie.reconstruct", "thinlie.subfield"]


def test_positional_keyword_and_defaults(f9):
    v = sf.Verdict("thin")
    assert (v.kind, v.r_observed, v.t1) == ("thin", None, None)
    assert sf.Verdict("rconstrained", 3, 5) == sf.Verdict(
        kind="rconstrained", t1=5, r_observed=3
    )
    assert sf.Verdict("thin", t1=4).t1 == 4
    m = ((f9.one, f9.zero), (f9.zero, f9.one))
    pres = mc.make_metabelian(f9, 6)
    assert pc.StandardForm(pres, m, False) == pc.StandardForm(
        presentation=pres, changed=False, transform=m
    )
    flags = rec.StructureFlags(False, 3, "abelian-window")
    assert flags == rec.StructureFlags(detection="abelian-window", k=3, metabelian=False)
    with pytest.raises(TypeError):
        sf.Verdict()
    with pytest.raises(TypeError):
        sf.Verdict("thin", nonsense=1)
    with pytest.raises(TypeError):
        pc.StandardForm(pres, m, False, None)


def test_init_refuses_bad_arguments():
    """A field given by position and by keyword, more positionals than
    fields and a missing field raise ``TypeError``, as a written
    ``__init__`` would."""
    with pytest.raises(TypeError, match="repeated field: kind"):
        sf.Verdict("thin", kind="maximal")
    with pytest.raises(TypeError, match="repeated field: r_observed"):
        sf.Verdict("thin", 3, r_observed=3)
    with pytest.raises(TypeError, match="takes 3 fields but 4"):
        sf.Verdict("thin", None, None, None)
    with pytest.raises(TypeError, match="missing field 'X'"):
        sf.GeneratorPair(Y=(0, 0))


def test_fields_set_in_field_order():
    """The keyword order does not reach ``vars``, so neither does it reach
    a report."""
    assert list(vars(sf.Verdict(t1=5, kind="rconstrained"))) == ["kind", "r_observed", "t1"]
    flags = rec.StructureFlags(detection="abelian-window", k=3, metabelian=False)
    assert list(vars(flags)) == list(rec.StructureFlags.__annotations__)


def test_package_compiles_no_code():
    """No call of ``exec``, ``eval`` or ``compile`` is left in the package."""
    calls = [
        (path.name, node.lineno)
        for path in sorted(Path(SRC, "thinlie").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("exec", "eval", "compile")
    ]
    assert calls == []


def test_presentation_holds_its_three_fields(f9):
    """A presentation holds its pairs and nothing else, also after
    ``validate`` and the commands that read it."""
    pres = mc.make_metabelian(f9, 8)
    with pytest.raises(TypeError):
        mc.MaxClassPresentation(f9, 4, pres.adjoint[:2], None)
    assert mc.validate(pres).ok
    pair = sf.GeneratorPair((f9.one, f9.one), (f9.mu, f9.add(f9.one, f9.mu)))
    rec.verify_roundtrip(pres, pair)
    assert set(vars(pres)) == {"field", "class_n", "adjoint"}


def test_presentation_gate(f9):
    pairs = ((f9.one, f9.zero),) * 2
    with pytest.raises(BadBound):
        mc.MaxClassPresentation(f9, 3, pairs[:1])
    assert mc.MaxClassPresentation(f9, 4, pairs).adjoint is pairs


def test_non_field_attributes_not_compared_or_shown(f9):
    a = mc.make_metabelian(f9, 8)
    b = mc.make_metabelian(f9, 8)
    a.note = "set after construction"
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert "note" not in repr(a)
    assert repr(a).startswith("MaxClassPresentation(field=")
    assert "class_n=8" in repr(a)

    pair = sf.GeneratorPair((f9.one, f9.one), (f9.mu, f9.add(f9.one, f9.mu)))
    an = sf.generate_subalgebra(a, pair)
    s, t = (pc.build_rho_prime(an, rec.detect_structure(an)[0]) for _ in "st")
    s.eps = {}
    assert s == t
    assert repr(s) == repr(t) and "eps" not in repr(s) and "inv=" not in repr(s)
    pair = sf.GeneratorPair((f9.one, f9.zero), (f9.zero, f9.one))
    assert sf.generate_subalgebra(a, pair) != sf.generate_subalgebra(
        a, sf.GeneratorPair(pair.Y, pair.X)
    )


def test_equality_is_by_class_and_fields():
    assert sf.Verdict("thin") == sf.Verdict("thin")
    assert sf.Verdict("thin") != sf.Verdict("maximal")
    assert sf.Verdict("thin") != ("thin", None, None)
    assert sf.Verdict("thin", None, None) != mc.JacobiReport("thin", None, None)
    assert repr(sf.Verdict("thin", t1=2)) == "Verdict(kind='thin', r_observed=None, t1=2)"
    assert str(sf.Verdict("thin")) != repr(sf.Verdict("thin"))


def test_generator_pair_frozen_and_hashable(f9):
    """A generator pair is a plain record: neither frozen nor hashable
    (``test_mutable_records_unhashable``), equal and shown by its fields."""
    g = sf.GeneratorPair((f9.one, f9.zero), (f9.zero, f9.one))
    h = sf.GeneratorPair(X=(f9.one, f9.zero), Y=(f9.zero, f9.one))
    assert g.X == (f9.one, f9.zero)
    assert g == h
    assert g != sf.GeneratorPair(g.Y, g.X)
    assert repr(g) == f"GeneratorPair(X={g.X!r}, Y={g.Y!r})"


def test_mutable_records_unhashable(f9):
    records = [
        sf.Verdict("thin"),
        mc.JacobiReport(True, None, 0),
        pc.StandardForm(mc.make_metabelian(f9, 6), None, False),
        endo.FieldId(1, None, True, "n/a"),
        rec.RoundtripReport("rho", 3, 8, True, None),
        sf.GeneratorPair((f9.one, f9.zero), (f9.zero, f9.one)),
    ]
    for r in records:
        with pytest.raises(TypeError):
            hash(r)
    v = records[0]
    v.t1 = 7
    assert v == sf.Verdict("thin", t1=7)
    g = records[-1]
    g.X = (f9.zero, f9.one)
    assert g == sf.GeneratorPair((f9.zero, f9.one), (f9.zero, f9.one))
    pres = mc.make_metabelian(f9, 6)
    assert hash(pres) == hash((pres.field, pres.class_n, pres.adjoint))
    assert {pres: 1}[mc.make_metabelian(f9, 6)] == 1


def test_report_keys_are_the_record_fields(f9, dev9_14):
    """The CLI writes ``vars`` of a report record, so each record the
    package returns holds its fields, in annotation order, and nothing
    else: no stray attribute leaks into a report."""
    pres = mc.make_metabelian(f9, 12)
    pair = sf.GeneratorPair((f9.one, f9.one), (f9.mu, f9.add(f9.one, f9.mu)))
    records = [
        mc.validate(pres),
        endo.identify_field(sf.generate_subalgebra(pres, pair)),
        rec.verify_roundtrip(pres, pair),
        sf.scan(pres),
        sf.scan(pres, raw=True),
        *mc.centralizer_stats(mc.two_step_centralizers(dev9_14)).entries,
    ]
    kinds = {type(r) for r in records}
    assert kinds == {
        mc.JacobiReport, endo.FieldId, rec.RoundtripReport, sf.ScanTable, mc.CentralizerStats
    }
    for r in records:
        assert list(vars(r)) == list(type(r).__annotations__), type(r).__name__


def test_cli_import_skips_heavy_modules():
    """``import thinlie.cli`` in a fresh isolated interpreter loads none of
    the modules that ``dataclasses`` and ``typing`` would pull in, and
    none of the layers that only some commands run."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import thinlie.cli; "
        "print(' '.join(sorted(m for m in sys.argv[2:] if m in sys.modules)))"
    )
    heavy = ["dataclasses", "inspect", "ast", "dis", "typing", *LAYERS]
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, SRC, *heavy],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == ""


PAIR = ["--X", "1,0,1,0", "--Y", "0,1,1,1"]


# each command's arguments on dev9_14 and the layers it loads
COMMAND_LAYERS = {
    "build": (["metabelian", "--p", "3", "--ext", "2,0", "--class", "8", "-o", "{out}"], []),
    "check": (["{file}"], []),
    "stats": (["{file}"], []),
    "scan": (["{file}"], ["thinlie.subfield"]),
    "analyze": (["{file}", *PAIR], ["thinlie.endo", "thinlie.subfield"]),
    "endo": (["{file}", *PAIR], ["thinlie.endo", "thinlie.subfield"]),
    "roundtrip": (["{file}", *PAIR], ["thinlie.reconstruct", "thinlie.subfield"]),
}


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_command_loads_only_its_layers(tmp_path, dev9_14, command):
    """A fresh isolated process that runs ``cli.main`` on ``dev9_14`` and
    succeeds loads exactly the layers its command runs; ``reconstruct``
    builds on ``subfield``."""
    args, loaded = COMMAND_LAYERS[command]
    path = tmp_path / "dev9_14.json"
    path.write_text(json.dumps(mc.to_json(dev9_14)), encoding="utf-8")
    argv = [command, *(a.format(file=path, out=tmp_path / "m.json") for a in args)]
    script = (
        "import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); import thinlie.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = cli.main(sys.argv[2:])\n"
        f"print(code, *sorted(m for m in sys.modules if m in {LAYERS!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, SRC, *argv],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["0", *loaded]
