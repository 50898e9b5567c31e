"""The hand-written command-line parser of ``thinlie.cli`` against argparse.

``argparse_oracle.build_parser`` is the argparse parser the CLI used
before.  Both parse a fixed-seed corpus: every argv of
``test_golden.CASES``, of the ``test_cli`` parametrizations and of the
README, and mutations of them (a token dropped, duplicated or swapped
with its neighbour; each long option shortened to every prefix; the
``=`` and ``-oVALUE`` forms; non-int, float, signed, negative and
whitespace values; unknown options, ``--``, ``-h`` and ``--version``
inserted; the empty argv), plus random stacks of those mutations.
Where argparse accepts an argv, ``main`` must dispatch to the same
``cmd_*`` with the same fields and write nothing; where argparse exits,
``main`` must return its exit code and write the same stdout and stderr.
argparse wraps help and usage text to the terminal width and the CLI's
text is fixed, so the oracle runs at ``COLUMNS=80``.  There is one
declared difference: argparse drops the ``--`` of a value option given
``--`` in its own token (``--p=--``, ``-o--``) and stores ``[]``, which
the commands then fail on, while ``main`` refuses it as argparse refuses
``--p --``: exit code 2 and ``argument <opt>: expected one argument``.
The oracle is run with exactly that change (``_declared_refusal``), and
the argvs it changes are counted.

``test_no_argparse_in_a_cli_process`` runs ``check``, ``scan`` and
``--version`` in a fresh ``python -I -S`` process and requires that none
of ``argparse``, ``gettext``, ``locale`` or ``shutil`` is loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import random
import subprocess
import sys
from pathlib import Path

import pytest
from _pytest.mark.structures import ParameterSet

import argparse_oracle
import test_cli
import test_golden
from thinlie import cli

COMMANDS = ["build", "check", "analyze", "endo", "roundtrip", "scan", "stats"]
LONG_OPTIONS = ["--help", "--version", "--p", "--ext", "--class", "--limit", "--output", "--X", "--Y", "--window", "--raw"]
VALUE_OPTIONS = {"--p", "--ext", "--class", "--limit", "--output", "-o", "--X", "--Y", "--window"}
VALUES = ["x", "1.5", "+3", "-1", "-2.5", "-.5", "", " 7 ", "1_0", "0x10", "٣", "-1\n", "--", "-", "1,2", "1,0,1", "-x"]
INSERTS = ["--foo", "-x", "--foo=1", "-", "---", "--=x", "-h", "--help", "-hh", "-hx", "--help=1", "--version", "--ver", "--", "-o", "-ofile", "--raw=1", "--w", "--pr", "a b", "-1", "-1.5"]


def _parametrized_argvs() -> list:
    """The argvs of ``test_cli``'s parametrizations; a bare command name
    becomes that command on a file."""
    out = []

    def visit(value):
        if isinstance(value, ParameterSet):
            value = value.values
        if isinstance(value, (list, tuple)) and value and all(isinstance(v, str) for v in value):
            argv = [v.format(f="m.json", o="out") for v in value]
            if argv[0] in COMMANDS:
                out.append(argv)
                out.append([argv[0], "m.json", *argv[1:]])
        elif isinstance(value, (list, tuple)):
            for v in value:
                visit(v)
        elif value in COMMANDS:
            out.append([value, "m.json"])

    funcs = [f for cls in vars(test_cli).values() if isinstance(cls, type) for f in vars(cls).values()]
    funcs += list(vars(test_cli).values())
    for fn in funcs:
        for mark in getattr(fn, "pytestmark", []):
            if mark.name == "parametrize":
                visit(list(mark.args[1]))
    return out


def base_argvs() -> list:
    argvs = [list(argv) for _, argv, _ in test_golden.CASES]
    argvs += _parametrized_argvs()
    argvs += test_cli.readme_cli_examples()
    return argvs


def mutations(argv: list) -> list:
    """The single-step mutations of ``argv``."""
    n = len(argv)
    out = [[]]
    for i in range(n):
        out.append(argv[:i] + argv[i + 1 :])
        out.append(argv[: i + 1] + argv[i:])
        if i + 1 < n:
            out.append(argv[:i] + [argv[i + 1], argv[i]] + argv[i + 2 :])
    out.append(argv[1:] + argv[:1])
    out.append(argv[:1] + argv[1:][::-1])
    for i, token in enumerate(argv):
        if token in LONG_OPTIONS:
            for k in range(2, len(token)):
                out.append(argv[:i] + [token[:k]] + argv[i + 1 :])
        if token in VALUE_OPTIONS and i + 1 < n:
            joined = token + argv[i + 1] if token == "-o" else f"{token}={argv[i + 1]}"
            out.append(argv[:i] + [joined] + argv[i + 2 :])
            for value in VALUES:
                out.append(argv[: i + 1] + [value] + argv[i + 2 :])
                out.append(argv[:i] + [f"{token}={value}"] + argv[i + 2 :])
    for i in range(n + 1):
        for token in INSERTS:
            out.append(argv[:i] + [token] + argv[i:])
    return out


@functools.cache
def corpus() -> list:
    rng = random.Random(4201)
    seen, out = set(), []

    def add(argv):
        key = tuple(argv)
        if key not in seen:
            seen.add(key)
            out.append(argv)

    bases = base_argvs()
    for argv in bases:
        add(argv)
        for mutant in mutations(argv):
            add(mutant)
    for _ in range(3000):
        argv = rng.choice(bases)
        for _ in range(rng.randint(2, 4)):
            argv = rng.choice(mutations(argv))
        add(argv)
    return out


def _run_oracle(parser, argv: list) -> tuple:
    """(exit code or None, stdout, stderr, fields or None) of argparse."""
    out, err = io.StringIO(), io.StringIO()
    fields = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
        else:
            code = None
            fields = vars(ns)
            assert fields.pop("func").__name__ == f"cmd_{ns.command}"
    return code, out.getvalue(), err.getvalue(), fields


def _run_cli(argv: list, calls: list) -> tuple:
    """(exit code, stdout, stderr, fields or None) of ``cli.main`` with
    every ``cmd_*`` replaced by a recorder."""
    out, err = io.StringIO(), io.StringIO()
    del calls[:]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    fields = None
    if calls:
        (name, fields), = calls
        assert name == f"cmd_{fields['command']}"
    return code, out.getvalue(), err.getvalue(), fields


@pytest.fixture()
def recorded(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    calls = []
    for name in COMMANDS:
        def record(args, name=f"cmd_{name}"):
            calls.append((name, dict(vars(args))))
            return 0

        monkeypatch.setattr(cli, f"cmd_{name}", record)
    return calls


def _declared_refusal(monkeypatch) -> list:
    """Make argparse refuse a value option whose only value is ``--``, as
    it refuses ``--opt --``; the returned list gains one entry per refusal."""
    refused = []
    get_values = argparse.ArgumentParser._get_values

    def refusing(self, action, arg_strings):
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            refused.append(action.dest)
            raise argparse.ArgumentError(action, "expected one argument")
        return get_values(self, action, arg_strings)

    monkeypatch.setattr(argparse.ArgumentParser, "_get_values", refusing)
    return refused


def test_matches_argparse(recorded, monkeypatch):
    parser = argparse_oracle.build_parser()
    refused = _declared_refusal(monkeypatch)
    outcomes = set()
    assert len(corpus()) > 28000
    for argv in corpus():
        before = len(refused)
        want = _run_oracle(parser, argv)
        if len(refused) > before:
            assert want[0] == 2 and want[2].endswith(": expected one argument\n"), argv
            outcomes.add("declared refusal")
        got = _run_cli(argv, recorded)
        if want[0] is None:
            assert got == (0, "", "", want[3]), argv
            outcomes.add("accepted")
        else:
            assert got == (*want[:3], None), argv
            # help or the version, else the error message up to its first colon
            outcomes.add(want[2].splitlines()[-1].partition(": error: ")[2].split(":")[0] if want[0] else "exit 0")
    for kind in [
        "accepted", "exit 0", "the following arguments are required", "argument --ext",
        "argument --class", "argument kind", "argument command", "unrecognized arguments",
        "argument --p", "ambiguous option", "argument -h/--help", "argument --raw",
        "argument -o/--output", "declared refusal",
    ]:
        assert kind in outcomes, (kind, sorted(outcomes))


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["scan", "m.json", "--win", "12"], {"file": "m.json", "window": 12, "raw": False}),
        (["scan", "--wi=6", "--ra", "m.json"], {"file": "m.json", "window": 6, "raw": True}),
        (["build", "search", "--cl", "12", "--p=3", "--ext", "2,0", "-ofound", "--limit", "-1"],
         {"kind": "search", "class_n": 12, "p": 3, "ext": (2, 0), "output": "found", "limit": -1}),
        (["check", "a.json", "--", "b.json"], None),
        (["check", "--", "-h"], {"file": "-h"}),
        (["scan", "a.json", "--window", "3", "--window", "5"], {"file": "a.json", "window": 5, "raw": False}),
        (["analyze", "--Y", "0,1,1,1", "f.json", "--X", "1,0,1,0"],
         {"file": "f.json", "X": "1,0,1,0", "Y": "0,1,1,1", "window": None}),
    ],
    ids=["abbrev", "abbrev-eq-flag", "forms", "two-files", "dashdash", "last-wins", "any-order"],
)
def test_examples(recorded, argv, fields):
    code, out, err, got = _run_cli(argv, recorded)
    if fields is None:
        assert (code, out) == (2, "")
        assert err.endswith("thinlie: error: unrecognized arguments: b.json\n")
    else:
        assert (code, out, err) == (0, "", "")
        assert got == {"command": argv[0], **fields}


def test_no_argparse_in_a_cli_process(tmp_path):
    path = tmp_path / "m.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["build", "metabelian", "--p", "3", "--ext", "2,0", "--class", "10", "-o", str(path)]) == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    child = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from thinlie import cli\n"
        f"codes = [cli.main(argv) for argv in (['check', {str(path)!r}], ['scan', {str(path)!r}], ['--version'])]\n"
        "loaded = sorted(m for m in ('argparse', 'gettext', 'locale', 'shutil') if m in sys.modules)\n"
        "print('RESULT', codes, loaded)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", child], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last == "RESULT [0, 0, 0] []", last
