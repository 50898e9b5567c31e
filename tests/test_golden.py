"""Report bytes against a recorded copy.

``test_byte_identical_reports`` compares two runs of the same code; this
module compares stdout, stderr (the human-readable tables and error
messages), the exit code and every written file with the bytes recorded
in ``tests/golden/``, so a refactor that changes a report or a message
is caught.  The commands are every README example, ``build search`` over
GF(9) at class 12 with its default limit and over GF(49) at class 8 with
limit 7, ``roundtrip`` of the README file at window 10 (so the usable
window is below the window and the window below the class), ``build metabelian``
at p = 1000003 (residues of several digits in the written file),
``check`` on two invalid
files (one per label shape of ``first_failure``), and ``check`` and
``roundtrip`` on a presentation whose pairs are not canonical (every a_i
is 0 or mu, not 0 or 1) and ``check`` on a copy of it that fails at a y
triple.  The CLI branches no README example reaches are covered too:
``stats`` on a valid file that is not in standard form (``ex10.json``,
every pair (0, 1)), ``stats`` on three files with several centralizer
points under the base change x' = x + y, y' = mu*x (``dev9mu.json``,
``bench/data/dev25_14.json`` and a GF(4) class-16 search result with
three distinct points, whose third point only a right map to standard
form sends to the recorded one), ``scan --raw``, and ``analyze`` on a maximal, an
r-constrained (``dev9mu.json``) and three degenerate pairs, of F-rank
2, 1 and 0, each with exit code 1, and ``endo`` in each case of its lemma: a degenerate pair
(exit code 1), dimension 1 (a maximal pair, and a ``dev9mu.json`` pair
with t1 = 6) and dimension 2 (a ``dev9mu.json`` pair with t1 = 2, and the
README pair at window 4, where only degree 3 steps), and the End_0
report off (u, v) beyond mu^2 = 2: ``endo`` on metabelian files over
GF(9) with mu^2 = mu + 1 ("mu", u != 0) and over GF(4) ("mu_conj"), and
``analyze`` of the p = 1000003 file at window 6 ("mu").  ``scan`` and
``scan --raw`` of ``dev9mu.json`` see more than one centralizer point,
so the line-avoidance count has a line to count and the d-values differ
between points; ``build search``
over GF(9) at class 16 with limit 2 is the smallest search found whose
free node takes the Tonelli-Shanks branch of ``ExtField.sqrt``.
``roundtrip`` of a GF(4) class-14 file whose kernel in degree 9 no cell
of the window refutes (exit code 1), and of a class-20 file that extends
it, at window 14 (exit code 1) and at window 16, where the kernel is
refuted and the round trip succeeds.  Seven guards: ``analyze`` with a
generator of three coordinates and ``check`` of a class-3 file
(``class3.json``), both exit code 2, ``scan`` of a searched file
that is not in standard form (exit code 1), ``analyze`` of an invalid
file (``bad6.json``) and ``check`` of a file with a (0, 0) pair, both
exit code 1, ``check`` of a file one pair short (exit code 2), and
``roundtrip`` of the GF(4) class-16 file at window 5 on a thin pair,
where the one bracket in the window, [v_2, v_3], is nonzero, so no
abelian tail is confirmed and none is witnessed in T^3 (exit code 1).
Thirteen guards that a ``test_cli`` case trips, with the exit code it
asserts: ``build metabelian`` with a one-value ``--ext``, a composite p,
a reducible ``--ext`` and p >= 2^64, ``build search`` at class 3, at
limit 0 and at class 30, ``analyze`` at window 3 and with a coordinate
outside [0, p), ``roundtrip`` of a maximal pair, and ``check`` of a file
whose class is a float and of one with a string coordinate in a pair,
each exit code 2, and ``roundtrip`` at window 5, whose usable window is
below 4 (exit code 1).
``scan`` and ``scan --raw`` of two standard-form search results with
more distinct centralizer points: the 218th presentation of GF(4) at
class 24 (four points) and the 652nd of GF(25) at class 22 (three
points), so a scan meets sublines through three of the points, and
``scan`` and ``scan --raw`` of a metabelian GF(1000003^2) class-8 file,
which answer without enumerating E.  The command line itself: ``scan --win 12`` (an abbreviated option, the
``scan`` report), ``--version``, ``check -h``, and usage errors, each
with exit code 2, a usage line and an error line: no arguments, a
missing required option, a ``--class`` that is not an integer, an
unknown ``build`` kind, an unknown option, an ambiguous (``--=12``) and
an unknown (``--wn``) option prefix, an option without its value, a
flag given a value, and ``-o--``, an option given ``--`` as its value in
its own token, which is refused as ``-o --`` is and writes no file.
``test_reachability`` runs these cases to show that every function of
the package is one the CLI runs.  They run in a fresh
directory with relative file names, because reports echo the input path.

After a declared report-schema change, rewrite the recorded copy with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

from test_cli import readme_cli_examples
from thinlie.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
WRITTEN = GOLDEN / "written"

# input files copied into the working directory before the cases run
INPUTS = [
    "adjoint-string.json",
    "bad6.json",
    "bad10.json",
    "class-float.json",
    "class3.json",
    "dev25-xy.json",
    "dev9mu.json",
    "dev9mu-bad.json",
    "dev9mu-xy.json",
    "ex10.json",
    "gf25c22-3pts.json",
    "gf4c16-xy.json",
    "gf4c24-4pts.json",
    "short-adjoint.json",
    "zero-pair.json",
]

PAIR = ["--X", "1,0,1,0", "--Y", "0,1,1,1"]

# (name, argv, exit code); earlier cases write the files later ones read
CASES = [
    ("build-metabelian", ["build", "metabelian", "--p", "3", "--ext", "2,0", "--class", "40", "-o", "m.json"], 0),
    # residues of several digits: mu^2 = 271828*mu + 314159 over GF(1000003)
    ("build-metabelian-bigp", ["build", "metabelian", "--p", "1000003", "--ext", "314159,271828", "--class", "6", "-o", "bigp.json"], 0),
    # mu^2 = mu + 1 over GF(3) (u != 0) and over GF(2): thin pairs whose
    # End_0 embeds as "mu" and as "mu_conj"
    ("build-metabelian-ext11", ["build", "metabelian", "--p", "3", "--ext", "1,1", "--class", "8", "-o", "m11.json"], 0),
    ("build-metabelian-gf4", ["build", "metabelian", "--p", "2", "--ext", "1,1", "--class", "8", "-o", "m4.json"], 0),
    ("build-search-limit5", ["build", "search", "--p", "3", "--ext", "2,0", "--class", "12", "--limit", "5", "-o", "found"], 0),
    ("build-search", ["build", "search", "--p", "3", "--ext", "2,0", "--class", "12"], 0),
    # GF(49), where most nodes of the search are free
    ("build-search-g49", ["build", "search", "--p", "7", "--ext", "3,0", "--class", "8", "--limit", "7", "-o", "g49"], 0),
    ("check", ["check", "m.json"], 0),
    ("analyze", ["analyze", "m.json", *PAIR, "--window", "12"], 0),
    ("endo", ["endo", "m.json", *PAIR, "--window", "12"], 0),
    ("roundtrip", ["roundtrip", "m.json", *PAIR], 0),
    # usable window 7 < window 10 < class 40
    ("roundtrip-window10", ["roundtrip", "m.json", *PAIR, "--window", "10"], 0),
    ("scan", ["scan", "m.json", "--window", "12"], 0),
    ("stats", ["stats", "m.json"], 0),
    # first_failure ["v2", "x", "y"]: the class-6 file of TestCheck
    ("check-bad6", ["check", "bad6.json"], 1),
    # first_failure ["v4", "v3", "x"]: metabelian GF(9) class 10, degree-7 pair (1, 2)
    ("check-bad10", ["check", "bad10.json"], 1),
    # bench/data/dev9_14.json with every pair multiplied by mu
    ("check-dev9mu", ["check", "dev9mu.json"], 0),
    ("roundtrip-dev9mu", ["roundtrip", "dev9mu.json", *PAIR], 0),
    # first_failure ["v8", "v2", "y"]: dev9mu.json with b_10 raised by 1
    ("check-dev9mu-bad", ["check", "dev9mu-bad.json"], 1),
    # valid and not standard (every pair is (0, 1)), so stats maps its points to standard form
    ("stats-ex10", ["stats", "ex10.json"], 0),
    # files with several centralizer points under x' = x + y, y' = mu*x, so
    # not in standard form: dev9mu.json, bench/data/dev25_14.json, and a
    # GF(4) class-16 search result with three distinct points, whose third
    # point pins the map of the points to standard form
    ("stats-dev9mu-xy", ["stats", "dev9mu-xy.json"], 0),
    ("stats-dev25-xy", ["stats", "dev25-xy.json"], 0),
    ("stats-gf4c16-xy", ["stats", "gf4c16-xy.json"], 0),
    ("scan-raw", ["scan", "m.json", "--window", "12", "--raw"], 0),
    ("analyze-maximal", ["analyze", "m.json", "--X", "1,0,0,0", "--Y", "0,0,1,0", "--window", "12"], 0),
    ("analyze-rconstrained", ["analyze", "dev9mu.json", "--X", "0,0,1,0", "--Y", "1,0,0,1"], 0),
    ("analyze-degenerate", ["analyze", "m.json", "--X", "1,0,0,0", "--Y", "0,1,0,0", "--window", "12"], 1),
    # degenerate pairs whose F-span is a line and the zero space
    ("analyze-degenerate-rank1", ["analyze", "m.json", "--X", "1,0,0,0", "--Y", "2,0,0,0", "--window", "12"], 1),
    ("analyze-degenerate-rank0", ["analyze", "m.json", "--X", "0,0,0,0", "--Y", "0,0,0,0", "--window", "12"], 1),
    # End_0 in each case of its lemma: degenerate, F (dim L_3 = 1: maximal,
    # or t1 = 6), E (dim L_3 = 2: t1 = 2), and the shortest window, where
    # only degree 3 steps
    ("endo-degenerate", ["endo", "m.json", "--X", "1,0,0,0", "--Y", "0,1,0,0", "--window", "12"], 1),
    ("endo-maximal", ["endo", "m.json", "--X", "1,0,0,0", "--Y", "0,0,1,0", "--window", "12"], 0),
    ("endo-dev9mu-t1-6", ["endo", "dev9mu.json", "--X", "0,0,1,0", "--Y", "1,0,0,1"], 0),
    ("endo-dev9mu-t1-2", ["endo", "dev9mu.json", "--X", "0,1,0,0", "--Y", "1,0,0,1"], 0),
    ("endo-window4", ["endo", "m.json", *PAIR, "--window", "4"], 0),
    # End_0 off (u, v): "mu" with u != 0 over GF(9), "mu_conj" over GF(4),
    # and "mu" over GF(1000003^2), where 2v < p
    ("endo-ext11", ["endo", "m11.json", *PAIR], 0),
    ("endo-gf4", ["endo", "m4.json", *PAIR], 0),
    ("analyze-bigp", ["analyze", "bigp.json", *PAIR, "--window", "6"], 0),
    # a deviating file: several centralizer lines, so the scan's line
    # cross-check and its d-value gaps see more than one point
    ("scan-dev9mu", ["scan", "dev9mu.json"], 0),
    ("scan-raw-dev9mu", ["scan", "dev9mu.json", "--raw"], 0),
    # the smallest search found whose free node has a nonzero square
    # discriminant, so ExtField.sqrt takes its Tonelli-Shanks branch
    ("build-search-c16", ["build", "search", "--p", "3", "--ext", "2,0", "--class", "16", "--limit", "2", "-o", "c16"], 0),
    # a thin pair on the insoluble-surrogate branch (k = 3) whose degree-9
    # cells all vanish within window 14; e_026 extends s_020 to class 20,
    # where window 16 sees a nonzero cell and the round trip succeeds
    ("build-search-gf4-c14", ["build", "search", "--p", "2", "--ext", "1,1", "--class", "14", "--limit", "21", "-o", "s"], 0),
    ("roundtrip-s020", ["roundtrip", "s_020.json", *PAIR], 1),
    ("build-search-gf4-c20", ["build", "search", "--p", "2", "--ext", "1,1", "--class", "20", "--limit", "27", "-o", "e"], 0),
    ("roundtrip-e026-window14", ["roundtrip", "e_026.json", *PAIR, "--window", "14"], 1),
    ("roundtrip-e026-window16", ["roundtrip", "e_026.json", *PAIR, "--window", "16"], 0),
    # usage and schema guards: a generator of three coordinates, a file of
    # class 3, and a scan of a searched file that is not in standard form
    ("analyze-short-generator", ["analyze", "m.json", "--X", "1,0,1", "--Y", "0,1,1,1", "--window", "12"], 2),
    ("check-class3", ["check", "class3.json"], 2),
    ("scan-not-standard", ["scan", "found_001.json"], 1),
    # guards real input reaches: an invalid file under analyze, a (0, 0)
    # pair (bad6.json with its degree-3 pair zeroed) and a missing pair
    # (bad6.json without its last pair)
    ("analyze-bad6", ["analyze", "bad6.json", "--X", "1,0,0,0", "--Y", "0,1,1,0"], 1),
    ("check-zero-pair", ["check", "zero-pair.json"], 1),
    ("check-short-adjoint", ["check", "short-adjoint.json"], 2),
    # a thin pair at window 5, where only [v_2, v_3] is in the window and
    # is nonzero: no abelian tail is confirmed and T^3 shows no bracket
    ("roundtrip-gf4c16-xy-window5", ["roundtrip", "gf4c16-xy.json", "--X", "1,0,0,0", "--Y", "0,1,1,1", "--window", "5"], 1),
    # guards that a test_cli case trips: a one-value --ext, a composite p, a
    # reducible --ext, p >= 2^64, a window too small for the round trip,
    # a round trip of a maximal pair, search bounds (class 3, limit 0,
    # class 30), an analyze window below 4 and a coordinate outside [0, p)
    ("build-ext-one-value", ["build", "metabelian", "--p", "3", "--ext", "2", "--class", "8"], 2),
    ("build-p-not-prime", ["build", "metabelian", "--p", "9", "--ext", "2,0", "--class", "8"], 2),
    ("build-ext-reducible", ["build", "metabelian", "--p", "3", "--ext", "1,0", "--class", "10"], 2),
    ("build-p-beyond-2-64", ["build", "metabelian", "--p", str(2**64 + 13), "--ext", "2,0", "--class", "6"], 2),
    ("roundtrip-window5", ["roundtrip", "m.json", *PAIR, "--window", "5"], 1),
    ("roundtrip-maximal", ["roundtrip", "m.json", "--X", "1,0,0,0", "--Y", "0,0,1,0"], 2),
    ("build-search-class3", ["build", "search", "--p", "3", "--ext", "2,0", "--class", "3"], 2),
    ("build-search-limit0", ["build", "search", "--p", "3", "--ext", "2,0", "--class", "8", "--limit", "0"], 2),
    ("build-search-class30", ["build", "search", "--p", "3", "--ext", "2,0", "--class", "30"], 2),
    ("analyze-window3", ["analyze", "m.json", *PAIR, "--window", "3"], 2),
    ("analyze-X-not-residue", ["analyze", "m.json", "--X", "7,0,1,0", "--Y", "0,1,1,1"], 2),
    # a non-integer field and a pair with a string coordinate, both refused
    # by maxclass._json_int inside from_json
    ("check-class-float", ["check", "class-float.json"], 2),
    ("check-adjoint-string", ["check", "adjoint-string.json"], 2),
    # standard-form search results with more than two distinct centralizer
    # points, so some Baer subline of P^1(E) passes through three of them:
    # GF(4) class 24 with four points, GF(25) class 22 with three
    ("scan-gf4c24", ["scan", "gf4c24-4pts.json"], 0),
    ("scan-raw-gf4c24", ["scan", "gf4c24-4pts.json", "--raw"], 0),
    ("scan-gf25c22", ["scan", "gf25c22-3pts.json"], 0),
    ("scan-raw-gf25c22", ["scan", "gf25c22-3pts.json", "--raw"], 0),
    # both scans of a metabelian algebra over GF(1000003^2), which count
    # without enumerating E
    ("build-metabelian-bigp-c8", ["build", "metabelian", "--p", "1000003", "--ext", "4,1", "--class", "8", "-o", "bigp8.json"], 0),
    ("scan-bigp8", ["scan", "bigp8.json"], 0),
    ("scan-raw-bigp8", ["scan", "bigp8.json", "--raw"], 0),
    # the command line: an abbreviated option, the version, help, and
    # usage errors (exit code 2 with a usage line and an error line)
    ("scan-abbreviated", ["scan", "m.json", "--win", "12"], 0),
    ("version", ["--version"], 0),
    ("check-help", ["check", "-h"], 0),
    ("no-arguments", [], 2),
    ("analyze-missing-option", ["analyze", "m.json", "--X", "1,0,1,0"], 2),
    ("build-class-not-int", ["build", "metabelian", "--p", "3", "--ext", "2,0", "--class", "4x"], 2),
    ("build-bad-kind", ["build", "metabelain", "--p", "3", "--ext", "2,0", "--class", "8"], 2),
    ("check-unknown-option", ["check", "m.json", "--verbose"], 2),
    ("scan-ambiguous-prefix", ["scan", "m.json", "--=12"], 2),
    ("scan-invalid-prefix", ["scan", "m.json", "--wn", "12"], 2),
    ("build-option-without-value", ["build", "metabelian", "--p", "3", "--ext", "2,0", "--class"], 2),
    ("scan-flag-with-value", ["scan", "m.json", "--raw=yes"], 2),
    # "--" as the value in the option's own token is refused as "-o --" is
    ("build-output-given-dashdash", ["build", "metabelian", "--p", "3", "--ext", "2,0", "--class", "8", "-o--"], 2),
]


def run_cases(workdir: Path) -> dict:
    """Run every case in ``workdir``: {name: (exit code, stdout, stderr)}."""
    for name in INPUTS:
        shutil.copy(GOLDEN / name, workdir / name)
    results = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv, _ in CASES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            results[name] = (code, out.getvalue(), err.getvalue())
    finally:
        os.chdir(cwd)
    return results


def written_files(workdir: Path) -> dict:
    """{name: bytes} of every file the cases wrote."""
    return {
        p.name: p.read_bytes()
        for p in sorted(workdir.iterdir())
        if p.name not in INPUTS
    }


def test_cases_cover_readme():
    argvs = [argv for _, argv, _ in CASES]
    for argv in readme_cli_examples():
        assert argv in argvs


def test_reports_match_golden(tmp_path):
    results = run_cases(tmp_path)
    for name, _, code in CASES:
        got_code, got_out, got_err = results[name]
        assert got_code == code, name
        assert got_out.encode("utf-8") == (GOLDEN / f"{name}.stdout").read_bytes(), name
        assert got_err.encode("utf-8") == (GOLDEN / f"{name}.stderr").read_bytes(), name
    want = {p.name: p.read_bytes() for p in sorted(WRITTEN.iterdir())}
    got = written_files(tmp_path)
    assert sorted(got) == sorted(want)
    for name, data in got.items():
        assert data == want[name], name


def _record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        results = run_cases(workdir)
        for name, _, code in CASES:
            got_code, out, err = results[name]
            if got_code != code:
                sys.exit(f"{name}: exit {got_code}, expected {code}")
            (GOLDEN / f"{name}.stdout").write_bytes(out.encode("utf-8"))
            (GOLDEN / f"{name}.stderr").write_bytes(err.encode("utf-8"))
        shutil.rmtree(WRITTEN, ignore_errors=True)
        WRITTEN.mkdir()
        for name, data in written_files(workdir).items():
            (WRITTEN / name).write_bytes(data)


if __name__ == "__main__":
    _record()
