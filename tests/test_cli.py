"""Command-line interface: exit codes, report schemas, determinism."""

import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import thinlie
from thinlie import cli
from thinlie import maxclass as mc
from thinlie.cli import main
from thinlie.gf import ExtField, make_ext_field


PAIR = ["--X", "1,0,1,0", "--Y", "0,1,1,1"]
EXT = ["--p", "3", "--ext", "2,0"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(stdout: str) -> dict:
    return json.loads(stdout)


@pytest.fixture()
def met_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    code, _, _ = run(
        capsys, "build", "metabelian", "--p", "3", "--ext", "2,0",
        "--class", "14", "-o", str(path),
    )
    assert code == 0
    return str(path)


class TestBuild:
    def test_metabelian_file(self, tmp_path, capsys):
        path = tmp_path / "m40.json"
        code, out, _ = run(
            capsys, "build", "metabelian", "--p", "3", "--ext", "2,0",
            "--class", "40", "-o", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["class"] == 40
        assert len(doc["adjoint"]) == 38
        assert all(pair == [[1, 0], [0, 0]] for pair in doc["adjoint"])

    def test_search_files_pass_check(self, tmp_path, capsys):
        prefix = tmp_path / "s"
        code, out, _ = run(
            capsys, "build", "search", "--p", "3", "--ext", "2,0",
            "--class", "12", "--limit", "5", "-o", str(prefix),
        )
        assert code == 0
        files = out_json(out)["results"]["files"]
        assert len(files) >= 1
        for f in files:
            code, _, _ = run(capsys, "check", f)
            assert code == 0

    def test_non_prime_exits_2(self, capsys):
        code, _, err = run(
            capsys, "build", "metabelian", "--p", "4", "--ext", "2,0", "--class", "10"
        )
        assert code == 2
        assert "prime" in err

    def test_reducible_ext_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            capsys, "build", "metabelian", "--p", "3", "--ext", "1,0", "--class", "10"
        )
        assert code == 2
        assert "has a root" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_ext_of_one_value_exits_2(self, tmp_path, capsys, monkeypatch):
        # ``_parse_ext`` raises ValueError, which the parser reports as a
        # usage error: ``main`` returns 2 and raises no SystemExit
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "build", "metabelian", "--p", "3", "--ext", "2", "--class", "8")
        assert code == 2
        assert out == ""
        assert "argument --ext: invalid _parse_ext value: '2'" in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_search_keeps_written_files(self, tmp_path, capsys, monkeypatch):
        save = cli._save

        def failing(path, pres):
            if path.endswith("_002.json"):
                raise OSError("No space left on device")
            save(path, pres)

        monkeypatch.setattr(cli, "_save", failing)
        code, out, err = run(
            capsys, "build", "search", *EXT, "--class", "12", "--limit", "5",
            "-o", str(tmp_path / "s"),
        )
        assert (code, out, err) == (2, "", "error: No space left on device\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s_000.json", "s_001.json"]


def _dumped(pres) -> bytes:
    """The bytes ``json.dump`` writes for an algebra file, and a newline."""
    return (json.dumps(mc.to_json(pres), indent=2) + "\n").encode("utf-8")


class TestWriter:
    """``_save`` writes a fixed template; its bytes are those of the
    ``json`` encoder with ``indent=2``."""

    @pytest.mark.parametrize(
        "p, u, v, class_n",
        [(2, 1, 1, 16), (3, 0, 2, 16), (5, 0, 2, 14), (7, 0, 3, 10)],
        ids=["4_16", "9_16", "25_14", "49_10"],
    )
    def test_search_files_match_json(self, tmp_path, p, u, v, class_n):
        found = mc.search_sequences(make_ext_field(p, u, v), class_n, 10**9)
        for idx, pres in enumerate(found):
            path = tmp_path / f"s_{idx:03d}.json"
            cli._save(str(path), pres)
            assert path.read_bytes() == _dumped(pres), idx

    def test_large_residues_match_json(self, tmp_path):
        """Several-digit residues at p = 1000003 with nonzero u and v: the
        metabelian file, and unvalidated pairs with random entries."""
        F = make_ext_field(1000003, 271828, 314159)
        rng = random.Random("writer")
        elems = [(rng.randrange(F.p), rng.randrange(F.p)) for _ in range(40)] + [F.zero, F.one]
        cases = [mc.make_metabelian(F, 12)] + [
            mc.MaxClassPresentation(F, n, tuple((rng.choice(elems), rng.choice(elems)) for _ in range(n - 2)))
            for n in (4, 5, 9)
        ]
        for idx, pres in enumerate(cases):
            path = tmp_path / f"big_{idx}.json"
            cli._save(str(path), pres)
            assert path.read_bytes() == _dumped(pres), idx


class TestCheck:
    def test_valid(self, met_file, capsys):
        code, out, _ = run(capsys, "check", met_file)
        assert code == 0
        assert out_json(out)["results"]["ok"] is True

    def test_invalid_exits_1(self, tmp_path, capsys):
        bad = {
            "p": 3,
            "ext_min_poly": [2, 0],
            "class": 6,
            "adjoint": [[[1, 0], [0, 0]], [[0, 0], [1, 0]],
                        [[1, 0], [0, 0]], [[1, 0], [0, 0]]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        doc = out_json(out)
        assert doc["results"]["ok"] is False
        assert doc["results"]["first_failure"] == ["v2", "x", "y"]

    def test_schema_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"p": 3, "class": 6, "adjoint": []}))
        code, _, _ = run(capsys, "check", str(path))
        assert code == 2


class TestBadInput:
    """OS, file-schema and out-of-range bound or residue errors exit 2 (usage)."""

    @pytest.mark.parametrize("command", ["check", "stats", "scan"])
    def test_directory_exits_2(self, tmp_path, capsys, command):
        code, out, err = run(capsys, command, str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [["check"], ["stats"], ["scan"], ["analyze", *PAIR], ["endo", *PAIR], ["roundtrip", *PAIR]],
        ids=lambda argv: argv[0],
    )
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["check", "stats", "scan"])
    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("p", 3.9, id="p-float"),
            pytest.param("p", "3", id="p-string"),
            pytest.param("p", True, id="p-bool"),
            pytest.param("p", 4, id="p-not-prime"),
            pytest.param("ext_min_poly", [1, 0], id="ext-reducible"),
            pytest.param("ext_min_poly", [2.0, 0], id="ext-float"),
            pytest.param("class", 6.0, id="class-float"),
            pytest.param("adjoint", [[[1, 0], [0, False]]] * 4, id="adjoint-bool"),
            pytest.param("adjoint", [[[1, 0], [0, "0"]]] * 4, id="adjoint-string"),
            pytest.param("p", 2**64 + 13, id="p-beyond-2-64"),
            pytest.param("ext_min_poly", [5, 0], id="ext-not-residue"),
            pytest.param("adjoint", [[[4, 0], [0, 0]]] * 4, id="adjoint-not-residue"),
            pytest.param("adjoint", [[[1, 0], [-2, 0]]] * 4, id="adjoint-negative"),
        ],
    )
    def test_schema_violations_exit_2(self, tmp_path, capsys, command, field, value):
        doc = mc.to_json(mc.make_metabelian(make_ext_field(3, 0, 2), 6))
        doc[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, command, str(path))
        assert code == 2
        assert out == ""


    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["analyze", "{f}", *PAIR, "--window", "3"], id="analyze-window-3"),
            pytest.param(["endo", "{f}", *PAIR, "--window", "2"], id="endo-window-2"),
            pytest.param(["scan", "{f}", "--window", "50"], id="scan-window-50"),
            pytest.param(["roundtrip", "{f}", *PAIR, "--window", "60"], id="roundtrip-window-60"),
            pytest.param(["build", "metabelian", *EXT, "--class", "3", "-o", "{o}"], id="build-class-3"),
            pytest.param(["build", "search", *EXT, "--class", "3", "-o", "{o}"], id="build-search-class-3"),
            pytest.param(["build", "search", *EXT, "--class", "30", "-o", "{o}"], id="build-class-30"),
            pytest.param(["build", "search", *EXT, "--class", "8", "--limit", "0", "-o", "{o}"], id="build-limit-0"),
            pytest.param(["build", "search", *EXT, "--class", "8", "--limit", "-1", "-o", "{o}"], id="build-limit--1"),
            pytest.param(["analyze", "{f}", "--X", "7,0,1,0", "--Y", "0,1,1,1"], id="analyze-X-not-residue"),
            pytest.param(["endo", "{f}", "--X", "1,0,1,0", "--Y", "0,3,1,1"], id="endo-Y-not-residue"),
            pytest.param(["build", "metabelian", "--p", "3", "--ext", "5,0", "--class", "6", "-o", "{o}"], id="build-ext-not-residue"),
            pytest.param(["build", "metabelian", "--p", str(2**64 + 13), "--ext", "2,0", "--class", "6", "-o", "{o}"], id="build-p-beyond-2-64"),
        ],
    )
    def test_bound_out_of_range_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "m20.json"
        mc_file = mc.to_json(mc.make_metabelian(make_ext_field(3, 0, 2), 20))
        path.write_text(json.dumps(mc_file))
        argv = [a.format(f=path, o=tmp_path / "out") for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "argv, option",
        [
            pytest.param(["build", "metabelian", "--p=--", "--ext", "2,0", "--class", "8"], "--p", id="p-eq"),
            pytest.param(["build", "metabelian", *EXT, "--class", "8", "-o--"], "-o/--output", id="o-joined"),
            pytest.param(["build", "search", *EXT, "--class", "8", "--out=--"], "-o/--output", id="output-prefix-eq"),
            pytest.param(["roundtrip", "m.json", "--X", "1,0,1,0", "--Y=--"], "--Y", id="roundtrip-Y-eq"),
        ],
    )
    def test_value_option_given_dashdash_exits_2(self, tmp_path, capsys, monkeypatch, argv, option):
        """A value option whose token carries ``--`` as its value is a usage
        error, as ``--p --`` is; nothing is run and nothing written."""
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: thinlie ")
        assert err.endswith(f": error: argument {option}: expected one argument\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["build", "check"])
    def test_p_bound_named(self, tmp_path, capsys, command):
        p = 2**64 + 13
        path = tmp_path / "huge.json"
        doc = mc.to_json(mc.make_metabelian(make_ext_field(3, 0, 2), 6))
        path.write_text(json.dumps(dict(doc, p=p)))
        argv = (
            ["build", "metabelian", "--p", str(p), "--ext", "2,0", "--class", "6", "-o", str(tmp_path / "o.json")]
            if command == "build" else ["check", str(path)]
        )
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "not below 2^64" in err

    @pytest.mark.parametrize("command", ["build", "check"])
    def test_large_prime_is_fast(self, tmp_path, capsys, command):
        p = 2**61 - 1  # -1 is a non-square mod p, as p = 3 mod 4
        path = tmp_path / "m.json"
        start = time.perf_counter()
        code, _, _ = run(
            capsys, "build", "metabelian", "--p", str(p), "--ext", f"{p - 1},0",
            "--class", "6", "-o", str(path),
        )
        assert code == 0
        if command == "check":
            start = time.perf_counter()
            code, out, _ = run(capsys, "check", str(path))
            assert code == 0 and out_json(out)["results"]["ok"] is True
        assert time.perf_counter() - start < 1.0

def _child_env():
    src = str(Path(thinlie.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def thinlie_process(*argv, timeout=10):
    """Run the CLI in a child process, killed after `timeout` seconds."""
    return subprocess.run(
        [sys.executable, "-m", "thinlie.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=_child_env(),
    )


class TestLargePrime:
    """Every command on a class-8 metabelian algebra over GF(1000003^2)
    answers within 10 s; so does ``build search`` over that field at a
    small limit."""

    @pytest.fixture(scope="class")
    def big_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("large-prime") / "big.json"
        proc = thinlie_process(
            "build", "metabelian", "--p", "1000003", "--ext", "4,1", "--class", "8", "-o", str(path)
        )
        assert proc.returncode == 0, proc.stderr
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [["check"], ["stats"], ["analyze", *PAIR], ["endo", *PAIR], ["roundtrip", *PAIR],
         ["scan"], ["scan", "--raw"]],
        ids=["check", "stats", "analyze", "endo", "roundtrip", "scan", "scan-raw"],
    )
    def test_answers_within_timeout(self, big_file, argv):
        proc = thinlie_process(argv[0], big_file, *argv[1:])
        assert proc.returncode == 0, proc.stderr
        assert out_json(proc.stdout)["command"] == argv[0]

    @pytest.mark.parametrize("raw", [False, True], ids=["normalized", "raw"])
    def test_scan_in_process(self, tmp_path, capsys, monkeypatch, raw):
        """A scan over GF(1000003^2), and one of the four-point GF(4)
        class-24 golden file, answers without enumerating E; enumerating
        GF(1000003^2) would exhaust memory, so any enumeration fails the
        test instead of running.  The answer holds facts known without the
        package: the q^4 - 1 raw pairs less the |GL_2(E)| E-independent
        ones are degenerate, as are the q normalized pairs (beta, mu*beta),
        and a metabelian algebra's other q^2 - q normalized pairs are thin."""

        def refuse(field):
            raise AssertionError("scan enumerated E")

        monkeypatch.setattr(ExtField, "elements", refuse)
        p = 1000003
        path = tmp_path / "big.json"
        path.write_text(json.dumps(mc.to_json(mc.make_metabelian(make_ext_field(p, 0, p - 1), 6))))
        flags = ["--raw"] if raw else []
        start = time.perf_counter()
        code, out, err = run(capsys, "scan", str(path), *flags)
        assert time.perf_counter() - start < 1.0
        assert code == 0, err
        res = out_json(out)["results"]
        q = p * p
        if raw:
            assert res["total"] == q**4 - 1
            assert res["counts"]["degenerate"] == q**4 - (q * q - 1) * (q * q - q) - 1
        else:
            assert res["total"] == q * q and res["counts"]["degenerate"] == q
            assert res["counts"]["thin"] == res["thin_by_lines"] == q * q - q
            assert res["agree"] is True
        four = Path(__file__).parent / "golden" / "gf4c24-4pts.json"
        code, out, _ = run(capsys, "scan", str(four), *flags)
        assert code == 0 and out_json(out)["results"]["agree"] is (None if raw else True)

    @pytest.mark.parametrize("class_n, limit", [(6, 1), (8, 5)], ids=["class6", "class8"])
    def test_search_within_timeout(self, tmp_path, class_n, limit):
        # hung while listing all of P^1(E) before free nodes solved for their children
        proc = thinlie_process(
            "build", "search", "--p", "1000003", "--ext", "2,0", "--class", str(class_n),
            "--limit", str(limit), "-o", str(tmp_path / "found"),
        )
        assert proc.returncode == 0, proc.stderr
        assert out_json(proc.stdout)["results"]["count"] == limit


class TestUnwritableStdout:
    """Every subcommand exits 2 with an ``error:`` line and no traceback when
    its report cannot be written: fd 1 closed, a pipe whose reader has
    closed, or stdout on /dev/full."""

    @pytest.fixture(scope="class")
    def small_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("stdout") / "m.json"
        proc = thinlie_process("build", "metabelian", *EXT, "--class", "8", "-o", str(path))
        assert proc.returncode == 0, proc.stderr
        return str(path)

    @staticmethod
    def run_with_stdout(how, argv):
        cmd = [sys.executable, "-m", "thinlie.cli", *argv]
        kwargs = dict(stderr=subprocess.PIPE, text=True, timeout=10, env=_child_env())
        if how == "closed":
            return subprocess.run(["sh", "-c", 'exec "$@" 1>&-', "sh", *cmd], **kwargs)
        if how == "broken-pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                return subprocess.run(cmd, stdout=write_end, **kwargs)
            finally:
                os.close(write_end)
        with open("/dev/full", "w") as full:
            return subprocess.run(cmd, stdout=full, **kwargs)

    @pytest.mark.parametrize("how", ["closed", "broken-pipe", "dev-full"])
    @pytest.mark.parametrize(
        "command", ["build", "check", "analyze", "endo", "roundtrip", "scan", "stats"]
    )
    def test_exits_2(self, small_file, tmp_path, how, command):
        if how == "dev-full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        argv = {
            "build": ["build", "metabelian", *EXT, "--class", "8", "-o", str(tmp_path / "b.json")],
            "analyze": ["analyze", small_file, *PAIR],
            "endo": ["endo", small_file, *PAIR],
            "roundtrip": ["roundtrip", small_file, *PAIR],
        }.get(command, [command, small_file])
        proc = self.run_with_stdout(how, argv)
        assert proc.returncode == 2, proc.stderr
        assert re.search(r"^error: ", proc.stderr, re.M), proc.stderr
        assert "Traceback" not in proc.stderr


class TestInterrupt:
    def test_sigint_exits_2(self, met_file, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_check", interrupted)
        code, out, err = run(capsys, "check", met_file)
        assert (code, out, err) == (2, "", "error: interrupted\n")


class TestAnalyze:
    def test_thin(self, met_file, capsys):
        code, out, err = run(
            capsys, "analyze", met_file, "--X", "1,0,1,0", "--Y", "0,1,1,1",
            "--window", "12",
        )
        assert code == 0
        res = out_json(out)["results"]
        assert res["verdict"] == "thin"
        assert res["dims"][:4] == [2, 1, 2, 2]
        assert res["endo"]["dim"] == 2
        assert "verdict: thin" in err

    def test_maximal(self, met_file, capsys):
        code, out, _ = run(
            capsys, "analyze", met_file, "--X", "1,0,0,0", "--Y", "0,0,1,0"
        )
        assert code == 0
        assert out_json(out)["results"]["verdict"] == "maximal"

    def test_degenerate_exits_1(self, met_file, capsys):
        code, out, _ = run(
            capsys, "analyze", met_file, "--X", "1,0,0,0", "--Y", "0,1,0,0"
        )
        assert code == 1
        assert out_json(out)["results"]["verdict"] == "degenerate"


class TestEndoCommand:
    def test_report(self, met_file, capsys):
        code, out, _ = run(
            capsys, "endo", met_file, "--X", "1,0,1,0", "--Y", "0,1,1,1",
            "--window", "12",
        )
        assert code == 0
        res = out_json(out)["results"]
        assert res == {
            "dim": 2,
            "min_poly": [1, 0, 1],
            "is_field": True,
            "embedding": res["embedding"],
        }
        assert res["embedding"] in ("mu", "mu_conj")


class TestRoundtrip:
    def test_thin_pair(self, met_file, capsys):
        code, out, _ = run(
            capsys, "roundtrip", met_file, "--X", "1,0,1,0", "--Y", "0,1,1,1"
        )
        assert code == 0
        res = out_json(out)["results"]
        assert res["iso"] is True and res["branch"] == "rho_prime"

    def test_maximal_pair_exits_2(self, met_file, capsys):
        code, _, err = run(
            capsys, "roundtrip", met_file, "--X", "1,0,0,0", "--Y", "0,0,1,0"
        )
        assert code == 2
        assert "thin" in err

    @pytest.mark.parametrize("window", [4, 5, 6])
    def test_small_window_exits_1(self, met_file, capsys, window):
        # the metabelian branch has k = 2, so the usable window is window - 3
        code, out, err = run(capsys, "roundtrip", met_file, *PAIR, "--window", str(window))
        assert code == 1
        assert out == ""
        assert err == f"error: usable window {window - 3} is below the minimum class 4\n"

    @pytest.mark.parametrize(
        "class_n, limit, name, window",
        [(14, 21, "s_020.json", None), (20, 27, "e_026.json", "14")],
        ids=["s020", "e026-window14"],
    )
    def test_unrefuted_kernel_exits_1(self, tmp_path, capsys, class_n, limit, name, window):
        """The ``roundtrip-s020`` and ``roundtrip-e026-window14`` golden
        cases: on the insoluble-surrogate branch (k = 3) every cell of
        degree 9 that window 14 holds is zero.  That is no proven kernel:
        e_026 extends s_020, and at window 16 its round trip succeeds
        (``roundtrip-e026-window16``).  So the window is reported as too
        small, with exit code 1."""
        prefix = str(tmp_path / name[0])
        code, _, _ = run(
            capsys, "build", "search", "--p", "2", "--ext", "1,1",
            "--class", str(class_n), "--limit", str(limit), "-o", prefix,
        )
        assert code == 0
        args = [] if window is None else ["--window", window]
        code, out, err = run(capsys, "roundtrip", str(tmp_path / name), *PAIR, *args)
        assert code == 1
        assert out == ""
        assert err == "error: kernel in degree 9 not refuted within window 14\n"


class TestScan:
    def test_metabelian(self, met_file, capsys):
        code, out, _ = run(capsys, "scan", met_file, "--window", "12")
        assert code == 0
        res = out_json(out)["results"]
        assert res["agree"] is True
        assert res["thin_direct"] == res["thin_by_lines"] == 72


class TestStats:
    def test_metabelian(self, met_file, capsys):
        code, out, _ = run(capsys, "stats", met_file)
        assert code == 0
        entries = out_json(out)["results"]["entries"]
        assert len(entries) == 1
        assert entries[0]["first_occurrence"] == 2
        assert entries[0]["first_is_two_p_power"] is True

    @pytest.mark.parametrize("which, passes", [("met", 1), ("ex10", 1)])
    def test_one_centralizer_pass(self, met_file, capsys, monkeypatch, which, passes):
        """``stats`` computes the centralizer sequence once, for a file in
        standard form and for one that is not (``ex10.json``): it maps the
        points of that one pass to standard form (``standardize``) and
        builds no second presentation."""
        path = met_file if which == "met" else str(Path(__file__).parent / "golden" / "ex10.json")
        calls = []
        two_step = mc.two_step_centralizers

        def spy(pres):
            calls.append(pres)
            return two_step(pres)

        monkeypatch.setattr(mc, "two_step_centralizers", spy)
        code, out, _ = run(capsys, "stats", path)
        assert code == 0
        assert out_json(out)["results"]["standardized"] is (which == "ex10")
        assert len(calls) == passes


class TestDeterminism:
    def test_byte_identical_reports(self, met_file, capsys):
        for argv in (
            ["analyze", met_file, "--X", "1,0,1,0", "--Y", "0,1,1,1", "--window", "10"],
            ["scan", met_file, "--window", "10"],
        ):
            _, out1, _ = run(capsys, *argv)
            _, out2, _ = run(capsys, *argv)
            assert out1 == out2

    def test_save_load_roundtrip(self, met_file):
        with open(met_file, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        assert mc.to_json(mc.from_json(obj)) == obj


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples():
    """Every `thinlie ...` line of the README's shell blocks, as argv lists."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("thinlie ")
    ]


def test_readme_examples_run(tmp_path, capsys, monkeypatch):
    examples = readme_cli_examples()
    assert len(examples) >= 8
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert out_json(out)["command"] == argv[0]
