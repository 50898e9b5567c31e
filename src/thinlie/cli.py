"""Command-line front end: build, check, analyze, endo, roundtrip, scan, stats.

All machine-readable output is a single JSON report on stdout with a fixed
field order, so identical command lines produce byte-identical reports
(the version stamp changes only with the package version).  Human-readable
tables go to stderr.  Exit codes: 0 success, 1 mathematical-check failure,
2 usage (including an out-of-range class or window bound, a search limit
below 1, a scan over its budget, a coordinate outside [0, p) and p >= 2^64),
file-schema or OS error (including a closed, broken or full stdout), or an
interrupt.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from . import endo as endo_mod
from . import maxclass as mc
from . import reconstruct as rec
from . import subfield as sf
from .errors import (
    BadBound,
    NotPrime,
    PreconditionFailed,
    ReduciblePolynomial,
    SchemaError,
    ThinLieError,
    WindowTooLarge,
)
from .gf import make_ext_field, residue

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional, Sequence

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


def _report(command: str, inputs: dict, results: dict) -> str:
    doc = {
        "command": command,
        "version": __version__,
        "inputs": inputs,
        "results": results,
    }
    return json.dumps(doc, indent=2) + "\n"


def _emit(command: str, inputs: dict, results: dict) -> None:
    """Write the report and flush, so a closed, broken or full stdout raises
    OSError here, inside ``main``, and not at interpreter exit."""
    if sys.stdout is None:  # fd 1 was not open at start-up
        raise OSError("stdout is closed")
    sys.stdout.write(_report(command, inputs, results))
    sys.stdout.flush()


def _load(path: str, check: bool = True) -> mc.MaxClassPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise SchemaError("malformed algebra file: JSON nested too deeply") from None
    return mc.from_json(obj, check=check)


def _save(path: str, pres: mc.MaxClassPresentation) -> None:
    """Write ``pres`` in one call, as ``json.dump(mc.to_json(pres), fh,
    indent=2)`` and a newline would: the schema is fixed and every value an
    integer, so the text is a template.  With ``indent`` ``json.dump`` runs
    the pure-Python encoder and writes once per token."""
    doc = mc.to_json(pres)
    v, u = doc["ext_min_poly"]
    pair = (
        "    [\n"
        "      [\n        {},\n        {}\n      ],\n"
        "      [\n        {},\n        {}\n      ]\n"
        "    ]"
    )
    adjoint = ",\n".join(pair.format(*a, *b) for a, b in doc["adjoint"])
    text = (
        f'{{\n  "p": {doc["p"]},\n  "ext_min_poly": [\n    {v},\n    {u}\n  ],\n'
        f'  "class": {doc["class"]},\n  "adjoint": [\n{adjoint}\n  ]\n}}\n'
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_ext(text: str) -> tuple:
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 2:
        raise ValueError("--ext expects v,u with mu^2 = u*mu + v")
    return parts[0], parts[1]


def _parse_gen(field, text: str):
    parts = [residue(field.p, int(x)) for x in text.split(",")]
    if len(parts) != 4:
        raise ValueError("generator coordinates are a0,a1,b0,b1")
    return parts


def _pair_from_args(field, xs: str, ys: str) -> sf.GeneratorPair:
    return sf.pair_from_ints(field, _parse_gen(field, xs), _parse_gen(field, ys))


# -- subcommands ---------------------------------------------------------------


def cmd_build(args) -> int:
    for c in args.ext:
        residue(args.p, c)
    field = make_ext_field(args.p, args.ext[1], args.ext[0])
    inputs = {
        "kind": args.kind,
        "p": args.p,
        "ext_min_poly": [args.ext[0], args.ext[1]],
        "class": args.class_n,
    }
    if args.kind == "metabelian":
        pres = mc.make_metabelian(field, args.class_n)
        out = args.output or "metabelian.json"
        _save(out, pres)
        _emit("build", inputs, {"files": [out]})
        return EXIT_OK
    inputs["limit"] = args.limit
    found = mc.search_sequences(field, args.class_n, args.limit)
    prefix = args.output or "search"
    if prefix.endswith(".json"):
        prefix = prefix[: -len(".json")]
    files = []
    for idx, pres in enumerate(found):
        path = f"{prefix}_{idx:03d}.json"
        _save(path, pres)
        files.append(path)
    _emit("build", inputs, {"files": files, "count": len(files)})
    return EXIT_OK


def cmd_check(args) -> int:
    pres = _load(args.file, check=False)
    report = mc.validate(pres)
    _emit(
        "check",
        {"file": args.file},
        {
            "ok": report.ok,
            "first_failure": list(report.first_failure) if report.first_failure else None,
            "triples_checked": report.triples_checked,
        },
    )
    return EXIT_OK if report.ok else EXIT_MATH


def _analysis_results(analysis: sf.SubalgebraAnalysis) -> dict:
    v = analysis.verdict
    return {
        "dims": list(analysis.dims),
        "d": list(analysis.d) if analysis.d is not None else None,
        "verdict": v.kind,
        "r_observed": v.r_observed,
        "t1": v.t1,
        "window": analysis.window,
    }


def _print_analysis_table(analysis: sf.SubalgebraAnalysis) -> None:
    print(f"{'degree':>6} {'dim':>4} {'d':>3}  centralizer", file=sys.stderr)
    for i in range(1, analysis.window + 1):
        d_val = ""
        cent = ""
        if analysis.d is not None and 2 <= i < analysis.window:
            d_val = str(analysis.d_at(i))
            pt = analysis.centralizers.point(i)
            cent = f"({pt[0]} : {pt[1]})"
        print(f"{i:>6} {analysis.dim(i):>4} {d_val:>3}  {cent}".rstrip(), file=sys.stderr)
    print(f"verdict: {analysis.verdict}", file=sys.stderr)


def cmd_analyze(args) -> int:
    pres = _load(args.file)
    g = _pair_from_args(pres.field, args.X, args.Y)
    analysis = sf.generate_subalgebra(pres, g, args.window)
    results = _analysis_results(analysis)
    if analysis.verdict.kind == "thin":
        results["endo"] = endo_mod.identify_field(analysis).to_json()
    _print_analysis_table(analysis)
    _emit("analyze", {"file": args.file, "X": args.X, "Y": args.Y, "window": analysis.window}, results)
    return EXIT_MATH if analysis.verdict.kind == "degenerate" else EXIT_OK


def cmd_endo(args) -> int:
    pres = _load(args.file)
    g = _pair_from_args(pres.field, args.X, args.Y)
    analysis = sf.generate_subalgebra(pres, g, args.window)
    _emit(
        "endo",
        {"file": args.file, "X": args.X, "Y": args.Y, "window": analysis.window},
        endo_mod.identify_field(analysis).to_json(),
    )
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    pres = _load(args.file)
    g = _pair_from_args(pres.field, args.X, args.Y)
    report = rec.verify_roundtrip(pres, g, args.window)
    _emit(
        "roundtrip",
        {"file": args.file, "X": args.X, "Y": args.Y, "window": args.window or pres.class_n},
        report.to_json(),
    )
    return EXIT_OK if report.iso else EXIT_MATH


def cmd_scan(args) -> int:
    pres = _load(args.file)
    table = sf.scan(pres, args.window, raw=args.raw)
    results = {
        "window": table.window,
        "mode": table.mode,
        "total": table.total,
        "counts": table.counts,
        "rconstrained_gaps": table.rconstrained_gaps,
        "thin_direct": table.thin_direct,
        "thin_by_lines": table.thin_by_lines,
        "agree": table.agree,
    }
    print(
        f"scan: {table.total} pairs -> {table.counts}"
        + (f"; thin by lines = {table.thin_by_lines}" if table.thin_by_lines is not None else ""),
        file=sys.stderr,
    )
    _emit("scan", {"file": args.file, "window": table.window, "raw": args.raw}, results)
    if table.agree is False:
        return EXIT_MATH
    return EXIT_OK


def cmd_stats(args) -> int:
    pres = _load(args.file)
    seq = mc.two_step_centralizers(pres)
    standardized = not seq.is_standard()
    if standardized:
        seq = mc.standardize(seq)
    report = mc.centralizer_stats(seq)
    entries = []
    for e in report.entries:
        entries.append(
            {
                "point": [list(e.point[0]), list(e.point[1])],
                "first_occurrence": e.first_occurrence,
                "first_is_two_p_power": e.first_is_two_p_power,
                "occurrences": list(e.occurrences),
                "max_gap": e.max_gap,
                "gap_within_first": e.gap_within_first,
            }
        )
    _emit(
        "stats",
        {"file": args.file},
        {"class": report.class_n, "standardized": standardized, "entries": entries},
    )
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="thinlie",
        description="Exact computations with maximal-class Lie algebras over GF(p^2) "
        "and their GF(p)-subalgebras.",
    )
    top.add_argument("--version", action="version", version=f"thinlie {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="write algebra files")
    b.add_argument("kind", choices=["metabelian", "search"])
    b.add_argument("--p", type=int, required=True, help="prime modulus")
    b.add_argument(
        "--ext",
        type=_parse_ext,
        required=True,
        metavar="v,u",
        help="defining quadratic mu^2 = u*mu + v",
    )
    b.add_argument("--class", dest="class_n", type=int, required=True)
    b.add_argument("--limit", type=int, default=10)
    b.add_argument("-o", "--output", default=None)
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("check", help="validate an algebra file")
    c.add_argument("file")
    c.set_defaults(func=cmd_check)

    def add_pair_args(p):
        p.add_argument("file")
        p.add_argument("--X", required=True, metavar="a0,a1,b0,b1")
        p.add_argument("--Y", required=True, metavar="a0,a1,b0,b1")
        p.add_argument("--window", type=int, default=None)

    a = sub.add_parser("analyze", help="classify the subalgebra generated by X and Y")
    add_pair_args(a)
    a.set_defaults(func=cmd_analyze)

    e = sub.add_parser("endo", help="degree-0 endomorphism ring of L^3")
    add_pair_args(e)
    e.set_defaults(func=cmd_endo)

    r = sub.add_parser("roundtrip", help="rebuild N from a thin pair and compare")
    add_pair_args(r)
    r.set_defaults(func=cmd_roundtrip)

    s = sub.add_parser(
        "scan", help="classify all normalized generator pairs (--raw: every F-plane of L_1)"
    )
    s.add_argument("file")
    s.add_argument("--window", type=int, default=None)
    s.add_argument(
        "--raw",
        action="store_true",
        help="classify each F-plane of L_1 once and weight it by |GL_2(F)|, "
        "its number of ordered bases (X, Y), instead of the normalized pairs",
    )
    s.set_defaults(func=cmd_scan)

    t = sub.add_parser("stats", help="centralizer occurrence diagnostics")
    t.add_argument("file")
    t.set_defaults(func=cmd_stats)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        SchemaError, ValueError, OSError, PreconditionFailed, BadBound, WindowTooLarge,
        NotPrime, ReduciblePolynomial,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ThinLieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
