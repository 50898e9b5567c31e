"""Command-line front end: build, check, analyze, endo, roundtrip, scan, stats.

All machine-readable output is a single JSON report on stdout with a fixed
field order, so identical command lines produce byte-identical reports
(the version stamp changes only with the package version).  A report's
keys are its record's fields in order: the results of ``check``, ``endo``,
``roundtrip`` and ``scan``, ``analyze``'s ``endo`` and each ``stats`` entry
are ``vars`` of a record.  Human-readable tables go to stderr.  Exit
codes: 0 success, 1 mathematical-check failure, 2 usage (including an
out-of-range class or window bound, a search limit below 1, a coordinate
outside [0, p) and p >= 2^64), file-schema or OS error (including a
closed, broken or full stdout), or an interrupt.

The command line follows argparse's rules: options and positionals in
any order, the last occurrence of an option winning, ``--opt value``,
``--opt=value`` and ``-oVALUE``, any unique prefix of a long option
(``--win 12``), and ``--`` before positionals that begin with ``-``.
Where argparse stores ``[]`` for an option given ``--`` in its own token
(``--p=--``, ``-o--``), this parser refuses it as argparse refuses
``--p --``.  A usage error returns 2 after a ``usage:`` line and a
``thinlie <cmd>: error: ...`` line on stderr; ``-h``/``--help`` and
``--version`` write to stdout and return 0.  ``main`` returns every code
and raises no ``SystemExit``.
"""

from __future__ import annotations

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
    _emit("check", {"file": args.file}, vars(report))
    return EXIT_OK if report.ok else EXIT_MATH


def _analysis_results(analysis: sf.SubalgebraAnalysis) -> dict:
    v = analysis.verdict
    return {
        "dims": analysis.dims,
        "d": analysis.d,
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
        results["endo"] = vars(endo_mod.identify_field(analysis))
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
        vars(endo_mod.identify_field(analysis)),
    )
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    pres = _load(args.file)
    g = _pair_from_args(pres.field, args.X, args.Y)
    report = rec.verify_roundtrip(pres, g, args.window)
    _emit(
        "roundtrip",
        {"file": args.file, "X": args.X, "Y": args.Y, "window": args.window or pres.class_n},
        vars(report),
    )
    return EXIT_OK


def cmd_scan(args) -> int:
    pres = _load(args.file)
    table = sf.scan(pres, args.window, raw=args.raw)
    print(
        f"scan: {table.total} pairs -> {table.counts}"
        + (f"; thin by lines = {table.thin_by_lines}" if table.thin_by_lines is not None else ""),
        file=sys.stderr,
    )
    _emit("scan", {"file": args.file, "window": table.window, "raw": args.raw}, vars(table))
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
    entries = [vars(e) for e in report.entries]
    _emit(
        "stats",
        {"file": args.file},
        {"class": report.class_n, "standardized": standardized, "entries": entries},
    )
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------
#
# The command line is parsed by hand, by the rules of the standard library's
# argparse (Python 3.11) for the parser that ``tests/argparse_oracle.py``
# keeps, and ``tests/test_argv.py`` checks the two against each other.
# Each parser is a row (prog, usage, help body, actions), and an action is
# (option strings, dest, kind, required, default).  The option strings of
# a positional are empty.  A kind is a converter of one value (``str``,
# ``int``, ``_parse_ext``), a tuple of choices, or one of the value-less
# kinds "help", "version" and "store_true"; the top-level positional has
# kind "parser" and takes the subcommand and every token after it.  The
# help and usage text is argparse's at 80 columns.

_HELP = (("-h", "--help"), None, "help", False, None)
_NO_VALUE = ("help", "version", "store_true")
_FILE = ((), "file", str, True, None)
_WINDOW = (("--window",), "window", int, False, None)
_FILE_BODY = "\npositional arguments:\n  file\n\noptions:\n  -h, --help  show this help message and exit\n"
_PAIR_ACTIONS = (
    _HELP,
    _FILE,
    (("--X",), "X", str, True, None),
    (("--Y",), "Y", str, True, None),
    _WINDOW,
)
_PAIR_BODY = (
    "\npositional arguments:\n  file\n\noptions:\n"
    "  -h, --help       show this help message and exit\n"
    "  --X a0,a1,b0,b1\n  --Y a0,a1,b0,b1\n  --window WINDOW\n"
)

_TOP = (
    "thinlie",
    "usage: thinlie [-h] [--version]\n"
    "               {build,check,analyze,endo,roundtrip,scan,stats} ...\n",
    "\nExact computations with maximal-class Lie algebras over GF(p^2) and their\n"
    "GF(p)-subalgebras.\n\n"
    "positional arguments:\n"
    "  {build,check,analyze,endo,roundtrip,scan,stats}\n"
    "    build               write algebra files\n"
    "    check               validate an algebra file\n"
    "    analyze             classify the subalgebra generated by X and Y\n"
    "    endo                degree-0 endomorphism ring of L^3\n"
    "    roundtrip           rebuild N from a thin pair and compare\n"
    "    scan                classify all normalized generator pairs (--raw: every\n"
    "                        F-plane of L_1)\n"
    "    stats               centralizer occurrence diagnostics\n\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --version             show program's version number and exit\n",
    (_HELP, (("--version",), None, "version", False, None), ((), "command", "parser", True, None)),
)

_COMMANDS = {
    "build": (
        "thinlie build",
        "usage: thinlie build [-h] --p P --ext v,u --class CLASS_N [--limit LIMIT]\n"
        "                     [-o OUTPUT]\n"
        "                     {metabelian,search}\n",
        "\npositional arguments:\n  {metabelian,search}\n\noptions:\n"
        "  -h, --help            show this help message and exit\n"
        "  --p P                 prime modulus\n"
        "  --ext v,u             defining quadratic mu^2 = u*mu + v\n"
        "  --class CLASS_N\n  --limit LIMIT\n  -o OUTPUT, --output OUTPUT\n",
        (
            _HELP,
            ((), "kind", ("metabelian", "search"), True, None),
            (("--p",), "p", int, True, None),
            (("--ext",), "ext", _parse_ext, True, None),
            (("--class",), "class_n", int, True, None),
            (("--limit",), "limit", int, False, 10),
            (("-o", "--output"), "output", str, False, None),
        ),
    ),
    "check": ("thinlie check", "usage: thinlie check [-h] file\n", _FILE_BODY, (_HELP, _FILE)),
    "analyze": (
        "thinlie analyze",
        "usage: thinlie analyze [-h] --X a0,a1,b0,b1 --Y a0,a1,b0,b1 [--window WINDOW]\n"
        "                       file\n",
        _PAIR_BODY,
        _PAIR_ACTIONS,
    ),
    "endo": (
        "thinlie endo",
        "usage: thinlie endo [-h] --X a0,a1,b0,b1 --Y a0,a1,b0,b1 [--window WINDOW]\n"
        "                    file\n",
        _PAIR_BODY,
        _PAIR_ACTIONS,
    ),
    "roundtrip": (
        "thinlie roundtrip",
        "usage: thinlie roundtrip [-h] --X a0,a1,b0,b1 --Y a0,a1,b0,b1\n"
        "                         [--window WINDOW]\n"
        "                         file\n",
        _PAIR_BODY,
        _PAIR_ACTIONS,
    ),
    "scan": (
        "thinlie scan",
        "usage: thinlie scan [-h] [--window WINDOW] [--raw] file\n",
        "\npositional arguments:\n  file\n\noptions:\n"
        "  -h, --help       show this help message and exit\n"
        "  --window WINDOW\n"
        "  --raw            classify each F-plane of L_1 once and weight it by\n"
        "                   |GL_2(F)|, its number of ordered bases (X, Y), instead of\n"
        "                   the normalized pairs\n",
        (_HELP, _FILE, _WINDOW, (("--raw",), "raw", "store_true", False, False)),
    ),
    "stats": ("thinlie stats", "usage: thinlie stats [-h] file\n", _FILE_BODY, (_HELP, _FILE)),
}


class _Exit(Exception):
    """Ends ``main`` with ``code`` once ``text`` is written: help and the
    version on stdout, a usage error on stderr."""

    def __init__(self, code: int, text: str):
        super().__init__(code, text)
        self.code = code
        self.text = text


class _Args:
    """The parsed command line: one attribute per dest."""

    def __init__(self, fields: dict):
        self.__dict__.update(fields)


def _usage_error(parser: tuple, message: str) -> _Exit:
    return _Exit(EXIT_USAGE, f"{parser[1]}{parser[0]}: error: {message}\n")


def _name(action: tuple) -> str:
    return "/".join(action[0]) or action[1]


def _negative_number(arg: str) -> bool:
    """Whether ``arg`` matches ``^-\\d+$|^-\\d*\\.\\d+$``, whose ``$`` also
    matches before a final newline."""
    whole, dot, frac = (arg[1:-1] if arg.endswith("\n") else arg[1:]).partition(".")
    return whole.isdecimal() and not dot or frac.isdecimal() and (not whole or whole.isdecimal())


def _option_at(parser: tuple, options: dict, arg: str):
    """None if ``arg`` is a positional token, else (action or None if no
    option of ``parser`` matches, option string, value given in the token
    or None)."""
    if not arg or arg[0] != "-":
        return None
    if arg in options:
        return options[arg], arg, None
    if len(arg) == 1:
        return None
    name, eq, value = arg.partition("=")
    if eq and name in options:
        return options[name], name, value
    if arg[1] == "-":  # a unique prefix of a long option, with "=value" or not
        hits = [(options[s], s, value if eq else None) for s in options if s.startswith(name)]
        if len(hits) > 1:
            matches = ", ".join(s for _, s, _ in hits)
            raise _usage_error(parser, f"ambiguous option: {arg} could match {matches}")
        if hits:
            return hits[0]
    elif arg[:2] in options:  # -oVALUE
        return options[arg[:2]], arg[:2], arg[2:]
    if _negative_number(arg) or " " in arg:
        return None
    return None, arg, None


def _parse_known(parser: tuple, argv: list) -> tuple:
    """(fields, unrecognized tokens) of ``argv`` under ``parser``, by
    argparse's ``parse_known_args``; raises ``_Exit`` for help, the version
    and usage errors."""
    actions = parser[3]
    options = {s: action for action in actions for s in action[0]}
    positional = next(action for action in actions if not action[0])
    fields = {action[1]: action[4] for action in actions if action[1]}
    # One mark per token: "O" for an option, "A" for an argument, "-" for
    # the first "--", after which every token is an argument.
    found, marks = {}, ""
    for i, arg in enumerate(argv):
        if "-" in marks:
            marks += "A"
        elif arg == "--":
            marks += "-"
        else:
            hit = _option_at(parser, options, arg)
            if hit is not None:
                found[i] = hit
            marks += "A" if hit is None else "O"
    seen, extras = set(), []

    def take(action, args):
        seen.add(action)
        kind = action[2]
        if kind == "help":
            raise _Exit(EXIT_OK, parser[1] + parser[2])
        if kind == "version":
            raise _Exit(EXIT_OK, f"thinlie {__version__}\n")
        if kind == "store_true":
            fields[action[1]] = True
            return
        if kind != "parser" and "--" in args:
            args.remove("--")
        if not args:  # "--opt=--": argparse drops the "--" and stores []
            raise _usage_error(parser, f"argument {_name(action)}: expected one argument")
        value = args[0]
        choices = tuple(_COMMANDS) if kind == "parser" else kind
        if type(choices) is tuple:
            if value not in choices:
                listed = ", ".join(map(repr, choices))
                raise _usage_error(
                    parser, f"argument {_name(action)}: invalid choice: {value!r} (choose from {listed})"
                )
        else:
            try:
                value = kind(value)
            except (TypeError, ValueError):
                raise _usage_error(
                    parser, f"argument {_name(action)}: invalid {kind.__name__} value: {value!r}"
                ) from None
        fields[action[1]] = value
        if kind == "parser":
            sub_fields, sub_extras = _parse_known(_COMMANDS[value], args[1:])
            fields.update(sub_fields)
            extras.extend(sub_extras)

    def consume_positional(start):
        if positional in seen:
            return start
        rest = marks[start:]
        lead = len(rest) - len(rest.lstrip("-"))
        if rest[lead : lead + 1] != "A":
            return start
        if positional[2] == "parser":
            stop = len(argv)
        else:
            stop = start + lead + 1 + (rest[lead + 1 : lead + 2] == "-")
        take(positional, argv[start:stop])
        return stop

    def consume_optional(start):
        action, name, value = found[start]
        if action is None:
            extras.append(argv[start])
            return start + 1
        taken = []
        while action[2] in _NO_VALUE and value is not None:
            # -hX: -h, then -X with the rest of the token as its value
            if name[1] == "-" or not value or "-" + value[0] not in options:
                raise _usage_error(parser, f"argument {_name(action)}: ignored explicit argument {value!r}")
            taken.append((action, []))
            name = "-" + value[0]
            action, value = options[name], value[1:] or None
        stop = start + 1
        if value is not None:
            taken.append((action, [value]))
        elif action[2] in _NO_VALUE:
            taken.append((action, []))
        elif marks[stop : stop + 1] == "A":
            taken.append((action, [argv[stop]]))
            stop += 1
        else:
            raise _usage_error(parser, f"argument {_name(action)}: expected one argument")
        for action, args in taken:
            take(action, args)
        return stop

    start, last = 0, max(found, default=-1)
    while start <= last:
        upcoming = min(i for i in found if i >= start)
        if start != upcoming:
            stop = consume_positional(start)
            if stop > start:
                start = stop
                continue
            extras.extend(argv[start:upcoming])
            start = upcoming
        start = consume_optional(start)
    stop = consume_positional(start)
    extras.extend(argv[stop:])
    missing = [_name(action) for action in actions if action[3] and action not in seen]
    if missing:
        raise _usage_error(parser, "the following arguments are required: " + ", ".join(missing))
    return fields, extras


def _parse_args(argv: list) -> _Args:
    fields, extras = _parse_known(_TOP, argv)
    if extras:
        raise _usage_error(_TOP, "unrecognized arguments: " + " ".join(extras))
    return _Args(fields)


def _write(stream, text: str) -> None:
    """Write help or a usage error as argparse does: a closed or broken
    stream is ignored."""
    try:
        stream.write(text)
    except (AttributeError, OSError):
        pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except _Exit as done:
        _write(sys.stdout if done.code == EXIT_OK else sys.stderr, done.text)
        return done.code
    try:
        # looked up by name here, so a replaced ``cmd_*`` is the one run
        return globals()["cmd_" + args.command](args)
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
