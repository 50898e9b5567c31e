"""The argparse parser that ``thinlie.cli`` used before its hand-written one.

``build_parser`` is kept here unchanged as the test-only oracle of
``thinlie.cli``'s parser: ``test_argv`` runs both on the same command
lines and requires the same parsed fields, exit codes, stdout and stderr,
with argparse's text wrapped at ``COLUMNS=80``.  The name has no
``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse

from thinlie import __version__
from thinlie.cli import (
    _parse_ext,
    cmd_analyze,
    cmd_build,
    cmd_check,
    cmd_endo,
    cmd_roundtrip,
    cmd_scan,
    cmd_stats,
)


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
