"""Command-line front end.

Every verdict comes with its evidence, and no option turns it off: ``check``
prints a friendly pair's witness, ``survey`` writes a row only after its
evidence was checked, and ``verify-theorem1`` re-derives both verdicts with
the unpruned scan.

Friendliness verdicts are data, not failures: ``check`` and ``survey`` exit 0
whenever they complete, whatever the verdict. ``verify-theorem1`` is the one
exception; the fixture pair is known unfriendly, so a friendly verdict there
exits nonzero. Operational problems (unreadable files, invariant violations,
bad ranges) always exit nonzero with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from .circles import dual_tree, parse_nesting
from .enumeration import enumerate_trees
from .realizability import certificate_to_text, find_realizable_bijection
from .survey import survey_pairs, verify_theorem1, write_report
from .tree import format_tree, parse_tree


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def _cmd_enumerate(args: argparse.Namespace) -> int:
    catalog = enumerate_trees(args.edges)
    out = []
    for i, (code, tree) in enumerate(zip(catalog.codes, catalog.trees)):
        out.append(f"--- {i}\n{code}\n{format_tree(tree)}")
    sys.stdout.write("".join(out))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    a = parse_tree(_read(args.a))
    b = parse_tree(_read(args.b))
    cert = find_realizable_bijection(a, b)
    sys.stdout.write(certificate_to_text(cert))
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    if os.path.isdir(args.out):
        raise ValueError(f"output path is a directory: {args.out}")
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(out_dir):
        raise ValueError(f"output directory does not exist: {out_dir}")
    if not os.access(out_dir, os.W_OK):
        raise ValueError(f"output directory is not writable: {out_dir}")
    report = survey_pairs(args.edges, jobs=args.jobs)
    write_report(report, args.out)
    sys.stdout.write(f"wrote {args.out}\n")
    return 0


def _cmd_verify_theorem1(args: argparse.Namespace) -> int:
    result = verify_theorem1()
    fwd, rev = result.forward_scan, result.reverse_scan
    sys.stdout.write(
        f"forward {result.forward.verdict} "
        f"nodes={result.forward.nodes} checked={result.forward.checked}\n"
        f"reverse {result.reverse.verdict} "
        f"nodes={result.reverse.nodes} checked={result.reverse.checked}\n"
        f"recheck forward={'pass' if fwd.verdict == result.forward.verdict else 'FAIL'} "
        f"reverse={'pass' if rev.verdict == result.reverse.verdict else 'FAIL'}\n"
        f"recheck checked forward={fwd.checked} reverse={rev.checked}\n"
    )
    if result.holds:
        sys.stdout.write("theorem1 holds\n")
        return 0
    sys.stdout.write("theorem1 FAILS\n")
    return 1


def _cmd_dual(args: argparse.Namespace) -> int:
    forest = parse_nesting(_read(args.nesting))
    sys.stdout.write(format_tree(dual_tree(forest)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friendly-trees",
        description="Decide friendliness between trees and survey small catalogues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all free trees with N edges")
    p.add_argument("--edges", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="decide friendliness of two tree files")
    p.add_argument("--a", required=True, metavar="FILE")
    p.add_argument("--b", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("survey", help="decide every pair of trees with N edges")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default: 1)")
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser(
        "verify-theorem1",
        help="confirm the two fixture trees are unfriendly in both directions, "
        "with and without pruning",
    )
    p.set_defaults(func=_cmd_verify_theorem1)

    p = sub.add_parser("dual", help="dual tree of a circle nesting file")
    p.add_argument("--nesting", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_dual)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
