"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 malformed input, 3 constraint
violation (flexibility out of range, unknown target name, bad generator
parameters).
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable

from .hasse import transitive_reduction
from .io import (
    CsvError,
    analyze,
    csv_chunks,
    dot_chunks,
    hasse_json_chunks,
    parse_csv,
    report_chunks,
    structure_chunks,
)
from .kst import structure_from_table
from .order import order_matrix
from .synth import check_poset_size, random_poset, sample_models
from .table import Flexibility, FlexibilityFormatError, TableError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MALFORMED = 2
EXIT_CONSTRAINT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _read_table(path: str):
    """The table in the CSV file at ``path``, or on stdin for ``-``."""
    if path == "-":
        return parse_csv(sys.stdin.buffer)
    with open(path, "rb") as handle:
        return parse_csv(handle)


# Each command returns its standard output as text chunks; cli_main
# writes them as they are made.
def _cmd_analyze(args: argparse.Namespace) -> Iterable[str]:
    alpha = Flexibility.parse(args.flexibility)  # checked before the file is read
    table = _read_table(args.csv)
    return report_chunks(analyze(table, alpha, args.counts), "json" if args.json else "text")


def _cmd_hasse(args: argparse.Namespace) -> Iterable[str]:
    alpha = Flexibility.parse(args.flexibility)  # checked before the file is read
    table = _read_table(args.csv)
    diagram = transitive_reduction(order_matrix(table, alpha))
    return hasse_json_chunks(diagram) if args.json else dot_chunks(diagram)


def _cmd_counts(args: argparse.Namespace) -> Iterable[str]:
    table = _read_table(args.csv)
    n1, n2, n3, n4 = table.pair_counts(table.target_index(args.p), table.target_index(args.q))
    return [f"n1={n1} n2={n2} n3={n3} n4={n4}\n"]


def _cmd_structure(args: argparse.Namespace) -> Iterable[str]:
    table = _read_table(args.csv)
    return structure_chunks(structure_from_table(table, complete=not args.no_complete))


def _cmd_synth(args: argparse.Namespace) -> Iterable[str]:
    check_poset_size(args.targets)  # before the O(N^2) poset is drawn
    poset = random_poset(args.targets, args.density, args.seed)
    return csv_chunks(sample_models(poset, args.models, args.noise, args.seed))


def build_parser() -> _Parser:
    parser = _Parser(
        prog="surmise",
        description="Mine the prerequisite hierarchy among judgment targets "
        "from a models-by-targets 0/1 table.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_analyze = sub.add_parser("analyze", help="full report: classes, order, hasse, layers")
    p_analyze.add_argument("csv")
    p_analyze.add_argument("--flexibility", default="0", metavar="P")
    p_analyze.add_argument("--counts", action="store_true", help="include per-pair response counts")
    fmt = p_analyze.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--text", action="store_true")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_hasse = sub.add_parser("hasse", help="covering edges as DOT (default) or JSON")
    p_hasse.add_argument("csv")
    p_hasse.add_argument("--flexibility", default="0", metavar="P")
    fmt = p_hasse.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p_hasse.set_defaults(func=_cmd_hasse)

    p_counts = sub.add_parser("counts", help="response-pattern counts for one target pair")
    p_counts.add_argument("csv")
    p_counts.add_argument("--p", required=True, metavar="NAME")
    p_counts.add_argument("--q", required=True, metavar="NAME")
    p_counts.set_defaults(func=_cmd_counts)

    p_structure = sub.add_parser(
        "structure", help="knowledge states, per-target families, concepts, reduction"
    )
    p_structure.add_argument("csv")
    p_structure.add_argument(
        "--no-complete",
        action="store_true",
        help="do not add the empty and full states",
    )
    p_structure.set_defaults(func=_cmd_structure)

    p_synth = sub.add_parser("synth", help="emit a CSV sampled from a random planted poset")
    p_synth.add_argument("--targets", type=int, required=True, metavar="N")
    p_synth.add_argument("--models", type=int, required=True, metavar="M")
    p_synth.add_argument("--seed", type=int, required=True, metavar="S")
    p_synth.add_argument("--noise", type=float, default=0.0, metavar="P")
    p_synth.add_argument("--density", type=float, default=0.5, metavar="D")
    p_synth.set_defaults(func=_cmd_synth)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        print("error: no command given (try --help)", file=sys.stderr)
        return EXIT_USAGE
    try:
        sys.stdout.writelines(args.func(args))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``surmise ... | head``), which ends
        # the output, not the run.  What is still buffered goes to devnull
        # at exit instead of raising the same error again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except FlexibilityFormatError as exc:
        # Non-numeric flexibility is a usage problem; a numeric one out of
        # range (or too precise) violates the < 50% contract (exit 3).
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CsvError, TableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    return EXIT_OK


def main() -> None:
    sys.exit(cli_main())
