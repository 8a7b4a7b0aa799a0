"""Command-line interface.

One table, ``_COMMANDS``, holds each command's handler, usage line, help
sentence, positional argument and options, and ``_parse`` reads the
command line against it by the rules of the argparse parser the CLI was
built on before (the tests keep that parser as the reference):

- an option is written ``--name value`` or ``--name=value``, its name
  in full or by any unique prefix (``--flex 5``), before or after the
  positional argument; given twice, its last value counts;
- a word that starts with ``-`` is an option, unless it is ``-`` itself,
  a negative number or holds a space: ``--flexibility -1`` reads -1,
  while ``--flexibility -x`` lacks its value;
- ``--`` ends the options;
- ``-h`` or ``--help`` prints every command's usage, or after a command
  that command's.

The table replaced argparse, whose import and parser build were the
largest share of the package's start-up, paid on every run (README,
"Start-up").

Exit codes: 0 success, 1 usage error, 2 malformed input, 3 constraint
violation (flexibility out of range, unknown target name, bad generator
parameters).
"""
from __future__ import annotations

import os
import sys
from itertools import takewhile
from types import SimpleNamespace
from typing import Callable, Iterable

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


def _read_table(path: str):
    """The table in the CSV file at ``path``, or on stdin for ``-``."""
    if path == "-":
        return parse_csv(sys.stdin.buffer)
    with open(path, "rb") as handle:
        return parse_csv(handle)


# Each command returns its standard output as text chunks; cli_main
# writes them as they are made.
def _cmd_analyze(args: SimpleNamespace) -> Iterable[str]:
    alpha = Flexibility.parse(args.flexibility)  # checked before the file is read
    table = _read_table(args.csv)
    return report_chunks(analyze(table, alpha, args.counts), "json" if args.json else "text")


def _cmd_hasse(args: SimpleNamespace) -> Iterable[str]:
    alpha = Flexibility.parse(args.flexibility)  # checked before the file is read
    table = _read_table(args.csv)
    diagram = transitive_reduction(order_matrix(table, alpha))
    return hasse_json_chunks(diagram) if args.json else dot_chunks(diagram)


def _cmd_counts(args: SimpleNamespace) -> Iterable[str]:
    table = _read_table(args.csv)
    n1, n2, n3, n4 = table.pair_counts(table.target_index(args.p), table.target_index(args.q))
    return [f"n1={n1} n2={n2} n3={n3} n4={n4}\n"]


def _cmd_structure(args: SimpleNamespace) -> Iterable[str]:
    table = _read_table(args.csv)
    return structure_chunks(structure_from_table(table, complete=not args.no_complete))


def _cmd_synth(args: SimpleNamespace) -> Iterable[str]:
    check_poset_size(args.targets)  # before the O(N^2) poset is drawn
    poset = random_poset(args.targets, args.density, args.seed)
    return csv_chunks(sample_models(poset, args.models, args.noise, args.seed))


# Every command takes these options too, and -h for --help.
_COMMON = {"--help": False}

# The command table.  For each command: its handler, its usage line and
# help sentence, the name of its positional argument (None: it takes
# none), its options, each mapped to its default (False: a flag, True
# when given) or, for a required option, to the type of its value, and
# its pairs of options that exclude each other.
_COMMANDS = {
    "analyze": (_cmd_analyze, "CSV [--flexibility P] [--json|--text] [--counts]",
                "full report: classes, order, hasse, layers", "csv",
                {"--flexibility": "0", "--counts": False, "--json": False, "--text": False},
                [("--json", "--text")]),
    "hasse": (_cmd_hasse, "CSV [--flexibility P] [--dot|--json]",
              "covering edges as DOT (default) or JSON", "csv",
              {"--flexibility": "0", "--dot": False, "--json": False}, [("--dot", "--json")]),
    "counts": (_cmd_counts, "CSV --p NAME --q NAME",
               "response-pattern counts for one target pair", "csv",
               {"--p": str, "--q": str}, []),
    "structure": (_cmd_structure, "CSV [--no-complete]",
                  "knowledge states, per-target families, concepts, reduction", "csv",
                  {"--no-complete": False}, []),
    "synth": (_cmd_synth, "--targets N --models M --seed S [--noise P] [--density D]",
              "emit a CSV sampled from a random planted poset", None,
              {"--targets": int, "--models": int, "--seed": int, "--noise": 0.0, "--density": 0.5},
              []),
}


def _usage(names: Iterable[str]) -> str:
    """Each command's usage line and, indented below it, its help sentence."""
    return "".join("surmise {} {}\n    {}\n".format(name, *_COMMANDS[name][1:3]) for name in names)


def _option(token: str, options: dict) -> tuple[str, str | None] | None:
    """How argparse reads ``token`` among ``options``: None for an
    argument, else the option's name and the value written after its "="
    (None without one), or ("", None) for an unknown option.  A negative
    number is an argument: argparse's ``^-\\d+$|^-\\d*\\.\\d+$``, where
    ``\\d`` is ``isdecimal`` and ``$`` also matches before a final newline."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token[1] == "h":  # -hh is -h too; -h with other letters is -h given a value
        return "--help", token[2:].lstrip("h") or None
    if token[1] == "-":
        prefix, eq, value = token.partition("=")
        found = [prefix] if prefix in options else [n for n in options if n.startswith(prefix)]
        if len(found) > 1:
            raise _UsageError(f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    whole, dot, frac = token[1:].removesuffix("\n").partition(".")
    number = (not whole or whole.isdecimal()) and frac.isdecimal() if dot else whole.isdecimal()
    return None if number or " " in token else ("", None)


def _parse(argv: list[str]) -> tuple[Callable[..., Iterable[str]], SimpleNamespace | None]:
    """The handler that ``argv`` names and the arguments to call it with,
    read as argparse read them (see the module docstring).  For -h or
    --help the handler returns the help text.  Raises _UsageError."""
    extras = list(takewhile(lambda token: _option(token, _COMMON) == ("", None), argv))
    if len(extras) == len(argv):
        raise _UsageError("no command given (try --help)")
    command, *tokens = argv[len(extras) :]
    if _option(command, _COMMON) == ("--help", None):
        return (lambda _: [_usage(_COMMANDS)]), None
    if command not in _COMMANDS:  # also an option before the command, such as -h=1
        choices = ", ".join(map(repr, _COMMANDS))
        raise _UsageError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    handler, _, _, positional, options, pairs = _COMMANDS[command]
    options = {**_COMMON, **options}
    rival = dict(pairs) | {b: a for a, b in pairs}
    end = tokens.index("--") if "--" in tokens else len(tokens)
    # Every word is read before any option acts, so an ambiguous prefix
    # errs even after -h.
    found = [_option(token, options) for token in tokens[:end]]
    values = {name: d for name, d in options.items() if not isinstance(d, type)}
    i = 0
    while i < len(tokens):
        token, option = tokens[i], found[i] if i < end else None
        i += 1
        if option is None and positional and positional not in values:
            # The first "--" is dropped just before or just after the
            # positional argument, and is an extra argument elsewhere.
            if i - 1 == end:
                continue
            values[positional] = token
            if i == end:
                i += 1
            continue
        name, value = option or ("", None)
        if not name:
            extras.append(token)
        elif options[name] is False:
            if value is not None:
                raise _UsageError(f"argument {name}: ignored explicit argument {value!r}")
            if name == "--help":
                return (lambda _: [_usage([command])]), None
            if values.get(rival.get(name)):
                raise _UsageError(f"argument {name}: not allowed with argument {rival[name]}")
            values[name] = True
        else:
            if value is None:
                if i >= end or found[i] is not None:
                    raise _UsageError(f"argument {name}: expected one argument")
                value, i = tokens[i], i + 1
            kind = options[name] if isinstance(options[name], type) else type(options[name])
            try:
                values[name] = kind(value)
            except ValueError:
                message = f"invalid {kind.__name__} value: {value!r}"
                raise _UsageError(f"argument {name}: {message}") from None
    missing = [name for name in (positional, *options) if name and name not in values]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    args = {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}
    return handler, SimpleNamespace(**args)


def cli_main(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        sys.stdout.writelines(handler(args))
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
