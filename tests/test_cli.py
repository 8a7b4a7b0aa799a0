import json

import pytest
from hypothesis import given, settings, strategies as st

from surmise import cli, parse_csv
from surmise.cli import cli_main

import oracles

from conftest import TWELVE_MODELS_PATH, WORKED_EXAMPLE_PATH
from test_io import TWELVE_MODELS_DOT, WORKED_STRUCTURE_TEXT

TWELVE = str(TWELVE_MODELS_PATH)
WORKED = str(WORKED_EXAMPLE_PATH)


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_text_default(self, capsys):
        code, out, err = run(capsys, "analyze", TWELVE)
        assert code == 0
        assert out.startswith("targets: t0 t1")
        assert err == ""

    def test_json(self, capsys):
        code, out, _ = run(capsys, "analyze", TWELVE, "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["classes"][0]["representative"] == "t1"

    def test_counts_flag(self, capsys):
        code, out, _ = run(capsys, "analyze", TWELVE, "--json", "--counts")
        assert code == 0
        assert "counts" in json.loads(out)

    def test_flexibility_50_is_constraint_violation(self, capsys):
        code, _, err = run(capsys, "analyze", TWELVE, "--flexibility", "50")
        assert code == 3
        assert "flexibility" in err

    def test_flexibility_negative_is_constraint_violation(self, capsys):
        code, _, _ = run(capsys, "analyze", TWELVE, "--flexibility=-1")
        assert code == 3
        code, _, err = run(capsys, "analyze", TWELVE, "--flexibility", "-1")
        assert (code, err) == (3, "error: flexibility must lie in [0%, 50%), got -1%\n")

    def test_flexibility_three_decimals_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", TWELVE, "--flexibility", "1.234")
        assert code == 3
        assert "decimal digits" in err

    def test_flexibility_non_numeric_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", TWELVE, "--flexibility", "lots")
        assert code == 1
        assert "decimal percentage" in err

    def test_flexibility_non_ascii_digits_are_usage_errors(self, capsys):
        # So are Unicode spaces and separator controls around ASCII digits:
        # only ASCII spaces and tabs are stripped.
        for text in ("１０", "١٠", "1.٥", "\u300010", "10\u2009", "\x1c10"):
            code, out, err = run(capsys, "analyze", TWELVE, "--flexibility", text)
            assert (code, out) == (1, "")
            assert "decimal percentage" in err

    def test_flexibility_is_checked_before_the_file_is_read(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.csv")
        for command in ("analyze", "hasse"):
            code, out, err = run(capsys, command, missing, "--flexibility", "１０")
            assert (code, out) == (1, "")
            assert "decimal percentage" in err
            code, out, err = run(capsys, command, missing, "--flexibility", "50")
            assert (code, out) == (3, "")
            assert "flexibility must lie in" in err

    def test_flexibility_two_decimals_accepted(self, capsys):
        code, out, _ = run(
            capsys, "analyze", TWELVE, "--flexibility", "19.99", "--json"
        )
        assert code == 0
        assert json.loads(out)["flexibility"]["basis_points"] == 1999

    def test_json_and_text_flags_conflict(self, capsys):
        code, _, _ = run(capsys, "analyze", TWELVE, "--json", "--text")
        assert code == 1


class TestHasse:
    def test_dot_default(self, capsys):
        code, out, _ = run(capsys, "hasse", TWELVE)
        assert code == 0
        assert out == TWELVE_MODELS_DOT

    def test_dot_explicit(self, capsys):
        code, out, _ = run(capsys, "hasse", TWELVE, "--dot")
        assert out == TWELVE_MODELS_DOT
        assert code == 0

    def test_json(self, capsys):
        code, out, _ = run(capsys, "hasse", TWELVE, "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["edges"][0] == ["t1", "t4"]

    def test_flexibility_changes_edges(self, capsys):
        _, base, _ = run(capsys, "hasse", TWELVE)
        _, flexed, _ = run(capsys, "hasse", TWELVE, "--flexibility", "20")
        assert '"t1" -> "t4";' in base
        assert '"t1" -> "t4";' not in flexed
        assert '"t6" -> "t4";' in flexed


class TestCounts:
    def test_t5_t6(self, capsys):
        code, out, _ = run(capsys, "counts", TWELVE, "--p", "t5", "--q", "t6")
        assert code == 0
        assert out == "n1=9 n2=0 n3=1 n4=2\n"

    def test_unknown_target_is_constraint_violation(self, capsys):
        code, _, err = run(capsys, "counts", TWELVE, "--p", "t5", "--q", "nope")
        assert code == 3
        assert "unknown target" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "counts", TWELVE, "--p", "t5")
        assert code == 1


class TestStructure:
    def test_worked_example_output(self, capsys):
        code, out, _ = run(capsys, "structure", WORKED)
        assert code == 0
        assert out == WORKED_STRUCTURE_TEXT

    def test_no_complete_flag(self, capsys, tmp_path):
        csv = tmp_path / "partial.csv"
        csv.write_text("model,a,b\nM1,1,0\n")
        _, completed, _ = run(capsys, "structure", str(csv))
        assert "states (3):" in completed
        _, raw, _ = run(capsys, "structure", str(csv), "--no-complete")
        assert "states (1):" in raw


class TestNonDecimalDigits:
    """A superscript is a digit to ``str.isdigit`` but not to ``int``;
    natural sorting must treat it as text."""

    def test_superscript_target_name(self, capsys, tmp_path):
        csv = tmp_path / "superscript.csv"
        csv.write_text("model,t2,t1\u00b2\nM1,0,1\nM2,1,1\n", encoding="utf-8")
        code, out, err = run(capsys, "analyze", str(csv))
        assert (code, err) == (0, "")
        assert "classes:\n  t1\u00b2: t1\u00b2\n  t2: t2\n" in out
        assert "hasse (1):\n  t1\u00b2 -> t2\n" in out
        code, out, err = run(capsys, "structure", str(csv))
        assert (code, err) == (0, "")
        assert "states (3):\n  {}\n  {t1\u00b2}\n  {t1\u00b2,t2}\n" in out


class TestDigitStringsOfAnyLength:
    """Digit runs past a float's range (309 digits) and past int's
    4300-digit string limit end in a result or a located message, never
    in a traceback or the interpreter's own limit message."""

    @pytest.mark.parametrize("digits", [309, 4301, 5000])
    def test_flexibility_out_of_range(self, capsys, digits):
        for text in ("9" * digits, "-" + "9" * digits + ".5"):
            code, out, err = run(capsys, "analyze", TWELVE, "--flexibility", text)
            assert (code, out) == (3, "")
            assert err.startswith("error: flexibility must lie in [0%, 50%), got ")

    def test_leading_zeros_are_not_significant(self, capsys):
        code, out, err = run(capsys, "analyze", TWELVE, "--flexibility", "0" * 5000 + "19.99")
        assert (code, err) == (0, "")
        assert "flexibility: 19.99%" in out

    def test_target_name_with_a_long_digit_run(self, capsys, tmp_path):
        long = "a" + "1" * 5000
        csv = tmp_path / "long.csv"
        csv.write_text(f"model,{long},a2\nM1,0,1\nM2,1,1\n", encoding="utf-8")
        for command in ("analyze", "structure", "hasse"):
            code, out, err = run(capsys, command, str(csv))
            assert (code, err) == (0, "")
        code, out, _ = run(capsys, "analyze", str(csv))
        assert f"hasse (1):\n  a2 -> {long}\n" in out


class TestSynth:
    def test_emits_parseable_csv(self, capsys):
        code, out, _ = run(
            capsys, "synth", "--targets", "5", "--models", "8", "--seed", "7"
        )
        assert code == 0
        table = parse_csv(out)
        assert table.target_count == 5
        assert table.model_count == 8
        assert table.target_names == ("t0", "t1", "t2", "t3", "t4")

    def test_deterministic_across_invocations(self, capsys):
        _, first, _ = run(
            capsys, "synth", "--targets", "6", "--models", "10", "--seed", "3"
        )
        _, second, _ = run(
            capsys, "synth", "--targets", "6", "--models", "10", "--seed", "3"
        )
        assert first == second

    def test_bad_targets_is_constraint_violation(self, capsys):
        code, _, _ = run(
            capsys, "synth", "--targets", "0", "--models", "5", "--seed", "1"
        )
        assert code == 3

    def test_too_many_targets_refused_before_the_poset_is_drawn(self, capsys, monkeypatch):
        import surmise.cli

        def never(*args):
            raise AssertionError("random_poset called")

        monkeypatch.setattr(surmise.cli, "random_poset", never)
        code, out, err = run(
            capsys, "synth", "--targets", "21", "--models", "5", "--seed", "1"
        )
        assert (code, out) == (3, "")
        assert err == "error: refusing to enumerate downsets of 21 elements (limit 20)\n"

    def test_bad_noise_is_constraint_violation(self, capsys):
        code, _, _ = run(
            capsys,
            "synth", "--targets", "3", "--models", "5", "--seed", "1",
            "--noise", "1.5",
        )
        assert code == 3

    def test_non_integer_models_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "synth", "--targets", "3", "--models", "few", "--seed", "1"
        )
        assert code == 1

    def test_noisy_output_parses(self, capsys):
        code, out, _ = run(
            capsys,
            "synth", "--targets", "4", "--models", "6", "--seed", "2",
            "--noise", "0.3", "--density", "0.8",
        )
        assert code == 0
        assert parse_csv(out).model_count == 6


class TestExitCodes:
    def test_missing_file_is_malformed_input(self, capsys):
        code, _, err = run(capsys, "analyze", "no-such-file.csv")
        assert code == 2
        assert err != ""

    def test_malformed_csv_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("model,a\nM1,7\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert "'7'" in err

    def test_duplicate_names_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "dup.csv"
        bad.write_text("model,a,a\nM1,1,0\n")
        code, _, _ = run(capsys, "analyze", str(bad))
        assert code == 2

    def test_backslash_in_header_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "backslash.csv"
        bad.write_text("model,a\\,b\nM1,1,0\n")
        code, out, err = run(capsys, "hasse", str(bad))
        assert code == 2
        assert out == ""
        assert "forbidden character '\\\\'" in err

    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "no command" in err

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "analyze" in out

    @pytest.mark.parametrize("command", ["analyze", "hasse", "counts", "structure", "synth"])
    def test_help_after_a_command_prints_its_usage(self, capsys, command):
        code, out, err = run(capsys, command, "-h")
        assert (code, err) == (0, "")
        assert out.startswith(f"surmise {command} ") and out.count("surmise ") == 1
        assert run(capsys, command, "--help") == (0, out, "")


def parse_outcome(argv):
    """How the CLI takes argv, in the form of ``oracles.parse_reference``."""
    try:
        handler, args = cli._parse(list(argv))
    except cli._UsageError as exc:
        return ("error", str(exc))
    if args is None:  # the handler returns the help text
        return ("help",)
    return ("ok", handler, vars(args))


def assert_parsed_as_argparse(argv):
    expected, got = oracles.parse_reference(list(argv)), parse_outcome(argv)
    assert got[0] == expected[0], (argv, expected, got)
    if expected[0] == "ok":
        values = dict(got[2])
        assert values.pop("help") is False
        # repr compares a nan from --noise nan as equal
        assert (got[1], repr(sorted(values.items()))) == (
            expected[1], repr(sorted(expected[2].items()))
        ), argv


# Each command's options, by what follows them: nothing (a flag), an int,
# a float or any text.
COMMAND_OPTIONS = {
    "analyze": {"--flexibility": "text", "--counts": "flag", "--json": "flag", "--text": "flag"},
    "hasse": {"--flexibility": "text", "--dot": "flag", "--json": "flag"},
    "counts": {"--p": "text", "--q": "text"},
    "structure": {"--no-complete": "flag"},
    "synth": {"--targets": "int", "--models": "int", "--seed": "int", "--noise": "float",
              "--density": "float"},
}
REQUIRED = {"--p", "--q", "--targets", "--models", "--seed"}
OPTIONS = sorted({name for options in COMMAND_OPTIONS.values() for name in options})

VALUES = st.sampled_from([
    "x.csv", "-", "", "5", "19.99", "-1", "-0", "-.5", "-1.", "-1.5", "-1e3", "-inf", "nan",
    "1_000", " 3", "3.0", "\uff13", "-\uff11", "few", "-x", "-x y", "-1 ", "--bogus", "--json",
])
VALUES_OF = {
    "text": VALUES,
    "int": st.one_of(st.integers(-3, 30).map(str), VALUES),
    "float": st.one_of(st.sampled_from(["0.1", "0", "1.5", "-0.25", "1e-1", "inf"]), VALUES),
}


def spelled(name):
    """The option in full or by any unique prefix."""
    return st.sampled_from([name[:end] for end in range(3, len(name) + 1)])


def with_value(name, values=VALUES):
    """The option and a value in one token: "--name=value"."""
    return st.tuples(spelled(name), values).map("=".join)


def given_option(name, kind):
    """An option as given on a command line: its tokens."""
    if kind == "flag":
        return spelled(name).map(lambda s: [s])
    return st.one_of(st.tuples(spelled(name), VALUES_OF[kind]).map(list),
                     with_value(name, VALUES_OF[kind]).map(lambda token: [token]))


# No ambiguous prefix such as "--=x" is drawn: from Python 3.13.13 on,
# argparse refuses one only where it stands, so "-h --=x" prints help,
# while earlier versions refuse the whole line.  The fixed cases cover it.
TOKENS = st.one_of(
    VALUES,
    st.sampled_from(OPTIONS).flatmap(lambda name: st.one_of(spelled(name), with_value(name))),
    st.sampled_from(["--", "-h", "-hh", "--help", "--he", "--help=1", "-h=1", "--n"]),
)
COMMANDS = st.sampled_from([*COMMAND_OPTIONS] * 3 + ["frobnicate", "ana", "-", "-1", ""])


def command_lines(command):
    """Argument lists for ``command``: its positional argument, its
    required options and some others, each with a value where it takes
    one, and at most one other token, in any order."""
    options = COMMAND_OPTIONS.get(command, {})
    pieces = st.tuples(
        st.tuples(*[given_option(name, options[name]) for name in options if name in REQUIRED]),
        st.lists(st.sampled_from(list(options) or ["--x"]).flatmap(
            lambda name: given_option(name, options.get(name, "text"))), max_size=3),
        st.lists(VALUES.map(lambda value: [value]), min_size=command != "synth",
                 max_size=command != "synth"),
        st.lists(TOKENS.map(lambda token: [token]), max_size=1),
    ).map(lambda groups: [piece for group in groups for piece in group])
    return pieces.flatmap(st.permutations).map(lambda order: [command] + sum(order, []))


# Lines where a parser of its own easily parts from argparse, and the rules
# the command table must keep.
FIXED_CASES = [
    [], ["--"], ["--bogus"], ["frobnicate"], ["frobnicate", "-h"], ["-h", "frobnicate"],
    ["-h"], ["--help"], ["-hh"], ["--he"], ["--help=1"], ["-h=1"], ["--=x"],
    ["--bogus", "analyze", "x.csv"], ["--bogus", "analyze", "-h"], ["-1", "analyze"],
    ["-", "analyze"], ["", "analyze"], ["ana", "x.csv"],
    ["analyze", "x.csv", "--flexibility", "--json"],
    ["analyze", "x.csv", "--flexibility", "-x"],
    ["analyze", "x.csv", "--flexibility", "--"],
    ["analyze", "-x"],
    ["analyze", "x.csv", "--flexibility", "-1"],
    ["analyze", "x.csv", "--flexibility", "-.5"],
    ["analyze", "x.csv", "--flexibility", "-1."],
    ["analyze", "x.csv", "--flexibility", "-1 "],
    ["analyze", "x.csv", "--flexibility", "-\uff11"],
    ["analyze", "x.csv", "--flexibility", "-1\n"],
    ["analyze", "-1"], ["analyze", "-x y"], ["analyze", ""], ["analyze", "-"],
    ["analyze", "x.csv", "-h"], ["analyze", "--help"], ["analyze", "-hh"], ["analyze", "--he"],
    ["analyze", "-h", "--bogus"], ["analyze", "--bogus", "-h"], ["analyze", "--flexibility", "-h"],
    ["analyze", "x.csv", "--json", "--text", "-h"], ["analyze", "-h", "--json", "--text"],
    ["analyze", "--help=1"], ["analyze", "-h=1"],
    ["analyze", "x.csv", "--flex", "5"], ["analyze", "x.csv", "--flex=5"],
    ["analyze", "x.csv", "--flexibility="], ["analyze", "x.csv", "--flexibility=--json"],
    ["analyze", "x.csv", "--flexibility=1 2"], ["analyze", "x.csv", "--fl x"],
    ["analyze", "x.csv", "--json=1"], ["analyze", "x.csv", "--json="],
    ["analyze", "--=x", "x.csv"], ["analyze", "x.csv", "--", "--=x"],
    ["analyze", "--json", "x.csv"], ["analyze", "--json", "--counts", "x.csv"],
    ["analyze", "x.csv", "--json", "--text"], ["analyze", "x.csv", "--text", "--json"],
    ["analyze", "x.csv", "--json", "--json"], ["analyze", "x.csv", "y.csv"],
    ["analyze", "x.csv", "--flexibility", "3", "--flexibility", "4"],
    ["analyze", "--", "x.csv"], ["analyze", "x.csv", "--"], ["analyze", "x.csv", "--json", "--"],
    ["analyze", "--json", "--", "x.csv"], ["analyze", "--json", "x.csv", "--"],
    ["analyze", "--", "x.csv", "--"], ["analyze", "--", "--json"],
    ["analyze", "x.csv", "--", "--json"], ["analyze", "--", "x.csv", "--", "y"],
    ["analyze", "x.csv", "y", "--"], ["analyze", "--flexibility", "5", "--"],
    ["analyze", "--flexibility", "5", "--", "x.csv"],
    ["analyze", "x.csv", "--flexibility", "5", "--"],
    ["analyze", "--counts", "--", "-"], ["analyze", "--"],
    ["analyze", "x.csv", "--models", "3"], ["analyze", "x.csv", "--bogus=1"],
    ["analyze", "x.csv", "-1"], ["analyze", "x.csv", "-flexibility=5"],
    ["hasse", "x.csv", "--d"], ["hasse", "x.csv", "--j", "--d"], ["hasse", "x.csv", "--text"],
    ["counts", "x.csv", "--p", "a"], ["counts", "x.csv"], ["counts"],
    ["counts", "x.csv", "--p", "a", "--q", "-1"], ["counts", "x.csv", "--p=--q", "--q", "a"],
    ["counts", "x.csv", "--p", "--q", "a"], ["counts", "--=x", "x.csv", "--p", "a", "--q", "b"],
    ["structure", "x.csv", "--no"], ["structure", "x.csv", "--n"],
    ["structure", "x.csv", "--no-complete=x"], ["structure", "--no-complete", "--", "-"],
    ["synth", "--targets", "1_000", "--models", " 3", "--seed", "-2", "--noise", "nan"],
    ["synth", "--targets", "3", "--models", "few", "--seed", "1"],
    ["synth", "--t", "3", "--m", "4", "--s", "1"], ["synth", "--t=3", "--m=4", "--s=1", "--d=.2"],
    ["synth", "--targets", "3", "--models", "4", "--seed", "1", "x"],
    ["synth", "--targets", "-3", "--models", "4", "--seed", "1"],
    ["synth", "--targets", "3.0", "--models", "4", "--seed", "1"],
    ["synth", "--targets", "\uff13", "--models", "4", "--seed", "1"],
    ["synth", "--targets", "3", "--models", "4", "--seed", "1", "--noise", "-inf"],
    ["synth", "--targets", "3", "--models", "4", "--seed", "1", "--noise", "-.5"],
    ["synth", "--targets", "--models", "4", "--seed", "1"],
    ["synth", "--", "--targets", "3"],
    ["synth", "--targets", "3", "--models", "4", "--seed", "1", "--"],
    ["synth", "--targets", "3", "--models", "4", "--seed", "1", "--noise", "1", "--noise", "0.5"],
    ["synth", "--targets=", "--models", "4", "--seed", "1"], ["synth"],
]


class TestParserMatchesArgparse:
    """The command table is read as the argparse parser it replaced read
    the command line (``oracles.build_parser``): the same outcome (the
    arguments, a usage error or help) and, when accepted, the same handler
    and the same value for every argument."""

    @pytest.mark.parametrize("argv", FIXED_CASES, ids=repr)
    def test_fixed_cases(self, argv):
        assert_parsed_as_argparse(argv)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([[]] * 18 + [["-h"], ["--he"], ["--bogus"], ["-x"], ["--help=1"],
                                       ["--bogus", "--help"]]),
           COMMANDS.flatmap(command_lines))
    def test_drawn_argument_lists(self, before, argv):
        assert_parsed_as_argparse(before + argv)

    @pytest.mark.parametrize("argv,message", [
        (["analyze", "x.csv", "--text", "--json"],
         "argument --json: not allowed with argument --text"),
        (["synth", "--targets", "3", "--models", "few", "--seed", "1"],
         "argument --models: invalid int value: 'few'"),
        (["counts", "x.csv"], "the following arguments are required: --p, --q"),
        (["analyze", "x.csv", "y.csv"], "unrecognized arguments: y.csv"),
        (["analyze", "x.csv", "--flexibility", "--json"],
         "argument --flexibility: expected one argument"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate' "
         "(choose from 'analyze', 'hasse', 'counts', 'structure', 'synth')"),
    ])
    def test_messages_keep_argparse_wording(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["--", "analyze", "x.csv"], ["analyze", "x.csv", "-hx"], ["analyze", "-h", "--=x"],
    ])
    def test_where_argparse_versions_differ(self, argv):
        # Python 3.13 takes the first as analyze and the second as help,
        # and from 3.13.13 on the third as help; Python 3.10 to 3.12, and
        # the command table, refuse all three.
        assert parse_outcome(argv)[0] == "error"
