import json

import pytest

from surmise import parse_csv
from surmise.cli import cli_main

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
