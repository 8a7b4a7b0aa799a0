import gc
import json
import random
import tracemalloc

import pytest

from surmise import (
    CsvError,
    Flexibility,
    TableError,
    analyze,
    build_table,
    csv_chunks,
    dot_chunks,
    emit_report,
    hasse_json_chunks,
    order_matrix,
    parse_csv,
    random_poset,
    sample_models,
    structure_from_table,
    structure_report,
    transitive_reduction,
)

from conftest import TWELVE_MODELS_PATH

TWELVE_MODELS_DOT = """digraph hierarchy {
  rankdir=BT;
  "t1" [label="t1 (=t0)"];
  "t2" [label="t2"];
  "t3" [label="t3"];
  "t4" [label="t4"];
  "t5" [label="t5"];
  "t6" [label="t6"];
  "t7" [label="t7"];
  "t8" [label="t8"];
  "t9" [label="t9"];
  "t1" -> "t4";
  "t1" -> "t6";
  "t2" -> "t3";
  "t2" -> "t9";
  "t3" -> "t8";
  "t4" -> "t7";
  "t4" -> "t9";
  "t5" -> "t3";
  "t5" -> "t9";
  "t6" -> "t2";
  "t6" -> "t5";
  "t8" -> "t7";
}
"""

WORKED_STRUCTURE_TEXT = """targets: a b c d e
states (6):
  {}
  {b,c}
  {a,b,c}
  {a,b,c,d}
  {a,b,c,e}
  {a,b,c,d,e}
K_a: {a,b,c} {a,b,c,d} {a,b,c,e} {a,b,c,d,e}
K_b: {b,c} {a,b,c} {a,b,c,d} {a,b,c,e} {a,b,c,d,e}
K_c: {b,c} {a,b,c} {a,b,c,d} {a,b,c,e} {a,b,c,d,e}
K_d: {a,b,c,d} {a,b,c,d,e}
K_e: {a,b,c,e} {a,b,c,d,e}
concepts: {a} {b,c} {d} {e}
discriminative: false
reduction targets: a b d e
reduction states (6):
  {}
  {b}
  {a,b}
  {a,b,d}
  {a,b,e}
  {a,b,d,e}
"""


class TestParseCsv:
    def test_minimal(self):
        table = parse_csv(b"model,t0,t1\nM1,1,0\n")
        assert table.target_names == ("t0", "t1")
        assert table.model_names == ("M1",)
        assert table.support_masks == (1, 0)

    def test_twelve_models(self):
        table = parse_csv(TWELVE_MODELS_PATH.read_bytes())
        assert table.model_count == 12
        assert table.target_count == 10

    def test_crlf_equals_lf(self):
        lf = parse_csv(b"model,a\nM1,1\nM2,0\n")
        crlf = parse_csv(b"model,a\r\nM1,1\r\nM2,0\r\n")
        assert lf == crlf

    def test_missing_trailing_newline_ok(self):
        table = parse_csv(b"model,a\nM1,1")
        assert table.support_masks == (1,)

    def test_accepts_str(self):
        table = parse_csv("model,a\nM1,1\n")
        assert table.support_masks == (1,)

    def test_bad_cell_names_location(self):
        with pytest.raises(CsvError, match=r"line 2, column 2.*'t1'.*'2'"):
            parse_csv(b"model,t0,t1\nM1,1,2\n")

    def test_ragged_row(self):
        with pytest.raises(CsvError, match=r"line 3 has 2 cells, expected 3"):
            parse_csv(b"model,a,b\nM1,1,0\nM2,1\n")

    def test_empty_input(self):
        with pytest.raises(CsvError, match="empty"):
            parse_csv(b"")
        with pytest.raises(CsvError, match="empty"):
            parse_csv(b"\n\n")

    def test_header_without_targets(self):
        with pytest.raises(CsvError, match="no targets"):
            parse_csv(b"model\nM1\n")

    def test_header_only(self):
        with pytest.raises(CsvError, match="no model rows"):
            parse_csv(b"model,a,b\n")

    def test_duplicate_target_names(self):
        with pytest.raises(TableError, match="duplicate target"):
            parse_csv(b"model,a,a\nM1,1,0\n")

    def test_duplicate_model_names(self):
        with pytest.raises(TableError, match="duplicate model"):
            parse_csv(b"model,a\nM1,1\nM1,0\n")

    def test_invalid_utf8(self):
        with pytest.raises(CsvError, match="UTF-8"):
            parse_csv(b"\xff\xfe\x00")

    def test_utf8_bom_lands_in_ignored_header_cell(self):
        table = parse_csv(b"\xef\xbb\xbfmodel,a,b\r\nM1,1,0\r\n")
        assert table.target_names == ("a", "b")
        assert table.support_masks == (1, 0)

    def test_whitespace_cell_rejected(self):
        with pytest.raises(CsvError, match="' 1'"):
            parse_csv(b"model,a\nM1, 1\n")


class TestEmitCsv:
    def test_round_trips_synthetic_table(self):
        poset = random_poset(5, 0.5, seed=17)
        table = sample_models(poset, model_count=8, seed=17)
        again = parse_csv("".join(csv_chunks(table)))
        assert again.support_masks == table.support_masks
        assert again.target_names == table.target_names
        assert again.model_names == table.model_names

    def test_canonical_file_round_trips_bytes(self):
        raw = TWELVE_MODELS_PATH.read_text()
        assert "".join(csv_chunks(parse_csv(raw))) == raw


class TestEmitDot:
    def test_twelve_models_exact_bytes(self, twelve_models):
        diagram = transitive_reduction(order_matrix(twelve_models))
        assert "".join(dot_chunks(diagram)) == TWELVE_MODELS_DOT

    def test_single_target(self):
        table = build_table(["solo"], ["M1"], [[1]])
        got = "".join(dot_chunks(transitive_reduction(order_matrix(table))))
        assert got == (
            'digraph hierarchy {\n  rankdir=BT;\n  "solo" [label="solo"];\n}\n'
        )

    def test_multi_member_label_lists_subsumed(self):
        table = build_table(
            ["a", "b", "c"], ["M1", "M2"], [[1, 1, 1], [1, 1, 0]]
        )
        got = "".join(dot_chunks(transitive_reduction(order_matrix(table))))
        assert '"b" [label="b (=a)"];' in got


class TestReports:
    def test_json_key_order_and_classes(self, twelve_models):
        report = analyze(twelve_models)
        obj = json.loads(emit_report(report, "json"))
        assert list(obj) == [
            "targets", "flexibility", "classes", "relation", "hasse", "layers",
        ]
        assert obj["classes"][0] == {
            "representative": "t1", "members": ["t0", "t1"],
        }
        assert obj["flexibility"] == {"percent": "0", "basis_points": 0}
        assert obj["layers"][0] == ["t1"]
        assert len(obj["relation"]) == 27
        assert len(obj["hasse"]) == 12

    def test_counts_key_present_only_on_request(self, twelve_models):
        plain = json.loads(emit_report(analyze(twelve_models), "json"))
        assert "counts" not in plain
        with_counts = json.loads(
            emit_report(analyze(twelve_models, include_counts=True), "json")
        )
        assert list(with_counts)[-1] == "counts"
        assert len(with_counts["counts"]) == 72  # 9 * 8 ordered pairs
        entry = next(
            c for c in with_counts["counts"] if c["p"] == "t6" and c["q"] == "t4"
        )
        assert entry == {"p": "t6", "q": "t4", "n1": 6, "n2": 4, "n3": 1, "n4": 1}

    def test_antichain_has_empty_relation(self):
        table = build_table(
            ["a", "b"], ["M1", "M2"], [[1, 0], [0, 1]]
        )
        obj = json.loads(emit_report(analyze(table), "json"))
        assert obj["relation"] == []
        assert obj["hasse"] == []
        assert obj["layers"] == [["a", "b"]]

    def test_text_format_twelve_models(self, twelve_models):
        text = emit_report(analyze(twelve_models), "text")
        assert text.startswith("targets: t0 t1 t2 t3 t4 t5 t6 t7 t8 t9\n")
        assert "flexibility: 0% (0 basis points)\n" in text
        assert "\n  t1: t0 t1\n" in text
        assert "\nrelation (27):\n" in text
        assert "\nhasse (12):\n" in text
        assert text.endswith("  5: t7\n")

    def test_same_input_identical_bytes(self, twelve_models):
        first = emit_report(analyze(twelve_models, Flexibility(2000)), "json")
        second = emit_report(analyze(twelve_models, Flexibility(2000)), "json")
        assert first == second

    def test_unknown_format_rejected(self, twelve_models):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(analyze(twelve_models), "yaml")

    def test_flexibility_echoed_as_text(self, twelve_models):
        obj = json.loads(emit_report(analyze(twelve_models, Flexibility(1999)), "json"))
        assert obj["flexibility"] == {"percent": "19.99", "basis_points": 1999}


    def test_counts_retain_no_memory_per_pair(self):
        # The counts are written from the table one row at a time, so a
        # report with them holds what one without them holds.  A record
        # per ordered pair of the ~300 classes here would be c(c-1) ~ 90k
        # objects, megabytes; the bound is a few kB, some ints per class.
        rng = random.Random(5)
        u, v = 300, 400
        rows = [[rng.getrandbits(1) for _ in range(u)] for _ in range(v)]
        table = build_table([f"t{j}" for j in range(u)], [f"m{i}" for i in range(v)], rows)
        alpha = Flexibility(1000)
        analyze(table, alpha, True)  # first-call allocations, outside the measure

        def retained(include_counts):
            gc.collect()
            tracemalloc.start()
            try:
                report = analyze(table, alpha, include_counts)
                gc.collect()
                return tracemalloc.get_traced_memory()[0], report
            finally:
                tracemalloc.stop()

        without_counts, _ = retained(False)
        with_counts, report = retained(True)
        assert len(report.order.reps) >= 250
        assert with_counts - without_counts < 16 * 1024


class TestHasseJson:
    def test_twelve_models(self, twelve_models):
        diagram = transitive_reduction(order_matrix(twelve_models))
        obj = json.loads("".join(hasse_json_chunks(diagram)))
        assert list(obj) == ["nodes", "edges", "layers"]
        assert obj["nodes"][0] == {"name": "t1", "members": ["t0", "t1"]}
        assert obj["edges"] == [list(e) for e in diagram.edges]
        assert obj["layers"] == [
            ["t1"], ["t4", "t6"], ["t2", "t5"], ["t3", "t9"], ["t8"], ["t7"],
        ]


class TestStructureReport:
    def test_worked_example_exact_bytes(self, worked_table):
        structure = structure_from_table(worked_table, complete=True)
        assert structure_report(structure) == WORKED_STRUCTURE_TEXT

    def test_uncompleted_structure(self, worked_table):
        structure = structure_from_table(worked_table, complete=False)
        text = structure_report(structure)
        assert "states (6):" in text  # worked example already holds both

    def test_target_in_no_state_renders_empty_family(self):
        table = build_table(["a", "b"], ["M1"], [[1, 0]])
        structure = structure_from_table(table, complete=False)
        text = structure_report(structure)
        assert "\nK_b:\n" in text
