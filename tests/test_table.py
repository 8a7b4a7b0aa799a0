import enum

import pytest
from hypothesis import given, strategies as st

from surmise import (
    Flexibility,
    FlexibilityError,
    FlexibilityFormatError,
    JudgmentTable,
    PairCounts,
    TableError,
    build_table,
    natural_key,
    natural_sorted,
    parse_csv,
)
from surmise.table import _check_names, bit_indices, transpose

import oracles


def small_tables(max_targets=5, max_models=6):
    def build(dims_and_bits):
        (u, v), bits = dims_and_bits
        return build_table(
            [f"t{j}" for j in range(u)],
            [f"M{i + 1}" for i in range(v)],
            bits,
        )

    dims = st.tuples(
        st.integers(1, max_targets), st.integers(1, max_models)
    ).flatmap(
        lambda uv: st.tuples(
            st.just(uv),
            st.lists(
                st.lists(st.integers(0, 1), min_size=uv[0], max_size=uv[0]),
                min_size=uv[1],
                max_size=uv[1],
            ),
        )
    )
    return dims.map(build)


class TestBuildTable:
    def test_minimal_one_by_one(self):
        table = build_table(["t0"], ["M1"], [[1]])
        assert table.target_count == 1
        assert table.model_count == 1
        assert table.tab(0, 0) == 1

    def test_twelve_models_dimensions(self, twelve_models):
        assert twelve_models.model_count == 12
        assert twelve_models.target_count == 10
        assert twelve_models.target_names == tuple(f"t{j}" for j in range(10))

    def test_duplicate_target_name(self):
        with pytest.raises(TableError, match=r"duplicate target name 'a'.*0 and 1"):
            build_table(["a", "a"], ["M1"], [[1, 0]])

    def test_duplicate_model_name(self):
        with pytest.raises(TableError, match=r"duplicate model name 'M1'"):
            build_table(["a"], ["M1", "M1"], [[1], [0]])

    def test_non_binary_cell(self):
        with pytest.raises(TableError, match=r"row 1.*column 0.*2"):
            build_table(["a"], ["M1", "M2"], [[1], [2]])

    def test_bool_cells_accepted(self):
        table = build_table(["a"], ["M1"], [[True]])
        assert table.tab(0, 0) == 1

    @pytest.mark.parametrize("cell", [1.0, 0.0, "1", None, 2, -1, 256])
    def test_cell_of_wrong_type_or_value_named(self, cell):
        with pytest.raises(TableError) as raised:
            build_table(["a", "b"], ["M1", "M2"], [[0, 1], [1, cell]])
        assert str(raised.value) == (
            f"cell at row 1 (model 'M2'), column 1 (target 'b') is {cell!r}, not 0 or 1"
        )

    def test_int_subclass_cells_stored_as_plain_ints(self):
        class Bit(enum.IntEnum):
            OFF = 0
            ON = 1

        table = build_table(["a", "b"], ["M1"], [[Bit.ON, False]])
        assert table.cells == ((1, 0),)
        assert [type(c) for c in table.cells[0]] == [int, int]

    def test_name_fault_reported_before_cell_fault(self):
        with pytest.raises(TableError, match="duplicate model name"):
            build_table(["a"], ["M1", "M1"], [[1], [2]])

    def test_empty_dimensions(self):
        with pytest.raises(TableError, match="no targets"):
            build_table([], ["M1"], [[]])
        with pytest.raises(TableError, match="no models"):
            build_table(["a"], [], [])

    def test_ragged_rows(self):
        with pytest.raises(TableError, match=r"row 1.*1 cells.*expected 2"):
            build_table(["a", "b"], ["M1", "M2"], [[1, 0], [1]])

    def test_forbidden_name_characters(self):
        with pytest.raises(TableError, match="forbidden"):
            build_table(['a"b'], ["M1"], [[1]])
        with pytest.raises(TableError, match="forbidden"):
            build_table(["a"], ["M,1"], [[1]])

    def test_empty_name(self):
        with pytest.raises(TableError, match="empty"):
            build_table([""], ["M1"], [[1]])

    def test_line_breaks_in_names_forbidden(self):
        # emit_csv of such a table would not parse back.
        with pytest.raises(TableError) as raised:
            build_table(["a", "b\nc"], ["M1"], [[1, 0]])
        assert str(raised.value) == (
            "target name 'b\\nc' at position 1 contains forbidden character '\\n'"
        )
        with pytest.raises(TableError) as raised:
            build_table(["a"], ["M1", "M2\r"], [[1], [0]])
        assert str(raised.value) == (
            "model name 'M2\\r' at position 1 contains forbidden character '\\r'"
        )


    def test_backslash_in_names_forbidden(self):
        # In DOT, "a\" would not end the quoted string "a\".
        with pytest.raises(TableError) as raised:
            build_table(["a\\", "b"], ["M1"], [[1, 0]])
        assert str(raised.value) == (
            "target name 'a\\\\' at position 0 contains forbidden character '\\\\'"
        )


class TestConstruction:
    """A hand-built table is checked once, at construction, as parsed and
    built ones are: names first, then one mask per target, each a mask
    over the models."""

    def test_masks_are_the_columns(self):
        table = JudgmentTable(("a", "b", "c"), ("x", "y"), (0b101, 0b010))
        assert table.row_masks == (0b01, 0b10, 0b01)
        assert table.cells == ((1, 0), (0, 1), (1, 0))
        assert [table.tab(i, j) for i in range(3) for j in range(2)] == [1, 0, 0, 1, 1, 0]
        assert table.support_sizes == (2, 1)

    def test_list_arguments_are_stored_as_tuples(self):
        table = JudgmentTable(["M1"], ["a"], [1])
        assert (table.model_names, table.target_names, table.support_masks) == (
            ("M1",), ("a",), (1,)
        )
        parsed = parse_csv(b"model,a\nM1,1\n")
        assert table == parsed and hash(table) == hash(parsed)

    def test_too_few_masks(self):
        with pytest.raises(TableError) as raised:
            JudgmentTable(("a", "b"), ("x", "y"), (1,))
        assert str(raised.value) == "1 support masks for 2 targets"

    def test_too_many_masks(self):
        with pytest.raises(TableError) as raised:
            JudgmentTable(("a", "b"), ("x", "y"), (1, 2, 3))
        assert str(raised.value) == "3 support masks for 2 targets"

    @pytest.mark.parametrize("mask", [4, 7, -1, 1 << 70])
    def test_mask_beyond_the_models(self, mask):
        with pytest.raises(ValueError) as raised:
            JudgmentTable(("a", "b"), ("x", "y"), (1, mask))
        assert str(raised.value) == f"support mask {mask} is not a mask over 2 elements"

    @pytest.mark.parametrize("mask", [1.0, "1", None])
    def test_mask_not_an_int(self, mask):
        with pytest.raises(TypeError) as raised:
            JudgmentTable(("a", "b"), ("x", "y"), (1, mask))
        assert str(raised.value) == (
            f"support mask {mask!r} is not an int: support masks are int masks"
        )

    def test_duplicate_target_names(self):
        with pytest.raises(TableError) as raised:
            JudgmentTable(("a", "b"), ("x", "x"), (1, 2))
        assert str(raised.value) == "duplicate target name 'x' (columns 0 and 1)"

    def test_bad_model_names(self):
        with pytest.raises(TableError) as raised:
            JudgmentTable(("a", ""), ("x",), (1,))
        assert str(raised.value) == "model name at position 1 is empty"
        with pytest.raises(TableError) as raised:
            JudgmentTable(("a", 'b"'), ("x",), (1,))
        assert str(raised.value) == (
            "model name 'b\"' at position 1 contains forbidden character '\"'"
        )

    def test_name_fault_reported_before_mask_fault(self):
        with pytest.raises(TableError, match="duplicate model name 'a'"):
            JudgmentTable(("a", "a"), ("x",), (1, 2))

    def test_build_table_checks_names_once_before_cells(self, monkeypatch):
        import surmise.table

        calls = []
        check = surmise.table._check_names
        monkeypatch.setattr(
            surmise.table, "_check_names", lambda *names: calls.append(names) or check(*names)
        )
        build_table(["a", "b"], ["M1"], [[1, 0]])
        assert len(calls) == 1
        with pytest.raises(TableError, match="duplicate target"):
            build_table(["a", "a"], ["M1", "M2"], [[1, 0]])


NAMES = st.lists(
    st.one_of(
        st.sampled_from(["", "a", "b", "a\\", 'x"', "m,1", "t\r", "\n", "é"]),
        st.text(alphabet='ab\r\n\\",', max_size=3),
        st.none(),
    ),
    max_size=6,
)


@given(NAMES, NAMES)
def test_check_names_matches_reference(target_names, model_names):
    """The all-at-once acceptance of ``_check_names`` agrees with one
    located scan of every name."""

    def outcome(check):
        try:
            check(target_names, model_names)
        except TableError as exc:
            return str(exc)
        return None

    assert outcome(_check_names) == outcome(oracles.check_names_reference)


class TestMasks:
    @given(st.integers(0, 2**1100))
    def test_bit_indices_matches_bit_scan(self, mask):
        assert bit_indices(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]

    @given(st.integers(0, 12).flatmap(
        lambda width: st.tuples(
            st.just(width), st.lists(st.integers(0, 2**width - 1), max_size=20)
        )
    ))
    def test_transpose_matches_nested_loop(self, args):
        width, masks = args
        expected = tuple(
            sum((mask >> j & 1) << i for i, mask in enumerate(masks)) for j in range(width)
        )
        assert transpose(masks, width) == expected
        assert transpose(expected, len(masks)) == tuple(masks)


class TestNameLookup:
    def test_known_names(self, twelve_models):
        assert twelve_models.target_index("t7") == 7
        assert twelve_models.model_index("M12") == 11

    def test_unknown_names(self, twelve_models):
        with pytest.raises(ValueError, match="unknown target name 'x'"):
            twelve_models.target_index("x")
        with pytest.raises(ValueError, match="unknown model name 'x'"):
            twelve_models.model_index("x")


class TestTab:
    def test_twelve_models_m3_t2(self, twelve_models):
        assert twelve_models.tab(2, 2) == 1

    def test_twelve_models_m1_t2(self, twelve_models):
        assert twelve_models.tab(0, 2) == 0

    def test_requery_is_identical(self, twelve_models):
        first = twelve_models.tab(5, 7)
        assert twelve_models.tab(5, 7) == first

    def test_out_of_range(self, twelve_models):
        with pytest.raises(IndexError):
            twelve_models.tab(12, 0)
        with pytest.raises(IndexError):
            twelve_models.tab(0, 10)
        with pytest.raises(IndexError):
            twelve_models.tab(-1, 0)


class TestSupport:
    def test_twelve_models_t7_only_m12(self, twelve_models):
        assert twelve_models.support(7) == frozenset({11})

    def test_twelve_models_t0_all_models(self, twelve_models):
        assert twelve_models.support(0) == frozenset(range(12))

    def test_all_zero_column(self):
        table = build_table(["a", "b"], ["M1", "M2"], [[1, 0], [1, 0]])
        assert table.support(1) == frozenset()

    def test_out_of_range(self, twelve_models):
        with pytest.raises(IndexError):
            twelve_models.support(10)


class TestPairCounts:
    def test_twelve_models_t5_t6(self, twelve_models):
        assert twelve_models.pair_counts(5, 6) == PairCounts(9, 0, 1, 2)

    def test_twelve_models_t6_t4(self, twelve_models):
        assert twelve_models.pair_counts(6, 4) == PairCounts(6, 4, 1, 1)

    def test_diagonal(self, twelve_models):
        for j in range(twelve_models.target_count):
            counts = twelve_models.pair_counts(j, j)
            assert counts.n2 == 0 and counts.n3 == 0
            assert counts.n1 == len(twelve_models.support(j))

    def test_out_of_range(self, twelve_models):
        with pytest.raises(IndexError):
            twelve_models.pair_counts(0, 10)

    @given(small_tables())
    def test_counts_sum_to_model_count(self, table):
        for p in range(table.target_count):
            for q in range(table.target_count):
                assert table.pair_counts(p, q).total == table.model_count

    @given(small_tables())
    def test_swapping_pair_swaps_n2_n3(self, table):
        for p in range(table.target_count):
            for q in range(table.target_count):
                forward = table.pair_counts(p, q)
                backward = table.pair_counts(q, p)
                assert (forward.n1, forward.n4) == (backward.n1, backward.n4)
                assert (forward.n2, forward.n3) == (backward.n3, backward.n2)

    @given(small_tables())
    def test_support_cardinality_is_n1_plus_n2(self, table):
        for p in range(table.target_count):
            for q in range(table.target_count):
                counts = table.pair_counts(p, q)
                assert len(table.support(p)) == counts.n1 + counts.n2


@given(st.lists(st.lists(st.integers(0, 1), min_size=3, max_size=3), min_size=2, max_size=4))
def test_build_then_tab_round_trips(bits):
    table = build_table(
        ["x", "y", "z"], [f"M{i + 1}" for i in range(len(bits))], bits
    )
    for i, row in enumerate(bits):
        for j, bit in enumerate(row):
            assert table.tab(i, j) == bit


class TestNaturalOrder:
    def test_digit_runs_sort_numerically(self):
        assert natural_sorted(["t10", "t2", "t1"]) == ["t1", "t2", "t10"]

    def test_mixed_runs(self):
        assert natural_sorted(["a10b", "a2b", "a2a"]) == ["a2a", "a2b", "a10b"]

    def test_leading_zero_tiebreak_is_stable(self):
        once = natural_sorted(["t1", "t01"])
        again = natural_sorted(["t01", "t1"])
        assert once == again == ["t01", "t1"]

    def test_key_orders_t0_before_t1(self):
        assert natural_key("t0") < natural_key("t1")


class TestFlexibility:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", 0), ("20", 2000), ("25.5", 2550), ("19.99", 1999), ("49.99", 4999),
            (" \t10 ", 1000),
        ],
    )
    def test_parse(self, text, expected):
        assert Flexibility.parse(text).basis_points == expected

    @pytest.mark.parametrize("text", ["50", "50.00", "100", "-1", "1.234", "abc", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(FlexibilityError):
            Flexibility.parse(text)

    @pytest.mark.parametrize(
        "text,not_a_number",
        [
            ("abc", True), ("", True), ("1.", True), ("１０", True), ("١٠", True),
            ("1.٥", True), ("\u300010", True), ("10\u2009", True), ("\x1c10", True),
            ("50", False), ("-1", False), ("1.234", False),
        ],
    )
    def test_parse_tells_format_from_range(self, text, not_a_number):
        with pytest.raises(FlexibilityError) as caught:
            Flexibility.parse(text)
        assert isinstance(caught.value, FlexibilityFormatError) == not_a_number

    @pytest.mark.parametrize("bp", [-1, 5000, 6000])
    def test_constructor_range(self, bp):
        with pytest.raises(FlexibilityError):
            Flexibility(bp)

    @pytest.mark.parametrize(
        "bp,text", [(0, "0"), (2000, "20"), (2550, "25.5"), (1999, "19.99"), (5, "0.05")]
    )
    def test_percent_text(self, bp, text):
        assert Flexibility(bp).percent_text == text

    def test_percent_text_reparses(self):
        for bp in (0, 1, 10, 99, 100, 1234, 4999):
            flex = Flexibility(bp)
            assert Flexibility.parse(flex.percent_text).basis_points == bp
