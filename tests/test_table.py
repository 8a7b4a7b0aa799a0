import enum
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from surmise import (
    ConceptPartition,
    EquivalenceClasses,
    Flexibility,
    FlexibilityError,
    FlexibilityFormatError,
    JudgmentTable,
    TableError,
    build_table,
    natural_key,
    natural_sorted,
    parse_csv,
)
import surmise.table as table_module
from surmise.table import (
    NamePartition, _check_names, bit_flags, or_selected, picked, transpose,
)

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
        assert table.support_masks == (1,)

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
        assert table.support_masks == (1,)

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
        assert table.support_masks == (1, 0)
        assert [type(mask) for mask in table.support_masks] == [int, int]

    def test_name_fault_reported_before_cell_fault(self):
        with pytest.raises(TableError, match="duplicate model name"):
            build_table(["a"], ["M1", "M1"], [[1], [2]])

    def test_empty_dimensions(self):
        with pytest.raises(TableError, match="no targets"):
            build_table([], ["M1"], [[]])
        with pytest.raises(TableError, match="no models"):
            build_table(["a"], [], [])

    def test_rows_of_cells_counted_against_the_models(self):
        with pytest.raises(TableError, match=r"^expected 2 rows of cells, got 1$"):
            build_table(["a"], ["M1", "M2"], [[1]])
        with pytest.raises(TableError, match=r"^expected 1 rows of cells, got 2$"):
            build_table(["a"], ["M1"], [[1], [0]])

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
        assert oracles.cells_of(table) == ((1, 0), (0, 1), (1, 0))
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
        assert calls == [("target", "columns", ("a", "b")), ("model", "rows", ("M1",))]
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

    def check_axes(target_names, model_names):
        _check_names("target", "columns", target_names)
        _check_names("model", "rows", model_names)

    assert outcome(check_axes) == outcome(oracles.check_names_reference)


class TestMasks:
    @given(st.integers(0, 2**1100))
    def test_bit_flags_are_the_bits_up_to_the_highest(self, mask):
        assert bit_flags(mask) == bytes(mask >> i & 1 for i in range(max(mask.bit_length(), 1)))

    @given(
        st.one_of(
            st.integers(0, 2**300 - 1),
            st.integers(0, 299).flatmap(
                lambda low: st.integers(0, 2 ** min(20, 300 - low) - 1).map(lambda run: run << low)
            ),
        )
    )
    def test_picked_is_compress_on_the_flags(self, mask):
        # Masks anywhere in 300 items, and runs of bits shifted up them, so
        # spans start low and high.
        items = list(range(300))
        assert list(picked(items, mask)) == oracles.bit_indices(mask)
        assert list(picked(tuple(items), mask)) == oracles.bit_indices(mask)

    @given(
        st.integers(0, 40).flatmap(
            lambda count: st.tuples(
                st.lists(st.integers(0, 2**70), min_size=count, max_size=count),
                st.lists(
                    st.one_of(st.just(0), st.integers(0, 2**count - 1)), max_size=50
                ),
            )
        )
    )
    @example(([], []))
    @example(([], [0, 0]))
    @example(([5] * 9, [0, 2**8, 2**9 - 1]))
    def test_or_selected_matches_one_or_per_bit(self, args):
        # 0-40 rows: a last block of 1-7 rows, or none, and selectors of 0.
        rows, selectors = args
        assert or_selected(rows, selectors) == oracles.or_selected_reference(rows, selectors)

    @given(st.integers(0, 40).flatmap(
        lambda count: st.lists(st.integers(0, 2**count - 1), min_size=count, max_size=count)
    ))
    def test_or_selected_with_the_rows_as_selectors(self, rows):
        assert or_selected(rows, rows) == oracles.or_selected_reference(rows, rows)

    def test_or_selected_holds_one_table_at_a_time(self):
        # 2000 rows of 2000 bits, selected by themselves: 250 tables of
        # 256 entries, about 64 KB each.  Holding them all at once peaked
        # near 20 MB; one at a time, near 2 MB.
        rng = random.Random(19)
        rows = [rng.getrandbits(2000) for _ in range(2000)]
        tracemalloc.start()
        try:
            or_selected(rows, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

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

    def test_unknown_names(self, twelve_models):
        with pytest.raises(ValueError, match="unknown target name 'x'"):
            twelve_models.target_index("x")


class TestTab:
    """Single cells of the example table, read off the support masks."""

    def test_twelve_models_m3_t2(self, twelve_models):
        assert oracles.cells_of(twelve_models)[2][2] == 1

    def test_twelve_models_m1_t2(self, twelve_models):
        assert oracles.cells_of(twelve_models)[0][2] == 0

    def test_requery_is_identical(self, twelve_models):
        first = twelve_models.support_masks[7] >> 5 & 1
        assert twelve_models.support_masks[7] >> 5 & 1 == first


class TestSupport:
    def test_twelve_models_t7_only_m12(self, twelve_models):
        assert oracles.bit_indices(twelve_models.support_masks[7]) == [11]

    def test_twelve_models_t0_all_models(self, twelve_models):
        assert oracles.bit_indices(twelve_models.support_masks[0]) == list(range(12))

    def test_all_zero_column(self):
        table = build_table(["a", "b"], ["M1", "M2"], [[1, 0], [1, 0]])
        assert table.support_masks[1] == 0 and table.support_sizes[1] == 0


class TestPairCounts:
    def test_twelve_models_t5_t6(self, twelve_models):
        assert twelve_models.pair_counts(5, 6) == (9, 0, 1, 2)

    def test_twelve_models_t6_t4(self, twelve_models):
        assert twelve_models.pair_counts(6, 4) == (6, 4, 1, 1)

    def test_diagonal(self, twelve_models):
        for j in range(twelve_models.target_count):
            n1, n2, n3, _ = twelve_models.pair_counts(j, j)
            assert n2 == 0 and n3 == 0
            assert n1 == len(oracles.bit_indices(twelve_models.support_masks[j]))

    def test_out_of_range(self, twelve_models):
        with pytest.raises(IndexError):
            twelve_models.pair_counts(0, 10)

    @given(small_tables())
    def test_counts_sum_to_model_count(self, table):
        for p in range(table.target_count):
            for q in range(table.target_count):
                assert sum(table.pair_counts(p, q)) == table.model_count

    @given(small_tables())
    def test_swapping_pair_swaps_n2_n3(self, table):
        for p in range(table.target_count):
            for q in range(table.target_count):
                n1, n2, n3, n4 = table.pair_counts(p, q)
                assert table.pair_counts(q, p) == (n1, n3, n2, n4)

    @given(small_tables(), st.randoms(use_true_random=False))
    def test_count_rows_are_the_pair_counts_of_distinct_names(self, table, rng):
        names = list(table.target_names)
        rng.shuffle(names)
        names = names[: rng.randint(0, len(names))]
        index = {name: j for j, name in enumerate(table.target_names)}
        assert list(table.count_rows(names)) == [
            (p, [(q, *table.pair_counts(index[p], index[q])) for q in names if q != p])
            for p in names
        ]

    def test_count_rows_reject_an_unknown_name(self, twelve_models):
        with pytest.raises(ValueError, match="unknown target name 'x'"):
            next(twelve_models.count_rows(["t1", "x"]))

    @given(small_tables())
    def test_support_cardinality_is_n1_plus_n2(self, table):
        cells = oracles.cells_of(table)
        for p in range(table.target_count):
            for q in range(table.target_count):
                n1, n2, _, _ = table.pair_counts(p, q)
                assert sum(row[p] for row in cells) == n1 + n2


@given(st.lists(st.lists(st.integers(0, 1), min_size=3, max_size=3), min_size=2, max_size=4))
def test_build_then_tab_round_trips(bits):
    table = build_table(
        ["x", "y", "z"], [f"M{i + 1}" for i in range(len(bits))], bits
    )
    assert oracles.cells_of(table) == tuple(map(tuple, bits))


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

    @given(
        st.lists(
            st.text(alphabet="0123456789٠١٢٣٤٥٦٧٨٩ab²", max_size=10), min_size=2, max_size=2
        )
    )
    @example(["t010", "t9"])
    @example(["a٠٣", "a3"])
    @example(["٣b", "3"])
    def test_key_orders_as_the_int_key(self, names):
        # Digit runs within int's 4300-digit limit: the same order as
        # keying each run by its int value, ties included.
        first, second = map(natural_key, names)
        expected = tuple(map(oracles.natural_name_key, names))
        assert (first < second, first == second) == (
            expected[0] < expected[1], expected[0] == expected[1]
        )

    def test_digit_runs_of_any_length(self):
        # Past 4300 digits int() refuses the run; the key compares it by
        # length and then digit by digit, leading zeros aside.
        big, bigger = "9" * 5000, "1" + "0" * 5000
        names = [f"a{bigger}", f"a{big}", "a2", f"a0{big}", "٣" * 5000, "b"]
        assert natural_sorted(names) == [
            "٣" * 5000, "a2", f"a0{big}", f"a{big}", f"a{bigger}", "b"
        ]


@pytest.mark.parametrize("cls", [EquivalenceClasses, ConceptPartition], ids=lambda c: c.__name__)
class TestPartitionChecks:
    """Every partition is checked at construction: no empty block, and
    each name in one block, once."""

    def test_empty_block(self, cls):
        with pytest.raises(ValueError, match="^partition block 0 is empty$"):
            cls(((),))
        with pytest.raises(ValueError, match="^partition block 1 is empty$"):
            cls((("a",), (), ("b",)))

    def test_name_twice_within_a_block(self, cls):
        with pytest.raises(ValueError, match=r"^partition blocks 0 and 0 both hold 'a'$"):
            cls((("a", "a", "b"), ("c",)))

    def test_name_in_two_blocks(self, cls):
        with pytest.raises(ValueError, match=r"^partition blocks 0 and 2 both hold 'b'$"):
            cls((("a", "b"), ("c",), ("b", "d")))

    def test_members_out_of_natural_order(self, cls):
        with pytest.raises(ValueError, match=r"^partition block 1 must be distinct and "
                           r"natural-sorted: 't10' before 't2'$"):
            cls((("a",), ("t10", "t2")))

    def test_labels_out_of_natural_order(self, cls):
        # Ordered by first members, but not by last: a < b while z > b.
        blocks = (("a", "z"), ("b",))
        if cls.LABEL == 0:
            assert cls(blocks).representatives == ("a", "b")
        else:
            with pytest.raises(ValueError, match=r"^partition labels must be distinct and "
                               r"natural-sorted: 'z' before 'b'$"):
                cls(blocks)
        with pytest.raises(ValueError, match=r"^partition labels must be distinct and "
                           r"natural-sorted: 'b' before 'a'$"):
            cls((("b",), ("a",)))

    def test_emptiness_and_repeats_are_named_first(self, cls):
        with pytest.raises(ValueError, match="^partition block 1 is empty$"):
            cls((("t10", "t2"), ()))
        with pytest.raises(ValueError, match=r"^partition blocks 0 and 1 both hold 'a'$"):
            cls((("b", "a"), ("a",)))

    def test_from_keys_ranks_each_name_once(self, cls, monkeypatch):
        ranked = []
        key = table_module.natural_key
        monkeypatch.setattr(table_module, "natural_key", lambda name: ranked.append(name) or key(name))
        names = ["t10", "t2", "a", "t1", "b"]
        partition = cls.from_keys(names, [0, 0, 1, 0, 1])
        assert sorted(ranked) == sorted(names)
        assert partition.blocks == (("a", "b"), ("t1", "t2", "t10"))

    def test_a_partition_passes(self, cls):
        partition = cls((("a", "b"), ("c",)))
        assert partition.representatives == (("b", "c") if cls.LABEL == -1 else ("a", "c"))
        assert cls(()).representatives == ()

    @given(st.lists(st.integers(0, 3), max_size=12))
    def test_from_keys_passes(self, cls, keys):
        names = [f"t{j}" for j in range(len(keys))]
        partition = cls.from_keys(names, keys)
        assert sorted(name for block in partition.blocks for name in block) == sorted(names)
        assert cls(partition.blocks) == partition  # in the order the constructor checks


def test_base_partition_checks_members_but_not_block_order():
    # The base class labels no block, so only its members' order is checked.
    assert NamePartition((("b",), ("a",))).blocks == (("b",), ("a",))
    with pytest.raises(ValueError, match=r"^partition block 0 must be distinct and "
                       r"natural-sorted: 'b' before 'a'$"):
        NamePartition((("b", "a"),))


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

    @given(st.text(alphabet="0123456789.-+ \t\u3000\u2009\x1c\uff11\u0665\u00b2abe", max_size=12))
    @example("-0049.99")
    @example(" -1.\t")
    @example("1.2.3")
    @example("--1")
    @example("+1")
    @example("1²")
    @example("1.00")
    @example("0" * 40 + "123.5")
    def test_parse_matches_reference(self, text):
        def outcome(parse):
            try:
                return parse(text).basis_points
            except FlexibilityError as exc:
                return type(exc), str(exc)

        assert outcome(Flexibility.parse) == outcome(oracles.flexibility_parse_reference)

    @pytest.mark.parametrize("bp", [-1, 5000, 6000])
    def test_constructor_range(self, bp):
        with pytest.raises(FlexibilityError):
            Flexibility(bp)

    @pytest.mark.parametrize("bp", [1.5, 2550.0, "2550", None])
    def test_basis_points_must_be_an_integer(self, bp):
        with pytest.raises(FlexibilityError, match=r"^basis points must be an integer, got "):
            Flexibility(bp)

    @given(st.one_of(st.integers(-10**6 + 1, -1), st.integers(5000, 10**6 - 1)))
    @example(-1)
    @example(5000)
    @example(5050)
    @example(-123456)
    def test_out_of_range_message_as_formatted_by_g(self, bp):
        # Below 10**4 % in size, ``:g`` wrote every value as a plain, exact
        # decimal, and the message built from the integer reads the same.
        with pytest.raises(FlexibilityError) as raised:
            Flexibility(bp)
        assert str(raised.value) == f"flexibility must lie in [0%, 50%), got {bp / 100:g}%"

    @pytest.mark.parametrize("digits", [309, 4301, 5000])
    def test_out_of_range_message_of_any_size(self, digits):
        # A float overflows past 10**308, and int() refuses over 4300 digits.
        whole = "1" + "0" * (digits - 1)
        for text, written in ((whole, whole), (f"-0{whole}.50", f"-{whole}.5")):
            with pytest.raises(FlexibilityError) as raised:
                Flexibility.parse(text)
            assert str(raised.value) == f"flexibility must lie in [0%, 50%), got {written}%"
        with pytest.raises(FlexibilityError) as raised:
            Flexibility(10 ** min(digits, 4000) + 1)
        assert str(raised.value).endswith("0.01%")

    @pytest.mark.parametrize("limit", [640, 4300])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_out_of_range_message_past_the_str_limit(self, sign, limit):
        # str() refuses a whole part past the limit, which the caller can
        # move; the message then gives the limit instead of the digits.
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            with pytest.raises(FlexibilityError) as raised:
                Flexibility(sign * 10 ** (limit + 2))
            minus = "-" if sign < 0 else ""
            assert str(raised.value) == (
                f"flexibility must lie in [0%, 50%), got {minus}(over {limit} digits)%"
            )
            whole = "1" + "0" * (limit - 1)  # exactly at the limit: written out
            with pytest.raises(FlexibilityError) as raised:
                Flexibility(sign * (10 ** (limit + 1) + 1))
            assert str(raised.value) == f"flexibility must lie in [0%, 50%), got {minus}{whole}.01%"
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize(
        "bp,text", [(0, "0"), (2000, "20"), (2550, "25.5"), (1999, "19.99"), (5, "0.05")]
    )
    def test_percent_text(self, bp, text):
        assert Flexibility(bp).percent_text == text

    def test_percent_text_reparses(self):
        for bp in (0, 1, 10, 99, 100, 1234, 4999):
            flex = Flexibility(bp)
            assert Flexibility.parse(flex.percent_text).basis_points == bp
