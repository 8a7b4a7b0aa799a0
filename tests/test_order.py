import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import surmise.order
from surmise import (
    EquivalenceClasses,
    Flexibility,
    JudgmentTable,
    OrderAxiomError,
    OrderDiagnostics,
    OrderMatrix,
    TableError,
    analyze,
    build_table,
    equivalence_classes,
    order_matrix,
    parse_csv,
    transitive_reduction,
    verify_partial_order,
)
from surmise.io import report_chunks
from surmise.table import natural_sorted, transpose
from surmise.order import (
    _check_axioms,
    _edge_holds,
    _lane_rows,
    _lane_terms,
    _lanes_win,
    _size_order_rows,
    named_rows,
)

import oracles
from conftest import DATA_DIR

ALPHA_0 = Flexibility(0)
ALPHA_20 = Flexibility(2000)

# Strict prerequisite pairs of the 12x10 example at zero flexibility,
# frozen from the support-containment oracle.
TWELVE_MODELS_RELATION_0 = {
    ("t1", "t2"), ("t1", "t3"), ("t1", "t4"), ("t1", "t5"), ("t1", "t6"),
    ("t1", "t7"), ("t1", "t8"), ("t1", "t9"),
    ("t2", "t3"), ("t2", "t7"), ("t2", "t8"), ("t2", "t9"),
    ("t3", "t7"), ("t3", "t8"),
    ("t4", "t7"), ("t4", "t9"),
    ("t5", "t3"), ("t5", "t7"), ("t5", "t8"), ("t5", "t9"),
    ("t6", "t2"), ("t6", "t3"), ("t6", "t5"), ("t6", "t7"), ("t6", "t8"),
    ("t6", "t9"),
    ("t8", "t7"),
}


class TestFlexibleLeq:
    """The threshold test for p -> q, ``_edge_holds(n2, n3, bp)``, on the
    pair's p-only (n2) and q-only (n3) model counts."""

    def test_zero_counterexamples_always_hold(self):
        assert _edge_holds(5, 0, ALPHA_0.basis_points)

    def test_boundary_holds_at_exact_threshold(self):
        # one counterexample among five splitters is exactly 20%
        assert _edge_holds(4, 1, ALPHA_20.basis_points)

    def test_boundary_fails_just_below(self):
        assert not _edge_holds(4, 1, 1999)

    def test_no_splitters_holds_both_ways(self):
        assert _edge_holds(0, 0, ALPHA_0.basis_points)
        assert _edge_holds(0, 0, 4999)

    @given(
        st.integers(0, 40),
        st.integers(0, 40),
        st.integers(0, 4999),
    )
    def test_matches_fraction_arithmetic(self, n2, n3, bp):
        expected = (
            n2 + n3 == 0 or Fraction(n3, n2 + n3) * 100 <= Fraction(bp, 100)
        )
        assert _edge_holds(n2, n3, bp) == expected


class TestEquivalenceClasses:
    def test_twelve_models_alpha0(self, twelve_models):
        classes = equivalence_classes(twelve_models)
        assert classes.blocks[0] == ("t0", "t1")
        assert classes.representatives == tuple(f"t{j}" for j in range(1, 10))

    def test_twelve_models_near_50_same_partition(self, twelve_models):
        assert (
            order_matrix(twelve_models, Flexibility(4999)).classes
            == order_matrix(twelve_models, ALPHA_0).classes
        )

    def test_distinct_columns_all_singletons(self):
        table = build_table(["a", "b", "c"], ["M1", "M2"], [[1, 0, 1], [1, 1, 0]])
        assert equivalence_classes(table).blocks == (("a",), ("b",), ("c",))

    def test_members_of_label(self, twelve_models):
        # Block i holds the members of the class labeled representatives[i].
        classes = equivalence_classes(twelve_models)
        members = dict(zip(classes.representatives, classes.blocks))
        assert members["t1"] == ("t0", "t1")
        assert "t0" not in members  # a member that labels no class

    def test_block_of(self, twelve_models):
        # A name in no block labels no class, as a non-label member does.
        classes = equivalence_classes(twelve_models)
        members = dict(zip(classes.representatives, classes.blocks))
        assert members["t2"] == ("t2",)
        assert "x" not in members

    def test_blocks_match_identical_columns_oracle(self, fuzz_corpus):
        tables = list(fuzz_corpus[:40])
        for table in tables:
            rows = [list(row) for row in oracles.cells_of(table)]
            expected = {
                frozenset(table.target_names[j] for j in block)
                for block in oracles.identical_column_blocks(rows)
            }
            got = {frozenset(block) for block in equivalence_classes(table).blocks}
            assert got == expected


class TestOrderMatrix:
    def test_twelve_models_t6_below_t5(self, twelve_models):
        matrix = order_matrix(twelve_models, ALPHA_0)
        assert oracles.order_holds(matrix, "t6", "t5")
        assert not oracles.order_holds(matrix, "t5", "t6")

    def test_twelve_models_t1_below_everything(self, twelve_models):
        matrix = order_matrix(twelve_models, ALPHA_0)
        assert all(oracles.order_holds(matrix, "t1", rep) for rep in matrix.reps)

    def test_twelve_models_full_relation(self, twelve_models):
        assert set(order_matrix(twelve_models, ALPHA_0).pairs()) == TWELVE_MODELS_RELATION_0

    def test_twelve_models_alpha20_additions(self, twelve_models):
        got = set(order_matrix(twelve_models, ALPHA_20).pairs())
        assert got == TWELVE_MODELS_RELATION_0 | {("t6", "t4"), ("t3", "t9"), ("t4", "t8")}

    def test_twelve_models_alpha_1999_additions(self, twelve_models):
        got = set(order_matrix(twelve_models, Flexibility(1999)).pairs())
        assert ("t6", "t4") not in got
        assert got == TWELVE_MODELS_RELATION_0 | {("t4", "t8")}

    def test_single_target(self):
        table = build_table(["only"], ["M1"], [[0]])
        matrix = order_matrix(table)
        assert matrix.reps == ("only",)
        assert matrix.pairs() == ()

    def test_output_always_verifies(self, fuzz_corpus):
        from conftest import FUZZ_ALPHAS

        for table in fuzz_corpus[:30]:
            for alpha in FUZZ_ALPHAS:
                assert verify_partial_order(order_matrix(table, alpha)).ok

    def test_alpha_monotonicity_sample(self, fuzz_corpus):
        from conftest import FUZZ_ALPHAS

        for table in fuzz_corpus[:30]:
            previous = None
            for alpha in FUZZ_ALPHAS:
                pairs = set(order_matrix(table, alpha).pairs())
                if previous is not None:
                    assert previous <= pairs
                previous = pairs


@pytest.mark.parametrize("char", ['"', ",", "\n", "\r", "\\", 5, None, []])
@pytest.mark.parametrize("entry", ["OrderMatrix", "from_pairs", "NamePartition"])
def test_names_entering_without_a_table_are_checked(entry, char):
    """A name that reaches a matrix or a partition without passing a
    table's check is checked where it enters, as a table checks its
    names: a quote or a backslash would break the DOT string it is
    written into, a comma or a line break a CSV line or a text row.  A
    name that is not a str is refused before the names are ranked."""
    name = f"b{char}c" if isinstance(char, str) else char
    build, kind = {
        "OrderMatrix": (lambda: OrderMatrix(("a", name), (0b01, 0b10)), "representative"),
        "from_pairs": (lambda: OrderMatrix.from_pairs(["a", name], [("a", name)]), "element"),
        "NamePartition": (lambda: EquivalenceClasses((("a",), (name,))), "member"),
    }[entry]
    with pytest.raises(TableError) as raised:
        build()
    assert str(raised.value) == (
        f"{kind} name {name!r} at position 1 contains forbidden character {char!r}"
        if isinstance(char, str) else f"{kind} name at position 1 is not a str"
    )


def test_an_unchecked_name_no_longer_reaches_dot():
    # Written into DOT it gave the line  "a"b" -> "c\";  which no reader parses.
    with pytest.raises(TableError, match="forbidden character"):
        OrderMatrix.from_pairs(['a"b', "c\\", "d\ne"], [('a"b', "c\\")])


class TestVerifyPartialOrder:
    def test_intransitive_matrix_reports_witness(self):
        matrix = OrderMatrix.from_pairs(["a", "b", "c"], [("a", "b"), ("b", "c")])
        diagnostics = verify_partial_order(matrix)
        assert diagnostics.reflexive
        assert diagnostics.antisymmetric
        assert not diagnostics.transitive
        assert diagnostics.transitivity_witness == ("a", "b", "c")
        assert "transitivity: FAIL" in diagnostics.summary()

    def test_mutual_pair_breaks_antisymmetry(self):
        matrix = OrderMatrix.from_pairs(["a", "b"], [("a", "b"), ("b", "a")])
        diagnostics = verify_partial_order(matrix)
        assert not diagnostics.antisymmetric
        assert diagnostics.antisymmetry_witness == ("a", "b")

    def test_missing_diagonal_breaks_reflexivity(self):
        matrix = OrderMatrix(reps=("a",), rows=(0b0,))
        diagnostics = verify_partial_order(matrix)
        assert not diagnostics.reflexive
        assert diagnostics.reflexivity_witness == "a"

    def test_rows_must_be_masks_over_the_reps(self):
        with pytest.raises(ValueError, match=r"^1 rows for 2 representatives$"):
            OrderMatrix(reps=("a", "b"), rows=(0b1,))
        with pytest.raises(ValueError, match=r"^row 4 is not a mask over 2 elements$"):
            OrderMatrix(reps=("a", "b"), rows=(0b01, 0b100))

    def test_reps_must_be_distinct_and_natural_sorted(self):
        # Index order is natural order, so a repeated or out-of-order
        # name is refused at construction.
        for first, second in (("b", "a"), ("a", "a"), ("t10", "t2")):
            with pytest.raises(ValueError, match=f"natural-sorted: {first!r} before {second!r}$"):
                OrderMatrix(reps=(first, second), rows=(0b01, 0b10))
        assert OrderMatrix(reps=("t2", "t10"), rows=(0b01, 0b10)).diagnostics.ok

    def test_classes_must_label_the_reps(self):
        classes = EquivalenceClasses((("x",), ("y",)))
        with pytest.raises(ValueError) as raised:
            OrderMatrix(("a", "b"), (0b11, 0b10), classes=classes)
        assert str(raised.value) == (
            "classes labeled ('x', 'y') for representatives ('a', 'b')"
        )

    def test_reps_are_checked_before_the_classes(self):
        # Given classes, the representatives are checked only when they are
        # not the classes' labels; every message is the same as without.
        classes = EquivalenceClasses((("a",), ("b",)))
        with pytest.raises(ValueError, match=r"^representatives must be distinct and "
                           r"natural-sorted: 'b' before 'a'$"):
            OrderMatrix(("b", "a"), (0b01, 0b10), classes=classes)
        with pytest.raises(ValueError, match=r"^1 rows for 2 representatives$"):
            OrderMatrix(("a", "b"), (0b01,), classes=classes)

    def test_classes_out_of_natural_order_label_no_matrix(self):
        # A class is labeled by its natural-last member: the block
        # ("t10", "t2") would draw "t2 (=t10)", so it is refused.
        with pytest.raises(ValueError, match=r"^partition block 1 must be distinct and "
                           r"natural-sorted: 't10' before 't2'$"):
            OrderMatrix(("a", "t2"), (0b01, 0b10), EquivalenceClasses((("a",), ("t10", "t2"))))

    @pytest.fixture()
    def ranked(self, monkeypatch):
        names = []
        for module in (surmise.table, surmise.order):
            if hasattr(module, "natural_key"):
                key = module.natural_key
                monkeypatch.setattr(module, "natural_key", lambda name, key=key: names.append(name) or key(name))
        return names

    def test_order_matrix_ranks_each_target_once(self, twelve_models, ranked):
        # equivalence_classes ranks every target; the matrix relies on the
        # order of its classes instead of ranking the labels again.
        matrix = order_matrix(twelve_models, ALPHA_20)
        assert len(matrix.reps) < twelve_models.target_count
        assert sorted(ranked) == sorted(twelve_models.target_names)

    def test_a_matrix_without_classes_ranks_each_rep_once(self, ranked):
        # Its singleton classes are labeled by the reps it checked.
        matrix = OrderMatrix(("t2", "t10", "t11"), (0b001, 0b010, 0b100))
        assert sorted(ranked) == ["t10", "t11", "t2"]
        assert matrix.classes.blocks == (("t2",), ("t10",), ("t11",))

    def test_from_pairs_ranks_each_element_once(self, ranked):
        # It sorts the elements once; the matrix takes the sorted names as
        # the labels of its singleton classes and does not rank them again.
        names = [f"t{k}" for k in range(40, 0, -1)]
        matrix = OrderMatrix.from_pairs(names, [("t1", "t2")])
        assert len(ranked) == len(names)
        assert matrix.reps == tuple(reversed(names))
        assert matrix.classes.blocks == tuple(zip(matrix.reps))

    def test_diagnostics_are_read_from_the_witnesses(self):
        assert OrderDiagnostics().ok
        failed = OrderDiagnostics(reflexivity_witness="a")
        assert (failed.reflexive, failed.antisymmetric, failed.transitive) == (False, True, True)
        assert not failed.ok
        assert failed.summary() == (
            "reflexivity: FAIL at 'a'; anti-symmetry: pass; transitivity: pass"
        )
        with pytest.raises(AttributeError, match="immutable"):
            failed.reflexive = True

    def test_from_pairs_rejects_repeated_element(self):
        with pytest.raises(ValueError, match="distinct"):
            OrderMatrix.from_pairs(["a", "a"], [])
        with pytest.raises(ValueError, match=r"^representatives must be distinct and "
                           r"natural-sorted: 't2' before 't2'$"):
            OrderMatrix.from_pairs(["t10", "t2", "t1", "t2"], [])

    def test_from_pairs_rejects_unknown_element(self):
        for pair, unknown in ((("a", "z"), "z"), (("z", "b"), "z"), (("y", "z"), "y")):
            with pytest.raises(ValueError) as caught:
                OrderMatrix.from_pairs(["a", "b"], [("a", "b"), pair])
            assert str(caught.value) == f"pair {pair!r} names an unknown element {unknown!r}"

    def test_trivial_matrix_passes(self):
        matrix = OrderMatrix(reps=("a",), rows=(0b1,))
        diagnostics = verify_partial_order(matrix)
        assert diagnostics.ok
        assert diagnostics.summary() == (
            "reflexivity: pass; anti-symmetry: pass; transitivity: pass"
        )

    def test_never_raises_on_garbage(self):
        matrix = OrderMatrix.from_pairs(
            ["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c")]
        )
        diagnostics = verify_partial_order(matrix)
        assert not diagnostics.ok


class TestAxiomCheckRunsOnce:
    """Each OrderMatrix scans the axioms once, at construction; order_matrix
    and transitive_reduction both raise from that one result."""

    @pytest.fixture()
    def scans(self, monkeypatch):
        calls = []
        scan = surmise.order._check_axioms

        def counted(*args):
            calls.append(args[0])
            return scan(*args)

        monkeypatch.setattr(surmise.order, "_check_axioms", counted)
        return calls

    def test_analyze_scans_once(self, twelve_models, scans):
        analyze(twelve_models, ALPHA_20)
        assert len(scans) == 1

    def test_hasse_build_scans_once(self, twelve_models, scans):
        transitive_reduction(order_matrix(twelve_models, ALPHA_20))
        assert len(scans) == 1

    def test_hand_built_matrix_scanned_at_construction_only(self, scans):
        broken = OrderMatrix.from_pairs(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert len(scans) == 1
        assert verify_partial_order(broken) is broken.diagnostics
        with pytest.raises(ValueError) as raised:
            transitive_reduction(broken)
        assert str(raised.value) == (
            "not a partial order: reflexivity: pass; anti-symmetry: pass; "
            "transitivity: FAIL at ('a', 'b', 'c')"
        )
        assert len(scans) == 1

    def test_order_matrix_raises_on_intransitive_edge_test(self, monkeypatch):
        # Supports a > b > c, one model apart, take the size-order kernel.
        # A broken kernel that keeps a -> b and b -> c but not a -> c.
        monkeypatch.setattr(
            surmise.order,
            "_size_order_rows",
            lambda masks, sizes, models, bp: [0b011, 0b110, 0b100],
        )
        table = build_table(
            ["a", "b", "c"], ["M1", "M2", "M3"], [[1, 1, 1], [1, 1, 0], [1, 0, 0]]
        )
        with pytest.raises(OrderAxiomError) as raised:
            order_matrix(table)
        assert str(raised.value) == (
            "order axioms violated on 3 representatives: reflexivity: pass; "
            "anti-symmetry: pass; transitivity: FAIL at ('a', 'b', 'c')"
        )


LIMIT_BASIS_POINTS = (0, 1, 999, 1000, 2550, 4999)


@st.composite
def kernel_tables(draw, models=st.integers(1, 10)):
    """Tables over ``models`` models (1-10 by default) whose columns include
    empty and full supports and rotations of other columns: equal support
    sizes, usually on different supports."""
    models = draw(models)
    full = (1 << models) - 1
    columns = draw(
        st.lists(
            st.one_of(st.integers(0, full), st.sampled_from((0, full))),
            min_size=1,
            max_size=8,
        )
    )
    rotations = draw(
        st.lists(
            st.tuples(st.integers(0, len(columns) - 1), st.integers(1, models)),
            max_size=4,
        )
    )
    for k, shift in rotations:
        column = columns[k]
        columns.append((column << shift | column >> (models - shift)) & full)
    return JudgmentTable(
        [f"M{i}" for i in range(models)], [f"t{j}" for j in range(len(columns))], columns
    )


def assert_rows_match_oracles(table, bp, rows):
    """``rows``, over the table's class representatives at ``bp`` basis
    points, are the plain pairwise loop's rows, and relate every two
    targets (through their representatives) exactly when the Fraction
    threshold relation does."""
    alpha = Flexibility(bp)
    assert tuple(rows) == oracles.pairwise_order_rows(table, alpha)
    classes = equivalence_classes(table)
    matrix = OrderMatrix(classes.representatives, rows, classes)
    cells = [list(row) for row in oracles.cells_of(table)]
    relation = oracles.threshold_relation(cells, Fraction(bp, 100))
    names = table.target_names
    rep_of = {name: block[-1] for block in matrix.classes.blocks for name in block}
    for p, name_p in enumerate(names):
        for q, name_q in enumerate(names):
            assert oracles.order_holds(matrix, rep_of[name_p], rep_of[name_q]) == (
                (p, q) in relation
            ), (name_p, name_q)


def kernel_input(table):
    """The support masks and sizes of the table's class representatives,
    in representative order, as the row kernels take them."""
    columns = list(map(table.target_index, equivalence_classes(table).representatives))
    return [table.support_masks[j] for j in columns], [table.support_sizes[j] for j in columns]


class TestSizeOrderKernel:
    @pytest.mark.parametrize("bp", LIMIT_BASIS_POINTS)
    def test_limits_solve_the_edge_test(self, bp):
        # (**) of _lane_terms, a*n3 + b*|S_q| <= b*|S_p|, holds iff the edge
        # test does, with n2 = n3 + d for the size gap d = |S_p| - |S_q|:
        # every n3 for small d, and for d up to 3000 the two n3 on either
        # side of the limit b*d // a that (**) sets on n3 (the test is
        # monotone in n3).  For d <= 0 and n3 >= 1 (distinct columns, S_q
        # as large as S_p) both fail.
        models = 3000
        a, b, _ = _lane_terms(models, bp)
        for d in range(-59, models + 1):
            limit = b * d // a
            for n3 in range(max(0, -d), 60) if d < 60 else (limit, limit + 1):
                size_q = n3 + d % 7  # any size with room for the n3 q-only models
                holds = a * n3 + b * size_q <= b * (size_q + d)
                assert holds == _edge_holds(n3 + d, n3, bp), (d, n3)
                assert not holds or d > 0 or n3 == 0, (d, n3)

    @settings(max_examples=300, deadline=None)
    @given(kernel_tables(), st.one_of(st.sampled_from((0, 1, 4999)), st.integers(0, 4999)))
    @example(build_table(["a", "b", "c"], ["M1"], [[1, 0, 1]]), 0)
    @example(build_table(["a", "b", "c", "d"], ["M1", "M2"], [[1, 0, 0, 1], [0, 1, 0, 1]]), 4999)
    def test_rows_match_pairwise_loop_and_threshold(self, table, bp):
        assert_rows_match_oracles(table, bp, order_matrix(table, Flexibility(bp)).rows)


KERNEL_BASIS_POINTS = (0, 1, 999, 1000, 3333, 4999)


def lane_step_models(bp):
    """The model counts on both sides of each lane-width step of the lane
    kernel at ``bp`` below 2**15 and 4000 models: for each step, the m
    with (a + b)*m just below 2**7 or 2**15, then the next m."""
    a, b, _ = _lane_terms(1, bp)
    counts = []
    for top in (1 << 7, 1 << 15):
        first_over = -(-top // (a + b))  # the least m with (a + b)*m >= top
        if 2 <= first_over <= 4000:
            counts += [first_over - 1, first_over]
    return counts


@st.composite
def kernel_cases(draw):
    """A table and a flexibility in basis points, the model count on a side
    of a lane-width step about half the time."""
    bp = draw(st.sampled_from(KERNEL_BASIS_POINTS))
    models = st.one_of(st.integers(1, 10), st.sampled_from(lane_step_models(bp)))
    return draw(kernel_tables(models)), bp


@st.composite
def few_size_tables(draw):
    """Tables over 1-10 models whose columns all hold k or k + 1 ones:
    classes that share few support sizes, so most pairs the size-order
    kernel tests are of equal size, where (**) of ``_lane_terms`` must
    reject them by itself."""
    models = draw(st.integers(1, 10))
    k = draw(st.integers(0, models))
    columns = []
    for _ in range(draw(st.integers(1, 10))):
        ones = draw(st.permutations(range(models)))[: draw(st.sampled_from((k, k + 1)))]
        columns.append(sum(1 << i for i in ones))
    return JudgmentTable(
        [f"M{i}" for i in range(models)], [f"t{j}" for j in range(len(columns))], columns
    )


# Every 3-subset of 6 models: 20 distinct columns of one size.
ALL_3_OF_6 = JudgmentTable(
    [f"M{i}" for i in range(6)],
    [f"t{j}" for j in range(20)],
    [mask for mask in range(64) if mask.bit_count() == 3],
)
ONE_MODEL = build_table(["a", "b", "c"], ["M1"], [[1, 0, 1]])
ONE_CLASS = build_table(["a"], ["M1", "M2", "M3"], [[1], [0], [1]])
IDENTICAL_COLUMNS = build_table(["a", "b", "c"], ["M1", "M2"], [[1, 1, 1], [0, 0, 0]])


class TestRowKernels:
    """Each row kernel, called directly, against the oracles, and the rule
    that picks one."""

    @pytest.mark.parametrize("bp", KERNEL_BASIS_POINTS)
    def test_lane_terms_divide_the_edge_test_and_fit_their_lanes(self, bp):
        for models in (1, 2, 40, 127, 128, 3641, 32768):
            a, b, k = _lane_terms(models, bp)
            assert gcd(a, b) == 1 and a * bp == b * (10000 - 2 * bp)
            assert k % 8 == 0 and (a + b) * models < 1 << (k - 1) <= (a + b) * models << 8

    @pytest.mark.parametrize("bp", KERNEL_BASIS_POINTS)
    def test_step_models_cross_a_lane_width_step(self, bp):
        counts = lane_step_models(bp)
        assert counts
        for below, above in zip(counts[::2], counts[1::2]):
            assert _lane_terms(below, bp)[2] < _lane_terms(above, bp)[2]

    @pytest.mark.parametrize("kernel", [_size_order_rows, _lane_rows])
    @settings(max_examples=120, deadline=None)
    @given(case=kernel_cases())
    @example(case=(ONE_MODEL, 0))
    @example(case=(ONE_MODEL, 4999))
    @example(case=(ONE_CLASS, 1000))
    @example(case=(IDENTICAL_COLUMNS, 0))
    @example(case=(IDENTICAL_COLUMNS, 3333))
    def test_rows_match_pairwise_loop_and_threshold(self, kernel, case):
        table, bp = case
        masks, sizes = kernel_input(table)
        assert_rows_match_oracles(table, bp, kernel(masks, sizes, table.model_count, bp))

    @pytest.mark.parametrize("bp", KERNEL_BASIS_POINTS)
    @settings(max_examples=40, deadline=None)
    @given(table=few_size_tables())
    @example(table=ALL_3_OF_6)
    def test_both_kernels_on_classes_of_few_sizes(self, bp, table):
        masks, sizes = kernel_input(table)
        for kernel in (_size_order_rows, _lane_rows):
            assert_rows_match_oracles(table, bp, kernel(masks, sizes, table.model_count, bp))

    @pytest.mark.parametrize("models", [32767, 32768])
    def test_both_kernels_across_the_widest_step_at_zero(self, models):
        # At 0%, a + b = 1: lanes are 16 bits up to 32767 models, 24 from 32768.
        rng = random.Random(models)
        full = (1 << models) - 1
        top = rng.getrandbits(models)
        columns = [top, top & rng.getrandbits(models), top & rng.getrandbits(models),
                   rng.getrandbits(models), 0, full, 1 << models - 1]
        table = JudgmentTable(
            [f"M{i}" for i in range(models)], [f"t{j}" for j in range(len(columns))], columns
        )
        masks, sizes = kernel_input(table)
        expected = oracles.pairwise_order_rows(table, ALPHA_0)
        for kernel in (_size_order_rows, _lane_rows):
            assert tuple(kernel(masks, sizes, models, 0)) == expected

    @pytest.mark.parametrize("bp", [0, 500, 1000])
    def test_the_rule_sends_many_classes_over_few_models_to_lanes(self, bp):
        def lanes(classes, models):
            return _lanes_win(classes, models, _lane_terms(models, bp)[2])

        assert lanes(383, 40)  # the items-wide shape
        assert lanes(3993, 300)  # 4000 x 300
        assert not lanes(40, 8000)  # the models-tall shape
        assert not lanes(1000, 1000)
        assert not lanes(3, 3)

    @pytest.mark.parametrize("bp", [0, 1000])
    def test_the_lane_golden_takes_the_lane_kernel(self, monkeypatch, bp):
        table = parse_csv((DATA_DIR / "lanes-120x16.csv").read_bytes())

        def size_order_rows(*args):
            raise AssertionError("the size-order kernel was chosen")

        monkeypatch.setattr(surmise.order, "_size_order_rows", size_order_rows)
        matrix = order_matrix(table, Flexibility(bp))
        assert len(matrix.reps) > 60
        assert matrix.rows == oracles.pairwise_order_rows(table, Flexibility(bp))


def complemented(table):
    """The table with every cell flipped: n2 and n3 of every pair swap
    places, and equal columns stay equal."""
    every_model = (1 << table.model_count) - 1
    return JudgmentTable(
        table.model_names, table.target_names, [every_model ^ m for m in table.support_masks]
    )


def remodeled(table, picks):
    """The table whose model n is ``table``'s model ``picks[n]``."""
    rows = table.row_masks
    return JudgmentTable(
        [f"M{n}" for n in range(len(picks))], table.target_names,
        transpose([rows[i] for i in picks], table.target_count),
    )


def order_by(kernel, table, bp):
    """The order matrix of ``table`` at ``bp`` basis points, its rows built
    by ``kernel``, or by the kernel ``order_matrix`` picks."""
    if kernel is order_matrix:
        return order_matrix(table, Flexibility(bp))
    classes = equivalence_classes(table)
    masks, sizes = kernel_input(table)
    return OrderMatrix(
        classes.representatives, kernel(masks, sizes, table.model_count, bp), classes
    )


@st.composite
def natural_renamings(draw, names):
    """A map from ``names`` to new names in the same natural order: "q"
    and a drawn number, increasing with the name's natural rank, so the
    new names' plain string order differs from their natural order."""
    numbers = sorted(draw(st.sets(st.integers(0, 10**6), min_size=len(names), max_size=len(names))))
    return dict(zip(natural_sorted(names), [f"q{n}" for n in numbers]))


def renamed(table, mapping):
    return JudgmentTable(
        table.model_names, [mapping[name] for name in table.target_names], table.support_masks
    )


# The kernel that builds the original order, then the one that builds the
# transformed table's: each law is a property of the order, whichever
# kernel computes either side, so a fault in one kernel breaks the mixed
# pairs even where that kernel alone would keep the law.
KERNEL_PAIRS = [
    (first, second)
    for first in (_size_order_rows, _lane_rows)
    for second in (_size_order_rows, _lane_rows)
] + [(order_matrix, order_matrix)]


@pytest.mark.parametrize(
    "first, second", KERNEL_PAIRS, ids=lambda kernel: kernel.__name__.strip("_")
)
class TestOrderSymmetries:
    """Laws of the edge test, at every flexibility.  Complementing every
    cell swaps n2 and n3 of every pair, so the order of the complement is
    the transpose of the order, and so are its covers.  The test reads
    counts of models only, so shuffling the models changes nothing, nor
    does repeating each of them three times (which scales every count
    and can move the lane width k), nor renaming the targets by a map
    that keeps their natural order."""

    @settings(max_examples=40, deadline=None)
    @given(case=kernel_cases())
    @example(case=(ONE_MODEL, 4999))
    @example(case=(IDENTICAL_COLUMNS, 3333))
    def test_complement_transposes_rows_and_covers(self, first, second, case):
        table, bp = case
        order, dual = order_by(first, table, bp), order_by(second, complemented(table), bp)
        assert dual.reps == order.reps
        assert dual.rows == transpose(order.rows, len(order.reps))
        assert dual.covers == transpose(order.covers, len(order.reps))

    @settings(max_examples=40, deadline=None)
    @given(case=kernel_cases(), rng=st.randoms(use_true_random=False))
    def test_shuffling_the_models_keeps_the_rows(self, first, second, case, rng):
        table, bp = case
        picks = list(range(table.model_count))
        rng.shuffle(picks)
        assert order_by(second, remodeled(table, picks), bp) == order_by(first, table, bp)

    @settings(max_examples=40, deadline=None)
    @given(case=kernel_cases())
    def test_repeating_every_model_keeps_the_rows(self, first, second, case):
        table, bp = case
        picks = [i for i in range(table.model_count) for _ in range(3)]
        assert order_by(second, remodeled(table, picks), bp) == order_by(first, table, bp)

    @settings(max_examples=40, deadline=None)
    @given(case=kernel_cases(), data=st.data())
    def test_renaming_by_natural_order_keeps_the_rows(self, first, second, case, data):
        table, bp = case
        mapping = data.draw(natural_renamings(table.target_names))
        order = order_by(first, table, bp)
        again = order_by(second, renamed(table, mapping), bp)
        assert again.reps == tuple(mapping[name] for name in order.reps)
        assert (again.rows, again.covers) == (order.rows, order.covers)


def rename_strings(value, mapping):
    """``value``, a parsed JSON document, with every string in ``mapping``
    replaced."""
    if isinstance(value, dict):
        return {key: rename_strings(item, mapping) for key, item in value.items()}
    if isinstance(value, list):
        return [rename_strings(item, mapping) for item in value]
    return mapping.get(value, value) if isinstance(value, str) else value


@settings(max_examples=60, deadline=None)
@given(case=kernel_cases(), counts=st.booleans(), data=st.data())
def test_renamed_report_is_the_report_with_the_names_replaced(case, counts, data):
    table, bp = case
    mapping = data.draw(natural_renamings(table.target_names))
    alpha = Flexibility(bp)

    def report(table):
        return json.loads("".join(report_chunks(analyze(table, alpha, counts))))

    assert report(renamed(table, mapping)) == rename_strings(report(table), mapping)


@st.composite
def partial_orders(draw, max_size=9, thinning=0):
    """Row masks of a random partial order on 0-``max_size`` nodes,
    reflexive, with the nodes shuffled so the order is not the index
    order.  Each drawn upward row is ANDed with up to ``thinning`` more
    random masks, so orders on many nodes need not close into a chain."""
    size = draw(st.integers(0, max_size))
    masks = st.integers(0, (1 << size) - 1)
    upward = []
    for i in range(size):
        row = draw(masks)
        for _ in range(draw(st.integers(0, thinning)) if thinning else 0):
            row &= draw(masks)
        upward.append(row >> (i + 1) << (i + 1))
    place = draw(st.permutations(range(size)))
    rows = [0] * size
    grid = [[row >> j & 1 for j in range(size)] for row in upward]
    for i, row in enumerate(map(oracles.pack_bits, oracles.transitive_closure_reference(grid))):
        rows[place[i]] = sum(1 << place[j] for j in oracles.bit_indices(row | 1 << i))
    return tuple(rows)


@st.composite
def relations(draw, max_size=8, thinning=0):
    """Hand-built relations: arbitrary row masks (mostly non-reflexive,
    cyclic and intransitive), or a partial order with a few bits flipped."""
    if draw(st.booleans()):
        size = draw(st.integers(0, max_size))
        rows = draw(st.lists(st.integers(0, (1 << size) - 1), min_size=size, max_size=size))
        return tuple(rows)
    rows = list(draw(partial_orders(max_size + 1, thinning)))
    if rows:
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(rows) - 1))
            rows[i] ^= 1 << draw(st.integers(0, len(rows) - 1))
    return tuple(rows)


def node_names(size: int) -> tuple[str, ...]:
    return tuple(f"n{k}" for k in range(size))


def longest_path_layer_masks(names, rows) -> tuple[int, ...]:
    """The layer masks of a partial order by ``oracles.longest_path_layers``
    over its strict pairs (a longest path takes covering edges only): bit
    i of mask k is node i, whose longest chain below has k edges."""
    strict = {
        (names[i], names[j]) for i, row in enumerate(rows) for j in oracles.bit_indices(row) if j != i
    }
    level = oracles.longest_path_layers(names, strict)
    masks = [0] * (max(level.values(), default=-1) + 1)
    for i, name in enumerate(names):
        masks[level[name]] |= 1 << i
    return tuple(masks)


class TestFusedAxiomCheck:
    @settings(max_examples=400, deadline=None)
    @given(relations())
    @example((0b110, 0b100, 0b100))  # intransitive, not reflexive
    @example((0b011, 0b011))  # a 2-cycle
    @example((0b011, 0b110, 0b100))  # a -> b -> c without a -> c
    def test_diagnostics_match_reference_scan(self, rows):
        names = node_names(len(rows))
        diagnostics, _, layers = _check_axioms(names, rows)
        assert diagnostics == oracles.check_axioms_reference(names, rows)
        assert OrderMatrix(reps=names, rows=rows).diagnostics == diagnostics
        assert layers == (longest_path_layer_masks(names, rows) if diagnostics.ok else None)

    @settings(max_examples=300, deadline=None)
    @given(partial_orders())
    def test_covers_match_reference_loop_on_partial_orders(self, rows):
        matrix = OrderMatrix(reps=node_names(len(rows)), rows=rows)
        assert matrix.diagnostics.ok
        assert list(matrix.covers) == oracles.covering_masks_reference(matrix.strict_rows)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(relations(max_size=40, thinning=3), partial_orders(40, thinning=3)))
    @example(tuple(1 << i for i in range(17)))  # an antichain: three blocks of 8
    @example(tuple((1 << 17) - (1 << i) for i in range(17)))  # a chain
    @example(tuple((1 << 17) - (1 << i) for i in range(16)) + (1 << 15,))  # a 2-cycle at 15, 16
    def test_pass_matches_the_loop_it_replaced(self, rows):
        # Up to 41 nodes, so the covers cross the 8-row blocks of the OR
        # tables, and a last block of 1-7 rows is read; on corrupted
        # relations too, where every witness and the covers must agree.
        names = node_names(len(rows))
        diagnostics, covers, layers = _check_axioms(names, rows)
        assert (diagnostics, covers) == oracles.check_axioms_loop_reference(names, rows)
        assert layers == (longest_path_layer_masks(names, rows) if diagnostics.ok else None)

    def test_a_non_order_gets_no_layer_masks(self):
        two_cycle = OrderMatrix.from_pairs(["b", "a"], [("a", "b"), ("b", "a")])
        assert not two_cycle.diagnostics.ok
        assert two_cycle.layers is None
        assert _check_axioms(("a", "b"), (0b11, 0b11))[2] is None

    def test_layer_masks_of_a_verified_order(self):
        # a < b < d and a < c: d has a longest chain of two edges below it.
        matrix = OrderMatrix.from_pairs(
            ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d"), ("b", "d")]
        )
        assert matrix.layers == (0b0001, 0b0110, 0b1000)
        assert OrderMatrix((), ()).layers == ()


@given(st.integers(0, 40).flatmap(
    lambda size: st.lists(st.integers(0, 2**size - 1), min_size=size, max_size=size)
))
def test_named_rows_match_the_index_list_walker(masks):
    names = node_names(len(masks))
    assert list(named_rows(names, masks)) == list(oracles.named_rows_reference(names, masks))
