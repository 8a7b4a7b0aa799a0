import random
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from surmise import (
    KnowledgeStructure,
    TableError,
    build_table,
    discriminative_reduction,
    equally_informative,
    equivalence_classes,
    structure_from_table,
    structure_report,
    surmise_from_structure,
)

import oracles
from test_bitset import latent_rows

GROUND = ("a", "b", "c", "d", "e")
WORKED_STATES = (
    frozenset(),
    frozenset({"b", "c"}),
    frozenset({"a", "b", "c"}),
    frozenset({"a", "b", "c", "d"}),
    frozenset({"a", "b", "c", "e"}),
    frozenset({"a", "b", "c", "d", "e"}),
)

# All prerequisite pairs of the worked five-item example beyond the
# reflexive ones: b and c sit below everything, a below d and e.
WORKED_SURMISE = {
    ("b", "a"), ("c", "a"),
    ("b", "c"), ("c", "b"),
    ("a", "d"), ("b", "d"), ("c", "d"),
    ("a", "e"), ("b", "e"), ("c", "e"),
}


def make_structure(ground, state_names):
    index = {name: j for j, name in enumerate(ground)}
    states = frozenset(
        sum(1 << index[n] for n in names) for names in state_names
    )
    return KnowledgeStructure(ground=tuple(ground), states=states)


def report_line(structure, label):
    """The line of the structure report that starts with ``label``, such
    as "K_d:" (the states that contain d) or "discriminative:"."""
    return next(
        line for line in structure_report(structure).splitlines()
        if line.split(" ")[0] == label
    )


def is_discriminative(structure):
    """The report's flag: no two distinct targets are equally informative."""
    return report_line(structure, "discriminative:") == "discriminative: true"


@pytest.fixture()
def worked():
    return make_structure(GROUND, WORKED_STATES)


def structures(max_ground=6):
    """Random structures as bitmask families over a small ground."""

    def build(args):
        size, masks = args
        ground = tuple(f"q{j}" for j in range(size))
        states = frozenset(masks)
        return KnowledgeStructure(ground=ground, states=states)

    return st.integers(1, max_ground).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.lists(st.integers(0, 2**size - 1), min_size=1, max_size=12),
        )
    ).map(build)


class TestStructureFromTable:
    def test_twelve_models_complete_has_14_states(self, twelve_models):
        structure = structure_from_table(twelve_models, complete=True)
        assert len(structure.states) == 14
        assert 0 in structure.states
        assert (1 << len(structure.ground)) - 1 in structure.states
        assert structure.completed

    def test_twelve_models_rows_are_distinct(self, twelve_models):
        structure = structure_from_table(twelve_models, complete=False)
        assert len(structure.states) == 12

    def test_single_all_correct_model(self):
        table = build_table(["a", "b"], ["M1"], [[1, 1]])
        structure = structure_from_table(table, complete=True)
        assert structure.states == frozenset({0b00, 0b11})

    def test_identical_rows_deduplicate(self):
        table = build_table(["a", "b"], ["M1", "M2"], [[1, 0], [1, 0]])
        structure = structure_from_table(table, complete=False)
        assert structure.states == frozenset({0b01})

    def test_state_outside_ground_rejected(self):
        with pytest.raises(ValueError, match=r"^state 4 is not a mask over 2 elements$"):
            KnowledgeStructure(ground=("a", "b"), states=frozenset({0b01, 0b100}))
        with pytest.raises(ValueError, match=r"^state -1 is not a mask over 2 elements$"):
            KnowledgeStructure(ground=("a", "b"), states=frozenset({-1}))

    @pytest.mark.parametrize(
        "ground,message",
        [
            (("a,b", "c"), "ground name 'a,b' at position 0 contains forbidden character ','"),
            (("a", "b\nc"), "ground name 'b\\nc' at position 1 contains forbidden character '\\n'"),
            (("a", ""), "ground name at position 1 is empty"),
        ],
    )
    def test_ground_names_obey_the_target_name_rules(self, ground, message):
        """A comma or a line break in a ground name would make the
        rendered states ambiguous ("K_a,b:", a state line split in two)."""
        with pytest.raises(TableError) as raised:
            KnowledgeStructure(ground=ground, states=frozenset({0, 0b01, 0b11}))
        assert str(raised.value) == message

    def test_duplicate_ground_name_rejected(self):
        with pytest.raises(TableError, match=r"^duplicate ground name 'a' \(positions 0 and 2\)$"):
            KnowledgeStructure(ground=("a", "b", "a"), states=frozenset({0}))

    def test_set_state_rejected_by_name(self):
        with pytest.raises(
            TypeError, match=r"^state frozenset\(\{0\}\) is not an int: states are int masks$"
        ):
            KnowledgeStructure(ground=("a", "b"), states=frozenset({frozenset({0})}))

    @given(structures())
    @example(KnowledgeStructure(ground=("a",), states=frozenset({0b1})))
    @example(KnowledgeStructure(ground=("a", "b"), states=frozenset({0, 0b11})))
    def test_completed_flag_requires_both_states(self, structure):
        # ``completed`` is read from the states: true exactly when the empty
        # and the full state are among them, and kept by the reduction.
        full = (1 << len(structure.ground)) - 1
        assert structure.completed == (0 in structure.states and full in structure.states)
        assert discriminative_reduction(structure).completed == structure.completed


class TestStatesContaining:
    """The subfamily of states that contain a target, as the structure
    report's ``K_<target>`` line lists it."""

    def test_worked_d(self, worked):
        assert report_line(worked, "K_d:") == "K_d: {a,b,c,d} {a,b,c,d,e}"

    def test_worked_b_has_five_states(self, worked):
        assert report_line(worked, "K_b:") == (
            "K_b: {b,c} {a,b,c} {a,b,c,d} {a,b,c,e} {a,b,c,d,e}"
        )

    def test_target_in_no_state(self):
        structure = make_structure(("a", "b"), [frozenset({"a"})])
        assert report_line(structure, "K_b:") == "K_b:"

    def test_unknown_target(self, worked):
        # One family per ground target, in ground order, and none else.
        lines = structure_report(worked).splitlines()
        labels = [line.split(" ")[0] for line in lines if line.startswith("K_")]
        assert labels == [f"K_{name}:" for name in GROUND]
        assert "K_z:" not in labels


class TestSurmise:
    def test_worked_example_pairs(self, worked):
        relation = surmise_from_structure(worked)
        reflexive = {(n, n) for n in GROUND}
        assert relation == frozenset(WORKED_SURMISE | reflexive)

    def test_two_state_structure_orders_everything(self):
        structure = make_structure(("x", "y"), [frozenset(), frozenset({"x", "y"})])
        relation = surmise_from_structure(structure)
        assert relation == frozenset(
            {(p, q) for p in ("x", "y") for q in ("x", "y")}
        )

    def test_power_set_gives_only_reflexive_pairs(self):
        ground = ("a", "b", "c", "d")
        all_subsets = [
            frozenset(combo)
            for size in range(5)
            for combo in combinations(ground, size)
        ]
        structure = make_structure(ground, all_subsets)
        relation = surmise_from_structure(structure)
        assert relation == frozenset({(n, n) for n in ground})

    @given(structures())
    def test_quasi_order_axioms(self, structure):
        relation = surmise_from_structure(structure)
        for name in structure.ground:
            assert (name, name) in relation
        for p, q in relation:
            for q2, r in relation:
                if q == q2:
                    assert (p, r) in relation

    @given(structures(max_ground=5))
    def test_completion_leaves_surmise_unchanged(self, structure):
        completed = KnowledgeStructure(
            ground=structure.ground,
            states=structure.states | {0, (1 << len(structure.ground)) - 1},
        )
        assert surmise_from_structure(structure) == surmise_from_structure(completed)


@given(structures())
@example(KnowledgeStructure(ground=("q0", "q1"), states=frozenset()))
def test_mask_derivations_match_set_references(structure):
    ground = structure.ground
    sets = oracles.state_sets(structure.states)
    assert surmise_from_structure(structure) == oracles.surmise_reference(ground, sets)
    assert [list(block) for block in equally_informative(structure).blocks] == (
        oracles.concept_blocks_reference(ground, sets)
    )


class TestEquallyInformative:
    def test_worked_blocks(self, worked):
        partition = equally_informative(worked)
        assert partition.blocks == (("a",), ("b", "c"), ("d",), ("e",))
        assert partition.representatives == ("a", "b", "d", "e")

    def test_twelve_models_blocks(self, twelve_models):
        partition = equally_informative(structure_from_table(twelve_models))
        assert ("t0", "t1") in partition.blocks
        assert all(len(b) == 1 for b in partition.blocks if "t0" not in b)

    def test_distinct_columns_all_singletons(self):
        table = build_table(["a", "b"], ["M1", "M2"], [[1, 0], [1, 1]])
        partition = equally_informative(structure_from_table(table))
        assert partition.blocks == (("a",), ("b",))

    def test_representative_of(self, worked):
        # A concept is written by its first member, in natural order.
        partition = equally_informative(worked)
        concept_of = dict(zip(partition.representatives, partition.blocks))
        assert concept_of["b"] == ("b", "c")
        assert "c" not in concept_of and "zz" not in concept_of


class TestDiscriminativeReduction:
    @given(structures(max_ground=8))
    @example(KnowledgeStructure(ground=("q0", "q1"), states=frozenset()))
    @example(make_structure(("t10", "t2", "a"), [frozenset(), frozenset({"t10", "t2"})]))
    def test_matches_reference(self, structure):
        # The reduction finds its own concepts: it matches the set-based
        # reference, keeps ``completed``, and returns a discriminative
        # structure equal to itself.
        sets = oracles.state_sets(structure.states)
        new_ground, new_states = oracles.reduction_reference(structure.ground, sets)
        reduced = discriminative_reduction(structure)
        assert reduced.ground == new_ground
        assert reduced.states == oracles.state_masks(new_states)
        assert reduced.completed == structure.completed
        if new_ground == structure.ground:
            assert reduced == structure

    def test_worked_reduction(self, worked):
        reduced = discriminative_reduction(worked)
        assert reduced.ground == ("a", "b", "d", "e")
        index = {name: j for j, name in enumerate(reduced.ground)}

        def state(names):
            return sum(1 << index[n] for n in names)

        assert reduced.states == frozenset(
            {
                state(()),
                state(("b",)),
                state(("a", "b")),
                state(("a", "b", "d")),
                state(("a", "b", "e")),
                state(("a", "b", "d", "e")),
            }
        )

    @given(structures())
    @example(make_structure(("a", "b"), [frozenset(), frozenset({"a"}), frozenset({"a", "b"})]))
    def test_already_discriminative_is_isomorphic(self, structure):
        # A structure that is not discriminative is replaced by its
        # reduction, which is; the report reuses a discriminative
        # structure's own states as its reduction's on this identity.
        if len(equally_informative(structure).blocks) != len(structure.ground):
            structure = discriminative_reduction(structure)
        reduced = discriminative_reduction(structure)
        assert reduced.ground == structure.ground
        assert len(reduced.states) == len(structure.states)
        assert reduced == structure

    def test_two_target_collapse(self):
        structure = make_structure(("a", "b"), [frozenset(), frozenset({"a", "b"})])
        reduced = discriminative_reduction(structure)
        assert reduced.ground == ("a",)
        assert reduced.states == frozenset({0b0, 0b1})

    @given(structures())
    def test_reduction_is_discriminative(self, structure):
        assert is_discriminative(discriminative_reduction(structure))

    @given(structures())
    def test_reduction_preserves_state_count(self, structure):
        # Distinct states can merge only when they differ solely inside
        # blocks, which equal informativeness forbids.
        reduced = discriminative_reduction(structure)
        assert len(reduced.states) == len(structure.states)


class TestIsDiscriminative:
    def test_worked_is_not(self, worked):
        assert not is_discriminative(worked)

    def test_worked_reduction_is(self, worked):
        assert is_discriminative(discriminative_reduction(worked))

    def test_single_target(self):
        structure = make_structure(("a",), [frozenset({"a"})])
        assert is_discriminative(structure)


def test_surmise_agrees_with_support_containment_sample(fuzz_corpus):
    # Spot check of the cross-module identity; the full corpus runs in
    # the acceptance suite.
    for table in fuzz_corpus[:40]:
        structure = structure_from_table(table)
        relation = surmise_from_structure(structure)
        names = table.target_names
        for p in range(table.target_count):
            for q in range(table.target_count):
                expected = not table.support_masks[q] & ~table.support_masks[p]
                assert ((names[p], names[q]) in relation) == expected


def test_antisymmetry_on_discriminative_structures():
    rng = random.Random(7)
    for _ in range(50):
        size = rng.randint(1, 6)
        ground = tuple(f"q{j}" for j in range(size))
        masks = {rng.randrange(2**size) for _ in range(rng.randint(1, 10))}
        structure = KnowledgeStructure(ground=ground, states=frozenset(masks))
        reduced = discriminative_reduction(structure)
        relation = surmise_from_structure(reduced)
        for p, q in relation:
            if (q, p) in relation:
                assert p == q


@pytest.mark.parametrize("complete", [True, False])
def test_concepts_of_table_structure_are_equivalence_classes(fuzz_corpus, complete):
    # Every model's row is a state, so two targets lie in the same states
    # iff their columns are identical; the empty and full states added by
    # completion contain both or neither.  Only labels and block order
    # differ between the two partitions.
    rng = random.Random(20261018)
    tables = list(fuzz_corpus[:60])
    for u, v, noise in ((40, 8, 0.8), (40, 200, 0.5), (16, 30, 0.2), (1, 5, 1.0)):
        rows = latent_rows(rng, u, v, noise)
        tables.append(build_table([f"t{j}" for j in range(u)], [f"m{i}" for i in range(v)], rows))
    for table in tables:
        concepts = equally_informative(structure_from_table(table, complete))
        classes = equivalence_classes(table)
        assert set(concepts.blocks) == set(classes.blocks)


@given(
    st.integers(1, 8).flatmap(
        lambda u: st.lists(
            st.lists(st.integers(0, 1), min_size=u, max_size=u), min_size=1, max_size=12
        )
    ),
    st.booleans(),
)
def test_structure_from_table_is_the_distinct_rows(rows, complete):
    u = len(rows[0])
    table = build_table([f"t{j}" for j in range(u)], [f"M{i}" for i in range(len(rows))], rows)
    expected = {oracles.pack_bits(row) for row in set(map(tuple, rows))}
    if complete:
        expected |= {0, (1 << u) - 1}
    assert structure_from_table(table, complete).states == expected
