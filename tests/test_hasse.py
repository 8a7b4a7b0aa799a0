import pytest
from hypothesis import given, strategies as st

from surmise import (
    Flexibility,
    HasseDiagram,
    OrderMatrix,
    assign_layers,
    order_matrix,
    transitive_closure,
    transitive_reduction,
)

import oracles
from conftest import FUZZ_ALPHAS

# Covering edges of the 12x10 example at zero flexibility, frozen from
# the remove-an-edge reachability oracle.
TWELVE_MODELS_HASSE_0 = (
    ("t1", "t4"), ("t1", "t6"),
    ("t2", "t3"), ("t2", "t9"),
    ("t3", "t8"),
    ("t4", "t7"), ("t4", "t9"),
    ("t5", "t3"), ("t5", "t9"),
    ("t6", "t2"), ("t6", "t5"),
    ("t8", "t7"),
)

TWELVE_MODELS_LAYERS_0 = {
    "t1": 0, "t4": 1, "t6": 1, "t2": 2, "t5": 2,
    "t3": 3, "t9": 3, "t8": 4, "t7": 5,
}


class TestTransitiveReduction:
    def test_twelve_models_exact_edges(self, twelve_models):
        diagram = transitive_reduction(order_matrix(twelve_models))
        assert diagram.edges == TWELVE_MODELS_HASSE_0

    def test_chain_with_closure_reduces_to_chain(self):
        matrix = OrderMatrix.from_pairs(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]
        )
        diagram = transitive_reduction(matrix)
        assert diagram.edges == (("a", "b"), ("b", "c"))

    def test_antichain_has_no_edges(self):
        matrix = OrderMatrix.from_pairs(["a", "b", "c"], [])
        diagram = transitive_reduction(matrix)
        assert diagram.edges == ()
        assert diagram.layers == {"a": 0, "b": 0, "c": 0}

    def test_rejects_non_partial_order(self):
        broken = OrderMatrix.from_pairs(["a", "b", "c"], [("a", "b"), ("b", "c")])
        with pytest.raises(ValueError, match="not a partial order"):
            transitive_reduction(broken)

    def test_default_members_are_singletons(self):
        matrix = OrderMatrix.from_pairs(["a", "b"], [("a", "b")])
        diagram = transitive_reduction(matrix)
        assert diagram.members == {"a": ("a",), "b": ("b",)}

    def test_twelve_models_members_carry_classes(self, twelve_models):
        diagram = transitive_reduction(order_matrix(twelve_models))
        assert diagram.members["t1"] == ("t0", "t1")
        assert diagram.members["t2"] == ("t2",)


class TestLayers:
    def test_twelve_models_layers(self, twelve_models):
        diagram = transitive_reduction(order_matrix(twelve_models))
        assert dict(diagram.layers) == TWELVE_MODELS_LAYERS_0
        assert diagram.layer_groups() == (
            ("t1",), ("t4", "t6"), ("t2", "t5"), ("t3", "t9"), ("t8",), ("t7",),
        )

    def test_single_node(self):
        diagram = transitive_reduction(OrderMatrix.from_pairs(["x"], []))
        assert diagram.layers == {"x": 0}

    def test_chain_of_three(self):
        matrix = OrderMatrix.from_pairs(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]
        )
        diagram = transitive_reduction(matrix)
        assert diagram.layers == {"a": 0, "b": 1, "c": 2}

    def test_assign_layers_matches_construction(self, twelve_models):
        diagram = transitive_reduction(order_matrix(twelve_models))
        assert assign_layers(diagram) == dict(diagram.layers)

    def test_assign_layers_detects_cycle(self):
        corrupted = HasseDiagram(
            nodes=("a", "b"),
            members={"a": ("a",), "b": ("b",)},
            edges=(("a", "b"), ("b", "a")),
            layers={},
        )
        with pytest.raises(ValueError, match="cycle"):
            assign_layers(corrupted)

    def test_assign_layers_rejects_unknown_node(self):
        corrupted = HasseDiagram(
            nodes=("a",),
            members={"a": ("a",)},
            edges=(("a", "z"),),
            layers={},
        )
        with pytest.raises(ValueError, match="unknown node"):
            assign_layers(corrupted)

    def test_layer_strictly_increases_along_edges(self, fuzz_corpus):
        for table in fuzz_corpus[:30]:
            diagram = transitive_reduction(order_matrix(table))
            for lower, upper in diagram.edges:
                assert diagram.layers[lower] < diagram.layers[upper]


class TestTransitiveClosure:
    def test_adds_composed_pair(self):
        got = transitive_closure([0b010, 0b100, 0b000])
        assert got == (0b110, 0b100, 0b000)

    def test_transitive_input_is_fixpoint(self):
        matrix = [0b111, 0b110, 0b100]
        once = transitive_closure(matrix)
        assert transitive_closure(once) == once

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            transitive_closure([0b01, 0b100])

    @given(st.integers(0, 9).flatmap(
        lambda n: st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ))
    def test_matches_warshall_on_boolean_grid(self, grid):
        rows = [sum(1 << j for j, cell in enumerate(row) if cell) for row in grid]
        expected = oracles.transitive_closure_reference(grid)
        assert transitive_closure(rows) == tuple(
            sum(1 << j for j, cell in enumerate(row) if cell) for row in expected
        )

    def test_twelve_models_hasse_closure_recovers_order(self, twelve_models):
        # Duality on the worked table: the covering edges plus the
        # diagonal close back to the full order matrix.
        matrix = order_matrix(twelve_models)
        diagram = transitive_reduction(matrix)
        index = {rep: k for k, rep in enumerate(matrix.reps)}
        size = len(matrix.reps)
        seed = [1 << i for i in range(size)]
        for lower, upper in diagram.edges:
            seed[index[lower]] |= 1 << index[upper]
        assert transitive_closure(seed) == matrix.rows


def test_duality_and_minimality_sample(fuzz_corpus):
    # Full-corpus version runs in the acceptance suite.
    for table in fuzz_corpus[:25]:
        for alpha in FUZZ_ALPHAS:
            matrix = order_matrix(table, alpha)
            diagram = transitive_reduction(matrix)
            strict = set(matrix.pairs())
            closure = oracles.closure_pairs(set(diagram.edges), matrix.reps)
            full = strict | {(rep, rep) for rep in matrix.reps}
            assert closure == full
            for edge in diagram.edges:
                thinner = set(diagram.edges) - {edge}
                assert oracles.closure_pairs(thinner, matrix.reps) != full


def test_reduction_matches_remove_edge_oracle(fuzz_corpus):
    for table in fuzz_corpus[:40]:
        matrix = order_matrix(table, Flexibility(2500))
        diagram = transitive_reduction(matrix)
        assert set(diagram.edges) == oracles.covering_pairs(set(matrix.pairs()))
