import pytest
from hypothesis import given, settings

import surmise
from surmise import (
    Flexibility,
    OrderMatrix,
    assign_layers,
    order_matrix,
    transitive_reduction,
)

import oracles
from conftest import FUZZ_ALPHAS
from test_order import partial_orders

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


def level_map(layers):
    """Node -> layer number, from layer groups listed bottom first: the
    shape of the layer references in ``oracles``."""
    return {node: level for level, group in enumerate(layers) for node in group}


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
        assert diagram.layers == (("a", "b", "c"),)

    def test_rejects_non_partial_order(self):
        broken = OrderMatrix.from_pairs(["a", "b", "c"], [("a", "b"), ("b", "c")])
        with pytest.raises(ValueError, match="not a partial order"):
            transitive_reduction(broken)

    def test_default_members_are_singletons(self):
        matrix = OrderMatrix.from_pairs(["a", "b"], [("a", "b")])
        diagram = transitive_reduction(matrix)
        assert diagram.members == (("a",), ("b",))

    def test_twelve_models_members_carry_classes(self, twelve_models):
        diagram = transitive_reduction(order_matrix(twelve_models))
        members = dict(zip(diagram.nodes, diagram.members))
        assert members["t1"] == ("t0", "t1")
        assert members["t2"] == ("t2",)


class TestLayers:
    def test_twelve_models_layers(self, twelve_models):
        diagram = transitive_reduction(order_matrix(twelve_models))
        assert level_map(diagram.layers) == TWELVE_MODELS_LAYERS_0
        assert diagram.layers == (
            ("t1",), ("t4", "t6"), ("t2", "t5"), ("t3", "t9"), ("t8",), ("t7",),
        )

    def test_single_node(self):
        diagram = transitive_reduction(OrderMatrix.from_pairs(["x"], []))
        assert diagram.layers == (("x",),)

    def test_chain_of_three(self):
        matrix = OrderMatrix.from_pairs(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]
        )
        diagram = transitive_reduction(matrix)
        assert diagram.layers == (("a",), ("b",), ("c",))

    def test_assign_layers_matches_construction(self, twelve_models):
        diagram = transitive_reduction(order_matrix(twelve_models))
        assert assign_layers(diagram) == diagram.layers

    def test_deep_chain_from_edges(self):
        # Deeper than the recursive oracle can go: layers are the positions.
        nodes = tuple(f"n{k}" for k in range(2000))
        edges = tuple(zip(nodes, nodes[1:]))
        index = {n: i for i, n in enumerate(nodes)}
        rows = [1 << i for i in range(len(nodes))]
        for lower, upper in reversed(edges):  # close the chain from the top down
            rows[index[lower]] |= rows[index[upper]]
        diagram = transitive_reduction(OrderMatrix(reps=nodes, rows=tuple(rows)))
        assert diagram.edges == edges
        assert level_map(diagram.layers) == dict(zip(nodes, range(2000)))
        assert diagram.layers == tuple((n,) for n in nodes)
        assert assign_layers(diagram) == diagram.layers

    def test_deep_chain_reads_few_flag_bytes(self, monkeypatch):
        # Each layer of a chain is one node: picking it reads the flags of
        # its span only, so the build reads about 2c flag bytes (layers in
        # the axiom pass, then their names), not c²/2 for each.
        size = 2000
        nodes = tuple(f"n{k}" for k in range(size))
        rows = tuple(((1 << size) - 1) >> i << i for i in range(size))
        read = []

        def counted(flags):
            return lambda mask: read.append(flags(mask)) or read[-1]

        for module in (surmise.table, surmise.order, surmise.hasse):
            if hasattr(module, "bit_flags"):
                monkeypatch.setattr(module, "bit_flags", counted(module.bit_flags))
        diagram = transitive_reduction(OrderMatrix(reps=nodes, rows=rows))
        assert diagram.layers == tuple((n,) for n in nodes)
        assert sum(map(len, read)) < 3 * size

    def test_deep_chain_from_order_matrix(self):
        size = 300
        nodes = tuple(f"n{k}" for k in range(size))
        rows = tuple(((1 << size) - 1) >> i << i for i in range(size))  # i -> j for j >= i
        diagram = transitive_reduction(OrderMatrix(reps=nodes, rows=rows))
        assert diagram.edges == tuple(zip(nodes, nodes[1:]))
        assert level_map(diagram.layers) == dict(zip(nodes, range(size)))
        assert assign_layers(diagram) == diagram.layers

    def test_layer_strictly_increases_along_edges(self, fuzz_corpus):
        for table in fuzz_corpus[:30]:
            diagram = transitive_reduction(order_matrix(table))
            level = level_map(diagram.layers)
            for lower, upper in diagram.edges:
                assert level[lower] < level[upper]


class TestConstructionChecks:
    """A diagram is a view of a verified order: it checks only that the
    order's diagnostics pass, and reads everything else from the order."""

    def test_two_cycle(self):
        two_cycle = OrderMatrix.from_pairs(["b", "a"], [("a", "b"), ("b", "a")])
        with pytest.raises(ValueError) as raised:
            transitive_reduction(two_cycle)
        assert str(raised.value) == (
            "not a partial order: reflexivity: pass; "
            "anti-symmetry: FAIL at ('a', 'b'); transitivity: pass"
        )

    def test_layers_come_from_the_axiom_pass(self, twelve_models, monkeypatch):
        # Building a diagram transposes nothing and ORs no rows: its layers
        # name the masks the order's axiom pass already found.
        matrix = order_matrix(twelve_models)
        calls = []
        for module in (surmise.table, surmise.order, surmise.hasse):
            for name in ("transpose", "or_selected"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        diagram = transitive_reduction(matrix)
        assert calls == []
        assert diagram.layers == tuple(
            tuple(name for name, bit in zip(matrix.reps, bin(mask)[:1:-1]) if bit == "1")
            for mask in matrix.layers
        )
        assert assign_layers(diagram) == diagram.layers and calls == []

    def test_diagram_reads_the_order(self, twelve_models):
        matrix = order_matrix(twelve_models, Flexibility(2000))
        diagram = transitive_reduction(matrix)
        assert diagram.order is matrix
        assert diagram.nodes is matrix.reps
        assert diagram.covers is matrix.covers
        assert diagram.members is matrix.classes.blocks


class TestTransitiveClosure:
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
        grid = [[row >> j & 1 for j in range(size)] for row in seed]
        closed = oracles.transitive_closure_reference(grid)
        assert tuple(map(oracles.pack_bits, closed)) == matrix.rows


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


def spaced_names(size: int) -> tuple[str, ...]:
    """n0, n5, n10, ...: in natural order, which is not code-point order."""
    return tuple(f"n{5 * k}" for k in range(size))


def natural_pair_key(pair: tuple[str, str]) -> tuple:
    return oracles.natural_name_key(pair[0]), oracles.natural_name_key(pair[1])


class TestIndexWalk:
    """Pairs, covering edges and layers read the order matrix by index;
    the name-keyed forms they replaced are the references."""

    @settings(max_examples=300, deadline=None)
    @given(partial_orders())
    def test_pairs_edges_and_layers_match_references(self, rows):
        matrix = OrderMatrix(reps=spaced_names(len(rows)), rows=rows)
        reps = matrix.reps
        strict = {
            (reps[i], reps[j])
            for i, row in enumerate(rows)
            for j in range(len(rows))
            if i != j and row >> j & 1
        }
        assert matrix.pairs() == tuple(sorted(strict, key=natural_pair_key))
        diagram = transitive_reduction(matrix)
        covering = oracles.covering_pairs(strict)
        assert diagram.edges == tuple(sorted(covering, key=natural_pair_key))
        level = level_map(diagram.layers)
        assert level == oracles.layers_from_edges_reference(reps, diagram.edges)
        assert level == oracles.longest_path_layers(reps, covering)
