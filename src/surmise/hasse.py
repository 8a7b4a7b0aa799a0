"""Covering edges of a partial order and the layered drawing behind them."""
from __future__ import annotations

from functools import reduce
from itertools import chain, repeat
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

from .order import OrderMatrix, check_natural_order, named_rows
from .table import Frozen, bit_indices, check_masks, natural_sorted, transpose

__all__ = [
    "HasseDiagram",
    "transitive_reduction",
    "assign_layers",
    "transitive_closure",
]


class HasseDiagram(Frozen):
    """Covering edges of a partial order, plus a drawing layer per node.

    ``nodes`` are distinct and in natural order, so index order is
    natural order, as in ``OrderMatrix``.  Bit j of ``covers[i]`` is the
    edge (nodes[i], nodes[j]): nodes[i] is a prerequisite of nodes[j] with
    nothing strictly between, and is drawn below it.  ``members`` maps a
    node to the equally-informative targets it stands for.  Every diagram,
    also a hand-built one, is checked once, at construction, which also
    computes ``layers`` and so rejects a cycle; ``from_edges`` builds one
    from name pairs.
    """

    _fields = ("nodes", "members", "covers")

    def __init__(
        self, nodes: tuple[str, ...], members: Mapping[str, tuple[str, ...]],
        covers: tuple[int, ...],
    ) -> None:
        check_natural_order("nodes", nodes)
        if len(covers) != len(nodes):
            raise ValueError(f"{len(covers)} covering rows for {len(nodes)} nodes")
        check_masks("covering row", covers, len(nodes))
        for node in nodes:
            if node not in members:
                raise ValueError(f"node {node!r} has no entry in members")
        self.__dict__.update(
            nodes=nodes, members=members, covers=covers, layers=_layers(nodes, covers)
        )

    @classmethod
    def from_edges(
        cls, nodes: Iterable[str], members: Mapping[str, tuple[str, ...]],
        edges: Iterable[tuple[str, str]],
    ) -> "HasseDiagram":
        """Build a diagram from (lower, upper) name pairs, in any order.  A
        repeated node, or an edge naming a node not in ``nodes``, raises
        ``ValueError``, as does every check of the constructor."""
        nodes = tuple(natural_sorted(nodes))
        index = {name: i for i, name in enumerate(nodes)}
        if len(index) != len(nodes):
            raise ValueError("a node is listed twice")
        covers = [0] * len(nodes)
        for lower, upper in edges:
            if lower not in index or upper not in index:
                raise ValueError(f"edge ({lower!r}, {upper!r}) mentions an unknown node")
            covers[index[lower]] |= 1 << index[upper]
        return cls(nodes=nodes, members=members, covers=tuple(covers))

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Every edge (lower, upper), natural-sorted: ``successors``
        flattened."""
        return tuple(chain.from_iterable(zip(repeat(p), qs) for p, qs in self.successors()))

    def successors(self) -> Iterator[tuple[str, list[str]]]:
        """(lower, [upper, ...]) for each row of ``covers``, in index order:
        the nodes covering ``lower``, natural-sorted (empty for a maximal
        node)."""
        return named_rows(self.nodes, self.covers)

    def layer_groups(self) -> tuple[tuple[str, ...], ...]:
        """Node names grouped by layer, bottom (no prerequisites) first; each
        group natural-sorted, as the nodes are."""
        groups: list[list[str]] = [[] for _ in range(max(self.layers.values(), default=-1) + 1)]
        for node in self.nodes:
            groups[self.layers[node]].append(node)
        return tuple(map(tuple, groups))


def _layers(nodes: Sequence[str], covers: Sequence[int]) -> dict[str, int]:
    """Layer of each node: 0 for a minimal node, else one above its highest
    covering predecessor.

    Peels the minimal nodes off with masks: a node joins the next layer
    once its column of ``covers`` (its predecessors) has no bit left in
    ``remaining``.  Only the nodes covering the layer just peeled can
    become ready, so each layer tests only those, and the whole peel
    costs O(c + E) mask operations for E edges.  Nodes never peeled sit
    on a cycle or above one, the set Kahn's algorithm leaves stuck.
    """
    down = transpose(covers, len(nodes))
    remaining = (1 << len(nodes)) - 1
    groups: list[list[int]] = []
    ready = [i for i, row in enumerate(down) if not row]
    while ready:
        groups.append(ready)
        remaining ^= sum(1 << i for i in ready)  # distinct bits of remaining: clears them
        above = reduce(or_, map(covers.__getitem__, ready), 0)
        ready = [j for j in bit_indices(above) if not down[j] & remaining]
    if remaining:  # index order is natural order, so the names come natural-sorted
        raise ValueError(f"cycle detected among {list(map(nodes.__getitem__, bit_indices(remaining)))}")
    return {nodes[i]: level for level, group in enumerate(groups) for i in group}


def transitive_reduction(matrix: OrderMatrix) -> HasseDiagram:
    """Strip every implied edge, leaving the unique covering relation.

    A strict pair (p, r) survives iff no third node sits between them.
    The input must be a partial order (its ``diagnostics``, taken when it
    was built, must pass); for one, the reflexive-transitive closure of
    the result is the original matrix.  The covering rows were found by
    the same pass that checked the axioms (``OrderMatrix.covers``).
    """
    if not matrix.diagnostics.ok:
        raise ValueError(f"not a partial order: {matrix.diagnostics.summary()}")
    return HasseDiagram(nodes=matrix.reps, members=matrix.member_map(), covers=matrix.covers)


def assign_layers(diagram: HasseDiagram) -> dict[str, int]:
    """Recompute the layer map from the diagram's covering rows, by the
    routine that filled ``diagram.layers`` at construction.

    A node with no incoming edge sits at layer 0; otherwise one above its
    highest covering prerequisite.
    """
    return _layers(diagram.nodes, diagram.covers)


def transitive_closure(rows: Sequence[int]) -> tuple[int, ...]:
    """Smallest transitive superset of a relation given as row masks (bit j
    of ``rows[i]``: i relates to j), by Warshall's algorithm on rows: for
    each k, every row holding k gains row k."""
    size = len(rows)
    if any(row >> size for row in rows):
        raise ValueError(f"relation matrix is not square: a bit at or beyond {size}")
    closed = list(rows)
    for k in range(size):
        bit, row_k = 1 << k, closed[k]
        for i, row in enumerate(closed):
            if row & bit:
                closed[i] = row | row_k
    return tuple(closed)
