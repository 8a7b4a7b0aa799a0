"""Covering edges of a partial order and the layered drawing behind them."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .order import OrderMatrix, sorted_pairs
from .table import natural_key

__all__ = [
    "HasseDiagram",
    "transitive_reduction",
    "assign_layers",
    "transitive_closure",
]


@dataclass(frozen=True)
class HasseDiagram:
    """Covering edges of a partial order, plus a drawing layer per node.

    An edge (lower, upper) says lower is a prerequisite of upper with
    nothing strictly between; lower is drawn below.  ``members`` maps a
    node to the equally-informative targets it stands for.
    """

    nodes: tuple[str, ...]
    members: Mapping[str, tuple[str, ...]]
    edges: tuple[tuple[str, str], ...]
    layers: Mapping[str, int]

    def layer_groups(self) -> tuple[tuple[str, ...], ...]:
        """Node names grouped by layer, bottom (no prerequisites) first."""
        if not self.nodes:
            return ()
        depth = max(self.layers.values()) + 1
        groups: list[list[str]] = [[] for _ in range(depth)]
        for node in self.nodes:
            groups[self.layers[node]].append(node)
        return tuple(tuple(sorted(g, key=natural_key)) for g in groups)


def _layers_from_edges(
    nodes: Sequence[str], edges: Sequence[tuple[str, str]]
) -> dict[str, int]:
    # Longest path from the minimal elements; Kahn's algorithm doubles as
    # the cycle detector.
    preds: dict[str, set[str]] = {n: set() for n in nodes}
    succs: dict[str, set[str]] = {n: set() for n in nodes}
    for lower, upper in edges:
        if lower not in preds or upper not in preds:
            raise ValueError(f"edge ({lower!r}, {upper!r}) mentions an unknown node")
        preds[upper].add(lower)
        succs[lower].add(upper)

    pending = {n: len(preds[n]) for n in nodes}
    ready = [n for n in nodes if pending[n] == 0]
    layers: dict[str, int] = {}
    while ready:
        node = ready.pop()
        layers[node] = max((layers[p] + 1 for p in preds[node]), default=0)
        for nxt in succs[node]:
            pending[nxt] -= 1
            if pending[nxt] == 0:
                ready.append(nxt)
    if len(layers) != len(nodes):
        stuck = sorted(set(nodes) - set(layers), key=natural_key)
        raise ValueError(f"cycle detected among {stuck}")
    return layers


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

    edges = sorted_pairs(matrix.reps, matrix.covers)
    return HasseDiagram(
        nodes=matrix.reps,
        members=matrix.member_map(),
        edges=edges,
        layers=_layers_from_edges(matrix.reps, edges),
    )


def assign_layers(diagram: HasseDiagram) -> dict[str, int]:
    """Recompute the layer map from the diagram's edges.

    A node with no incoming edge sits at layer 0; otherwise one above its
    highest covering prerequisite.  Raises on a cycle, which can only
    mean the edge set was corrupted after construction.
    """
    return _layers_from_edges(diagram.nodes, diagram.edges)


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
