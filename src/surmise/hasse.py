"""Covering edges of a partial order and the layered drawing behind them."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .order import OrderMatrix
from .table import bit_indices, natural_key, natural_sorted

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


def _layers(nodes: Sequence[str], above: Sequence[Sequence[int]]) -> dict[str, int]:
    """Layer of each node: 0 for a minimal node, else one above its highest
    predecessor.  ``above[i]`` holds j for each edge (nodes[i], nodes[j]).
    Kahn's algorithm, which doubles as the cycle detector."""
    pending = [0] * len(nodes)
    for successors in above:
        for j in successors:
            pending[j] += 1
    layer = [0] * len(nodes)
    queue = [i for i, count in enumerate(pending) if not count]
    for i in queue:  # a FIFO queue: nodes are appended as they become ready
        for j in above[i]:
            layer[j] = max(layer[j], layer[i] + 1)
            pending[j] -= 1
            if not pending[j]:
                queue.append(j)
    if len(queue) != len(nodes):
        stuck = natural_sorted(name for name, count in zip(nodes, pending) if count)
        raise ValueError(f"cycle detected among {stuck}")
    return dict(zip(nodes, layer))


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

    reps = matrix.reps
    above = [bit_indices(row) for row in matrix.covers]
    return HasseDiagram(
        nodes=reps,
        members=matrix.member_map(),
        edges=tuple((p, reps[j]) for p, successors in zip(reps, above) for j in successors),
        layers=_layers(reps, above),
    )


def assign_layers(diagram: HasseDiagram) -> dict[str, int]:
    """Recompute the layer map from the diagram's edges.

    A node with no incoming edge sits at layer 0; otherwise one above its
    highest covering prerequisite.  Raises on a cycle, which can only
    mean the edge set was corrupted after construction.
    """
    index = {name: i for i, name in enumerate(diagram.nodes)}
    if len(index) != len(diagram.nodes):
        raise ValueError("a node is listed twice")
    above: list[list[int]] = [[] for _ in diagram.nodes]
    for lower, upper in diagram.edges:
        if lower not in index or upper not in index:
            raise ValueError(f"edge ({lower!r}, {upper!r}) mentions an unknown node")
        above[index[lower]].append(index[upper])
    return _layers(diagram.nodes, above)


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
