"""Covering edges of a partial order and the layered drawing behind them."""
from __future__ import annotations

from functools import reduce
from itertools import chain, repeat
from operator import or_
from typing import Iterator, Sequence

from .order import OrderMatrix, named_rows
from .table import Frozen, bit_indices, transpose

__all__ = [
    "HasseDiagram",
    "transitive_reduction",
    "assign_layers",
]


class HasseDiagram(Frozen):
    """Covering edges of a verified partial order, plus a drawing layer per
    node.

    A view of ``order``, its one field: construction raises
    ``ValueError`` unless ``order.diagnostics`` pass, and checks nothing
    else, because the order checked its representatives and rows once,
    when it was built.  The other attributes are read from the order and
    are tuples indexed like the nodes: ``nodes`` are its ``reps``
    (distinct and in natural order, so index order is natural order); bit
    j of ``covers[i]`` is the edge (nodes[i], nodes[j]), from
    ``order.covers``: nodes[i] is a prerequisite of nodes[j] with nothing
    strictly between, and is drawn below it; ``members[i]`` are the
    equally-informative targets nodes[i] stands for
    (``order.classes.blocks``).  ``layers`` are the node names grouped by
    drawing layer, bottom (no prerequisites) first, each group
    natural-sorted.
    """

    _fields = ("order",)

    def __init__(self, order: OrderMatrix) -> None:
        check_partial_order(order)
        nodes, covers = order.reps, order.covers
        self.__dict__.update(
            order=order, nodes=nodes, covers=covers, members=order.classes.blocks,
            layers=_layers(nodes, covers),
        )

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


def _layers(nodes: Sequence[str], covers: Sequence[int]) -> tuple[tuple[str, ...], ...]:
    """The node names by layer, bottom first: layer 0 holds the minimal
    nodes, and a node sits one above its highest covering predecessor.

    Peels the minimal nodes off with masks: a node joins the next layer
    once its column of ``covers`` (its predecessors) has no bit left in
    ``remaining``.  Only the nodes covering the layer just peeled can
    become ready, so each layer tests only those, and the whole peel
    costs O(c + E) mask operations for E edges.  The covers of an order
    whose diagnostics pass are a subset of an acyclic strict order, so
    the peel reaches every node.  Each layer's indices ascend, so its
    names are natural-sorted.
    """
    down = transpose(covers, len(nodes))
    remaining = (1 << len(nodes)) - 1
    groups: list[tuple[str, ...]] = []
    ready = [i for i, row in enumerate(down) if not row]
    while ready:
        groups.append(tuple(map(nodes.__getitem__, ready)))
        remaining ^= sum(1 << i for i in ready)  # distinct bits of remaining: clears them
        above = reduce(or_, map(covers.__getitem__, ready), 0)
        ready = [j for j in bit_indices(above) if not down[j] & remaining]
    return tuple(groups)


def check_partial_order(matrix: OrderMatrix) -> None:
    """Raise ``ValueError`` unless the matrix's ``diagnostics`` pass."""
    if not matrix.diagnostics.ok:
        raise ValueError(f"not a partial order: {matrix.diagnostics.summary()}")


def transitive_reduction(matrix: OrderMatrix) -> HasseDiagram:
    """Strip every implied edge, leaving the unique covering relation.

    A strict pair (p, r) survives iff no third node sits between them.
    The input must be a partial order (its ``diagnostics``, taken when it
    was built, must pass); for one, the reflexive-transitive closure of
    the result is the original matrix.  The covering rows were found by
    the same pass that checked the axioms (``OrderMatrix.covers``).
    """
    return HasseDiagram(matrix)


def assign_layers(diagram: HasseDiagram) -> tuple[tuple[str, ...], ...]:
    """Recompute the layer groups from the diagram's covering rows, by the
    routine that filled ``diagram.layers`` at construction.

    A node with no incoming edge sits at layer 0; otherwise one above its
    highest covering prerequisite.
    """
    return _layers(diagram.nodes, diagram.covers)

