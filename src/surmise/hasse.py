"""Covering edges of a partial order and the layered drawing behind them."""
from __future__ import annotations

from itertools import chain, repeat
from typing import Iterator, Sequence

from .order import OrderMatrix, named_rows
from .table import Frozen, picked

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
    natural-sorted: a node sits one above its highest covering
    prerequisite.  They name the layer masks the order's axiom pass found
    (``order.layers``), so building a diagram computes no order of its
    own.
    """

    _fields = ("order",)

    def __init__(self, order: OrderMatrix) -> None:
        check_partial_order(order)
        self.__dict__.update(
            order=order, nodes=order.reps, covers=order.covers, members=order.classes.blocks,
            layers=_layers(order.reps, order.layers),
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


def _layers(nodes: Sequence[str], masks: Sequence[int]) -> tuple[tuple[str, ...], ...]:
    """The names of each layer mask's nodes (``table.picked``): ascending
    indices, so each layer is natural-sorted, and a chain of c nodes
    reads c flag bytes in all."""
    return tuple(tuple(picked(nodes, mask)) for mask in masks)


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
    """Name the layer masks of the diagram's order again, by the routine
    that filled ``diagram.layers`` at construction.

    A node with no incoming edge sits at layer 0; otherwise one above its
    highest covering prerequisite.  The masks come from the order's axiom
    pass (``OrderMatrix.layers``), so only the naming is redone.
    """
    return _layers(diagram.nodes, diagram.order.layers)

