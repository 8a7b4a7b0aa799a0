"""The flexible prerequisite order over a judgment table.

An edge p -> q is accepted when at most a fixed percentage of the models
that split on the pair judged q correctly while missing p.  At 0%
flexibility this is exactly support containment.  Mutually ordered
targets are equivalent (for any flexibility below 50% this collapses to
"identical columns"), so the order matrix lives on class representatives
and is a genuine partial order: reflexive, anti-symmetric, transitive.
"""
from __future__ import annotations

from functools import reduce
from itertools import chain, groupby, pairwise, repeat
from operator import or_
from typing import Iterable, Iterator, Sequence

from .table import (
    Flexibility,
    Frozen,
    JudgmentTable,
    NamePartition,
    PairCounts,
    ZERO_FLEXIBILITY,
    bit_indices,
    check_masks,
    natural_key,
    natural_sorted,
    transpose,
)

__all__ = [
    "OrderAxiomError",
    "EquivalenceClasses",
    "OrderMatrix",
    "OrderDiagnostics",
    "flexible_leq",
    "equivalence_classes",
    "order_matrix",
    "verify_partial_order",
]


class OrderAxiomError(RuntimeError):
    """An order matrix failed verification; this signals a bug, not bad data."""


def check_natural_order(kind: str, names: Sequence[str]) -> None:
    """Raise unless ``names`` are distinct and in natural order, so that
    index order is natural order; ``kind`` names them in the error."""
    for first, second in pairwise(map(natural_key, names)):
        if first >= second:  # a natural key ends in the name itself
            raise ValueError(f"{kind} must be distinct and natural-sorted: "
                             f"{first[-1]!r} before {second[-1]!r}")


def named_rows(names: Sequence[str], masks: Iterable[int]) -> Iterator[tuple[str, list[str]]]:
    """(names[i], [names[j] for each set bit j of masks[i]]) for each row i,
    in index order.  The names of one row are built only when that row is
    reached."""
    for name, mask in zip(names, masks):
        yield name, list(map(names.__getitem__, bit_indices(mask)))


def _edge_holds(n2: int, n3: int, basis_points: int) -> bool:
    """The threshold test for p -> q on the pair's p-only (n2) and q-only
    (n3) model counts: 10000*n3 <= bp*(n2+n3), exact in integers.

    Why it is a partial order on supports for bp < 5000.  With
    n2 - n3 = |S_p| - |S_q| the test rearranges to

        n3*(10000 - 2*bp) <= bp*(|S_p| - |S_q|)                     (*)

    - Anti-symmetry: (*) for (p, q) plus (*) for (q, p) gives
      (n2 + n3)*(10000 - 2*bp) <= 0, so n2 = n3 = 0: identical columns.
    - Transitivity: for p -> q -> r, |S_r - S_p| <= |S_r - S_q| +
      |S_q - S_p|; multiplying by 10000 - 2*bp > 0 and applying (*) to
      (q, r) and (p, q) bounds the left side by bp*(|S_p| - |S_r|), which
      is (*) for (p, r).
    - Size order: the left side of (*) is >= 0, so |S_p| >= |S_q|, and
      equal sizes force n3 = 0 and then n2 = 0.  A strict edge between
      different columns thus goes from a larger support to a smaller one.
      ``order_matrix`` relies on this: it tests only pairs whose q has a
      strictly smaller support, against ``_q_only_limits``, which is (*)
      solved for n3.
    """
    return 10000 * n3 <= basis_points * (n2 + n3)


def _q_only_limits(models: int, basis_points: int) -> list[int]:
    """limit[d], for d in 0..models: the most q-only models an edge p -> q
    tolerates when |S_p| - |S_q| = d.  As 10000 - 2*bp > 0, (*) of
    ``_edge_holds`` holds iff n3 <= bp*d // (10000 - 2*bp)."""
    scale = 10000 - 2 * basis_points
    return [basis_points * d // scale for d in range(models + 1)]


def flexible_leq(counts: PairCounts, alpha: Flexibility) -> bool:
    """Threshold test for p -> q given the pair's response counts.

    Holds when no model splits on the pair (n2 + n3 = 0, which covers
    p == q and identical columns), or when the share of q-only models
    among the splitters is at most alpha.  The comparison is the exact
    cross-multiplication 10000*n3 <= bp*(n2+n3).
    """
    return _edge_holds(counts.n2, counts.n3, alpha.basis_points)


class EquivalenceClasses(NamePartition):
    """Partition of the targets by mutual order (= identical columns).

    Members of a block are natural-sorted; a block is labeled by its LAST
    member, which subsumes the earlier ones (a class {t0, t1} reads
    "t1 (=t0)").  Blocks are ordered by that label.
    """

    LABEL = -1

    def members_of(self, representative: str) -> tuple[str, ...]:
        block = self._block_of.get(representative)
        if block is None or block[-1] != representative:
            raise ValueError(f"no class labeled {representative!r}")
        return block


def equivalence_classes(table: JudgmentTable) -> EquivalenceClasses:
    """Group targets that are ordered both ways at any flexibility.

    Mutual order below 50% flexibility forces n2 = n3 = 0, i.e. identical
    judgment columns (see ``_edge_holds``), so the blocks are the targets
    with equal support masks.
    """
    return EquivalenceClasses.from_keys(table.target_names, table.support_masks)


class OrderMatrix(Frozen):
    """Boolean matrix of the prerequisite order over class representatives.

    ``reps`` are distinct and in natural order, so index order is natural
    order: ascending bits of a row list its successors natural-sorted.
    ``rows[i]`` is row i as an int mask: bit j means reps[i] -> reps[j]
    (reps[i] is a prerequisite of reps[j]).  ``diagnostics`` is the result
    of checking the order axioms and ``covers[i]`` the mask of the nodes
    covering reps[i] (meaningful when ``diagnostics.ok``); both come from
    one pass, at construction, so every matrix (also a hand-built one) is
    checked exactly once.  ``classes`` carries the member lists behind
    each representative; hand-built matrices may omit it.
    """

    _fields = ("reps", "rows", "classes")

    def __init__(
        self, reps: tuple[str, ...], rows: tuple[int, ...],
        classes: EquivalenceClasses | None = None,
    ) -> None:
        check_natural_order("representatives", reps)
        if len(rows) != len(reps):
            raise ValueError(f"{len(rows)} rows for {len(reps)} representatives")
        check_masks("row", rows, len(reps))
        diagnostics, covers = _check_axioms(reps, rows)
        self.__dict__.update(
            reps=reps, rows=rows, classes=classes, diagnostics=diagnostics, covers=covers,
            _index={name: i for i, name in enumerate(reps)},
        )

    @property
    def strict_rows(self) -> list[int]:
        """``rows`` with the diagonal bit cleared."""
        return [row & ~(1 << i) for i, row in enumerate(self.rows)]

    def index_of(self, name: str) -> int:
        if name not in self._index:
            raise ValueError(f"unknown representative {name!r}")
        return self._index[name]

    def holds(self, p: str, q: str) -> bool:
        return bool(self.rows[self.index_of(p)] >> self.index_of(q) & 1)

    def successors(self) -> Iterator[tuple[str, list[str]]]:
        """(p, [q, ...]) for each row of ``strict_rows``, in index order: p's
        strict successors, natural-sorted (empty for a maximal p)."""
        return named_rows(self.reps, self.strict_rows)

    def pairs(self) -> tuple[tuple[str, str], ...]:
        """All strict ordered pairs (p, q), natural-sorted: ``successors``
        flattened."""
        return tuple(chain.from_iterable(zip(repeat(p), qs) for p, qs in self.successors()))

    def member_map(self) -> dict[str, tuple[str, ...]]:
        if self.classes is None:
            return {rep: (rep,) for rep in self.reps}
        return {rep: self.classes.members_of(rep) for rep in self.reps}

    @classmethod
    def from_pairs(
        cls, elements: list[str] | tuple[str, ...], pairs: set[tuple[str, str]] | list[tuple[str, str]]
    ) -> "OrderMatrix":
        """Build a matrix from strict pairs plus the reflexive diagonal.

        A repeated element, or a pair naming an element not in
        ``elements``, raises ``ValueError``; whether the result is a
        partial order is told by ``diagnostics`` (or verify_partial_order),
        not raised.
        """
        reps = tuple(natural_sorted(elements))
        index = {name: i for i, name in enumerate(reps)}
        rows = [1 << i for i in range(len(reps))]
        for p, q in pairs:
            try:
                rows[index[p]] |= 1 << index[q]
            except KeyError as exc:
                raise ValueError(
                    f"pair {(p, q)!r} names an unknown element {exc.args[0]!r}"
                ) from None
        return cls(reps=reps, rows=tuple(rows))


class OrderDiagnostics(Frozen):
    """Pass/fail per order axiom, with a counterexample where one fails."""

    _fields = (
        "reflexive", "antisymmetric", "transitive",
        "reflexivity_witness", "antisymmetry_witness", "transitivity_witness",
    )

    def __init__(
        self, reflexive: bool, antisymmetric: bool, transitive: bool,
        reflexivity_witness: str | None = None,
        antisymmetry_witness: tuple[str, str] | None = None,
        transitivity_witness: tuple[str, str, str] | None = None,
    ) -> None:
        self.__dict__.update(
            reflexive=reflexive, antisymmetric=antisymmetric, transitive=transitive,
            reflexivity_witness=reflexivity_witness,
            antisymmetry_witness=antisymmetry_witness,
            transitivity_witness=transitivity_witness,
        )

    @property
    def ok(self) -> bool:
        return self.reflexive and self.antisymmetric and self.transitive

    def summary(self) -> str:
        parts = []
        if self.reflexive:
            parts.append("reflexivity: pass")
        else:
            parts.append(f"reflexivity: FAIL at {self.reflexivity_witness!r}")
        if self.antisymmetric:
            parts.append("anti-symmetry: pass")
        else:
            p, q = self.antisymmetry_witness  # type: ignore[misc]
            parts.append(f"anti-symmetry: FAIL at ({p!r}, {q!r})")
        if self.transitive:
            parts.append("transitivity: pass")
        else:
            p, q, r = self.transitivity_witness  # type: ignore[misc]
            parts.append(f"transitivity: FAIL at ({p!r}, {q!r}, {r!r})")
        return "; ".join(parts)


def _check_axioms(
    reps: Sequence[str], up: Sequence[int]
) -> tuple[OrderDiagnostics, tuple[int, ...]]:
    """Check reflexivity, anti-symmetry and transitivity, and find the
    covering successors of every node; never raises.

    Each witness is the first failure in the scan order i, then j, then
    k.  Works on row and column bitmasks: anti-symmetry is one AND per
    node.  For each row i, ``implied`` is the OR of the strict rows of
    everything strictly above i, one OR per relation pair.  Some (i, j)
    breaks transitivity (``up[j] & ~up[i]`` non-zero) iff ``implied`` has
    a bit outside ``up[i]``: j's own bit is in ``up[i]``.  In a partial
    order, j covers i iff no k above i lies below j, so the covers of i
    are its strict row less ``implied`` (Aho, Garey & Ullman 1972).
    """
    size = len(reps)
    down = transpose(up, size)
    strict = [row & ~(1 << i) for i, row in enumerate(up)]

    reflexivity_witness = next(
        (reps[i] for i in range(size) if not up[i] >> i & 1), None
    )

    antisymmetry_witness = None
    for i in range(size):
        mutual = (up[i] & down[i]) >> (i + 1)
        if mutual:
            antisymmetry_witness = (reps[i], reps[i + 1 + bit_indices(mutual)[0]])
            break

    transitivity_witness = None
    covers = []
    for i, above in enumerate(strict):
        implied = reduce(or_, map(strict.__getitem__, bit_indices(above)), 0)
        if implied & ~up[i] and transitivity_witness is None:
            # Only the first failing row pays for the witness search.
            j = next(j for j in bit_indices(up[i]) if up[j] & ~up[i])
            k = bit_indices(up[j] & ~up[i])[0]
            transitivity_witness = (reps[i], reps[j], reps[k])
        covers.append(above & ~implied)

    diagnostics = OrderDiagnostics(
        reflexive=reflexivity_witness is None,
        antisymmetric=antisymmetry_witness is None,
        transitive=transitivity_witness is None,
        reflexivity_witness=reflexivity_witness,
        antisymmetry_witness=antisymmetry_witness,
        transitivity_witness=transitivity_witness,
    )
    return diagnostics, tuple(covers)


def verify_partial_order(matrix: OrderMatrix) -> OrderDiagnostics:
    """Reflexivity, anti-symmetry and transitivity of the matrix, with the
    first witness of each failure; never raises.  The check ran once, when
    the matrix was built (``OrderMatrix.diagnostics``)."""
    return matrix.diagnostics


def order_matrix(
    table: JudgmentTable, alpha: Flexibility = ZERO_FLEXIBILITY
) -> OrderMatrix:
    """The prerequisite order over class representatives.

    A strict edge p -> q needs |S_q| < |S_p| (see ``_edge_holds``), so the
    classes are walked by ascending support size and each is tested only
    against the strictly smaller ones: n3 is the popcount of S_q less
    S_p, and the edge holds iff n3 <= limit[|S_p| - |S_q|].  The result is
    verified against the three order axioms; a failure is an internal bug
    and is raised, never ignored.
    """
    classes = equivalence_classes(table)
    reps = classes.representatives
    columns = [table.target_index(rep) for rep in reps]
    masks = [table.support_masks[j] for j in columns]
    sizes = [table.support_sizes[j] for j in columns]
    limit = _q_only_limits(table.model_count, alpha.basis_points)
    every_model = (1 << table.model_count) - 1
    rows = [1 << i for i in range(len(reps))]
    below: list[tuple[int, int, int]] = []  # (mask, size, row bit) of smaller supports
    by_size = sorted(range(len(reps)), key=sizes.__getitem__)
    for size_p, group in groupby(by_size, key=sizes.__getitem__):
        group = list(group)
        for p in group:
            outside = every_model ^ masks[p]  # not ~masks[p]: & on a negative int is slower
            hits = [
                bit
                for mask, size, bit in below
                if (mask & outside).bit_count() <= limit[size_p - size]
            ]
            rows[p] |= sum(hits)  # distinct bits, so the sum is their OR
        below.extend((masks[q], sizes[q], 1 << q) for q in group)
    matrix = OrderMatrix(reps=reps, rows=tuple(rows), classes=classes)
    if not matrix.diagnostics.ok:
        raise OrderAxiomError(
            f"order axioms violated on {len(reps)} representatives: "
            f"{matrix.diagnostics.summary()}"
        )
    return matrix
