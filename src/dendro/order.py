"""Total orders induced by a planar structure.

A planar structure induces a total order on edges (left-to-right,
bottom-to-top traversal), hence on operations, hence on elementary face
maps via their assigned operations.
"""

from __future__ import annotations

from typing import Mapping

from .faces import BOTTOM, ElementaryFace, FaceError
from .trees import Operation, PlanarTree, Value

LT, EQ, GT = -1, 0, 1


class CorollaBottomPairError(FaceError):
    """Two distinct face maps share an assigned operation; their order is
    undefined (this happens exactly for bottom faces of a corolla)."""


class EdgeOrder(Value):
    """A total order on the edges of a planar tree, extending the tree order."""

    __slots__ = ("tree", "rank")

    def __init__(self, tree: PlanarTree, rank: Mapping[str, int]):
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "rank", rank)

    def leq(self, a: str, b: str) -> bool:
        return self.rank[a] <= self.rank[b]

    def sorted(self, edges) -> list[str]:
        return sorted(edges, key=self.rank.__getitem__)


def edge_order(t: PlanarTree) -> EdgeOrder:
    """Depth-first preorder: each edge before its children, children in
    planar order."""
    rank: dict[str, int] = {}
    stack = [t.root]
    while stack:
        e = stack.pop()
        rank[e] = len(rank)
        if not t.tree.is_leaf(e):
            stack.extend(reversed(t.ordered_children(e)))
    return EdgeOrder(t, rank)


def compare_operations(ord: EdgeOrder, a: Operation, b: Operation) -> int:
    """Compare operations by the key ``(rank of output, sorted input
    ranks)``: output first, then the input lists lexicographically
    (shorter prefix first; the empty input list is least)."""
    rank = ord.rank
    ka = (rank[a.output], sorted(map(rank.__getitem__, a.inputs)))
    kb = (rank[b.output], sorted(map(rank.__getitem__, b.inputs)))
    return (ka > kb) - (ka < kb)


def compare_face_maps(ord: EdgeOrder, f: ElementaryFace, g: ElementaryFace) -> int:
    """Compare elementary face maps via their assigned operations.

    Raises :class:`CorollaBottomPairError` when two distinct maps carry the
    same operation, which happens exactly for the bottom faces of a corolla.
    """
    c = compare_operations(ord, f.assigned_operation(), g.assigned_operation())
    if c == EQ and f != g:
        if f.kind == BOTTOM and g.kind == BOTTOM:
            raise CorollaBottomPairError(
                "bottom faces of a corolla are not comparable"
            )
        raise CorollaBottomPairError("face maps share an assigned operation")
    return c
