"""The paper's combinatorics as literal definitions, for tests and oracles.

Each function states a definition as the paper gives it: valid faces, the
elementary face maps, mixed, bad and adjacent pairs, commuting squares,
joins, shuffles, grafting and the vertices over an operation.  The tests
check the code that the commands run against these definitions.  No
command reaches this module: the producers, the verifier and ``cli`` do
not import it, and it imports only ``trees``, ``faces`` and ``shuffles``.
"""

from __future__ import annotations

from typing import Iterable

from .faces import (
    TOP,
    ElementaryFace,
    Face,
    FaceError,
    SubPoset,
    _elementary_domains,
    _is_adjacent,
    _is_bad_pair,
    _is_mixed,
    enumerate_sub,
)
from .shuffles import Shuffle, pair_name, split_name
from .trees import Operation, PlanarTree, Tree, TreeError, is_operation


def unit_tree(name: str = "e") -> Tree:
    return Tree([name], {}, [name])


def graft(base: Tree | PlanarTree, crowns: list[Tree]) -> Tree:
    """Graft ``crowns[i]`` onto the i-th leaf of ``base``.

    Crown ``i`` must have the i-th leaf of ``base`` (in planar order, or
    canonical order for a bare tree) as its root; apart from these shared
    edges, all edge sets must be disjoint.
    """
    if isinstance(base, PlanarTree):
        base_leaves = base.ordered_leaves()
        base_tree = base.tree
    else:
        base_tree = base
        base_leaves = tuple(sorted(base.leaves))
    if len(crowns) != len(base_leaves):
        raise TreeError(
            f"need one crown per leaf: {len(base_leaves)} leaves, {len(crowns)} crowns"
        )
    edges = set(base_tree.edges)
    parent = dict(base_tree.parent)
    leaves: set[str] = set()
    for leaf, crown in zip(base_leaves, crowns):
        if crown.root != leaf:
            raise TreeError(f"crown root {crown.root!r} does not match leaf {leaf!r}")
        overlap = (crown.edges & edges) - {leaf}
        if overlap:
            raise TreeError(f"edge names collide outside the shared root: {sorted(overlap)}")
        edges |= crown.edges
        parent.update(crown.parent)
        leaves |= crown.leaves
    return Tree(edges, parent, leaves)


def operation_vertices(t: Tree, op: Operation) -> frozenset[str]:
    """Vertices sitting directly on top of an operation, keyed by output edge.

    Considers only vertices in the subtree above ``op.output``.  A non-empty
    vertex qualifies when all its inputs belong to the operation; a stump
    qualifies when no input of the operation lies below its output.
    """
    if not is_operation(t, op):
        raise TreeError("not an operation of the tree")
    result = set()
    for o in t.edges - t.leaves:
        if not t.leq(op.output, o):
            continue
        v = t.vertex(o)
        if v:
            if v <= op.inputs:
                result.add(o)
        else:
            if not any(t.leq(x, o) for x in op.inputs):
                result.add(o)
    return frozenset(result)


def valid_face_key(ambient: Tree, edges: Iterable[str], caps: Iterable[str]) -> bool:
    """Whether ``(edges, caps)`` keys a face of ``ambient``, by definition:
    ``edges`` is a non-empty set of the ambient's edges with one minimal
    edge; over each non-maximal edge ``e`` of it, the minimal edges above
    ``e`` are the inputs of an operation of ``ambient`` with output ``e``;
    and each cap is a maximal edge whose empty operation exists, i.e. no
    leaf of the ambient lies above it."""
    edges = frozenset(edges)
    caps = frozenset(caps)
    if not edges or not edges <= ambient.edges:
        return False
    minimal = [e for e in edges if not any(x != e and ambient.leq(x, e) for x in edges)]
    if len(minimal) != 1:
        return False
    maximal = set()
    for e in edges:
        above = [x for x in edges if x != e and ambient.leq(e, x)]
        if not above:
            maximal.add(e)
            continue
        inputs = frozenset(
            x for x in above if not any(y != x and y in above and ambient.leq(y, x) for y in above)
        )
        if not is_operation(ambient, Operation(inputs, e)):
            return False
    if not caps <= maximal:
        return False
    for c in caps:
        if not is_operation(ambient, Operation(frozenset(), c)):
            return False
    return True


def apply_elementary_face(p: Face, kind: str, at: str) -> Face:
    """The codimension-one face of ``p`` obtained by the given map."""
    for k, a, edges, caps in _elementary_domains(p):
        if k == kind and a == at:
            return Face(p.ambient, edges, caps)
    raise FaceError(f"{p!r} has no elementary face {kind}({at})")


GOOD = "good"
MIXED = "mixed"
ADJACENT = "adjacent"
BAD_SIBLING_TOPS = "bad_sibling_tops"
BAD_SIBLING_BOTTOMS = "bad_sibling_bottoms"


class MixedPairError(FaceError):
    """No commuting square exists for a mixed pair."""


def classify_pair(f: ElementaryFace, g: ElementaryFace, mode: str = "faces") -> str:
    """Classify a pair of elementary face maps.

    ``mode`` states the shared context: ``"faces"`` for two faces of the
    same codomain, ``"extensions"`` for two extensions of the same domain,
    ``"composable"`` for ``f`` followed by ``g`` (f.codomain == g.domain).
    """
    if f == g:
        raise FaceError("classify_pair requires two distinct maps")
    if mode == "faces":
        if f.codomain_key != g.codomain_key:
            raise FaceError("face-pair mode requires a common codomain")
        return MIXED if _is_mixed(f, g) else GOOD
    if mode == "extensions":
        if f.domain.key != g.domain.key:
            raise FaceError("extension-pair mode requires a common domain")
        if _is_bad_pair(f, g):
            return BAD_SIBLING_TOPS if f.kind == TOP else BAD_SIBLING_BOTTOMS
        return GOOD
    if mode == "composable":
        if f.codomain_key != g.domain.key:
            raise FaceError("composable mode requires f.codomain == g.domain")
        return ADJACENT if _is_adjacent(enumerate_sub(g.codomain.ambient), f, g) else GOOD
    raise FaceError(f"unknown mode {mode!r}")


def commute_square(
    p: Face, f: ElementaryFace, g: ElementaryFace
) -> tuple[Face, ElementaryFace, ElementaryFace, ElementaryFace, ElementaryFace]:
    """The commuting square of a non-mixed pair of faces of ``p``.

    Returns ``(corner, f_low, g_low, f_high, g_high)`` where the square is
    ``corner -> f.domain -> p`` (via g_low then f=f_high) and equally
    ``corner -> g.domain -> p``.  Raises :class:`MixedPairError` for a mixed
    pair (no square exists).
    """
    if f.codomain_key != p.key or g.codomain_key != p.key:
        raise FaceError("both maps must be faces of p")
    if p.rank < 2:
        raise FaceError("squares need a face with at least two vertices")
    if classify_pair(f, g, mode="faces") == MIXED:
        raise MixedPairError(f"{f.kind}({f.at}) and {g.kind}({g.at}) form a mixed pair")
    sides = enumerate_sub(p.ambient).square(f, g)
    if sides is None:
        raise FaceError("dendroidal relation failed; pair does not commute")
    return sides[1].domain, *sides, f, g


def join_faces(
    p: Face, f: ElementaryFace, g: ElementaryFace
) -> tuple[Face, list[ElementaryFace], list[ElementaryFace]]:
    """The unique minimal common extension of a codimension-one cospan.

    ``f: p -> p1`` and ``g: p -> p2`` are extensions of ``p`` inside a common
    ambient tree.  Returns ``(join, seq1, seq2)`` with equal-length extension
    sequences from ``p1`` and ``p2`` up to the join, recovered greedily.
    """
    if f.domain.key != p.key or g.domain.key != p.key:
        raise FaceError("both maps must be extensions of p")
    poset = enumerate_sub(p.ambient)
    join = poset.unique_join(f.codomain, g.codomain)
    if join is None:
        mins = poset.minimal_upper_bounds(f.codomain, g.codomain)
        raise FaceError(
            f"expected a unique minimal common extension, found {len(mins)}"
        )
    return join, _chain_up(poset, f.codomain, join), _chain_up(poset, g.codomain, join)


def _chain_up(poset: SubPoset, start: Face, goal: Face) -> list[ElementaryFace]:
    seq: list[ElementaryFace] = []
    current = start
    while current.key != goal.key:
        step = min(
            (
                ef
                for ef in poset.extensions_of(current)
                if poset.leq(ef.codomain_key, goal.key)
            ),
            key=lambda ef: (ef.kind, ef.at, ef.codomain_key),
        )
        seq.append(step)
        current = step.codomain
    return seq


def join_bad_tops_explicit(p: Face, f: ElementaryFace, g: ElementaryFace) -> Face:
    """Direct construction of the join of two bad sibling-top extensions,
    used as a cross-check for the upper-bound search.

    The join grows both input sets over the shared edge; a new maximal
    edge gets capped exactly when one of the two sides has no input on its
    branch (that side's operation needs the branch to be dead).
    """
    if classify_pair(f, g, mode="extensions") != BAD_SIBLING_TOPS:
        raise FaceError("expected a bad pair of sibling top extensions")
    amb = p.ambient
    a = set(f.codomain.vertex_inputs(f.at))
    b = set(g.codomain.vertex_inputs(g.at))
    edges = p.edges | a | b
    new_max = {
        x for x in a | b if not any(y != x and amb.leq(x, y) for y in edges)
    }
    caps = set(p.caps)
    for x in new_max:
        if not any(amb.leq(y, x) for y in a) or not any(amb.leq(y, x) for y in b):
            caps.add(x)
    return Face(amb, edges, frozenset(caps))


def satisfies_shuffle_conditions(sh: Shuffle) -> bool:
    """Literal check of the defining conditions: edges are pairs, the root
    is the pair of roots, the leaves are exactly the pairs of leaves, and
    every vertex expands one coordinate."""
    S, T = sh.s_tree.tree, sh.t_tree.tree
    tr = sh.tree.tree
    for e in tr.edges:
        s, t = split_name(e)
        if s not in S.edges or t not in T.edges:
            return False
    if split_name(tr.root) != (S.root, T.root):
        return False
    want_leaves = {pair_name(s, t) for s in S.leaves for t in T.leaves}
    if tr.leaves != want_leaves:
        return False
    for e in tr.edges - tr.leaves:
        s, t = split_name(e)
        kids = set(tr.children[e])
        white = (
            s not in S.leaves
            and kids == {pair_name(c, t) for c in S.children[s]}
        )
        black = (
            t not in T.leaves
            and kids == {pair_name(s, c) for c in T.children[t]}
        )
        if not (white or black):
            return False
    return True
