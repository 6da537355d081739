"""The pair classes against their literal definitions.

A mixed pair of faces of one face is an inner face ``inner(e)`` and a top
or bottom face at the same edge ``e``, in either order.  A bad pair of
extensions of one face is two top faces at one edge, or two bottom faces.
``check_axioms`` reads the same predicates as ``classify_pair``, so the
reference in ``test_axioms_reference`` cannot catch a wrong pair rule;
this test compares every ordered pair of maps into a face and out of a
face with the rules written out below.
"""

from collections import Counter

from dendro.faces import (
    BOTTOM,
    INNER,
    TOP,
    enumerate_sub,
)
from dendro.reference import BAD_SIBLING_BOTTOMS, BAD_SIBLING_TOPS, GOOD, MIXED, classify_pair
from dendro.trees import parse_tree as p
from dendro.trees import tree_catalog

EXTRA = ["r[c[] d e[a b] f]", "r[x a[]]", "e[c1 b1[a1 a2] c2 a3[b2 b3] c3]"]


def _mixed_one_way(inner, outer):
    return inner.kind == INNER and outer.kind in (TOP, BOTTOM) and outer.at == inner.at


def _face_class(f, g):
    return MIXED if _mixed_one_way(f, g) or _mixed_one_way(g, f) else GOOD


def _extension_class(f, g):
    if f.kind == TOP and g.kind == TOP and f.at == g.at:
        return BAD_SIBLING_TOPS
    if f.kind == BOTTOM and g.kind == BOTTOM:
        return BAD_SIBLING_BOTTOMS
    return GOOD


def _ordered_pairs(maps):
    return [(f, g) for f in maps for g in maps if f is not g]


def test_pair_classes_match_their_definitions():
    trees = [pt.tree for pt in tree_catalog(3, 3)] + [p(text).tree for text in EXTRA]
    seen = Counter()
    for t in trees:
        poset = enumerate_sub(t)
        for face in poset:
            for f, g in _ordered_pairs(poset.faces_of(face)):
                want = _face_class(f, g)
                assert classify_pair(f, g, mode="faces") == want, (f, g)
                seen[want] += 1
            for f, g in _ordered_pairs(poset.extensions_of(face)):
                want = _extension_class(f, g)
                assert classify_pair(f, g, mode="extensions") == want, (f, g)
                seen[want] += 1
    assert set(seen) == {MIXED, BAD_SIBLING_TOPS, BAD_SIBLING_BOTTOMS, GOOD}, seen
