"""One square rule: ``SubPoset.square`` against the earlier transports.

The two reference functions below are copied verbatim from the earlier
``dendro.faces``: the adjacency test that made two ``face_map`` lookups,
and the commuting square that applied the elementary-face rule to each
domain and built the corner outside any poset.  ``SubPoset.square``, which
F3 in ``check_axioms``, ``_is_adjacent`` and ``commute_square`` now all read,
must give the same corner and the same side labels on every non-mixed
pair of faces, and the same adjacency verdict on every composable pair of
covers.
"""

import itertools

from dendro.faces import (
    MIXED,
    ElementaryFace,
    Face,
    FaceError,
    MixedPairError,
    SubPoset,
    _is_adjacent,
    apply_elementary_face,
    classify_pair,
    commute_square,
    enumerate_sub,
)
from dendro.shuffles import enumerate_shuffles
from dendro.trees import parse_tree, tree_catalog


def reference_is_adjacent(poset: SubPoset, f: ElementaryFace, g: ElementaryFace) -> bool:
    """Adjacency for a composable pair ``f: Q -> P``, ``g: P -> P'`` of the
    ambient's ``poset``: the pair admits no commuting square, i.e. the map
    labelled like ``f`` cannot be transported to a face of ``g``'s codomain."""
    cand = poset.face_map(g.codomain, f.kind, f.at)
    if cand is None:
        return True
    back = poset.face_map(cand.domain, g.kind, g.at)
    return back is None or back.domain.key != f.domain.key


def reference_commute_square(
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
    fg = apply_elementary_face(f.domain, g.kind, g.at)
    gf = apply_elementary_face(g.domain, f.kind, f.at)
    if fg.key != gf.key:
        raise FaceError("dendroidal relation failed; pair does not commute")
    g_low = ElementaryFace(g.kind, g.at, fg, f.domain)
    f_low = ElementaryFace(f.kind, f.at, fg, g.domain)
    return fg, f_low, g_low, f, g


def _ambients():
    out = [pt.tree for pt in tree_catalog(3, 3)]
    shuffles = enumerate_shuffles(parse_tree("s0[s1[s2]]"), parse_tree("t0[t1 t2]"))
    return out + [sh.tree.tree for sh in shuffles]


def _side(ef):
    return (ef.kind, ef.at, ef.domain.key, ef.codomain_key)


def test_square_matches_reference():
    squares = 0
    for ambient in _ambients():
        poset = enumerate_sub(ambient)
        for p in poset:
            if p.rank < 2:
                continue
            for f, g in itertools.permutations(poset.faces_of(p), 2):
                if classify_pair(f, g, mode="faces") == MIXED:
                    continue
                corner, f_low, g_low, _, _ = reference_commute_square(p, f, g)
                want = [_side(f_low), _side(g_low)]
                sides = poset.square(f, g)
                assert sides is not None and [_side(s) for s in sides] == want, (f, g)
                assert sides[0].domain is sides[1].domain
                got = commute_square(p, f, g)
                assert got[0].key == corner.key
                assert [_side(s) for s in got[1:]] == want + [_side(f), _side(g)]
                squares += 1
    assert squares > 1000


def test_adjacency_matches_reference():
    verdicts = {True: 0, False: 0}
    for ambient in _ambients():
        poset = enumerate_sub(ambient)
        for p in poset:
            for f in poset.faces_of(p):
                for g in poset.extensions_of(p):
                    want = reference_is_adjacent(poset, f, g)
                    assert _is_adjacent(poset, f, g) == want, (f, g)
                    verdicts[want] += 1
    assert min(verdicts.values()) > 100
