"""One rule decides the elementary faces of a face.

The reference functions below are the earlier ``apply_elementary_face`` and
``all_elementary_faces``, which each stated the site conditions on their
own.  Both now read ``faces._elementary_domains``; they must give the same
domains, the same errors and the same order as before.
"""

import pytest

from dendro import faces
from dendro.faces import (
    BOTTOM,
    INNER,
    TOP,
    ElementaryFace,
    Face,
    FaceError,
    SubPoset,
    all_elementary_faces,
    enumerate_sub,
)
from dendro.reference import apply_elementary_face
from dendro.trees import parse_tree, tree_catalog


def reference_apply(p: Face, kind: str, at: str) -> Face:
    if kind == INNER:
        if at not in p.inner_edges:
            raise FaceError(f"{at!r} is not an inner edge of the face")
        edges = p.edges - {at}
        caps = p.caps
        if at in caps:
            caps = caps - {at}
            par = p.parent[at]
            if p.children[par] == (at,):
                caps = caps | {par}
        return Face(p.ambient, edges, caps)
    if kind == TOP:
        if at in p.caps:
            return Face(p.ambient, p.edges, p.caps - {at})
        if at in p.leaves or at not in p.edges:
            raise FaceError(f"{at!r} carries no vertex in the face")
        inputs = set(p.children[at])
        if not inputs <= p.leaves:
            raise FaceError(f"vertex over {at!r} is not a top vertex")
        return Face(p.ambient, p.edges - inputs, p.caps)
    if kind == BOTTOM:
        if at not in p.children.get(p.root, ()):
            raise FaceError(f"{at!r} is not an input of the root vertex")
        if p.is_corolla():
            return Face(p.ambient, {at}, ())
        others = set(p.children[p.root]) - {at}
        if not others <= p.leaves:
            raise FaceError("all other inputs of the root vertex must be leaves")
        if at in p.leaves:
            raise FaceError("kept input must be the unique non-leaf input")
        kept = {e for e in p.edges if p.ambient.leq(at, e)}
        return Face(p.ambient, kept, p.caps & kept)
    raise FaceError(f"unknown face kind {kind!r}")


def reference_all(p: Face) -> list[ElementaryFace]:
    out: list[ElementaryFace] = []
    for e in sorted(p.inner_edges):
        out.append(ElementaryFace(INNER, e, reference_apply(p, INNER, e), p))
    tops = set(p.caps)
    for e in p.edges:
        if p.children[e] and set(p.children[e]) <= p.leaves:
            tops.add(e)
    for e in sorted(tops):
        out.append(ElementaryFace(TOP, e, reference_apply(p, TOP, e), p))
    root_inputs = p.children.get(p.root, ())
    if root_inputs:
        if p.is_corolla():
            kept = list(root_inputs)
        else:
            non_leaf = [e for e in root_inputs if e not in p.leaves]
            kept = non_leaf if len(non_leaf) == 1 else []
        for e in sorted(kept):
            out.append(ElementaryFace(BOTTOM, e, reference_apply(p, BOTTOM, e), p))
    return out


def _key_or_error(fn, *args):
    try:
        return fn(*args).key
    except FaceError:
        return FaceError


def _catalog_faces():
    for pt in tree_catalog(3, 3):
        yield from enumerate_sub(pt.tree)


def test_apply_matches_reference_on_every_site():
    sites = 0
    for p in _catalog_faces():
        for kind in (INNER, TOP, BOTTOM, "sideways"):
            for at in sorted(p.ambient.edges):
                want = _key_or_error(reference_apply, p, kind, at)
                assert _key_or_error(apply_elementary_face, p, kind, at) == want, (p, kind, at)
                sites += want is not FaceError
    assert sites > 0


def test_all_elementary_faces_match_reference_in_order():
    for p in _catalog_faces():
        got = [(ef.kind, ef.at, ef.domain.key) for ef in all_elementary_faces(p)]
        want = [(ef.kind, ef.at, ef.domain.key) for ef in reference_all(p)]
        assert got == want, p


def test_sub_builds_each_face_once(monkeypatch):
    tree = parse_tree("".join(f"x{i}[" for i in range(9)) + "x9" + "]" * 9).tree
    built = []
    init = Face.__init__

    def counted(face, *args, **kwargs):
        built.append(face)
        init(face, *args, **kwargs)

    monkeypatch.setattr(faces.Face, "__init__", counted)
    poset = SubPoset(tree)
    assert len(built) == len(poset) == 1023
    for ef in poset.covers:
        assert ef.domain is poset.face(ef.domain.key)
        assert ef.codomain is poset.face(ef.codomain_key)


@pytest.mark.parametrize("dsl", ["r[c[] d e[a b] f]", "a[b[c[]]]", "r[x y]"])
def test_poset_covers_match_reference(dsl):
    poset = SubPoset(parse_tree(dsl).tree)
    for f in poset:
        got = [(ef.kind, ef.at, ef.domain.key) for ef in poset.faces_of(f)]
        want = sorted((ef.kind, ef.at, ef.domain.key) for ef in reference_all(f))
        assert got == want, f
