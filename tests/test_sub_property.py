"""Property test of the face poset build on random planar trees.

Trees have at most six vertices of arity at most three; a vertex without
inputs is a stump.  Each tree's poset is built cold and checked against the
brute-force face oracle and against the elementary-face rule.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendro import faces
from dendro.faces import (
    BOTTOM,
    Face,
    all_elementary_faces,
    all_valid_face_keys,
    enumerate_sub,
    make_key,
)
from dendro.trees import parse_tree

MAX_VERTICES = 6
MAX_ARITY = 3


@st.composite
def planar_trees(draw):
    """A random tree in the DSL: each edge is a leaf or carries a vertex
    with 0 (a stump) to ``MAX_ARITY`` inputs, at most ``MAX_VERTICES`` in all."""
    names = (f"e{i}" for i in itertools.count())
    budget = [draw(st.integers(0, MAX_VERTICES))]

    def edge() -> str:
        name = next(names)
        if not budget[0] or not draw(st.booleans()):
            return name
        budget[0] -= 1
        inputs = [edge() for _ in range(draw(st.integers(0, MAX_ARITY)))]
        return f"{name}[{' '.join(inputs)}]"

    return parse_tree(edge())


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(planar_trees())
def test_cold_sub_is_the_oracle_with_rule_ordered_maps(pt):
    ambient = pt.tree
    built = []
    init = Face.__init__

    def counted(face, *args, **kwargs):
        built.append(face)
        init(face, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(faces, "_sub_cache", {})
        mp.setattr(faces.Face, "__init__", counted)
        poset = enumerate_sub(ambient)
    assert len(built) == len(poset)
    assert {f.key for f in poset} == all_valid_face_keys(ambient)
    for f in poset:
        got = poset.faces_of(f)
        rule = all_elementary_faces(f)
        bottoms = [ef for ef in rule if ef.kind == BOTTOM]
        assert got == bottoms + [ef for ef in rule if ef.kind != BOTTOM], f
        assert got == sorted(got, key=lambda ef: (ef.kind, ef.at)), f


def reference_structure(ambient, edge_mask, cap_mask):
    """``(edges, caps, root, parent, children, rank)`` of a face, derived
    eagerly from its masks as the earlier ``Face`` built them from names."""
    names = sorted(ambient.edges)
    edges = frozenset(e for i, e in enumerate(names) if edge_mask >> i & 1)
    caps = frozenset(e for i, e in enumerate(names) if cap_mask >> i & 1)
    parent, children, roots = {}, {e: [] for e in edges}, []
    for e in edges:
        q = ambient.parent.get(e)
        while q is not None and q not in edges:
            q = ambient.parent.get(q)
        if q is None:
            roots.append(e)
        else:
            parent[e] = q
            children[q].append(e)
    rank = len(set(parent.values())) + len(caps)
    children = {e: tuple(sorted(cs)) for e, cs in children.items()}
    return edges, caps, roots[0], parent, children, rank


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(planar_trees())
def test_lazy_fields_match_an_eager_derivation(pt):
    ambient = pt.tree
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(faces, "_sub_cache", {})
        poset = enumerate_sub(ambient)
    for f in poset:
        want = reference_structure(ambient, f.edge_mask, f.cap_mask)
        assert (f.edges, f.caps, f.root, f.parent, f.children, f.rank) == want, f
        edges, caps, root, _, children, rank = want
        assert f.key == make_key(edges, caps)
        maximal = {e for e in edges if not children[e]}
        assert (f.maximal, f.leaves) == (maximal, maximal - caps), f
        assert f.is_corolla() == (rank == 1 and bool(children[root])), f
