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
from dendro.faces import BOTTOM, Face, all_elementary_faces, all_valid_face_keys, enumerate_sub
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
