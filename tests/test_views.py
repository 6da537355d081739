"""The downset view of a face F in Sub(T) is Sub(F): same keys in the same
(rank, key) order, same ranks, same faces, same extensions inside the view
and the same joins.  Extension sets over a face rely on this instead of
building a poset of the face."""

import itertools

from dendro.anodyne import ExtensionSet
from dendro.complexes import empty_complex
from dendro.faces import SubPoset, enumerate_sub
from dendro.trees import tree_catalog


def _maps(efs):
    return [(ef.kind, ef.at, ef.domain.key, ef.codomain_key) for ef in efs]


def test_face_view_equals_face_poset():
    views = 0
    for pt in tree_catalog(3, 3):
        t = pt.tree
        sub = enumerate_sub(t)
        for face in sub:
            own = SubPoset(face.as_tree())
            es = ExtensionSet(sub, empty_complex(t), set().__contains__, face)
            view = sub.downset(face)
            assert [f.key for f in view] == [f.key for f in own.faces]
            assert [f.key for f in es.missing] == [f.key for f in own.faces]
            assert [f.rank for f in view] == [f.rank for f in own.faces]
            for q in view:
                assert _maps(sub.faces_of(q.key)) == _maps(own.faces_of(q.key))
                exts = es.extensions_of(q.key)
                assert _maps(exts) == _maps(own.extensions_of(q.key))
                for f, g in itertools.combinations(exts, 2):
                    got = sub.minimal_upper_bounds(f.codomain, g.codomain, es.view)
                    want = own.minimal_upper_bounds(own.face(f.codomain_key), own.face(g.codomain_key))
                    assert [m.key for m in got] == [m.key for m in want]
            views += 1
    assert views > 100
