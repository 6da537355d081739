"""Extension sets and their axioms read face positions, not face keys.

Every face of a poset knows its position in ``SubPoset.faces``; an
extension set resolves its members to the poset's own covers and keeps one
member mask per codomain position.  Maps from a second, equal poset must
give the same answers as the memo's own maps.
"""

import random

import pytest
from test_axioms_reference import _random_sets

from dendro import anodyne, faces
from dendro.anodyne import ExtensionSet, check_axioms, inner_extension_set
from dendro.complexes import empty_complex, segal_core
from dendro.faces import INNER, TOP, ElementaryFace, Face, FaceError, SubPoset, enumerate_sub
from dendro.shuffles import enumerate_shuffles
from dendro.trees import parse_tree as p
from dendro.trees import tree_catalog


def _linear(n):
    return p("".join(f"x{i}[" for i in range(n)) + f"x{n}" + "]" * n).tree


def _ambients():
    out = [pt.tree for pt in tree_catalog(3, 3)]
    shuffles = enumerate_shuffles(p("s0[s1[s2[s3[s4]]]]"), p("t0[t1 t2]"))
    return out + [sh.tree.tree for sh in shuffles]


def test_every_face_knows_its_position():
    for ambient in _ambients():
        poset = enumerate_sub(ambient)
        for f in poset.faces:
            assert poset.faces[f.pos] is f
            assert poset.index[f.key] is f.pos
            # Sub(T) is a poset: the maps into a face have distinct domains
            domains = [ef.domain.pos for ef in poset.faces_of(f)]
            assert len(set(domains)) == len(domains)


def test_face_outside_a_poset_has_no_position():
    t = p("a[b c]").tree
    assert Face(t, {"a", "b"}).pos == -1
    assert faces.full_face(t).pos == -1


def _twins(es):
    """The set rebuilt from its members in one order, and the same set built
    from the equal maps of a second poset of the ambient, in the same order
    (F1 lists adjacent pairs in the iteration order of ``members``)."""
    foreign = SubPoset(es.ambient)
    assert foreign is not es.poset
    order = list(es.members)
    maps = [foreign.face_map(ef.codomain_key, ef.kind, ef.at) for ef in order]
    assert all(m is not None and m.codomain is not ef.codomain for m, ef in zip(maps, order))
    own = ExtensionSet(es.ambient, es.base, order, es.top)
    return own, ExtensionSet(es.ambient, es.base, maps, foreign.face(es.top.key)), foreign


def test_foreign_maps_match_own_maps():
    rng = random.Random(20181)
    texts = ("a[b[c[d]]]", "r[c[] d e[a b] f]", "r[a[b c] d[]]", "s0[s1[s2[s3]] s4[s5 s6]]")
    sets = [es for text in texts for es in _random_sets(text, rng, 6)]
    failing = 0
    for es in sets:
        es, twin, foreign = _twins(es)
        assert twin.members == es.members
        assert all(es.poset.faces[m.codomain.pos] is m.codomain for m in twin.members)
        report = check_axioms(es)
        assert check_axioms(twin).failures == report.failures
        failing += not report.ok
        for ef, other in zip(es.poset.covers, foreign.covers):
            want = ef in es.members
            assert es.contains_map(ef) is want and es.contains_map(other) is want
            assert twin.contains_map(ef) is want and twin.contains_map(other) is want
    assert failing and failing < len(sets)


def test_member_that_is_not_a_cover_is_rejected():
    t = p("a[b[c[d]]]").tree
    poset = enumerate_sub(t)
    base = empty_complex(t)
    top = poset.top
    two_down = poset.faces_of(poset.faces_of(top)[0].domain)[0].domain
    relabelled = next(ef for ef in poset.faces_of(top) if ef.kind == INNER)
    other = p("x[y[z]]").tree
    bogus = [
        ElementaryFace(INNER, "b", two_down, top),
        ElementaryFace(TOP, relabelled.at, relabelled.domain, top),
        ElementaryFace(INNER, "y", Face(other, {"x", "z"}), faces.full_face(other)),
    ]
    for ef in bogus:
        with pytest.raises(FaceError, match="not a cover"):
            ExtensionSet(t, base, [ef])


def test_check_axioms_reads_the_set_poset(monkeypatch):
    t = _linear(6)
    es = inner_extension_set(t, segal_core(t))
    calls = []
    real = faces.enumerate_sub

    def counted(ambient):
        calls.append(ambient)
        return real(ambient)

    monkeypatch.setattr(faces, "enumerate_sub", counted)
    monkeypatch.setattr(anodyne, "enumerate_sub", counted)
    assert check_axioms(es).ok
    assert len(calls) <= 3
