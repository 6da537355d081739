import itertools

import pytest

from dendro.faces import (
    ADJACENT,
    BAD_SIBLING_BOTTOMS,
    BAD_SIBLING_TOPS,
    BOTTOM,
    GOOD,
    INNER,
    MIXED,
    TOP,
    ElementaryFace,
    Face,
    FaceError,
    MixedPairError,
    SubPoset as SubPosetFresh,
    all_elementary_faces,
    all_valid_face_keys,
    apply_elementary_face,
    classify_pair,
    commute_square,
    enumerate_sub,
    full_face,
    join_bad_tops_explicit,
    join_faces,
    make_key,
    valid_face_key,
)
from dendro.trees import tree, tree_catalog

EXAMPLE = "r[c[] d e[a b] f]"


def faces_by_site(p):
    return {(ef.kind, ef.at): ef for ef in all_elementary_faces(p)}


class TestFaceBasics:
    def test_full_face_of_example(self):
        p = full_face(tree(EXAMPLE))
        assert p.caps == {"c"}
        assert p.leaves == {"a", "b", "d", "f"}
        assert p.rank == 3

    def test_rank_counts_caps(self):
        t = tree("r[c[]]")
        assert full_face(t).rank == 2
        assert Face(t, {"c"}, {"c"}).rank == 1
        assert Face(t, {"c"}, ()).rank == 0

    def test_key_equality(self):
        t = tree(EXAMPLE)
        assert Face(t, {"e", "a", "b"}) == Face(t, ["b", "a", "e"])
        assert Face(t, {"c"}, {"c"}) != Face(t, {"c"})

    def test_disconnected_rejected(self):
        t = tree(EXAMPLE)
        with pytest.raises(FaceError):
            Face(t, {"a", "d"})  # two minimal edges

    @pytest.mark.parametrize(
        "edges, caps, message",
        [
            ({"r", "zz", "yy"}, (), "edges not in ambient tree: ['yy', 'zz']"),
            ((), (), "face must have a unique minimal edge, found []"),
            ({"a", "d", "f"}, (), "face must have a unique minimal edge, found ['a', 'd', 'f']"),
            ({"r", "e", "a", "b"}, {"e"}, "caps must be maximal edges of the face"),
            ({"r", "c", "d"}, {"f"}, "caps must be maximal edges of the face"),
            ({"r", "c", "d"}, {"zz"}, "caps must be maximal edges of the face"),
        ],
        ids=[
            "edge outside",
            "no edges",
            "three minimal edges",
            "cap below",
            "cap outside",
            "cap outside the ambient",
        ],
    )
    def test_invalid_face_messages(self, edges, caps, message):
        with pytest.raises(FaceError) as err:
            Face(tree(EXAMPLE), edges, caps)
        assert str(err.value) == message


class TestElementaryFaces:
    def test_unit_face_has_none(self):
        t = tree("e")
        assert all_elementary_faces(full_face(t)) == []

    def test_map_equality_hash_and_repr(self):
        t = tree(EXAMPLE)
        edges = {"r", "c", "d", "e", "a", "b", "f"}

        def inner_e(kind=INNER, at="e", low=edges - {"e"}, high=edges):
            return ElementaryFace(kind, at, Face(t, low, {"c"}), Face(t, high, {"c"}))

        f, g = inner_e(), inner_e()
        assert f.codomain is not g.codomain and f.codomain == g.codomain
        assert f == g and hash(f) == hash(g)
        assert hash(f) == hash((f.kind, f.at, f.domain, f.codomain_key))
        assert f.codomain_key == make_key(edges, {"c"})
        changed = [
            inner_e(kind=TOP),
            inner_e(at="c"),
            inner_e(low=edges - {"a", "b"}),
            inner_e(high=edges - {"f"}),
        ]
        for h in changed:
            assert f != h and not f == h
        assert len({f, g, *changed}) == 5
        assert (f == "inner(e)") is False and f != 0
        assert f.__eq__(object()) is NotImplemented
        assert repr(f) == "inner(e): Face(a,b,c,d,f,r; caps c) -> Face(a,b,c,d,e,f,r; caps c)"

    def test_corolla(self):
        p = full_face(tree("r[x y]"))
        got = {(ef.kind, ef.at) for ef in all_elementary_faces(p)}
        assert got == {(TOP, "r"), (BOTTOM, "x"), (BOTTOM, "y")}

    def test_example_tree_faces(self):
        p = full_face(tree(EXAMPLE))
        got = {(ef.kind, ef.at) for ef in all_elementary_faces(p)}
        # c is a stump output, hence an inner edge: it can be contracted,
        # and its cap can be chopped.  No bottom face: two non-leaf inputs.
        assert got == {(INNER, "c"), (INNER, "e"), (TOP, "c"), (TOP, "e")}

    def test_inner_contraction_merges_vertices(self):
        p = full_face(tree(EXAMPLE))
        d = apply_elementary_face(p, INNER, "e")
        assert d.key == make_key({"r", "c", "d", "a", "b", "f"}, {"c"})

    def test_cap_removal(self):
        p = full_face(tree(EXAMPLE))
        d = apply_elementary_face(p, TOP, "c")
        assert d.key == make_key(p.edges, ())

    def test_contracting_capped_edge(self):
        p = full_face(tree(EXAMPLE))
        d = apply_elementary_face(p, INNER, "c")
        assert d.key == make_key({"r", "d", "e", "a", "b", "f"}, ())

    def test_contracting_capped_edge_under_unary_vertex(self):
        p = full_face(tree("r[c[]]"))
        d = apply_elementary_face(p, INNER, "c")
        assert d.key == make_key({"r"}, {"r"})

    def test_bottom_inapplicable_on_example(self):
        p = full_face(tree(EXAMPLE))
        with pytest.raises(FaceError):
            apply_elementary_face(p, BOTTOM, "e")

    def test_bottom_keeps_caps(self):
        p = full_face(tree("r[c[] d]"))
        d = apply_elementary_face(p, BOTTOM, "c")
        assert d.key == make_key({"c"}, {"c"})

    def test_corolla_bottoms_give_units(self):
        p = full_face(tree("a[b]"))
        d = apply_elementary_face(p, BOTTOM, "b")
        assert d.key == make_key({"b"}, ())

    def test_rank_drops_by_one_everywhere(self):
        for pt in tree_catalog(3, 3):
            for p in enumerate_sub(pt.tree):
                for ef in all_elementary_faces(p):
                    assert ef.domain.rank == p.rank - 1


class TestSub:
    def test_unit(self):
        assert len(enumerate_sub(tree("e"))) == 1

    def test_corolla_two(self):
        sub = enumerate_sub(tree("r[x y]"))
        assert len(sub) == 4

    def test_linear_two(self):
        # matches the nondegenerate simplices of a 2-simplex: 3 + 3 + 1
        sub = enumerate_sub(tree("a[b[c]]"))
        assert len(sub) == 7

    def test_two_stump_tree(self):
        sub = enumerate_sub(tree("r[c[]]"))
        keys = {f.key for f in sub}
        assert make_key({"r"}, {"r"}) in keys
        assert len(sub) == 6

    def test_deterministic_order(self):
        a = [f.key for f in enumerate_sub(tree(EXAMPLE))]
        b = [f.key for f in SubPosetFresh(tree(EXAMPLE))]
        assert a == b

    def test_predicate_matches_closure_on_example(self):
        t = tree(EXAMPLE)
        closure = {f.key for f in enumerate_sub(t)}
        assert closure == all_valid_face_keys(t)
        for f in enumerate_sub(t):
            assert valid_face_key(t, f.edges, f.caps)


class TestPairs:
    def test_mixed_pair_inner_top(self):
        p = full_face(tree(EXAMPLE))
        by = faces_by_site(p)
        assert classify_pair(by[(INNER, "e")], by[(TOP, "e")]) == MIXED
        assert classify_pair(by[(INNER, "c")], by[(TOP, "c")]) == MIXED
        assert classify_pair(by[(INNER, "e")], by[(TOP, "c")]) == GOOD

    def test_mixed_pair_inner_bottom(self):
        p = full_face(tree("a[d e[x y]]"))
        by = faces_by_site(p)
        assert classify_pair(by[(INNER, "e")], by[(BOTTOM, "e")]) == MIXED

    def test_outer_pair_good(self):
        p = full_face(tree("a[b[c]]"))
        by = faces_by_site(p)
        assert classify_pair(by[(TOP, "b")], by[(BOTTOM, "b")]) == GOOD

    def test_bad_sibling_tops(self):
        # the two corollas over a single edge e
        amb = tree("e[c1 b1[a1 a2] c2 a3[b2 b3] c3]")
        p = Face(amb, {"e"})
        p1 = Face(amb, {"e", "c1", "a1", "a2", "c2", "a3", "c3"})
        p2 = Face(amb, {"e", "c1", "b1", "c2", "b2", "b3", "c3"})
        f = ElementaryFace(TOP, "e", p, p1)
        g = ElementaryFace(TOP, "e", p, p2)
        assert classify_pair(f, g, mode="extensions") == BAD_SIBLING_TOPS

    def test_bad_sibling_bottoms(self):
        # with a stump sibling available, the unit at x has two distinct
        # bottom extensions (corollas over r with and without the dead input)
        amb = tree("r[x a[]]")
        sub = enumerate_sub(amb)
        bottoms = [
            ef for ef in sub.extensions_of(make_key({"x"}, ())) if ef.kind == BOTTOM
        ]
        assert len(bottoms) == 2
        assert (
            classify_pair(bottoms[0], bottoms[1], mode="extensions")
            == BAD_SIBLING_BOTTOMS
        )

    def test_adjacent_stacked_tops(self):
        amb = tree("h[c d e[a b]]")
        p = full_face(amb)
        g = faces_by_site(p)[(TOP, "e")]
        f = faces_by_site(g.domain)[(TOP, "h")]
        assert classify_pair(f, g, mode="composable") == ADJACENT

    def test_composable_good(self):
        amb = tree("a[b[c[d]]]")
        p = full_face(amb)
        g = faces_by_site(p)[(INNER, "b")]
        f = faces_by_site(g.domain)[(INNER, "c")]
        assert classify_pair(f, g, mode="composable") == GOOD


class TestSquares:
    def test_linear_inner_square(self):
        p = full_face(tree("a[b[c[d]]]"))
        by = faces_by_site(p)
        corner, *_ = commute_square(p, by[(INNER, "b")], by[(INNER, "c")])
        assert corner.key == make_key({"a", "d"}, ())

    def test_example_top_top_square(self):
        p = full_face(tree(EXAMPLE))
        by = faces_by_site(p)
        corner, *_ = commute_square(p, by[(TOP, "c")], by[(TOP, "e")])
        assert corner.key == make_key({"r", "c", "d", "e", "f"}, ())

    def test_mixed_pair_raises(self):
        p = full_face(tree(EXAMPLE))
        by = faces_by_site(p)
        with pytest.raises(MixedPairError):
            commute_square(p, by[(INNER, "e")], by[(TOP, "e")])

    def test_all_squares_commute_small(self):
        for pt in tree_catalog(3, 3):
            for p in enumerate_sub(pt.tree):
                if p.rank < 2:
                    continue
                efs = all_elementary_faces(p)
                for f, g in itertools.combinations(efs, 2):
                    if classify_pair(f, g) == MIXED:
                        continue
                    corner, f_low, g_low, _, _ = commute_square(p, f, g)
                    assert f_low.domain.key == corner.key


class TestJoin:
    def test_good_pair_join_is_square(self):
        amb = tree("a[b[c[d]]]")
        sub = enumerate_sub(amb)
        p = Face(amb, {"a", "d"})
        exts = sub.extensions_of(p.key)
        f = next(ef for ef in exts if ef.codomain.edges == {"a", "b", "d"})
        g = next(ef for ef in exts if ef.codomain.edges == {"a", "c", "d"})
        join, s1, s2 = join_faces(p, f, g)
        assert join.edges == {"a", "b", "c", "d"}
        assert len(s1) == len(s2) == 1

    def test_worked_example_join(self):
        amb = tree("e[c1 b1[a1 a2] c2 a3[b2 b3] c3]")
        sub = enumerate_sub(amb)
        p = Face(amb, {"e"})
        k1 = make_key({"e", "c1", "a1", "a2", "c2", "a3", "c3"}, ())
        k2 = make_key({"e", "c1", "b1", "c2", "b2", "b3", "c3"}, ())
        exts = {ef.codomain_key: ef for ef in sub.extensions_of(p.key)}
        f, g = exts[k1], exts[k2]
        join, s1, s2 = join_faces(p, f, g)
        assert join.key == full_face(amb).key
        assert len(s1) == len(s2) == 2
        explicit = join_bad_tops_explicit(p, f, g)
        assert explicit.key == join.key

    def test_join_with_stump_extension(self):
        amb = tree("r[c[]]")
        sub = enumerate_sub(amb)
        p = Face(amb, {"r"})
        exts = sub.extensions_of(p.key)
        cap = next(ef for ef in exts if ef.codomain.caps)
        grow = next(ef for ef in exts if not ef.codomain.caps)
        join, s1, s2 = join_faces(p, cap, grow)
        assert join.key == full_face(amb).key
