import pytest

from dendro.anodyne import (
    AxiomError,
    Certificate,
    ExtensionSet,
    build_filtration,
    canonical_extensions,
    check_axioms,
    class_of_steps,
    filtration_steps,
    inner_extension_set,
    segal_certificate,
)
from dendro.complexes import (
    boundary_complex,
    empty_complex,
    full_complex,
    horn_complex,
    segal_core,
)
from dendro.faces import INNER, TOP, enumerate_sub, full_face, make_key
from dendro.order import edge_order
from dendro.trees import parse_tree, tree, tree_catalog

EXAMPLE = "r[c[] d e[a b] f]"


def inner_set(text):
    t = tree(text)
    return inner_extension_set(t, segal_core(t))


class TestExtensionSet:
    def test_members_must_be_missing(self):
        t = tree("a[b[c]]")
        sub = enumerate_sub(t)
        base = segal_core(t)
        present = [ef for ef in sub.covers if base.contains(ef.codomain_key)]
        assert present
        assert ExtensionSet(sub, base, set(present).__contains__).members == ()
        every = ExtensionSet(sub, base, lambda ef: True).members
        assert every
        for ef in every:
            assert not base.contains(ef.codomain_key)
            assert not base.contains(ef.domain.key)

    def test_segal_set_of_linear_two(self):
        es = inner_set("a[b[c]]")
        assert len(es.members) == 1
        (m,) = es.members
        assert m.kind == INNER and m.at == "b"


class TestAxioms:
    def test_segal_axioms_hold(self):
        for text in ("a[b[c]]", EXAMPLE, "r[x y[u v]]", "r[c[]]"):
            report = check_axioms(inner_set(text))
            assert report.ok, (text, report.summary())

    def test_mixed_pair_fails_f1(self):
        t = tree(EXAMPLE)
        sub = enumerate_sub(t)
        top = full_face(t)
        base = boundary_complex(t)
        # remove the two faces at e from the base so both maps are missing;
        # use the closure complement instead: take base = segal core and
        # hand-pick a mixed pair of maps into the full face
        base = segal_core(t)
        maps = {
            (ef.kind, ef.at): ef for ef in sub.faces_of(top.key)
        }
        es = ExtensionSet(sub, base, {maps[(INNER, "e")], maps[(TOP, "e")]}.__contains__)
        report = check_axioms(es)
        assert not report.passed("F1")

    def test_empty_set_fails_f5(self):
        t = tree("a[b[c]]")
        es = ExtensionSet(enumerate_sub(t), segal_core(t), set().__contains__)
        report = check_axioms(es)
        assert not report.passed("F5")

    def test_f2_witness_names_extension(self):
        # two sibling tops out of Face(a) make a third one bad with both
        t = tree("a[b[c[d]]]")
        sub = enumerate_sub(t)
        ab, ac, ad = (sub.face_map(make_key(k, ()), TOP, "a") for k in ("ab", "ac", "ad"))
        report = check_axioms(ExtensionSet(sub, empty_complex(t), {ab, ac}.__contains__))
        assert not report.passed("F2")
        assert report.failures["F2"][0] == f"{ad!r} has bad partners {[ab, ac]!r}"

    def test_f3_witness_names_missing_side(self):
        # inner(b) into Face(a,b,c) and top(c) out of it, but not inner(b)
        # into Face(a,b,c,d): the square at the full face is open
        t = tree("a[b[c[d]]]")
        sub = enumerate_sub(t)
        low = sub.face_map(make_key("abc", ()), INNER, "b")
        high = sub.face_map(make_key("abcd", ()), TOP, "c")
        report = check_axioms(ExtensionSet(sub, segal_core(t), {low, high}.__contains__))
        assert not report.passed("F3")
        missing = sub.face_map(make_key("abcd", ()), INNER, "b")
        assert report.failures["F3"][0].endswith(f"not closed: missing {missing!r}")

    def test_f4_witness_names_interval_map(self):
        # inner(b) out of Face(a,c) alone: the interval from Face(a,c,d) up
        # to the join, the full face, needs inner(b) into the full face
        t = tree("a[b[c[d]]]")
        sub = enumerate_sub(t)
        member = sub.face_map(make_key("abc", ()), INNER, "b")
        report = check_axioms(ExtensionSet(sub, segal_core(t), {member}.__contains__))
        assert not report.passed("F4")
        outside = sub.face_map(make_key("abcd", ()), INNER, "b")
        assert report.failures["F4"][0].startswith(f"interval map {outside!r} outside the set")

    def test_f5_witness_names_face(self):
        t = tree("a[b[c]]")
        report = check_axioms(ExtensionSet(enumerate_sub(t), segal_core(t), set().__contains__))
        assert report.failures["F5"]


class TestCanonical:
    def test_linear_two_single_pair(self):
        es = inner_set("a[b[c]]")
        pairs = canonical_extensions(es, edge_order(parse_tree("a[b[c]]")))
        assert len(pairs) == 1
        assert pairs[0].domain.key == make_key({"a", "c"}, ())
        assert pairs[0].codomain_key == make_key({"a", "b", "c"}, ())

    def test_pairs_partition_missing(self):
        for text in (EXAMPLE, "r[x y[u v]]", "r[c[] d]"):
            pt = parse_tree(text)
            es = inner_set(text)
            pairs = canonical_extensions(es, edge_order(pt))
            seen = set()
            for ef in pairs:
                seen |= {ef.domain.key, ef.codomain_key}
            assert seen == {p.key for p in es.missing}


class TestFiltration:
    def test_segal_linear_two(self):
        cert = segal_certificate(parse_tree("a[b[c]]"))
        assert cert.class_tag == "operadic"
        assert len(cert.steps) == 1
        assert cert.steps[0].omit_kind == INNER

    def test_horn_is_its_own_certificate(self):
        t = tree("a[b[c]]")
        base = horn_complex(t, (INNER, "b"))
        sub = enumerate_sub(t)
        member = next(
            ef
            for ef in sub.faces_of(full_face(t).key)
            if (ef.kind, ef.at) == (INNER, "b")
        )
        es = ExtensionSet(sub, base, {member}.__contains__)
        cert = build_filtration(es, edge_order(parse_tree("a[b[c]]")))
        assert len(cert.steps) == 1
        assert cert.class_tag == "operadic"

    def test_axiom_failure_raises(self):
        t = tree("a[b[c]]")
        es = ExtensionSet(enumerate_sub(t), segal_core(t), set().__contains__)
        with pytest.raises(AxiomError):
            filtration_steps(es, edge_order(parse_tree("a[b[c]]")))

    def test_deterministic_bytes(self):
        a = segal_certificate(parse_tree(EXAMPLE)).dumps()
        b = segal_certificate(parse_tree(EXAMPLE)).dumps()
        assert a == b

    def test_json_round_trip(self):
        cert = segal_certificate(parse_tree(EXAMPLE))
        again = Certificate.loads(cert.dumps())
        assert again.dumps() == cert.dumps()
        assert again.base.members == cert.base.members

    def test_segal_all_small_trees(self):
        # build_filtration self-replays, so constructing without raising is
        # already a strong check
        for pt in tree_catalog(3, 3):
            if pt.tree.num_vertices() < 2:
                continue
            cert = segal_certificate(pt)
            assert cert.class_tag == "operadic"
            added = {s.face for s in cert.steps}
            assert len(added) == len(cert.steps)

    def test_class_of_steps(self):
        from dendro.anodyne import Step

        assert class_of_steps([Step((("a",), ()), INNER, "x")]) == "operadic"
        assert class_of_steps([Step((("a",), ()), TOP, "x")]) == "covariant"
        assert (
            class_of_steps(
                [
                    Step((("a",), ()), "bottom", "x"),
                    Step((("a",), ()), INNER, "y"),
                ]
            )
            == "stable"
        )
