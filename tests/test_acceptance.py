"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (run with ``pytest -s`` to
see them; the test names double as the report under ``-v``).  All checks
are exact; the stated wall-clock budgets are asserted.
"""

import itertools
import math
import time

import pytest
from conftest import independent_swaps, recorded_extension_sets, step_faces

from dendro.anodyne import canonical_extensions, check_axioms, segal_certificate
from dendro.certify import replay_certificate
from dendro.complexes import _universe_of
from dendro.faces import (
    BOTTOM,
    INNER,
    TOP,
    Face,
    all_elementary_faces,
    all_valid_face_keys,
    enumerate_sub,
    full_face,
    make_key,
)
from dendro.order import edge_order
from dendro.pushout import certify_pp_inner, certify_pp_stable, essential_data
from dendro.reference import (
    MIXED,
    apply_elementary_face,
    classify_pair,
    join_bad_tops_explicit,
    valid_face_key,
)
from dendro.shuffles import brute_force_shuffles, enumerate_shuffles, pair_name
from dendro.trees import parse_tree, tree, tree_catalog


@pytest.fixture(scope="module")
def catalog43():
    return list(tree_catalog(4, 3))


def _done(name, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.1f}s)")


def test_ac01_face_poset_oracle_equivalence(catalog43):
    t0 = time.time()
    for pt in catalog43:
        closure = {f.key for f in enumerate_sub(pt.tree)}
        predicate = all_valid_face_keys(pt.tree)
        assert closure == predicate, pt
    _done("1 face-poset oracle equivalence", t0, 30)


def test_ac02_dendroidal_relations(catalog43):
    t0 = time.time()
    for pt in catalog43:
        for p in enumerate_sub(pt.tree):
            if p.rank < 2:
                continue
            efs = all_elementary_faces(p)
            for f, g in itertools.combinations(efs, 2):
                if classify_pair(f, g) == MIXED:
                    # the mixed relation: chop-then-chop equals
                    # contract-then-chop wherever both are defined
                    inner, outer = (f, g) if f.kind == INNER else (g, f)
                    p1 = outer.domain
                    p2 = inner.domain
                    if outer.kind == TOP:
                        h = p.parent.get(inner.at)
                        if h is None:
                            continue
                        for q1, q2 in [(p1, p2)]:
                            ok1 = _try_apply(q1, TOP, h)
                            ok2 = _try_apply(q2, TOP, h)
                            if ok1 is not None and ok2 is not None:
                                assert ok1.key == ok2.key
                    else:
                        for x in set(p1.children.get(p1.root, ())):
                            ok1 = _try_apply(p1, BOTTOM, x)
                            ok2 = _try_apply(p2, BOTTOM, x)
                            if ok1 is not None and ok2 is not None:
                                assert ok1.key == ok2.key
                    continue
                a = apply_elementary_face(f.domain, g.kind, g.at)
                b = apply_elementary_face(g.domain, f.kind, f.at)
                assert a.key == b.key
    _done("2 dendroidal relations", t0, 60)


def _try_apply(face, kind, at):
    try:
        return apply_elementary_face(face, kind, at)
    except Exception:
        return None


def test_ac03_join_uniqueness(catalog43):
    t0 = time.time()
    for pt in catalog43:
        sub = enumerate_sub(pt.tree)
        for p in sub:
            exts = sub.extensions_of(p.key)
            for f, g in itertools.combinations(exts, 2):
                mins = sub.minimal_upper_bounds(f.codomain, g.codomain)
                assert len(mins) == 1, (pt, p.key, f, g)
                if f.kind == TOP and g.kind == TOP and f.at == g.at:
                    explicit = join_bad_tops_explicit(p, f, g)
                    assert explicit.key == mins[0].key
    _done("3 join uniqueness", t0, 60)


def test_ac04_reference_values():
    t0 = time.time()
    # edge total order of the running example tree
    ordr = edge_order(parse_tree("r[c[] d e[a b] f]"))
    assert ordr.sorted(ordr.tree.tree.edges) == ["r", "c", "d", "e", "a", "b", "f"]

    # the displayed shuffle of the worked tensor pair
    S, T = parse_tree("0[1[4 5] 2 3]"), parse_tree("a[b[] c[d[]]]")
    poset = enumerate_shuffles(S, T)
    displayed = {
        ("0", "a"), ("1", "a"), ("2", "a"), ("3", "a"),
        ("1", "b"), ("1", "c"), ("2", "b"), ("2", "c"), ("3", "b"), ("3", "c"),
        ("4", "b"), ("5", "b"), ("1", "d"), ("2", "d"), ("3", "d"), ("4", "d"), ("5", "d"),
    }
    key = tuple(sorted(pair_name(s, t) for s, t in displayed))
    by_key = {sh.key: sh for sh in poset}
    assert key in by_key

    # T-covering and T-top of the displayed essential face
    sh2_edges = {
        ("0", "a"), ("1", "a"), ("2", "a"), ("3", "a"), ("4", "a"), ("5", "a"),
        ("4", "b"), ("4", "c"), ("4", "d"), ("5", "b"), ("5", "c"), ("5", "d"),
        ("2", "b"), ("2", "c"), ("2", "d"), ("3", "b"), ("3", "c"), ("3", "d"),
    }
    sh2_key = tuple(sorted(pair_name(s, t) for s, t in sh2_edges))
    assert sh2_key in by_key
    sh2 = by_key[sh2_key]
    ess_edges = {
        pair_name(s, t)
        for s, t in [
            ("0", "a"), ("1", "a"), ("2", "a"), ("3", "a"), ("4", "a"), ("5", "a"),
            ("4", "b"), ("4", "c"), ("5", "d"),
            ("2", "b"), ("2", "c"), ("2", "d"), ("3", "b"), ("3", "c"), ("3", "d"),
        ]
    }
    ess_caps = {pair_name(s, t) for s, t in [("2", "b"), ("2", "d"), ("3", "b"), ("3", "d")]}
    assert valid_face_key(sh2.tree.tree, ess_edges, ess_caps)
    data = essential_data(sh2, Face(sh2.tree.tree, ess_edges, ess_caps))
    assert data.covered == {"b", "c", "d"}
    assert data.top == {"b", "d"}

    # the displayed join of the two bad sibling corollas
    amb = tree("e[c1 b1[a1 a2] c2 a3[b2 b3] c3]")
    sub = enumerate_sub(amb)
    p = Face(amb, {"e"})
    k1 = make_key({"e", "c1", "a1", "a2", "c2", "a3", "c3"}, ())
    k2 = make_key({"e", "c1", "b1", "c2", "b2", "b3", "c3"}, ())
    exts = {ef.codomain_key: ef for ef in sub.extensions_of(p.key)}
    mins = sub.minimal_upper_bounds(exts[k1].codomain, exts[k2].codomain)
    assert len(mins) == 1
    assert mins[0].key == full_face(amb).key
    _done("4 reference values", t0, 60)


def test_ac05_shuffle_counts():
    t0 = time.time()

    def chain(prefix, n):
        return parse_tree("".join(f"{prefix}{i}[" for i in range(n)) + f"{prefix}{n}" + "]" * n)

    for m in range(0, 8):
        for n in range(0, 8 - m):
            S, T = chain("x", m), chain("y", n)
            fast = enumerate_shuffles(S, T)
            slow = brute_force_shuffles(S, T)
            want = math.comb(m + n, n)
            assert len(fast) == want and len(slow) == want, (m, n)

    pairs = list(tree_catalog(2, 3))
    for S in pairs:
        for T in pairs:
            fast = {sh.key for sh in enumerate_shuffles(S, T)}
            slow = {sh.key for sh in brute_force_shuffles(S, T)}
            assert fast == slow
    _done("5 shuffle counts and generator equivalence", t0, 60)


def test_ac06_segal_certificates(catalog43):
    t0 = time.time()
    done = 0
    for pt in catalog43:
        if not 2 <= pt.tree.num_vertices() <= 4:
            continue
        cert = segal_certificate(pt)
        assert cert.class_tag == "operadic"
        verdict = replay_certificate(cert)
        assert verdict.accepted, verdict.reason
        done += 1
    assert done > 300
    _done(f"6 Segal certificates ({done} trees)", t0, 120)


GRID = [
    ("s0[s1]", "t0[t1]"),
    ("s0[s1 s2]", "t0[t1]"),
    ("s0[s1 s2]", "t0[t1 t2]"),
    ("s0[s1[s2]]", "t0[t1 t2]"),
    ("s0[s1 s2]", "t0[t1[t2]]"),
    ("s0[s1]", "a[b[] c]"),
]


@pytest.fixture(scope="module")
def stable_certs():
    out = {}
    for s, t in GRID:
        with recorded_extension_sets() as sets:
            cert = certify_pp_stable(parse_tree(s), parse_tree(t))
        out[(s, t)] = (cert, sets)
    return out


def test_ac07_extension_set_soundness(stable_certs):
    t0 = time.time()
    n_sets = 0
    for (s, t), (cert, sets) in stable_certs.items():
        for es in sets:
            report = check_axioms(es)
            assert report.ok, (s, t, report.summary())
            if es.missing:
                ordr = _ambient_order(es)
                pairs = canonical_extensions(es, ordr)  # asserts disjoint + cover
                assert pairs or not es.missing
            n_sets += 1
    assert n_sets >= len(GRID)
    _done(f"7 extension-set soundness ({n_sets} sets)", t0, 300)


def _ambient_order(es):
    from dendro.order import EdgeOrder
    from dendro.trees import PlanarTree

    tree = es.ambient
    planar = PlanarTree(
        tree, {e: tree.children[e] for e in tree.edges if e not in tree.leaves}
    )
    return edge_order(planar)


def test_ac08_pushout_product_stable(stable_certs):
    t0 = time.time()
    for (s, t), (cert, _) in stable_certs.items():
        started = time.time()
        verdict = replay_certificate(cert)
        assert verdict.accepted, (s, t, verdict.reason)
        assert time.time() - started < 120
    # at least one open pair carries a genuine bottom step
    cert, _ = stable_certs[("s0[s1 s2]", "t0[t1]")]
    assert cert.class_tag == "stable"
    _done("8 stable pushout-product certificates", t0, 600)


def test_ac09_pushout_product_inner():
    t0 = time.time()
    l2 = "s0[s1[s2]]"
    for t in ("t0[t1 t2]", "t0[t1]"):
        cert = certify_pp_inner(parse_tree(l2), "s1", parse_tree(t))
        assert {st.omit_kind for st in cert.steps} == {INNER}
        assert cert.class_tag == "operadic"
        verdict = replay_certificate(cert)
        assert verdict.accepted, verdict.reason
        if t == "t0[t1]":
            universe = _universe_of(cert.ambient)
            for st in cert.steps:
                face = universe[st.face]
                assert all(len(face.children[e]) <= 1 for e in face.edges)
    _done("9 inner pushout-product certificates", t0, 60)


def _swap(cert, i, j):
    from dendro.anodyne import Certificate, class_of_steps

    steps = list(cert.steps)
    steps[i], steps[j] = steps[j], steps[i]
    return Certificate(cert.ambient, cert.base, class_of_steps(steps), tuple(steps))


def _drop_last(cert):
    from dendro.anodyne import Certificate, class_of_steps

    steps = cert.steps[:-1]
    return Certificate(cert.ambient, cert.base, class_of_steps(steps), steps)


def test_ac10_verifier_hardening(stable_certs, catalog43):
    t0 = time.time()
    certs = [cert for cert, _ in stable_certs.values()]
    for pt in catalog43:
        if pt.tree.num_vertices() == 3:
            certs.append(segal_certificate(pt))
    certs.append(certify_pp_inner(parse_tree("s0[s1[s2]]"), "s1", parse_tree("t0[t1 t2]")))

    checked_independent = checked_dep = 0
    for cert in certs:
        if not cert.steps:
            continue
        assert not replay_certificate(_drop_last(cert)).accepted
        added, needed = step_faces(cert)
        # one dependent pair, if any exists, swapped however far apart
        dep = next(
            (
                (i, j)
                for i in range(len(cert.steps))
                for j in range(i + 1, len(cert.steps))
                if added[i] & needed[j]
            ),
            None,
        )
        if dep is not None:
            assert not replay_certificate(_swap(cert, *dep)).accepted
            checked_dep += 1
        for i, independent in enumerate(independent_swaps(cert)):
            assert replay_certificate(_swap(cert, i, i + 1)).accepted == independent
            checked_independent += independent
    assert checked_dep > 0 and checked_independent > 0
    _done(
        f"10 verifier hardening ({checked_dep} dependent swaps, "
        f"{checked_independent} independent swaps)",
        t0,
        300,
    )
