"""check_axioms reads squares and join intervals off the face poset's masks.

The reference function below evaluates the five axioms literally, as
check_axioms did before F3 visited only the squares that can hold a member
and F4 checked each ``(low, join)`` interval once.  Both must report the
same failures: the same strings, in the same order.
"""

import random

import pytest
from conftest import recorded_extension_sets

from dendro.anodyne import AXIOMS, ExtensionSet, check_axioms, inner_extension_set
from dendro.complexes import empty_complex, segal_core
from dendro.faces import enumerate_sub
from dendro.pushout import certify_pp_inner, certify_pp_stable
from dendro.reference import ADJACENT, MIXED, classify_pair
from dendro.trees import parse_tree as p
from dendro.trees import tree_catalog


def _sig(ef):
    return (ef.kind, ef.at, ef.domain.key, ef.codomain_key)


def reference_check_axioms(es):
    failures = {ax: [] for ax in AXIOMS}
    poset = es.poset

    for p_ in es.missing:
        ff = es.faces_in_set(p_.key)
        for i, f in enumerate(ff):
            for g in ff[i + 1 :]:
                if classify_pair(f, g, mode="faces") == MIXED:
                    failures["F1"].append(f"mixed pair {f!r} / {g!r}")
        ee = es.extensions_in_set(p_.key)
        for i, f in enumerate(ee):
            for g in ee[i + 1 :]:
                if classify_pair(f, g, mode="extensions").startswith("bad"):
                    failures["F1"].append(f"bad pair {f!r} / {g!r}")
    for f in es.members:
        for g in es.extensions_in_set(f.codomain_key):
            if classify_pair(f, g, mode="composable") == ADJACENT:
                failures["F1"].append(f"adjacent pair {f!r} then {g!r}")

    for p_ in es.missing:
        inside = es.extensions_in_set(p_.key)
        if not inside:
            continue
        for g in es.extensions_of(p_.key):
            if es.contains_map(g):
                continue
            bad = [f for f in inside if classify_pair(f, g, mode="extensions").startswith("bad")]
            if len(bad) > 1:
                failures["F2"].append(f"{g!r} has bad partners {bad!r}")

    for p_ in poset.faces_in(es.view):
        if p_.rank < 2:
            continue
        ff = poset.faces_of(p_.key)
        for i, f in enumerate(ff):
            for g in ff[i + 1 :]:
                if classify_pair(f, g, mode="faces") == MIXED:
                    continue
                corner = None
                for ef in poset.faces_of(f.domain.key):
                    if ef.kind == g.kind and ef.at == g.at:
                        corner = ef
                        break
                if corner is None:
                    continue
                g_low = corner
                f_low = next(
                    (
                        ef
                        for ef in poset.faces_of(g.domain.key)
                        if ef.domain.key == corner.domain.key
                        and ef.kind == f.kind
                        and ef.at == f.at
                    ),
                    None,
                )
                if f_low is None:
                    continue
                square = {"f": (f_low, f), "g": (g_low, g)}
                got_f = [m for m in square["f"] if es.contains_map(m)]
                got_g = [m for m in square["g"] if es.contains_map(m)]
                if got_f and got_g:
                    missing = [m for m in square["f"] + square["g"] if not es.contains_map(m)]
                    if missing:
                        failures["F3"].append(
                            f"square at {p_!r} not closed: missing {missing[0]!r}"
                        )

    join_cache = {}
    for f in sorted(es.members, key=_sig):
        p_ = f.domain
        for g in es.extensions_of(p_.key):
            if _sig(g) == _sig(f):
                continue
            pair = tuple(sorted((f.codomain_key, g.codomain_key)))
            join = join_cache.get(pair)
            if join is None:
                mins = poset.minimal_upper_bounds(f.codomain, g.codomain, es.view)
                if len(mins) != 1:
                    failures["F4"].append(f"non-unique join over {p_!r}")
                    continue
                join = join_cache.setdefault(pair, mins[0])
            low = g.codomain_key
            interval = poset.downset_mask(join.key) & poset.upset_mask(low)
            for x in poset.faces_in(interval):
                for step in poset.faces_of(x.key):
                    if poset.leq(low, step.domain.key) and not es.contains_map(step):
                        failures["F4"].append(
                            f"interval map {step!r} outside the set (join of "
                            f"{f!r} and {g!r})"
                        )
                if failures["F4"]:
                    break
            if failures["F4"]:
                break
        if failures["F4"]:
            break

    for p_ in es.missing:
        if not es.faces_in_set(p_.key) and not es.extensions_in_set(p_.key):
            failures["F5"].append(f"isolated missing face {p_!r}")

    return failures


def _assert_same(es):
    got = check_axioms(es).failures
    assert got == reference_check_axioms(es)
    return got


def test_inner_sets_of_catalog_match_reference():
    for pt in tree_catalog(3, 3):
        if len(pt.tree.edges) > 1:
            assert not any(_assert_same(inner_extension_set(pt.tree, segal_core(pt.tree))).values())


@pytest.mark.parametrize(
    "run",
    [
        lambda: certify_pp_stable(p("s0[s1 s2]"), p("t0[t1]")),
        lambda: certify_pp_inner(p("s0[s1[s2]]"), "s1", p("t0[t1]")),
    ],
    ids=["pp-stable s0[s1 s2] x t0[t1]", "pp-inner s0[s1[s2]] at s1 x t0[t1]"],
)
def test_pushout_product_sets_match_reference(run):
    with recorded_extension_sets() as sets:
        run()
    assert sets
    for es in sets:
        _assert_same(es)


def _random_sets(text, rng, count):
    """The inner set with one member swapped for another map between
    missing faces, which passes most checks before it fails; then random
    member subsets over the Segal-core base and the empty base, each on
    the full view and on the view of a random face of rank >= 2, drawn
    from the candidates whose codomain lies in that view.  Each set keeps
    the covers in its member list."""
    t = p(text).tree
    poset = enumerate_sub(t)
    core = segal_core(t)
    inner = sorted(inner_extension_set(t, core).members, key=_sig)
    for base in (core, empty_complex(t)):
        candidates = [
            ef
            for ef in poset.covers
            if not base.contains(ef.domain.key) and not base.contains(ef.codomain_key)
        ]
        outer = [ef for ef in candidates if ef not in inner]
        if base is core and outer:
            for _ in range(count):
                members = list(inner)
                members[rng.randrange(len(members))] = rng.choice(outer)
                yield ExtensionSet(poset, base, set(members).__contains__)
        for top in (None, rng.choice([f for f in poset.faces if f.rank >= 2])):
            view = poset.downset_mask(poset.top if top is None else top)
            inside = [ef for ef in candidates if view >> ef.codomain.pos & 1]
            for _ in range(count):
                k = rng.randint(1, min(len(inside), 8))
                yield ExtensionSet(poset, base, set(rng.sample(inside, k)).__contains__, top)


def test_random_member_subsets_match_reference():
    rng = random.Random(20181)
    reports = []
    for text in ("a[b[c[d]]]", "r[c[] d e[a b] f]", "r[a[b c] d[]]", "s0[s1[s2[s3]] s4[s5 s6]]"):
        reports.extend(_assert_same(es) for es in _random_sets(text, rng, 24))
    assert {ax for got in reports for ax in AXIOMS if got[ax]} == set(AXIOMS)


def test_deep_intervals_match_reference():
    """A member ``f`` and the steps out of the other codomain ``low`` into
    an interval that reaches two or more ranks above it: the first face
    that breaks the interval lies at its top, with several witnesses."""
    reports = []
    for text in ("a[b[c[d]]]", "r[c[] d e[a b] f]", "r[a[b c] d[]]"):
        t = p(text).tree
        poset = enumerate_sub(t)
        for q in poset.faces:
            for f in poset.extensions_of(q):
                for g in poset.extensions_of(q):
                    join = poset.unique_join(f.codomain, g.codomain)
                    if g is f or join is None or join.rank < g.codomain.rank + 2:
                        continue
                    interval = poset.downset_mask(join) & poset.upset_mask(g.codomain)
                    steps = [
                        s
                        for x in poset.faces_in(interval)
                        for s in poset.faces_of(x)
                        if s.domain.key == g.codomain_key
                    ]
                    members = {f, *steps}.__contains__
                    reports.append(_assert_same(ExtensionSet(poset, empty_complex(t), members)))
    assert any(len(got["F4"]) > 1 and "interval map" in got["F4"][1] for got in reports)
