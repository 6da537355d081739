"""One rule for the maps an extension set may hold.

``missing_covers`` is the covers into the faces of a view whose two ends
are both missing from the base; every extension set builder filters it.
An extension set keeps its members as one tuple in ``_sig`` order, so its
axiom report does not depend on the order the members came in.
"""

import random

from dendro.anodyne import ExtensionSet, check_axioms, missing_covers
from dendro.complexes import boundary_complex, empty_complex, horn_complex, segal_core
from dendro.faces import INNER, enumerate_sub
from dendro.trees import parse_tree as p
from dendro.trees import tree_catalog


def _sig(ef):
    return (ef.kind, ef.at, ef.domain.key, ef.codomain_key)


def _bases(t):
    poset = enumerate_sub(t)
    if not poset.top.rank:
        return [empty_complex(t)]
    horn = horn_complex(t, poset.faces_of(poset.top)[0])
    return [empty_complex(t), segal_core(t), boundary_complex(t), horn]


def _literal(poset, base, top):
    """A literal filter of ``poset.covers``."""
    view = poset.downset_mask(top)
    return {
        ef
        for ef in poset.covers
        if view >> poset.index[ef.codomain_key] & 1
        and not base.contains(ef.domain.key)
        and not base.contains(ef.codomain_key)
    }


def _missing_inner_covers(poset, base):
    """The inner-cover rule that ``missing_covers`` replaced."""
    return [
        ef
        for ef in poset.covers
        if ef.kind == INNER
        and not base.contains(ef.domain.key)
        and not base.contains(ef.codomain_key)
    ]


def test_missing_covers_is_a_filter_of_the_covers():
    checked = 0
    for pt in tree_catalog(3, 3):
        t = pt.tree
        poset = enumerate_sub(t)
        for base in _bases(t):
            full = missing_covers(poset, base)
            assert len(set(full)) == len(full)
            assert set(full) == _literal(poset, base, poset.top)
            inner = {ef for ef in full if ef.kind == INNER}
            assert inner == set(_missing_inner_covers(poset, base))
            for top in poset.faces:
                if top.rank >= 2:
                    got = missing_covers(poset, base, top)
                    assert set(got) == _literal(poset, base, top)
                    checked += 1
    assert checked > 100


def test_members_are_one_tuple_in_sig_order():
    t = p("r[c[] d e[a b]]").tree
    poset = enumerate_sub(t)
    covers = missing_covers(poset, empty_complex(t))
    es = ExtensionSet(t, empty_complex(t), covers + covers[:5])
    assert isinstance(es.members, tuple)
    assert set(es.members) == set(covers) and len(es.members) == len(covers)
    assert list(es.members) == sorted(covers, key=_sig)


def test_f1_witness_order_does_not_depend_on_member_order():
    t = p("r[c[] d e[a b]]").tree
    base = empty_complex(t)
    covers = missing_covers(enumerate_sub(t), base)
    rng = random.Random(11)
    reports = []
    for _ in range(3):
        members = list(covers)
        rng.shuffle(members)
        reports.append(check_axioms(ExtensionSet(t, base, members)).failures)
    assert reports[1] == reports[0] and reports[2] == reports[0]
    # the adjacent pairs come in the members' order: by their first map
    rank = {f"adjacent pair {f!r}": i for i, f in enumerate(sorted(covers, key=_sig))}
    firsts = [rank[w.split(" then ")[0]] for w in reports[0]["F1"] if w.startswith("adjacent")]
    assert len(firsts) == 36 and firsts == sorted(firsts)
