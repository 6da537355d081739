"""One rule for the maps an extension set may hold.

The covers an extension set chooses from are the covers into the faces of
a view whose two ends are both missing from the base; a set that keeps
every one of them holds exactly those.  An extension set keeps its members
as one tuple in ``_sig`` order, so its axiom report does not depend on the
order the members came in.
"""

import random

from dendro.anodyne import ExtensionSet, check_axioms
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
    """The inner-cover rule of the Segal set, stated on its own."""
    return [
        ef
        for ef in poset.covers
        if ef.kind == INNER
        and not base.contains(ef.domain.key)
        and not base.contains(ef.codomain_key)
    ]


def _missing_covers(poset, base, top=None):
    """The members of the set that keeps every cover it may hold."""
    return ExtensionSet(poset, base, lambda ef: True, top).members


def test_missing_covers_is_a_filter_of_the_covers():
    checked = 0
    for pt in tree_catalog(3, 3):
        t = pt.tree
        poset = enumerate_sub(t)
        for base in _bases(t):
            full = _missing_covers(poset, base)
            assert len(set(full)) == len(full)
            assert set(full) == _literal(poset, base, poset.top)
            inner = {ef for ef in full if ef.kind == INNER}
            assert inner == set(_missing_inner_covers(poset, base))
            for top in poset.faces:
                if top.rank >= 2:
                    got = _missing_covers(poset, base, top)
                    assert set(got) == _literal(poset, base, top)
                    checked += 1
    assert checked > 100


def test_members_are_one_tuple_in_sig_order():
    t = p("r[c[] d e[a b]]").tree
    poset = enumerate_sub(t)
    covers = _literal(poset, empty_complex(t), poset.top)
    es = ExtensionSet(poset, empty_complex(t), covers.__contains__)
    assert isinstance(es.members, tuple)
    assert list(es.members) == sorted(covers, key=_sig)


def test_f1_witness_order_does_not_depend_on_member_order():
    t = p("r[c[] d e[a b]]").tree
    base = empty_complex(t)
    poset = enumerate_sub(t)
    covers = _missing_covers(poset, base)
    rng = random.Random(11)
    reports = []
    for _ in range(3):
        members = list(covers)
        rng.shuffle(members)
        reports.append(check_axioms(ExtensionSet(poset, base, set(members).__contains__)).failures)
    assert reports[1] == reports[0] and reports[2] == reports[0]
    # the adjacent pairs come in the members' order: by their first map
    rank = {f"adjacent pair {f!r}": i for i, f in enumerate(sorted(covers, key=_sig))}
    firsts = [rank[w.split(" then ")[0]] for w in reports[0]["F1"] if w.startswith("adjacent")]
    assert len(firsts) == 36 and firsts == sorted(firsts)
