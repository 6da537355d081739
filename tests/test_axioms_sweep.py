"""Opt-in sweep: check_axioms against the literal reference on every inner
set of ``tree_catalog(5, 3)`` and every set of the benchmark's pushout
grid.  Deselected by default; run it with ``pytest -m sweep``."""

import pytest
from test_axioms_reference import reference_check_axioms

from dendro.anodyne import check_axioms, inner_extension_set
from dendro.complexes import segal_core
from dendro.pushout import certify_pp_inner, certify_pp_stable
from dendro.trees import parse_tree as p
from dendro.trees import tree_catalog

pytestmark = pytest.mark.sweep

# the pushout grid of perfbench/inputs.py
BIG_S = "s0[s1[s2[s3[s4]]]]"
PP_STABLE = (
    ("s0[s1]", "t0[t1]"),
    ("s0[s1 s2]", "t0[t1]"),
    ("s0[s1 s2]", "t0[t1 t2]"),
    ("s0[s1[s2]]", "t0[t1 t2]"),
    ("s0[s1 s2]", "t0[t1[t2]]"),
    ("s0[s1]", "a[b[] c]"),
    (BIG_S, "t0[t1 t2]"),
)
PP_INNER = (
    ("s0[s1[s2]]", "s1", "t0[t1 t2]"),
    ("s0[s1[s2]]", "s1", "t0[t1]"),
    (BIG_S, "s2", "t0[t1 t2]"),
)


def test_inner_sets_of_catalog_5_3_match_reference():
    count = 0
    for pt in tree_catalog(5, 3):
        if len(pt.tree.edges) > 1:
            es = inner_extension_set(pt.tree, segal_core(pt.tree))
            assert check_axioms(es).failures == reference_check_axioms(es), pt
            count += 1
    assert count == 1931


def test_pushout_grid_sets_match_reference():
    sets = []
    for s, t in PP_STABLE:
        certify_pp_stable(p(s), p(t), collect=sets)
    for s, e, t in PP_INNER:
        certify_pp_inner(p(s), e, p(t), collect=sets)
    assert len(sets) == 583
    for es in sets:
        assert check_axioms(es).failures == reference_check_axioms(es)
