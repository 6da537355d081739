"""``SubPoset.mask_of`` on both of its walks.

``mask_of(keys)`` walks the keys when there are no more of them than faces
in the poset, and the poset's faces otherwise.  Both walks must give the
mask a per-key lookup gives: bit ``i`` set exactly when the face at
position ``i`` of ``faces`` has its key in ``keys``.  The posets are every
shuffle poset of the benchmark's ``pp-stable`` pairs and every tree of
``tree_catalog(3, 3)``; the key sets are a universe larger than the poset,
the poset's own keys, a seeded mix of its keys with other posets' keys and
one key that is no face, and the empty set.
"""

import random

import pytest

from dendro.complexes import TensorAmbient
from dendro.faces import enumerate_sub
from dendro.trees import parse_tree, tree_catalog

PP_STABLE = [
    ("s0[s1]", "t0[t1]"),
    ("s0[s1 s2]", "t0[t1]"),
    ("s0[s1 s2]", "t0[t1 t2]"),
    ("s0[s1[s2]]", "t0[t1 t2]"),
    ("s0[s1 s2]", "t0[t1[t2]]"),
    ("s0[s1]", "a[b[] c]"),
    ("s0[s1[s2[s3[s4]]]]", "t0[t1 t2]"),
]

NOT_A_FACE = (("no such edge",), ())


def _expected(sub, keys) -> int:
    """The mask by one lookup per key, in a table of positions built from
    the order of ``faces``."""
    where = {f.key: i for i, f in enumerate(sub.faces)}
    mask = 0
    for k in keys:
        if k in where:
            mask |= 1 << where[k]
    return mask


def _check(sub, universe: frozenset, others: list, seed: int) -> None:
    own = frozenset(sub.index)
    assert len(universe) > len(sub)  # the face walk
    rng = random.Random(seed)
    half = rng.sample(sorted(own), len(own) // 2)
    few = rng.sample(others, min(len(others), len(own) // 4))
    small = frozenset(half + few + [NOT_A_FACE])
    large = frozenset(half + others + [NOT_A_FACE])
    for keys in (universe, own, small, large, frozenset(), set(small)):
        assert sub.mask_of(keys) == _expected(sub, keys)
    assert sub.mask_of(universe) == sub.mask_of(own) == (1 << len(sub)) - 1


@pytest.mark.parametrize("s,t", PP_STABLE)
def test_mask_of_on_shuffle_posets(s, t):
    tensor = TensorAmbient(parse_tree(s), parse_tree(t))
    universe = frozenset(tensor.universe)
    subs = [tensor.sub(sh) for sh in tensor.poset.linearization()]
    for n, sub in enumerate(subs):
        others = sorted({k for other in subs if other is not sub for k in other.index} - set(sub.index))
        _check(sub, universe, others, n)


def test_mask_of_on_catalog_trees():
    subs = [enumerate_sub(pt.tree) for pt in tree_catalog(3, 3)]
    universe = frozenset(k for sub in subs for k in sub.index)
    for n, sub in enumerate(subs):
        others = sorted(universe - set(sub.index))
        _check(sub, universe, others, n)
