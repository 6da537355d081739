"""The ``enumerate_sub`` memo: at most ``faces._SUB_BOUND`` posets, least
recently used first out.

Each test runs on an empty memo swapped in for ``faces._sub_cache``.  The
last tests check that a pushout product and the replay of its certificate
build every poset they need once, also for a tensor with more shuffles
than the memo holds: the tensor keeps its shuffle posets, and the readers
in ``complexes`` and ``certify`` take them from it.
"""

import ast
import inspect
import textwrap
from pathlib import Path

import pytest

from dendro import certify, faces
from dendro.complexes import FaceComplex
from dendro.certify import Certificate, replay_certificate
from dendro.faces import enumerate_sub
from dendro.pushout import certify_pp_stable
from dendro.trees import parse_tree

BOUND = faces._SUB_BOUND


@pytest.fixture
def cold(monkeypatch):
    cache = {}
    monkeypatch.setattr(faces, "_sub_cache", cache)
    return cache


@pytest.fixture
def builds(monkeypatch):
    made = []
    init = faces.SubPoset.__init__

    def counted(poset, ambient):
        made.append(ambient)
        init(poset, ambient)

    monkeypatch.setattr(faces.SubPoset, "__init__", counted)
    return made


def distinct_trees(n):
    return [parse_tree(f"r{i}[a b]").tree for i in range(n)]


def test_one_past_the_bound_evicts_the_oldest(cold, builds):
    trees = distinct_trees(BOUND + 1)
    posets = [enumerate_sub(t) for t in trees]
    assert len(cold) == BOUND
    assert trees[0] not in cold
    assert list(cold) == trees[1:]
    assert all(cold[t] is p for t, p in zip(trees[1:], posets[1:]))
    assert builds == trees


def test_a_hit_saves_its_tree_from_eviction(cold, builds):
    trees = distinct_trees(BOUND + 1)
    first = [enumerate_sub(t) for t in trees[:BOUND]]
    assert enumerate_sub(trees[0]) is first[0]
    enumerate_sub(trees[BOUND])
    assert trees[0] in cold and trees[1] not in cold
    assert cold[trees[0]] is first[0]
    assert list(cold)[-2:] == [trees[0], trees[BOUND]]
    assert builds == trees


def test_an_evicted_tree_is_rebuilt_equal(cold, builds):
    tree = parse_tree("x[y[z] w[]]").tree
    old = enumerate_sub(tree)
    for t in distinct_trees(BOUND):
        enumerate_sub(t)
    assert tree not in cold
    new = enumerate_sub(tree)
    assert new is not old and cold[tree] is new
    assert builds.count(tree) == 2
    assert [f.key for f in new] == [f.key for f in old]
    assert [(ef.kind, ef.at, ef.domain.key, ef.codomain.key) for ef in new.covers] == [
        (ef.kind, ef.at, ef.domain.key, ef.codomain.key) for ef in old.covers
    ]
    # a face of the dropped poset is resolved by key in the new one
    f = old.faces[-2]
    assert new.downset_mask(f) == old.downset_mask(f)
    assert [ef.domain.key for ef in new.faces_of(f)] == [ef.domain.key for ef in old.faces_of(f)]


def test_the_memo_never_exceeds_the_bound(cold):
    trees = distinct_trees(3 * BOUND)
    for i, t in enumerate(trees):
        enumerate_sub(t)
        enumerate_sub(trees[i // 2])
        assert len(cold) <= BOUND


def test_the_bound_holds_one_pushout_and_its_replay(cold, builds):
    # five shuffles of the pair, plus S and T, each built exactly once
    cert = certify_pp_stable(parse_tree("s0[s1[s2[s3[s4]]]]"), parse_tree("t0[t1 t2]"))
    assert replay_certificate(Certificate.loads(cert.dumps())).accepted
    assert len(builds) == len(set(builds)) == 7
    assert len(cold) == 7


# C(7, 3) = 35 shuffles of two linear trees, more than the memo holds
WIDE = ("s0[s1[s2[s3[s4]]]]", "t0[t1[t2[t3]]]")


def test_a_wide_tensor_builds_each_poset_once(cold, builds):
    cert = certify_pp_stable(*map(parse_tree, WIDE))
    assert len(cert.ambient.poset) == 35 > BOUND
    assert len(builds) == len(set(builds)) == 37


def test_a_cold_replay_of_a_wide_tensor_builds_each_shuffle_poset_once(cold, builds):
    text = certify_pp_stable(*map(parse_tree, WIDE)).dumps()
    cold.clear()
    builds.clear()
    assert replay_certificate(Certificate.loads(text)).accepted
    assert len(builds) == len(set(builds)) == 35


def _names(tree: ast.AST) -> set[str]:
    """Every name read, called or imported in a parsed source."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_the_readers_take_posets_from_the_ambient():
    source = ast.parse(Path(certify.__file__).read_text())
    assert "enumerate_sub" not in _names(source)
    maximal = ast.parse(textwrap.dedent(inspect.getsource(FaceComplex.maximal_members)))
    assert "isinstance" not in _names(maximal)
