"""The certificate loader asks the face-poset memo by text.

``ambient_from_json`` looks a tree ambient up in the ``enumerate_sub`` memo
by its canonical DSL (``faces.memo_sub``) before it parses anything.  A hit
returns the memo's own tree after the same size rule, so every later
lookup of its poset is by identity; any other text, such as one with other
spacing or sibling order, is parsed as before.  Each test runs on an empty
memo swapped in for ``faces._sub_cache``.
"""

import json

import pytest

from dendro import complexes, faces
from dendro.anodyne import segal_certificate
from dendro.certify import Certificate, replay_certificate
from dendro.cli import run
from dendro.complexes import ambient_from_json, posets_of
from dendro.faces import enumerate_sub, memo_sub
from dendro.trees import parse_tree

BOUND = faces._SUB_BOUND
EXAMPLE = "r[c[] d e[a b] f]"


@pytest.fixture
def cold(monkeypatch):
    cache = {}
    monkeypatch.setattr(faces, "_sub_cache", cache)
    return cache


@pytest.fixture
def parses(monkeypatch):
    """The texts the loader parses."""
    seen = []
    parse = complexes.parse_tree

    def counted(text):
        seen.append(text)
        return parse(text)

    monkeypatch.setattr(complexes, "parse_tree", counted)
    return seen


def segal_text(dsl: str) -> str:
    return segal_certificate(parse_tree(dsl)).dumps()


def memo_key(cache: dict, tree):
    """The memo's own key object equal to ``tree``."""
    return next(k for k in cache if k == tree)


def test_a_second_load_parses_nothing(cold, parses):
    text = segal_text(EXAMPLE)
    cold.clear()
    first = Certificate.loads(text)
    assert parses == [EXAMPLE]
    parses.clear()
    second = Certificate.loads(text)
    assert parses == []
    assert second == first
    assert replay_certificate(second).accepted


def test_a_hit_returns_the_memo_tree(cold, parses):
    cert = segal_certificate(parse_tree(EXAMPLE))
    loaded = Certificate.loads(cert.dumps())
    assert parses == []
    assert loaded.ambient is memo_key(cold, cert.ambient)
    assert loaded.ambient is enumerate_sub(cert.ambient).ambient
    # the readers' lookups of a face's ambient are by identity
    (tree,) = posets_of(loaded.ambient)
    assert tree is loaded.ambient
    assert all(f.ambient is tree for f in enumerate_sub(tree))


def test_a_memo_hit_keeps_the_memo_key(cold):
    first = parse_tree("a[b c]").tree
    poset = enumerate_sub(first)
    equal = parse_tree("a[c b]").tree
    assert equal == first and equal is not first
    assert enumerate_sub(equal) is poset
    assert list(cold) == [first] and next(iter(cold)) is first
    assert next(iter(posets_of(equal))) is first


@pytest.mark.parametrize("text", ["e0[ e2 e1 ]", "e0[e2 e1]", " e0[e1 e2]"])
def test_a_non_canonical_text_still_loads(cold, parses, text):
    data = json.loads(segal_text("e0[e1 e2]"))
    assert data["ambient"]["tree"] == "e0[e1 e2]"
    data["ambient"]["tree"] = text
    cert = Certificate.loads(json.dumps(data))
    assert parses == [text]
    assert cert.ambient == parse_tree("e0[e1 e2]").tree
    assert replay_certificate(cert).accepted


def test_a_text_hit_refreshes_recency(cold):
    trees = [parse_tree(f"r{i}[a b]").tree for i in range(BOUND)]
    posets = [enumerate_sub(t) for t in trees]
    assert memo_sub("r0[a b]") is posets[0]
    assert list(cold)[-1] is trees[0]
    assert ambient_from_json({"type": "tree", "tree": "r1[a b]"}) is trees[1]
    assert list(cold)[-2:] == [trees[0], trees[1]]
    enumerate_sub(parse_tree("z[a b]").tree)
    assert len(cold) == BOUND
    assert trees[0] in cold and trees[1] in cold and trees[2] not in cold
    assert memo_sub("r2[a b]") is None
    assert len(cold) == BOUND


def test_a_miss_leaves_the_memo_as_it_was(cold):
    trees = [parse_tree(f"r{i}[a b]").tree for i in range(3)]
    for t in trees:
        enumerate_sub(t)
    assert memo_sub("r0[b a]") is None
    assert memo_sub("q[a b]") is None
    assert list(cold) == trees


def test_the_size_rule_holds_on_a_hit(cold, parses, monkeypatch, tmp_path, capsys):
    text = segal_text(EXAMPLE)
    path = tmp_path / "cert.json"
    path.write_text(text)
    size = len(enumerate_sub(parse_tree(EXAMPLE).tree))
    monkeypatch.setattr(complexes, "MAX_FACES", size - 1)
    assert run(["verify", str(path)]) == 2
    assert parses == []
    err = capsys.readouterr().err
    assert err == f"malformed certificate: the ambient tree has more than {size - 1} faces\n"
    monkeypatch.setattr(complexes, "MAX_FACES", size)
    assert run(["verify", str(path)]) == 0
    assert parses == []
