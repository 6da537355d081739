"""A memo hit of the loader is exactly what parsing the text would give.

The ``enumerate_sub`` memo also holds posets of trees whose edge names are
no DSL names, such as the shuffle trees of a tensor (``s0,t1``).  Their
rendered text does not parse, or parses to another tree, so the loader
must not find them by it: what a certificate loads to may not depend on
what the memo holds.  Each test runs on an empty memo swapped in for
``faces._sub_cache``.
"""

import pytest

from dendro import faces
from dendro.anodyne import segal_certificate
from dendro.certify import Certificate
from dendro.cli import run
from dendro.faces import enumerate_sub, memo_sub
from dendro.pushout import certify_pp_stable
from dendro.trees import Tree, TreeParseError, parse_tree, render_tree


@pytest.fixture
def cold(monkeypatch):
    cache = {}
    monkeypatch.setattr(faces, "_sub_cache", cache)
    return cache


def test_a_shuffle_tree_text_is_parsed_even_when_the_memo_holds_it(cold, tmp_path, capsys):
    pp = certify_pp_stable(parse_tree("s0[s1 s2]"), parse_tree("t0[t1]")).dumps()
    sh = next(iter(Certificate.loads(pp).ambient.poset))
    forged = segal_certificate(sh.tree).dumps()
    path = tmp_path / "cert.json"
    path.write_text(forged)
    text = render_tree(sh.tree.tree)
    assert "," in text and text in forged

    poset = enumerate_sub(sh.tree.tree)
    assert sh.tree.tree in cold and poset.text is None
    assert memo_sub(text) is None
    with pytest.raises(TreeParseError):
        Certificate.loads(forged)
    assert run(["verify", str(path)]) == 2
    warm = capsys.readouterr().err

    cold.clear()
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr().err == warm
    assert warm.startswith("parse error: ")


def test_an_empty_edge_name_is_no_text(cold):
    # renders as "r[ a]", which parses to the other tree r[a]
    tree = Tree({"r", "", "a"}, {"": "r", "a": "r"}, {"", "a"})
    assert render_tree(tree) == "r[ a]"
    assert enumerate_sub(tree).text is None
    assert memo_sub("r[ a]") is None
    assert memo_sub("r[a]") is None


@pytest.mark.parametrize("dsl", ["a", "a[]", "r[c[] d e[a b] f]", "A_0[z9 b[]]"])
def test_a_dsl_tree_is_found_by_its_text(cold, dsl):
    tree = parse_tree(dsl).tree
    poset = enumerate_sub(tree)
    assert poset.text == render_tree(tree)
    assert memo_sub(poset.text) is poset
    assert parse_tree(poset.text).tree == poset.ambient
