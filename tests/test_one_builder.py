"""Every extension set is a rule over a poset.

``ExtensionSet(poset, base, keep, top)`` is the one constructor: it keeps
the covers between missing faces of the view of ``top`` that the rule
``keep`` accepts, so no member list is passed and none needs checking.
The producers call it from the four places that state their rules; the
pushout builders read their shuffle's poset from the sweep or the tensor,
so ``pushout`` calls ``enumerate_sub`` only for the posets of S and T; and
a face keeps only its key, rank, root, position and masks.
"""

import ast
from pathlib import Path

import pytest

from dendro import anodyne, faces, pushout
from dendro.anodyne import segal_certificate
from dendro.pushout import certify_pp_inner, certify_pp_stable
from dendro.trees import parse_tree, tree_catalog

SRC = Path(anodyne.__file__).resolve().parent

GRID = [
    ("s0[s1]", "t0[t1]"),
    ("s0[s1 s2]", "t0[t1]"),
    ("s0[s1 s2]", "t0[t1 t2]"),
    ("s0[s1[s2]]", "t0[t1 t2]"),
    ("s0[s1 s2]", "t0[t1[t2]]"),
    ("s0[s1]", "a[b[] c]"),
    ("s0[s1[s2[s3[s4]]]]", "t0[t1 t2]"),
]


def _calls(path: Path) -> list[tuple[str, str]]:
    """``(called name, enclosing function)`` for every call by plain name
    or attribute in one source file; the enclosing function is dotted
    through its classes and outer functions."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                out.append((name, scope))
            visit(child, inner)

    visit(ast.parse(path.read_text()), "")
    return out


def _names(path: Path) -> set[str]:
    """Every name defined, read or imported in one source file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_the_old_builders_are_gone():
    for path in sorted(SRC.glob("*.py")):
        assert not {"build_extension_set", "missing_covers", "_own_cover"} & _names(path), path
    assert not hasattr(anodyne, "build_extension_set")


def test_the_producers_state_their_rules_in_four_places():
    callers = {
        (path.name, scope)
        for path in sorted(SRC.glob("*.py"))
        for name, scope in _calls(path)
        if name == "ExtensionSet"
    }
    assert callers == {
        ("anodyne.py", "inner_extension_set"),
        ("pushout.py", "black_root_extension_set"),
        ("pushout.py", "white_root_extension_set"),
        ("pushout.py", "certify_pp_inner.fill"),
    }
    init = [name for name, scope in _calls(SRC / "anodyne.py") if scope == "ExtensionSet.__init__"]
    assert init and "enumerate_sub" not in init


def test_pushout_reads_the_memo_only_for_s_and_t():
    scopes = [scope for name, scope in _calls(SRC / "pushout.py") if name == "enumerate_sub"]
    assert scopes == ["PPContext.__init__", "PPContext.__init__"]
    ctx = pushout.PPContext(parse_tree("s0[s1]"), parse_tree("t0[t1]"), ("bottom", "s1"))
    assert not hasattr(ctx, "omit_site")


def test_a_face_keeps_no_cache():
    assert faces.Face.__slots__ == (
        "ambient", "key", "rank", "pos", "edge_mask", "cap_mask", "root",
    )


@pytest.fixture
def built(monkeypatch):
    """Wrap ``ExtensionSet.__init__``; yields the list of ``(set, poset,
    base, keep, top)`` for every set constructed."""
    out = []
    init = anodyne.ExtensionSet.__init__

    def recorded(es, poset, base, keep, top=None):
        init(es, poset, base, keep, top)
        out.append((es, poset, base, keep, top))

    monkeypatch.setattr(anodyne.ExtensionSet, "__init__", recorded)
    return out


def _literal(poset, base, keep, top):
    """The definition: the covers into the view of ``top`` whose two ends
    are not in the base, and that ``keep`` accepts."""
    view = poset.downset_mask(poset.top if top is None else top)
    return {
        ef
        for ef in poset.covers
        if view >> poset.index[ef.codomain_key] & 1
        and ef.domain.key not in base.members
        and ef.codomain_key not in base.members
        and keep(ef)
    }


def test_every_producer_set_is_its_literal_definition(built):
    for s, t in GRID:
        S, T = parse_tree(s), parse_tree(t)
        certify_pp_stable(S, T)
        for e in sorted(S.tree.inner_edges):
            certify_pp_inner(S, e, T)
    pp = len(built)
    segal = [pt for pt in tree_catalog(3, 3) if pt.tree.num_vertices() >= 2]
    for pt in segal:
        segal_certificate(pt)
    assert pp > len(GRID) and len(built) == pp + len(segal)
    members = 0
    for es, poset, base, keep, top in built:
        assert es.poset is poset
        assert set(es.members) == _literal(poset, base, keep, top)
        assert len(set(es.members)) == len(es.members)
        members += len(es.members)
    assert members
