"""Every extension set is built one way, from the poset the caller holds.

``anodyne.build_extension_set(poset, base, keep, top)`` keeps the missing
covers of the view of ``top`` that the rule ``keep`` accepts.  It is the
only place in ``src/dendro`` that constructs an ``ExtensionSet`` or calls
``missing_covers``; the pushout builders read their shuffle's poset from
the sweep or the tensor, so ``pushout`` calls ``enumerate_sub`` only for
the posets of S and T; and a face keeps only its key, rank, root,
position and masks.
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


def test_the_builder_is_the_one_place_that_makes_a_set():
    callers = {
        (path.name, scope)
        for path in sorted(SRC.glob("*.py"))
        for name, scope in _calls(path)
        if name in ("ExtensionSet", "missing_covers")
    }
    assert callers == {("anodyne.py", "build_extension_set")}


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
def builds(monkeypatch):
    """Wrap ``build_extension_set`` (in every module that calls it) and
    ``ExtensionSet.__init__``; yields ``(through, outside, returned)``: the
    sets constructed inside a builder call, those constructed outside one,
    and the sets the builder returned."""
    through, outside, returned = [], [], []
    depth = [0]
    init, build = anodyne.ExtensionSet.__init__, anodyne.build_extension_set

    def counted_init(es, *args, **kwargs):
        init(es, *args, **kwargs)
        (through if depth[0] else outside).append(es)

    def counted_build(*args, **kwargs):
        depth[0] += 1
        try:
            es = build(*args, **kwargs)
        finally:
            depth[0] -= 1
        returned.append(es)
        return es

    monkeypatch.setattr(anodyne.ExtensionSet, "__init__", counted_init)
    for module in (anodyne, pushout):
        monkeypatch.setattr(module, "build_extension_set", counted_build)
    return through, outside, returned


def _same(a: list, b: list) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def test_every_producer_set_comes_through_the_builder(builds):
    through, outside, returned = builds
    collected = []
    for s, t in GRID:
        certify_pp_stable(parse_tree(s), parse_tree(t), collect=collected)
        S = parse_tree(s)
        for e in sorted(S.tree.inner_edges):
            certify_pp_inner(S, e, parse_tree(t), collect=collected)
    segal = [pt for pt in tree_catalog(3, 3) if pt.tree.num_vertices() >= 2]
    for pt in segal:
        segal_certificate(pt)
    assert outside == []
    assert _same(through, returned)
    # one set per Segal tree, and every set a pipeline filled is collected
    assert len(collected) > len(GRID)
    assert len(returned) == len(collected) + len(segal)
    ids = {id(es) for es in returned}
    assert all(id(es) in ids for es in collected)
