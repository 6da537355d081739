"""The face poset build gives the same poset as the earlier, sorting build.

The reference functions below are the earlier ``SubPoset.__init__`` body,
the earlier scan of ``faces._elementary_domains`` that it called, and the
earlier derivation of a face's root, parents, children and rank.  The
earlier build looked every domain up by its sorted key and sorted the whole
cover list; the poset built today sorts no map list.  Both must agree on
every face, every order and every mask.
"""

import pytest

from dendro.faces import (
    BOTTOM,
    INNER,
    TOP,
    ElementaryFace,
    Face,
    SubPoset,
    full_face,
    make_key,
)
from dendro.shuffles import enumerate_shuffles
from dendro.trees import parse_tree, tree_catalog


def reference_fields(ambient, edges, caps):
    """``(root, parent, children, rank)`` as the earlier ``Face`` built them."""
    parent, children, roots = {}, {e: [] for e in edges}, []
    for e in edges:
        p = e
        while p != ambient.root:
            p = ambient.parent[p]
            if p in edges:
                parent[e] = p
                children[p].append(e)
                break
        else:
            roots.append(e)
    rank = sum(1 for e in edges if children[e]) + len(caps)
    return roots[0], parent, {e: tuple(sorted(cs)) for e, cs in children.items()}, rank


def reference_domains(p):
    edges, caps, children, leaves = p.edges, p.caps, p.children, p.leaves
    out = []
    for e in sorted(edges - leaves - {p.root}):
        low = caps
        if e in caps:
            low = caps - {e}
            if children[p.parent[e]] == (e,):
                low = low | {p.parent[e]}
        out.append((INNER, e, edges - {e}, low))
    for e in sorted(edges):
        if e in caps:
            out.append((TOP, e, edges, caps - {e}))
        elif children[e] and leaves.issuperset(children[e]):
            out.append((TOP, e, edges.difference(children[e]), caps))
    root_inputs = children[p.root]
    if p.is_corolla():
        out.extend((BOTTOM, e, frozenset((e,)), frozenset()) for e in root_inputs)
    else:
        non_leaf = [e for e in root_inputs if e not in leaves]
        if len(non_leaf) == 1:
            at = non_leaf[0]
            kept = frozenset(e for e in edges if p.ambient.leq(at, e))
            out.append((BOTTOM, at, kept, caps & kept))
    return out


def reference_build(ambient):
    self = object.__new__(SubPoset)
    self.ambient = ambient
    top = full_face(ambient)
    by_key = {top.key: top}
    covers = []
    queue = [top]
    while queue:
        p = queue.pop()
        for kind, at, edges, caps in reference_domains(p):
            key = make_key(edges, caps)
            domain = by_key.get(key)
            if domain is None:
                domain = by_key[key] = Face(ambient, edges, caps)
                queue.append(domain)
            covers.append(ElementaryFace(kind, at, domain, p))
    self.faces = sorted(by_key.values(), key=lambda f: (f.rank, f.key))
    self.index = {f.key: i for i, f in enumerate(self.faces)}
    self.top = top
    covers.sort(key=lambda ef: (ef.codomain_key, ef.kind, ef.at))
    self.covers = covers
    self._into = [[] for f in self.faces]
    self._out = [[] for f in self.faces]
    for ef in self.covers:
        self._into[self.index[ef.codomain_key]].append(ef)
        self._out[self.index[ef.domain.key]].append(ef)
    self._down = [0] * len(self.faces)
    for i, f in enumerate(self.faces):
        mask = 1 << i
        for ef in self._into[i]:
            mask |= self._down[self.index[ef.domain.key]]
        self._down[i] = mask
    self._up = [0] * len(self.faces)
    for i in reversed(range(len(self.faces))):
        mask = 1 << i
        for ef in self._out[i]:
            mask |= self._up[self.index[ef.codomain_key]]
        self._up[i] = mask
    return self


def _trees():
    out = [(f"catalog {i}", pt.tree) for i, pt in enumerate(tree_catalog(3, 3))]
    linear = "".join(f"x{i}[" for i in range(9)) + "x9" + "]" * 9
    out.append(("x0[...x9]", parse_tree(linear).tree))
    shuffles = enumerate_shuffles(parse_tree("s0[s1[s2[s3[s4]]]]"), parse_tree("t0[t1 t2]"))
    out += [(f"shuffle {i}", sh.tree.tree) for i, sh in enumerate(shuffles)]
    return out


TREES = _trees()


def _maps(maps):
    return [(ef.kind, ef.at, ef.domain.key, ef.codomain_key) for ef in maps]


@pytest.mark.parametrize("ambient", [t for _, t in TREES], ids=[name for name, _ in TREES])
def test_build_matches_reference(ambient):
    got, want = SubPoset(ambient), reference_build(ambient)
    assert [f.key for f in got.faces] == [f.key for f in want.faces]
    assert got.index == want.index
    assert got.top.key == want.top.key
    assert _maps(got.covers) == _maps(want.covers)
    for f in want.faces:
        assert _maps(got.faces_of(f.key)) == _maps(want.faces_of(f.key)), f
        assert _maps(got.extensions_of(f.key)) == _maps(want.extensions_of(f.key)), f
    assert got._down == want._down
    assert got._up == want._up
    for f, g in zip(got.faces, want.faces):
        assert (f.edges, f.caps) == (g.edges, g.caps)
        fields = reference_fields(ambient, g.edges, g.caps)
        assert (f.root, f.parent, f.children, f.rank) == fields, f


def test_trees_have_faces_with_bottom_and_other_maps():
    # the build moves bottom maps ahead of the others; these faces see it
    mixed = 0
    for _, ambient in TREES:
        poset = SubPoset(ambient)
        for f in poset:
            kinds = {ef.kind for ef in poset.faces_of(f)}
            mixed += BOTTOM in kinds and len(kinds) > 1
    assert mixed > 100
