"""Graphviz DOT rendering for trees, faces, shuffles and percolation posets.

Trees are drawn bottom-up with one node per vertex plus tip nodes for the
root and the leaves; edge labels carry the edge names.  Shuffle vertices
follow the white/black circle convention.
"""

from __future__ import annotations

from .faces import Face
from .shuffles import PercolationPoset, Shuffle
from .trees import PlanarTree, Tree


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def _emit_tree(out, tree: Tree, colour=None, highlight=frozenset(), missing=frozenset()):
    def vertex_style(e):
        if colour is None:
            return "shape=point, width=0.12"
        c = colour(e)
        fill = "white" if c == "white" else "black"
        return f"shape=circle, width=0.18, label=\"\", style=filled, fillcolor={fill}"

    root_tip = _quote("tip_root")
    out.append(f"  {root_tip} [shape=none, label=\"\"];")
    for e in sorted(tree.edges):
        lower = root_tip if e == tree.root else _quote("v_" + tree.parent[e])
        if tree.is_leaf(e):
            upper = _quote("tip_" + e)
            out.append(f"  {upper} [shape=none, label=\"\"];")
        else:
            upper = _quote("v_" + e)
            out.append(f"  {upper} [{vertex_style(e)}];")
        style = ""
        if e in highlight:
            style = ", color=red, penwidth=2"
        elif e in missing:
            style = ", style=dashed, color=gray"
        out.append(f"  {lower} -- {upper} [label={_quote(e)}{style}];")


def _tree_graph(name: str, tree: Tree, **style) -> str:
    out = [f"graph {_quote(name)} {{", "  rankdir=BT;"]
    _emit_tree(out, tree, **style)
    out.append("}")
    return "\n".join(out)


def tree_dot(t: Tree | PlanarTree, name: str = "tree") -> str:
    return _tree_graph(name, t.tree if isinstance(t, PlanarTree) else t)


def shuffle_dot(sh: Shuffle, name: str = "shuffle") -> str:
    return _tree_graph(name, sh.tree.tree, colour=sh.vertex_colour)


def face_dot(face: Face, name: str = "face") -> str:
    """The ambient tree with the face's edges highlighted and the removed
    part dashed."""
    present = frozenset(face.edges)
    absent = frozenset(face.ambient.edges) - present
    return _tree_graph(name, face.ambient, highlight=present, missing=absent)


def poset_dot(poset: PercolationPoset, name: str = "percolation") -> str:
    out = [f"digraph {_quote(name)} {{", "  rankdir=BT;"]
    for i in range(len(poset.shuffles)):
        label = f"R{i + 1}"
        out.append(f"  n{i} [shape=box, label={_quote(label)}];")
    for a, b in poset.covers:
        out.append(f"  n{a} -> n{b};")
    out.append("}")
    return "\n".join(out)
