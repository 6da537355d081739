"""Finite rooted trees with named edges, leaves and stumps.

A tree is a finite poset of edges with a unique minimal element (the root)
and totally ordered branches.  A distinguished subset of the maximal edges
is the set of leaves; a maximal edge that is not a leaf is the output of an
empty vertex, a *stump*.  The vertex above a non-leaf edge is the set of its
immediate successors, so vertices are derived data, never stored.

This module also provides the tree DSL (``parse_tree`` / ``render_tree``),
grafting, the operation predicate, and an exhaustive catalog of small trees
up to sibling-permutation isomorphism used as a test corpus.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping


class TreeError(ValueError):
    """Raised for structurally invalid trees or invalid tree queries."""


class TreeParseError(TreeError):
    """Syntax error in the tree DSL, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Record:
    """A small mutable record whose fields are its ``__slots__``.

    Equality and ``repr`` go by field, in slot order; a record is unhashable.
    Pickle and copy rebuild a record by calling its class on its fields, so
    a subclass's ``__init__`` takes its slots in order, or the subclass
    defines its own ``__reduce__``.  These bases stand in for
    ``dataclasses``, whose import pulls ``inspect``, ``ast``, ``dis`` and
    ``tokenize`` into every fresh process.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()


class Value(Record):
    """A frozen record, hashable by field.  ``__init__`` sets each field with
    ``object.__setattr__``; assigning or deleting one later raises
    ``AttributeError``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Tree:
    """Immutable rooted tree.  Equality and hashing are structural.

    Siblings are kept in canonical (name-sorted) order; use ``PlanarTree``
    when a semantic input order is required.
    """

    __slots__ = ("edges", "parent", "leaves", "root", "children", "_depth", "_hash", "_bits")

    def __init__(self, edges: Iterable[str], parent: Mapping[str, str], leaves: Iterable[str]):
        edges = frozenset(edges)
        leaves = frozenset(leaves)
        parent = dict(parent)
        if not edges:
            raise TreeError("a tree has at least one edge")
        roots = [e for e in edges if e not in parent]
        if len(roots) != 1:
            raise TreeError(f"expected exactly one root, found {sorted(roots)}")
        root = roots[0]
        children: dict[str, list[str]] = {e: [] for e in edges}
        depth: dict[str, int] = {}
        for e, p in parent.items():
            if e not in edges or p not in edges:
                raise TreeError(f"parent map mentions unknown edge {e!r} or {p!r}")
            children[p].append(e)
        # depth doubles as the acyclicity check
        stack = [root]
        depth[root] = 1
        while stack:
            e = stack.pop()
            for c in children[e]:
                depth[c] = depth[e] + 1
                stack.append(c)
        if len(depth) != len(edges):
            raise TreeError("parent map is not connected to the root")
        bad = leaves - {e for e in edges if not children[e]}
        if bad:
            raise TreeError(f"non-maximal edges marked as leaves: {sorted(bad)}")
        self.edges = edges
        self.parent = parent
        self.leaves = leaves
        self.root = root
        self.children = {e: tuple(sorted(cs)) for e, cs in children.items()}
        self._depth = depth
        self._hash = hash((edges, leaves, tuple(sorted(parent.items()))))
        self._bits: EdgeBits | None = None

    # -- basic queries -------------------------------------------------

    def is_leaf(self, e: str) -> bool:
        return e in self.leaves

    def vertex(self, e: str) -> frozenset[str]:
        """Inputs of the vertex with output ``e`` (empty for a stump)."""
        if e in self.leaves:
            raise TreeError(f"edge {e!r} is a leaf and carries no vertex")
        return frozenset(self.children[e])

    @property
    def maximal_edges(self) -> frozenset[str]:
        return frozenset(e for e in self.edges if not self.children[e])

    @property
    def stump_outputs(self) -> frozenset[str]:
        return self.maximal_edges - self.leaves

    @property
    def inner_edges(self) -> frozenset[str]:
        """Edges other than the root and the leaves (stump outputs included)."""
        return self.edges - self.leaves - {self.root}

    def num_vertices(self) -> int:
        return len(self.edges) - len(self.leaves)

    def height(self, e: str) -> int:
        """Number of edges on the branch from ``e`` down to the root."""
        return self._depth[e]

    def leq(self, a: str, b: str) -> bool:
        """True iff ``a`` lies on the branch from ``b`` to the root."""
        da, db = self._depth[a], self._depth[b]
        while db > da:
            b = self.parent[b]
            db -= 1
        return a == b

    @property
    def bits(self) -> EdgeBits:
        """The edges as bit positions, built on first use."""
        if self._bits is None:
            self._bits = EdgeBits(self)
        return self._bits

    def branch(self, e: str) -> tuple[str, ...]:
        """Edges from the root up to ``e``, inclusive."""
        out = []
        while True:
            out.append(e)
            if e == self.root:
                break
            e = self.parent[e]
        return tuple(reversed(out))

    # -- equality ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return (
            self.edges == other.edges
            and self.leaves == other.leaves
            and self.parent == other.parent
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Tree({render_tree(self)!r})"


class EdgeBits:
    """A tree's edges as bit positions, in sorted-name order.

    Edge ``names[i]`` is the bit ``1 << i``, so the edges of a mask read
    from the low bit up come out sorted.  ``parent[i]`` is the position of
    the parent edge (-1 at the root); ``above[i]`` and ``below[i]`` are the
    masks of the edges strictly above and strictly below edge ``i``.
    """

    __slots__ = ("names", "index", "parent", "above", "below")

    def __init__(self, tree: Tree):
        names = tuple(sorted(tree.edges))
        index = {e: i for i, e in enumerate(names)}
        parent = tuple(index[tree.parent[e]] if e in tree.parent else -1 for e in names)
        above, below = [0] * len(names), [0] * len(names)
        for i in range(len(names)):
            q = parent[i]
            while q >= 0:
                below[i] |= 1 << q
                above[q] |= 1 << i
                q = parent[q]
        self.names = names
        self.index = index
        self.parent = parent
        self.above = tuple(above)
        self.below = tuple(below)


class PlanarTree(Value):
    """A tree together with a total order on the inputs of every vertex."""

    __slots__ = ("tree", "input_order")

    def __init__(self, tree: Tree, input_order: Mapping[str, tuple[str, ...]]):
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "input_order", input_order)
        for e in self.tree.edges:
            if self.tree.is_leaf(e):
                continue
            got = self.input_order.get(e)
            if got is None or set(got) != set(self.tree.children[e]) or len(got) != len(
                self.tree.children[e]
            ):
                raise TreeError(f"planar order at {e!r} does not cover its inputs")

    @property
    def root(self) -> str:
        return self.tree.root

    def ordered_children(self, e: str) -> tuple[str, ...]:
        return self.input_order.get(e, ())

    def ordered_leaves(self) -> tuple[str, ...]:
        """Leaves in planar (left-to-right) order."""
        out = []
        stack = [self.tree.root]
        while stack:
            e = stack.pop()
            if self.tree.is_leaf(e):
                out.append(e)
            else:
                stack.extend(reversed(self.ordered_children(e)))
        return tuple(out)


class Operation(Value):
    """A candidate operation ``(inputs; output)`` of a tree.

    Validity is decided by :func:`is_operation`, not at construction.
    """

    __slots__ = ("inputs", "output")

    def __init__(self, inputs: frozenset[str], output: str):
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "output", output)

    @staticmethod
    def of(inputs: Iterable[str], output: str) -> "Operation":
        return Operation(frozenset(inputs), output)


# ---------------------------------------------------------------------------
# DSL
# ---------------------------------------------------------------------------

NAME_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")


def parse_tree(text: str) -> PlanarTree:
    """Parse the tree DSL.

    Grammar: ``edge := NAME children?``, ``children := '[' edge* ']'``.
    A bare name is a leaf, ``name[]`` caps the edge with a stump, and the
    bracket order is the planar input order.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_name() -> str:
        nonlocal pos
        start = pos
        while pos < n and text[pos] in NAME_CHARS:
            pos += 1
        if pos == start:
            raise TreeParseError("expected an edge name", start)
        return text[start:pos]

    edges: set[str] = set()
    parent: dict[str, str] = {}
    leaves: list[str] = []
    order: dict[str, tuple[str, ...]] = {}
    # open brackets, innermost last: (edge name, its position, its inputs)
    stack: list[tuple[str, int, list[str]]] = []

    skip_ws()
    if pos >= n:
        raise TreeParseError("empty input", pos)
    while True:
        skip_ws()
        at = pos
        name = parse_name()
        if name in edges:
            raise TreeParseError(f"duplicate edge name {name!r}", at)
        edges.add(name)
        if stack:
            parent[name] = stack[-1][0]
            stack[-1][2].append(name)
        skip_ws()
        if pos < n and text[pos] == "[":
            pos += 1
            stack.append((name, at, []))
        else:
            leaves.append(name)
        while stack:
            skip_ws()
            if pos >= n:
                raise TreeParseError("unclosed '['", stack[-1][1])
            if text[pos] != "]":
                break
            pos += 1
            closed, _, kids = stack.pop()
            order[closed] = tuple(kids)
        if not stack:
            break
    skip_ws()
    if pos < n:
        raise TreeParseError(f"unexpected trailing input {text[pos]!r}", pos)
    return PlanarTree(Tree(edges, parent, leaves), order)


def render_tree(t: Tree | PlanarTree) -> str:
    """Render to the DSL.  Planar trees keep their order, bare trees are
    canonicalized by sorting siblings."""
    if isinstance(t, PlanarTree):
        tree, kids = t.tree, t.ordered_children
    else:
        tree, kids = t, lambda e: t.children[e]

    parts: list[str] = []
    # edges still to render, and None for a closing bracket
    stack: list[str | None] = [tree.root]
    while stack:
        e = stack.pop()
        if e is not None and not tree.is_leaf(e):
            parts.append(e + "[")
            stack.append(None)
            stack.extend(reversed(kids(e)))
            continue
        parts.append("]" if e is None else e)
        if stack and stack[-1] is not None:  # a sibling follows
            parts.append(" ")
    return "".join(parts)


def tree(text: str) -> Tree:
    """Shorthand: parse and drop the planar structure."""
    return parse_tree(text).tree


def unit_tree(name: str = "e") -> Tree:
    return Tree([name], {}, [name])


# ---------------------------------------------------------------------------
# Grafting and operations
# ---------------------------------------------------------------------------


def graft(base: Tree | PlanarTree, crowns: list[Tree]) -> Tree:
    """Graft ``crowns[i]`` onto the i-th leaf of ``base``.

    Crown ``i`` must have the i-th leaf of ``base`` (in planar order, or
    canonical order for a bare tree) as its root; apart from these shared
    edges, all edge sets must be disjoint.
    """
    if isinstance(base, PlanarTree):
        base_leaves = base.ordered_leaves()
        base_tree = base.tree
    else:
        base_tree = base
        base_leaves = tuple(sorted(base.leaves))
    if len(crowns) != len(base_leaves):
        raise TreeError(
            f"need one crown per leaf: {len(base_leaves)} leaves, {len(crowns)} crowns"
        )
    edges = set(base_tree.edges)
    parent = dict(base_tree.parent)
    leaves: set[str] = set()
    for leaf, crown in zip(base_leaves, crowns):
        if crown.root != leaf:
            raise TreeError(f"crown root {crown.root!r} does not match leaf {leaf!r}")
        overlap = (crown.edges & edges) - {leaf}
        if overlap:
            raise TreeError(f"edge names collide outside the shared root: {sorted(overlap)}")
        edges |= crown.edges
        parent.update(crown.parent)
        leaves |= crown.leaves
    return Tree(edges, parent, leaves)


def is_operation(t: Tree, op: Operation) -> bool:
    """Decide whether ``(op.inputs; op.output)`` is an operation of ``t``.

    True iff every leaf above the output is above exactly one input, and at
    most one input lies below any stump output above the output.
    """
    if op.output not in t.edges:
        raise TreeError(f"output {op.output!r} is not an edge of the tree")
    for i in op.inputs:
        if i not in t.edges:
            raise TreeError(f"input {i!r} is not an edge of the tree")
        if not t.leq(op.output, i):
            raise TreeError(f"input {i!r} is not above the output {op.output!r}")
    for l in t.leaves:
        if t.leq(op.output, l):
            if sum(1 for i in op.inputs if t.leq(i, l)) != 1:
                return False
    for s in t.stump_outputs:
        if t.leq(op.output, s):
            if sum(1 for i in op.inputs if t.leq(i, s)) > 1:
                return False
    return True


def operation_vertices(t: Tree, op: Operation) -> frozenset[str]:
    """Vertices sitting directly on top of an operation, keyed by output edge.

    Considers only vertices in the subtree above ``op.output``.  A non-empty
    vertex qualifies when all its inputs belong to the operation; a stump
    qualifies when no input of the operation lies below its output.
    """
    if not is_operation(t, op):
        raise TreeError("not an operation of the tree")
    result = set()
    for o in t.edges - t.leaves:
        if not t.leq(op.output, o):
            continue
        v = t.vertex(o)
        if v:
            if v <= op.inputs:
                result.add(o)
        else:
            if not any(t.leq(x, o) for x in op.inputs):
                result.add(o)
    return frozenset(result)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class TreeInfo(Value):
    __slots__ = ("is_open", "is_linear", "is_corolla", "inner_edges")

    def __init__(
        self, is_open: bool, is_linear: bool, is_corolla: bool, inner_edges: frozenset[str]
    ):
        object.__setattr__(self, "is_open", is_open)
        object.__setattr__(self, "is_linear", is_linear)
        object.__setattr__(self, "is_corolla", is_corolla)
        object.__setattr__(self, "inner_edges", inner_edges)


def classify(t: Tree) -> TreeInfo:
    vertices = [t.vertex(e) for e in t.edges - t.leaves]
    return TreeInfo(
        is_open=not t.stump_outputs,
        is_linear=all(len(v) == 1 for v in vertices),
        is_corolla=len(vertices) == 1,
        inner_edges=t.inner_edges,
    )


# ---------------------------------------------------------------------------
# Exhaustive catalog of small trees
# ---------------------------------------------------------------------------
#
# A shape is None for a bare leaf edge, or a tuple of child shapes for an
# edge carrying a vertex (the empty tuple is a stump).  Shapes are kept in a
# canonical sorted form, which quotients by sibling permutation.


def _shape_key(shape):
    if shape is None:
        return (0,)
    return (1, tuple(_shape_key(c) for c in shape))


def _shapes_exact(v: int, max_arity: int, cache: dict) -> list:
    """The shapes with exactly ``v`` vertices, sorted by ``_shape_key``: a
    vertex over at most ``max_arity`` children whose vertex counts sum to
    ``v - 1``, each multiset of children built once by splitting that count."""
    if v in cache:
        return cache[v]
    if v == 0:
        cache[0] = [None]
        return cache[0]
    # (vertices, shape), by vertex count; children are taken in pool order
    pool = [(w, s) for w in range(v) for s in _shapes_exact(w, max_arity, cache)]
    found = []

    def split(start: int, budget: int, slots: int, children: tuple) -> None:
        if budget == 0:
            found.append(tuple(sorted(children, key=_shape_key)))
        if slots == 0:
            return
        for i in range(start, len(pool)):
            w, s = pool[i]
            if w > budget:
                break
            # the last slot must take the whole remaining count
            if slots > 1 or w == budget:
                split(i, budget - w, slots - 1, children + (s,))

    split(0, v - 1, max_arity, ())
    cache[v] = sorted(found, key=_shape_key)
    return cache[v]


def _shape_to_tree(shape) -> PlanarTree:
    edges: list[str] = []
    parent: dict[str, str] = {}
    leaves: list[str] = []
    order: dict[str, tuple[str, ...]] = {}
    counter = itertools.count()

    def build(s, name: str):
        edges.append(name)
        if s is None:
            leaves.append(name)
            return
        kids = []
        for c in s:
            kid = f"e{next(counter)}"
            parent[kid] = name
            kids.append(kid)
        order[name] = tuple(kids)
        for c, kid in zip(s, kids):
            build(c, kid)

    build(shape, f"e{next(counter)}")
    return PlanarTree(Tree(edges, parent, leaves), order)


def tree_catalog(max_vertices: int, max_arity: int) -> Iterator[PlanarTree]:
    """Yield one representative per isomorphism class of trees with at most
    ``max_vertices`` vertices and every vertex of arity at most ``max_arity``,
    in a deterministic order."""
    if max_vertices < 0 or max_arity < 0:
        raise TreeError("catalog bounds must be non-negative")
    cache: dict = {}
    for v in range(max_vertices + 1):
        for shape in _shapes_exact(v, max_arity, cache):
            yield _shape_to_tree(shape)
