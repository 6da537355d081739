"""Shuffles of a tensor of two trees, and the percolation poset.

A shuffle of S and T is a tree whose edges are pairs (s, t), rooted at the
pair of roots, with leaf set L(S) x L(T), in which every vertex expands
exactly one coordinate: a *white* vertex expands the S-coordinate, a
*black* vertex expands the T-coordinate.  Shuffle edges are named "s,t".

All shuffles arise from the initial one (copies of S grafted on top of T)
by percolation steps in which a white vertex sinks past the black vertex
below it.  Shuffle identity is the sorted edge-pair set: in a full shuffle
caps are determined, since a maximal edge is a leaf iff it is a pair of
leaves.
"""

from __future__ import annotations

from .trees import PlanarTree, Record, Tree, TreeError, Value

WHITE = "white"
BLACK = "black"


def pair_name(s: str, t: str) -> str:
    return f"{s},{t}"


def split_name(e: str) -> tuple[str, str]:
    s, _, t = e.partition(",")
    return s, t


class Shuffle(Value):
    """One shuffle, as a planar tree over pair-named edges."""

    __slots__ = ("s_tree", "t_tree", "tree")

    def __init__(self, s_tree: PlanarTree, t_tree: PlanarTree, tree: PlanarTree):
        object.__setattr__(self, "s_tree", s_tree)
        object.__setattr__(self, "t_tree", t_tree)
        object.__setattr__(self, "tree", tree)

    @property
    def key(self) -> tuple[str, ...]:
        return tuple(sorted(self.tree.tree.edges))

    def vertex_colour(self, e: str) -> str:
        """Colour of the vertex above edge ``e``.

        An empty vertex is coloured black when its T-coordinate carries a
        stump of T, white otherwise; if both coordinates carry stumps the
        choice is immaterial, as the edge set determines the shuffle.
        """
        tr = self.tree.tree
        if tr.is_leaf(e):
            raise TreeError(f"{e!r} is a leaf and carries no vertex")
        _, t = split_name(e)
        kids = tr.children[e]
        if kids:
            return WHITE if split_name(kids[0])[1] == t else BLACK
        tm = self.t_tree.tree
        if t not in tm.leaves and not tm.children[t]:
            return BLACK
        return WHITE

    def white_vertex_at(self, e: str) -> bool:
        """Whether the full white vertex of ``s`` sits above ``e = (s, t)``:
        ``e`` is not a leaf and its children are exactly the pairs ``(x, t)``
        over the inputs ``x`` of ``s`` in S (none for a stump)."""
        tr = self.tree.tree
        if tr.is_leaf(e):
            return False
        s, t = split_name(e)
        return set(tr.children[e]) == {pair_name(x, t) for x in self.s_tree.ordered_children(s)}

    def __repr__(self) -> str:
        return f"Shuffle({'|'.join(self.key)})"


def _build(s_tree: PlanarTree, t_tree: PlanarTree, order: dict[str, tuple[str, ...]]) -> Shuffle:
    """Assemble a shuffle from a map edge -> ordered children (every edge
    present, leaves mapped to the empty tuple)."""
    parent: dict[str, str] = {}
    for e, kids in order.items():
        for k in kids:
            parent[k] = e
    s_leaves, t_leaves = s_tree.tree.leaves, t_tree.tree.leaves
    leaves = set()
    for e, kids in order.items():
        if not kids:
            s, t = split_name(e)
            if s in s_leaves and t in t_leaves:
                leaves.add(e)
    tree = Tree(order.keys(), parent, leaves)
    planar = PlanarTree(tree, {e: k for e, k in order.items() if e not in leaves})
    return Shuffle(s_tree, t_tree, planar)


def _grafted_copies(lower: PlanarTree, upper: PlanarTree, name) -> dict[str, tuple[str, ...]]:
    """The edge -> ordered children map of copies of ``upper`` grafted on
    ``lower``, one per leaf of ``lower``.  ``name(l, u)`` names the edge
    with ``lower``-coordinate ``l`` and ``upper``-coordinate ``u``."""
    L, U = lower.tree, upper.tree
    ru = U.root
    order: dict[str, tuple[str, ...]] = {}
    for l in L.edges:
        if l in L.leaves:
            for u in U.edges:
                order[name(l, u)] = tuple(name(l, c) for c in upper.ordered_children(u))
        else:
            order[name(l, ru)] = tuple(name(c, ru) for c in lower.ordered_children(l))
    return order


def initial_shuffle(s_tree: PlanarTree, t_tree: PlanarTree) -> Shuffle:
    """Copies of S grafted on top of T (one per leaf of T)."""
    return _build(s_tree, t_tree, _grafted_copies(t_tree, s_tree, lambda t, s: pair_name(s, t)))


def terminal_shuffle(s_tree: PlanarTree, t_tree: PlanarTree) -> Shuffle:
    """Copies of T grafted on top of S (one per leaf of S)."""
    return _build(s_tree, t_tree, _grafted_copies(s_tree, t_tree, pair_name))


def percolation_successors(sh: Shuffle) -> list[Shuffle]:
    """One successor per percolation site: a black vertex above (s, t),
    with s not a leaf of S, each of whose inputs carries the full white
    S-vertex of s (for an empty S-vertex: each input is a white stump).
    The white vertex sinks below the black one."""
    S = sh.s_tree
    tr = sh.tree.tree
    out = []
    for e in sorted(tr.edges):
        if tr.is_leaf(e) or sh.vertex_colour(e) != BLACK:
            continue
        s, t = split_name(e)
        if s in S.tree.leaves:
            continue
        v = S.ordered_children(s)
        w_edges = sh.tree.ordered_children(e)
        if not all(sh.white_vertex_at(c) for c in w_edges):
            continue
        w_cols = tuple(split_name(c)[1] for c in w_edges)
        order = {
            x: (sh.tree.ordered_children(x) if not tr.is_leaf(x) else ())
            for x in tr.edges
        }
        for c in w_edges:
            del order[c]
        order[e] = tuple(pair_name(x, t) for x in v)
        for x in v:
            order[pair_name(x, t)] = tuple(pair_name(x, tc) for tc in w_cols)
        out.append(_build(sh.s_tree, sh.t_tree, order))
    return out


class PercolationPoset(Record):
    """All shuffles of a pair, with the immediate-predecessor relation and
    a fixed linearization extending it (right percolation order).
    ``index`` (shuffle key to position) is derived from ``shuffles``."""

    __slots__ = ("s_tree", "t_tree", "shuffles", "covers", "index")

    def __init__(
        self,
        s_tree: PlanarTree,
        t_tree: PlanarTree,
        shuffles: list[Shuffle],
        covers: list[tuple[int, int]],
    ):
        self.s_tree = s_tree
        self.t_tree = t_tree
        self.shuffles = shuffles
        self.covers = covers
        self.index = {sh.key: i for i, sh in enumerate(shuffles)}

    def __reduce__(self):
        return PercolationPoset, (self.s_tree, self.t_tree, self.shuffles, self.covers)

    def __len__(self) -> int:
        return len(self.shuffles)

    def __iter__(self):
        return iter(self.shuffles)

    def linearization(self, reverse: bool = False) -> list[Shuffle]:
        return list(reversed(self.shuffles)) if reverse else list(self.shuffles)


def enumerate_shuffles(s_tree: PlanarTree, t_tree: PlanarTree) -> PercolationPoset:
    """Closure of the initial shuffle under percolation steps, deduped by
    edge-set key, linearized by a topological sort with key tie-breaks."""
    start = initial_shuffle(s_tree, t_tree)
    by_key: dict[tuple[str, ...], Shuffle] = {start.key: start}
    cover_keys: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
    queue = [start]
    while queue:
        sh = queue.pop()
        for nxt in percolation_successors(sh):
            if nxt.key != sh.key:
                cover_keys.add((sh.key, nxt.key))
            if nxt.key not in by_key:
                by_key[nxt.key] = nxt
                queue.append(nxt)
    # Kahn's algorithm, smallest key first
    preds: dict[tuple[str, ...], set] = {k: set() for k in by_key}
    succs: dict[tuple[str, ...], set] = {k: set() for k in by_key}
    for a, b in cover_keys:
        preds[b].add(a)
        succs[a].add(b)
    ready = sorted(k for k, p in preds.items() if not p)
    ordered: list[Shuffle] = []
    while ready:
        k = ready.pop(0)
        ordered.append(by_key[k])
        for b in sorted(succs[k]):
            preds[b].discard(k)
            if not preds[b]:
                ready.append(b)
        ready.sort()
    if len(ordered) != len(by_key):
        raise TreeError("percolation cover relation is cyclic")
    index = {sh.key: i for i, sh in enumerate(ordered)}
    covers = sorted((index[a], index[b]) for a, b in cover_keys)
    return PercolationPoset(s_tree, t_tree, ordered, covers)


def satisfies_shuffle_conditions(sh: Shuffle) -> bool:
    """Literal check of the defining conditions: edges are pairs, the root
    is the pair of roots, the leaves are exactly the pairs of leaves, and
    every vertex expands one coordinate."""
    S, T = sh.s_tree.tree, sh.t_tree.tree
    tr = sh.tree.tree
    for e in tr.edges:
        s, t = split_name(e)
        if s not in S.edges or t not in T.edges:
            return False
    if split_name(tr.root) != (S.root, T.root):
        return False
    want_leaves = {pair_name(s, t) for s in S.leaves for t in T.leaves}
    if tr.leaves != want_leaves:
        return False
    for e in tr.edges - tr.leaves:
        s, t = split_name(e)
        kids = set(tr.children[e])
        white = (
            s not in S.leaves
            and kids == {pair_name(c, t) for c in S.children[s]}
        )
        black = (
            t not in T.leaves
            and kids == {pair_name(s, c) for c in T.children[t]}
        )
        if not (white or black):
            return False
    return True


def brute_force_shuffles(s_tree: PlanarTree, t_tree: PlanarTree) -> list[Shuffle]:
    """Independent top-down generator: at every non-leaf-pair edge choose
    which coordinate to expand; used as an oracle for the percolation
    enumeration.  Returns shuffles sorted by key."""
    S, T = s_tree.tree, t_tree.tree
    results: dict[tuple[str, ...], Shuffle] = {}

    def expansions(s: str, t: str) -> list[tuple[str, ...]]:
        opts = []
        if s not in S.leaves:
            opts.append(tuple(pair_name(c, t) for c in s_tree.ordered_children(s)))
        if t not in T.leaves:
            opts.append(tuple(pair_name(s, c) for c in t_tree.ordered_children(t)))
        return opts

    def rec(order: dict[str, tuple[str, ...]], frontier: list[str]):
        if not frontier:
            sh = _build(s_tree, t_tree, dict(order))
            results.setdefault(sh.key, sh)
            return
        e = frontier[-1]
        s, t = split_name(e)
        if s in S.leaves and t in T.leaves:
            order[e] = ()
            rec(order, frontier[:-1])
            del order[e]
            return
        for kids in expansions(s, t):
            order[e] = kids
            rec(order, frontier[:-1] + list(kids))
            del order[e]

    root = pair_name(S.root, T.root)
    rec({}, [root])
    return [results[k] for k in sorted(results)]
