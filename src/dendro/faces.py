"""Faces of a tree and the graded poset they form.

A face of an ambient tree is canonically keyed by a pair ``(edges, caps)``:
the edge set of the subtree, and the subset of its maximal edges that carry
a (possibly composite) stump.  A maximal edge outside ``caps`` is a leaf of
the face.  Two faces are equal iff their keys coincide, regardless of which
ambient object produced them.

Elementary face maps come in three kinds:

* ``inner``  -- contract an inner edge (stump outputs count as inner);
* ``top``    -- chop a top vertex, or remove a cap;
* ``bottom`` -- chop the root vertex, keeping the subtree over one input.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .trees import Operation, Tree, is_operation

FaceKey = tuple[tuple[str, ...], tuple[str, ...]]

INNER = "inner"
TOP = "top"
BOTTOM = "bottom"


class FaceError(ValueError):
    """Raised for invalid faces or inapplicable face maps."""


class MixedPairError(FaceError):
    """No commuting square exists for a mixed pair."""


def make_key(edges: Iterable[str], caps: Iterable[str]) -> FaceKey:
    return (tuple(sorted(edges)), tuple(sorted(caps)))


class Face:
    """A subtree of an ambient tree, identified by its ``(edges, caps)`` key.

    The ambient tree supplies the partial order.  The root, the parent and
    children of each edge, the key and the rank are computed once at
    construction; ``maximal``, ``leaves`` and ``inner_edges`` are properties
    derived from them on each call.  ``pos`` is the face's position in the
    ``faces`` list of the :class:`SubPoset` that built it, and ``-1`` for a
    face built outside a poset.
    """

    __slots__ = ("ambient", "edges", "caps", "key", "root", "parent", "children", "rank", "pos")

    def __init__(self, ambient: Tree, edges: Iterable[str], caps: Iterable[str] = ()):
        edges = frozenset(edges)
        caps = frozenset(caps)
        if not edges <= ambient.edges:
            raise FaceError(f"edges not in ambient tree: {sorted(edges - ambient.edges)}")
        up = ambient.parent.get
        parent: dict[str, str] = {}
        children: dict[str, list[str]] = {e: [] for e in edges}
        roots = []
        for e in edges:
            p = up(e)
            while p is not None and p not in edges:
                p = up(p)
            if p is None:
                roots.append(e)
            else:
                parent[e] = p
                children[p].append(e)
        if len(roots) != 1:
            raise FaceError(f"face must have a unique minimal edge, found {sorted(roots)}")
        if not caps <= edges or any(children[c] for c in caps):
            raise FaceError("caps must be maximal edges of the face")
        self.ambient = ambient
        self.edges = edges
        self.caps = caps
        self.key = make_key(edges, caps)
        self.root = roots[0]
        self.parent = parent
        self.children = {
            e: tuple(sorted(cs)) if len(cs) > 1 else tuple(cs) for e, cs in children.items()
        }
        # one vertex over each edge with inputs, and one per cap
        self.rank = len(set(parent.values())) + len(caps)
        self.pos = -1

    # -- structure -------------------------------------------------------

    @property
    def maximal(self) -> frozenset[str]:
        return frozenset(e for e in self.edges if not self.children[e])

    @property
    def leaves(self) -> frozenset[str]:
        return self.maximal - self.caps

    @property
    def inner_edges(self) -> frozenset[str]:
        return self.edges - self.leaves - {self.root}

    def vertex_inputs(self, e: str) -> frozenset[str]:
        """Inputs of the face's vertex with output ``e`` (empty for a cap)."""
        if e in self.leaves:
            raise FaceError(f"{e!r} is a leaf of the face")
        return frozenset(self.children[e])

    def is_corolla(self) -> bool:
        return self.rank == 1 and bool(self.children[self.root])

    def as_tree(self) -> Tree:
        """The face as a standalone tree with the same edge names."""
        return Tree(self.edges, self.parent, self.leaves)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Face):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        caps = "; caps " + ",".join(self.key[1]) if self.caps else ""
        return f"Face({','.join(self.key[0])}{caps})"


def full_face(ambient: Tree) -> Face:
    return Face(ambient, ambient.edges, ambient.stump_outputs)


class ElementaryFace:
    """An elementary face map ``domain -> codomain``.

    ``at`` is the contracted edge (inner), the output of the chopped vertex
    or removed cap (top), or the kept input of the root vertex (bottom).
    Two maps are equal when their kind, ``at``, domain and codomain key are.
    """

    __slots__ = ("kind", "at", "domain", "codomain", "codomain_key")

    def __init__(self, kind: str, at: str, domain: Face, codomain: Face):
        self.kind = kind
        self.at = at
        self.domain = domain
        self.codomain = codomain
        self.codomain_key = codomain.key

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElementaryFace):
            return NotImplemented
        mine = (self.kind, self.at, self.domain, self.codomain_key)
        return mine == (other.kind, other.at, other.domain, other.codomain_key)

    def __hash__(self) -> int:
        return hash((self.kind, self.at, self.domain, self.codomain_key))

    def assigned_operation(self) -> Operation:
        """The operation used to order face maps: ``(e;e)`` for inner,
        ``(w;out)`` for top, ``(v;root)`` for bottom."""
        if self.kind == INNER:
            return Operation(frozenset((self.at,)), self.at)
        if self.kind == TOP:
            return Operation(self.codomain.vertex_inputs(self.at), self.at)
        return Operation(
            self.codomain.vertex_inputs(self.codomain.root), self.codomain.root
        )

    def __repr__(self) -> str:
        return f"{self.kind}({self.at}): {self.domain!r} -> {self.codomain!r}"


def _elementary_domains(p: Face) -> list[tuple[str, str, frozenset[str], frozenset[str]]]:
    """The one rule for elementary faces: ``(kind, at, edges, caps)`` of the
    domain of every elementary face map into ``p``, inner first, then top,
    then bottom, each sorted by ``at``.

    Every inner edge contributes a contraction (a contracted cap moves its
    stump down to a parent left without inputs), every top vertex and every
    cap a top face, and the root vertex one bottom face per admissible kept
    input: every input of a corolla, else the unique non-leaf input when all
    other inputs are leaves.
    """
    edges, caps, children, root = p.edges, p.caps, p.children, p.root
    leaves = {e for e, cs in children.items() if not cs} - caps
    inner, top = [], []
    for e in sorted(edges):
        if e in leaves:
            continue
        if e in caps:
            top.append((TOP, e, edges, caps - {e}))
        elif leaves.issuperset(children[e]):
            top.append((TOP, e, edges.difference(children[e]), caps))
        if e != root:
            low = caps
            if e in caps:
                low = caps - {e}
                if children[p.parent[e]] == (e,):
                    low = low | {p.parent[e]}
            inner.append((INNER, e, edges - {e}, low))
    out = inner + top
    root_inputs = children[root]
    if p.is_corolla():
        out.extend((BOTTOM, e, frozenset((e,)), frozenset()) for e in root_inputs)
    else:
        non_leaf = [e for e in root_inputs if e not in leaves]
        if len(non_leaf) == 1:
            at = non_leaf[0]
            above = [at]
            for e in above:
                above.extend(children[e])
            kept = frozenset(above)
            out.append((BOTTOM, at, kept, caps & kept))
    return out


def apply_elementary_face(p: Face, kind: str, at: str) -> Face:
    """The codimension-one face of ``p`` obtained by the given map."""
    for k, a, edges, caps in _elementary_domains(p):
        if k == kind and a == at:
            return Face(p.ambient, edges, caps)
    raise FaceError(f"{p!r} has no elementary face {kind}({at})")


def all_elementary_faces(p: Face) -> list[ElementaryFace]:
    """All elementary face maps into ``p``, in the order of
    :func:`_elementary_domains`."""
    return [
        ElementaryFace(kind, at, Face(p.ambient, edges, caps), p)
        for kind, at, edges, caps in _elementary_domains(p)
    ]


def valid_face_key(ambient: Tree, edges: Iterable[str], caps: Iterable[str]) -> bool:
    """Fast membership predicate for ``Sub``: checks the face invariants
    directly against the ambient tree, without any closure computation."""
    edges = frozenset(edges)
    caps = frozenset(caps)
    if not edges or not edges <= ambient.edges:
        return False
    minimal = [e for e in edges if not any(x != e and ambient.leq(x, e) for x in edges)]
    if len(minimal) != 1:
        return False
    maximal = set()
    for e in edges:
        above = [x for x in edges if x != e and ambient.leq(e, x)]
        if not above:
            maximal.add(e)
            continue
        inputs = frozenset(
            x for x in above if not any(y != x and y in above and ambient.leq(y, x) for y in above)
        )
        if not is_operation(ambient, Operation(inputs, e)):
            return False
    if not caps <= maximal:
        return False
    for c in caps:
        if not is_operation(ambient, Operation(frozenset(), c)):
            return False
    return True


def all_valid_face_keys(ambient: Tree) -> set[FaceKey]:
    """Every key accepted by the face invariants, by brute enumeration.

    Checks the same conditions as :func:`valid_face_key` over all edge
    subsets and cap choices, using bitmask arithmetic.  This is the oracle
    side of the predicate-equals-closure equivalence; it never consults the
    elementary face maps.
    """
    edges = sorted(ambient.edges)
    bit = {e: 1 << i for i, e in enumerate(edges)}
    above = {}  # strictly above, as masks
    below = {}
    for e in edges:
        above[e] = 0
        below[e] = 0
        for x in edges:
            if x != e and ambient.leq(e, x):
                above[e] |= bit[x]
            if x != e and ambient.leq(x, e):
                below[e] |= bit[x]
    leaf_sites = [bit[l] | below[l] for l in sorted(ambient.leaves)]
    stump_sites = [bit[s] | below[s] for s in sorted(ambient.stump_outputs)]
    dead = [s for s in edges if not any(ambient.leq(s, l) for l in ambient.leaves)]

    def vertex_ok(e: str, members: int) -> bool:
        up = members & above[e]
        if not up:
            return True
        inputs = 0
        m = up
        while m:
            b = m & -m
            m ^= b
            x = edges[b.bit_length() - 1]
            if not up & below[x]:
                inputs |= b
        for beloweq in leaf_sites:
            if beloweq & bit[e]:
                if (inputs & beloweq).bit_count() != 1:
                    return False
        for beloweq in stump_sites:
            if beloweq & bit[e]:
                if (inputs & beloweq).bit_count() > 1:
                    return False
        return True

    result: set[FaceKey] = set()
    for r in edges:
        up_edges = [x for x in edges if above[r] & bit[x]]
        for n in range(1 << len(up_edges)):
            members = bit[r]
            for i, x in enumerate(up_edges):
                if n >> i & 1:
                    members |= bit[x]
            ok = True
            maximal = []
            m = members
            while m and ok:
                b = m & -m
                m ^= b
                e = edges[b.bit_length() - 1]
                if not members & above[e]:
                    maximal.append(e)
                elif not vertex_ok(e, members):
                    ok = False
            if not ok:
                continue
            cappable = [e for e in maximal if e in dead]
            edge_names = tuple(sorted(e for e in edges if members & bit[e]))
            for k in range(1 << len(cappable)):
                caps = tuple(sorted(c for i, c in enumerate(cappable) if k >> i & 1))
                result.add((edge_names, caps))
    return result


# ---------------------------------------------------------------------------
# The face poset
# ---------------------------------------------------------------------------


class SubPoset:
    """``Sub(T)``: all faces of a tree, graded by rank, with cover maps.

    Built as the closure of the full face under the one elementary-face
    rule, :func:`_elementary_domains`: each face is built once, and every
    cover's ``domain`` is the poset's own :class:`Face`.  Provides
    downset/upset bitmasks for fast order queries.  The faces of a face
    ``F`` are the faces below ``F`` here, with the same keys, so a set over
    ``F`` is the downset view ``downset_mask(F)`` of this poset.

    The build sorts no map list, yet guarantees three orders: each
    ``faces_of`` list is by ``(kind, at)`` (bottom, inner, top); ``covers``
    is by codomain key, then ``(kind, at)``; each ``extensions_of`` list is
    by codomain key.  ``faces`` is by ``(rank, key)``, and each face's
    ``pos`` is its index there, the same int that ``index`` holds.
    """

    def __init__(self, ambient: Tree):
        self.ambient = ambient
        top = full_face(ambient)
        by_pair: dict[tuple[frozenset[str], frozenset[str]], Face] = {(top.edges, top.caps): top}
        self._faces_of: dict[FaceKey, list[ElementaryFace]] = {}
        queue = [top]
        while queue:
            p = queue.pop()
            maps = []
            for kind, at, edges, caps in _elementary_domains(p):
                domain = by_pair.get((edges, caps))
                if domain is None:
                    domain = by_pair[edges, caps] = Face(ambient, edges, caps)
                    queue.append(domain)
                maps.append(ElementaryFace(kind, at, domain, p))
            # the rule emits the bottom maps last; (kind, at) order puts them first
            i = len(maps)
            while i and maps[i - 1].kind == BOTTOM:
                i -= 1
            self._faces_of[p.key] = maps[i:] + maps[:i]
        self.faces: list[Face] = sorted(by_pair.values(), key=lambda f: (f.rank, f.key))
        self.index: dict[FaceKey, int] = {}
        for i, f in enumerate(self.faces):
            f.pos = i
            self.index[f.key] = i
        self.top = top
        self.covers: list[ElementaryFace] = []
        self._extensions_of: dict[FaceKey, list[ElementaryFace]] = {
            f.key: [] for f in self.faces
        }
        for key in sorted(self._faces_of):
            for ef in self._faces_of[key]:
                self.covers.append(ef)
                self._extensions_of[ef.domain.key].append(ef)
        # downsets and upsets as bitmasks, computed along the rank grading
        self._down: list[int] = [0] * len(self.faces)
        for i, f in enumerate(self.faces):
            mask = 1 << i
            for ef in self._faces_of[f.key]:
                mask |= self._down[ef.domain.pos]
            self._down[i] = mask
        self._up: list[int] = [0] * len(self.faces)
        for i in reversed(range(len(self.faces))):
            mask = 1 << i
            for ef in self._extensions_of[self.faces[i].key]:
                mask |= self._up[ef.codomain.pos]
            self._up[i] = mask

    def __len__(self) -> int:
        return len(self.faces)

    def __iter__(self) -> Iterator[Face]:
        return iter(self.faces)

    def __contains__(self, face: Face | FaceKey) -> bool:
        key = face.key if isinstance(face, Face) else face
        return key in self.index

    def _pos(self, p: Face | FaceKey) -> int:
        """The position of ``p`` in ``faces``: read off one of the poset's
        own faces, else looked up by key."""
        if isinstance(p, Face):
            if 0 <= p.pos < len(self.faces) and self.faces[p.pos] is p:
                return p.pos
            p = p.key
        return self.index[p]

    def face(self, key: FaceKey) -> Face:
        """The poset's own face with this key; :class:`FaceError` if none."""
        i = self.index.get(key)
        if i is None:
            raise FaceError(f"{key} is not a face of the tree")
        return self.faces[i]

    def faces_of(self, p: Face | FaceKey) -> list[ElementaryFace]:
        """Elementary face maps into ``p``."""
        return self._faces_of[p.key if isinstance(p, Face) else p]

    def extensions_of(self, p: Face | FaceKey) -> list[ElementaryFace]:
        """Elementary face maps out of ``p`` (codimension-one extensions)."""
        return self._extensions_of[p.key if isinstance(p, Face) else p]

    def leq(self, a: Face | FaceKey, b: Face | FaceKey) -> bool:
        return bool(self._down[self._pos(b)] >> self._pos(a) & 1)

    def downset_mask(self, p: Face | FaceKey) -> int:
        return self._down[self._pos(p)]

    def upset_mask(self, p: Face | FaceKey) -> int:
        return self._up[self._pos(p)]

    def faces_in(self, mask: int) -> list[Face]:
        """The faces whose bits are set in ``mask``, in (rank, key) order."""
        out = []
        while mask:
            out.append(self.faces[(mask & -mask).bit_length() - 1])
            mask &= mask - 1
        return out

    def downset(self, p: Face | FaceKey) -> list[Face]:
        return self.faces_in(self.downset_mask(p))

    def minimal_upper_bounds(self, a: Face, b: Face, within: int = -1) -> list[Face]:
        """Minimal common upper bounds of ``a`` and ``b`` among the faces
        in the mask ``within`` (the ones of the poset that lie in a view)."""
        ub = self.upset_mask(a) & self.upset_mask(b) & within
        return [f for f in self.faces_in(ub) if (self.downset_mask(f) & ub).bit_count() == 1]

    def unique_join(
        self, a: Face | FaceKey, b: Face | FaceKey, within: int = -1
    ) -> Face | None:
        """The unique minimal common upper bound of ``a`` and ``b`` among
        the faces in ``within``, or ``None`` if there is none or several.

        Faces are indexed by rank, so the lowest upper bound is minimal; it
        is the only minimal one exactly when every upper bound lies above it.
        """
        i = self._join(self._pos(a), self._pos(b), within)
        return None if i < 0 else self.faces[i]

    def _join(self, a: int, b: int, within: int) -> int:
        """:meth:`unique_join` on positions: the join's position, or -1."""
        ub = self._up[a] & self._up[b] & within
        i = (ub & -ub).bit_length() - 1
        if i < 0 or ub & ~self._up[i]:
            return -1
        return i

    def face_map(self, p: Face | FaceKey, kind: str, at: str) -> ElementaryFace | None:
        """The elementary face map ``kind(at)`` into ``p``, if ``p`` has one
        (a face has at most one map per label)."""
        for ef in self._faces_of[p.key if isinstance(p, Face) else p]:
            if ef.kind == kind and ef.at == at:
                return ef
        return None


_sub_cache: dict[Tree, SubPoset] = {}


def enumerate_sub(ambient: Tree) -> SubPoset:
    """The poset of all faces of a tree (memoized per tree)."""
    poset = _sub_cache.get(ambient)
    if poset is None:
        poset = _sub_cache.setdefault(ambient, SubPoset(ambient))
    return poset


# ---------------------------------------------------------------------------
# Pair classification
# ---------------------------------------------------------------------------

GOOD = "good"
MIXED = "mixed"
ADJACENT = "adjacent"
BAD_SIBLING_TOPS = "bad_sibling_tops"
BAD_SIBLING_BOTTOMS = "bad_sibling_bottoms"


def classify_pair(f: ElementaryFace, g: ElementaryFace, mode: str = "faces") -> str:
    """Classify a pair of elementary face maps.

    ``mode`` states the shared context: ``"faces"`` for two faces of the
    same codomain, ``"extensions"`` for two extensions of the same domain,
    ``"composable"`` for ``f`` followed by ``g`` (f.codomain == g.domain).
    """
    if f == g:
        raise FaceError("classify_pair requires two distinct maps")
    if mode == "faces":
        if f.codomain_key != g.codomain_key:
            raise FaceError("face-pair mode requires a common codomain")
        if _is_mixed(f, g) or _is_mixed(g, f):
            return MIXED
        return GOOD
    if mode == "extensions":
        if f.domain.key != g.domain.key:
            raise FaceError("extension-pair mode requires a common domain")
        if f.kind == TOP and g.kind == TOP and f.at == g.at:
            return BAD_SIBLING_TOPS
        if f.kind == BOTTOM and g.kind == BOTTOM:
            return BAD_SIBLING_BOTTOMS
        return GOOD
    if mode == "composable":
        if f.codomain_key != g.domain.key:
            raise FaceError("composable mode requires f.codomain == g.domain")
        return ADJACENT if _is_adjacent(enumerate_sub(g.codomain.ambient), f, g) else GOOD
    raise FaceError(f"unknown mode {mode!r}")


def _is_mixed(inner: ElementaryFace, outer: ElementaryFace) -> bool:
    """True for ``{inner(e), outer}`` with e the unique inner edge attached
    to the chopped outer vertex."""
    return inner.kind == INNER and outer.kind in (TOP, BOTTOM) and outer.at == inner.at


def _is_adjacent(poset: SubPoset, f: ElementaryFace, g: ElementaryFace) -> bool:
    """Adjacency for a composable pair ``f: Q -> P``, ``g: P -> P'`` of the
    ambient's ``poset``: the pair admits no commuting square, i.e. the map
    labelled like ``f`` cannot be transported to a face of ``g``'s codomain."""
    cand = poset.face_map(g.codomain, f.kind, f.at)
    if cand is None:
        return True
    back = poset.face_map(cand.domain, g.kind, g.at)
    return back is None or back.domain.key != f.domain.key


def commute_square(
    p: Face, f: ElementaryFace, g: ElementaryFace
) -> tuple[Face, ElementaryFace, ElementaryFace, ElementaryFace, ElementaryFace]:
    """The commuting square of a non-mixed pair of faces of ``p``.

    Returns ``(corner, f_low, g_low, f_high, g_high)`` where the square is
    ``corner -> f.domain -> p`` (via g_low then f=f_high) and equally
    ``corner -> g.domain -> p``.  Raises :class:`MixedPairError` for a mixed
    pair (no square exists).
    """
    if f.codomain_key != p.key or g.codomain_key != p.key:
        raise FaceError("both maps must be faces of p")
    if p.rank < 2:
        raise FaceError("squares need a face with at least two vertices")
    if classify_pair(f, g, mode="faces") == MIXED:
        raise MixedPairError(f"{f.kind}({f.at}) and {g.kind}({g.at}) form a mixed pair")
    fg = apply_elementary_face(f.domain, g.kind, g.at)
    gf = apply_elementary_face(g.domain, f.kind, f.at)
    if fg.key != gf.key:
        raise FaceError("dendroidal relation failed; pair does not commute")
    g_low = ElementaryFace(g.kind, g.at, fg, f.domain)
    f_low = ElementaryFace(f.kind, f.at, fg, g.domain)
    return fg, f_low, g_low, f, g


def join_faces(
    p: Face, f: ElementaryFace, g: ElementaryFace
) -> tuple[Face, list[ElementaryFace], list[ElementaryFace]]:
    """The unique minimal common extension of a codimension-one cospan.

    ``f: p -> p1`` and ``g: p -> p2`` are extensions of ``p`` inside a common
    ambient tree.  Returns ``(join, seq1, seq2)`` with equal-length extension
    sequences from ``p1`` and ``p2`` up to the join, recovered greedily.
    """
    if f.domain.key != p.key or g.domain.key != p.key:
        raise FaceError("both maps must be extensions of p")
    poset = enumerate_sub(p.ambient)
    join = poset.unique_join(f.codomain, g.codomain)
    if join is None:
        mins = poset.minimal_upper_bounds(f.codomain, g.codomain)
        raise FaceError(
            f"expected a unique minimal common extension, found {len(mins)}"
        )
    return join, _chain_up(poset, f.codomain, join), _chain_up(poset, g.codomain, join)


def _chain_up(poset: SubPoset, start: Face, goal: Face) -> list[ElementaryFace]:
    seq: list[ElementaryFace] = []
    current = start
    while current.key != goal.key:
        step = min(
            (
                ef
                for ef in poset.extensions_of(current)
                if poset.leq(ef.codomain_key, goal.key)
            ),
            key=lambda ef: (ef.kind, ef.at, ef.codomain_key),
        )
        seq.append(step)
        current = step.codomain
    return seq


def join_bad_tops_explicit(p: Face, f: ElementaryFace, g: ElementaryFace) -> Face:
    """Direct construction of the join of two bad sibling-top extensions,
    used as a cross-check for the upper-bound search.

    The join grows both input sets over the shared edge; a new maximal
    edge gets capped exactly when one of the two sides has no input on its
    branch (that side's operation needs the branch to be dead).
    """
    if classify_pair(f, g, mode="extensions") != BAD_SIBLING_TOPS:
        raise FaceError("expected a bad pair of sibling top extensions")
    amb = p.ambient
    a = set(f.codomain.vertex_inputs(f.at))
    b = set(g.codomain.vertex_inputs(g.at))
    edges = p.edges | a | b
    new_max = {
        x for x in a | b if not any(y != x and amb.leq(x, y) for y in edges)
    }
    caps = set(p.caps)
    for x in new_max:
        if not any(amb.leq(y, x) for y in a) or not any(amb.leq(y, x) for y in b):
            caps.add(x)
    return Face(amb, edges, frozenset(caps))
