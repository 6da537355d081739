"""Faces of a tree and the graded poset they form.

A face of an ambient tree is canonically keyed by a pair ``(edges, caps)``:
the edge set of the subtree, and the subset of its maximal edges that carry
a (possibly composite) stump.  A maximal edge outside ``caps`` is a leaf of
the face.  Two faces are equal iff their keys coincide, regardless of which
ambient object produced them.  Internally a face is a pair of masks over
the ambient's edge bits (``Tree.bits``, one bit per edge in name order).

Elementary face maps come in three kinds:

* ``inner``  -- contract an inner edge (stump outputs count as inner);
* ``top``    -- chop a top vertex, or remove a cap;
* ``bottom`` -- chop the root vertex, keeping the subtree over one input.
"""

from __future__ import annotations

import functools
import math
from typing import AbstractSet, Iterable, Iterator

from .trees import NAME_CHARS, EdgeBits, Operation, Tree, render_tree

FaceKey = tuple[tuple[str, ...], tuple[str, ...]]

INNER = "inner"
TOP = "top"
BOTTOM = "bottom"


class FaceError(ValueError):
    """Raised for invalid faces or inapplicable face maps."""


def make_key(edges: Iterable[str], caps: Iterable[str]) -> FaceKey:
    return (tuple(sorted(edges)), tuple(sorted(caps)))


def _indices(mask: int) -> Iterator[int]:
    """The bit positions set in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Face:
    """A subtree of an ambient tree, identified by its ``(edges, caps)`` key.

    A face holds its ambient, key, rank, root and position, and the masks
    ``edge_mask`` and ``cap_mask`` of its edges and caps in the ambient's
    bit order (:class:`~dendro.trees.EdgeBits`, sorted by name, so the key
    is read off the masks already sorted).  The root is set at
    construction: it is the unique minimal edge that validation finds.
    A face keeps nothing else: ``edges`` and ``caps`` are read from the
    key, and ``parent``, ``children``, ``maximal``, ``leaves`` and
    ``inner_edges`` are derived from the masks on each read.  ``pos`` is
    the face's position in the ``faces`` list of the :class:`SubPoset`
    that built it, and ``-1`` for a face built outside a poset.

    ``edges`` and ``caps`` are given as edge names, or as masks (the poset
    build passes masks); either way the face is validated on its masks.
    """

    __slots__ = ("ambient", "key", "rank", "pos", "edge_mask", "cap_mask", "root")

    def __init__(
        self, ambient: Tree, edges: Iterable[str] | int, caps: Iterable[str] | int = ()
    ):
        bits = ambient.bits
        names, above, below = bits.names, bits.above, bits.below
        if not isinstance(edges, int):
            edges, caps = _masks(bits, edges, caps)
        elif edges >> len(names):
            outside = list(_indices(edges >> len(names) << len(names)))
            raise FaceError(f"edges not in ambient tree: bits {outside}")
        roots, ids = [], []
        rank = caps.bit_count()  # one vertex per cap...
        m = edges
        while m:
            low = m & -m
            i = low.bit_length() - 1
            ids.append(i)
            if not below[i] & edges:
                roots.append(names[i])
            if above[i] & edges:
                rank += 1  # ...and one over each edge with inputs
            m ^= low
        if len(roots) != 1:
            raise FaceError(f"face must have a unique minimal edge, found {roots}")
        if caps and (caps & ~edges or any(above[c] & edges for c in _indices(caps))):
            raise FaceError("caps must be maximal edges of the face")
        self.ambient = ambient
        cap_names = tuple([names[c] for c in _indices(caps)]) if caps else ()
        self.key = (tuple([names[i] for i in ids]), cap_names)
        self.rank = rank
        self.root = roots[0]
        self.pos = -1
        self.edge_mask = edges
        self.cap_mask = caps

    # -- structure, derived from the masks ------------------------------

    @property
    def edges(self) -> frozenset[str]:
        return frozenset(self.key[0])

    @property
    def caps(self) -> frozenset[str]:
        return frozenset(self.key[1])

    @property
    def parent(self) -> dict[str, str]:
        """The parent in the face of each edge but the root."""
        return self._derive_links()[0]

    @property
    def children(self) -> dict[str, tuple[str, ...]]:
        """The children in the face of each edge, sorted."""
        return self._derive_links()[1]

    def _derive_links(self) -> tuple[dict[str, str], dict[str, tuple[str, ...]]]:
        names = self.ambient.bits.names
        ids, parent, kids = _face_links(self.ambient.bits, self.edge_mask)
        return (
            {names[i]: names[parent[i]] for i in ids if parent[i] >= 0},
            {names[i]: tuple([names[j] for j in _indices(kids[i])]) for i in ids},
        )

    @property
    def maximal(self) -> frozenset[str]:
        above, edges = self.ambient.bits.above, self.edge_mask
        return frozenset(e for i, e in zip(_indices(edges), self.key[0]) if not above[i] & edges)

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
        # one vertex, and it is not a cap on a lone edge
        return self.rank == 1 and len(self.key[0]) > 1

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
        caps = "; caps " + ",".join(self.key[1]) if self.key[1] else ""
        return f"Face({','.join(self.key[0])}{caps})"


def _masks(bits: EdgeBits, edges: Iterable[str], caps: Iterable[str]) -> tuple[int, int]:
    """Edge names as masks.  A cap outside the ambient gets the bit past
    the last edge, which no face has."""
    index = bits.index
    edges = frozenset(edges)
    outside = edges.difference(index)
    if outside:
        raise FaceError(f"edges not in ambient tree: {sorted(outside)}")
    edge_mask = cap_mask = 0
    for e in edges:
        edge_mask |= 1 << index[e]
    for c in caps:
        cap_mask |= 1 << index.get(c, len(index))
    return edge_mask, cap_mask


def _face_links(bits: EdgeBits, edges: int) -> tuple[list[int], list[int], list[int]]:
    """The positions of the face's edges, lowest first, and by position the
    parent in the face of each of them (-1 at its root) and the mask of its
    children in the face."""
    up = bits.parent
    ids, parent, kids = [], [-1] * len(up), [0] * len(up)
    m = edges
    while m:
        low = m & -m
        i = low.bit_length() - 1
        ids.append(i)
        q = up[i]
        while q >= 0 and not edges >> q & 1:
            q = up[q]
        if q >= 0:
            parent[i] = q
            kids[q] |= low
        m ^= low
    return ids, parent, kids


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


def _elementary_domains(p: Face) -> list[tuple[str, str, int, int]]:
    """The one rule for elementary faces: ``(kind, at, edge_mask, cap_mask)``
    of the domain of every elementary face map into ``p``, inner first, then
    top, then bottom, each sorted by ``at``.

    Every inner edge contributes a contraction (a contracted cap moves its
    stump down to a parent left without inputs), every top vertex and every
    cap a top face, and the root vertex one bottom face per admissible kept
    input: every input of a corolla, else the unique non-leaf input when all
    other inputs are leaves.  Bit order is name order, so reading edges from
    the low bit up sorts each kind by ``at``.
    """
    bits = p.ambient.bits
    names = bits.names
    edges, caps = p.edge_mask, p.cap_mask
    ids, parent, kids = _face_links(bits, edges)
    root = bits.index[p.root]
    leaves = 0
    for i in ids:
        if not kids[i]:
            leaves |= 1 << i
    leaves &= ~caps
    inner, top = [], []
    for i in ids:
        b = 1 << i
        if leaves & b:
            continue
        at = names[i]
        if caps & b:
            top.append((TOP, at, edges, caps ^ b))
        elif not kids[i] & ~leaves:
            top.append((TOP, at, edges ^ kids[i], caps))
        if i != root:
            low = caps
            if caps & b:
                low ^= b
                if kids[parent[i]] == b:
                    low |= 1 << parent[i]
            inner.append((INNER, at, edges ^ b, low))
    out = inner + top
    if p.is_corolla():
        out.extend((BOTTOM, names[j], 1 << j, 0) for j in _indices(kids[root]))
    else:
        non_leaf = kids[root] & ~leaves
        if non_leaf and not non_leaf & (non_leaf - 1):
            j = non_leaf.bit_length() - 1
            kept = bits.above[j] & edges | non_leaf
            out.append((BOTTOM, names[j], kept, caps & kept))
    return out


def all_elementary_faces(p: Face) -> list[ElementaryFace]:
    """All elementary face maps into ``p``, in the order of
    :func:`_elementary_domains`."""
    return [
        ElementaryFace(kind, at, Face(p.ambient, edges, caps), p)
        for kind, at, edges, caps in _elementary_domains(p)
    ]


def all_valid_face_keys(ambient: Tree) -> set[FaceKey]:
    """Every key accepted by the face invariants, by brute enumeration.

    Checks the conditions of :func:`dendro.reference.valid_face_key` over
    all edge subsets and cap choices, using bitmask arithmetic.  This is the
    oracle side of the predicate-equals-closure equivalence; it never
    consults the elementary face maps.  ``perfbench`` reads it here.
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
    rule, :func:`_elementary_domains`, on edge and cap masks: each domain is
    looked up by one int, each face is built once by ``Face.__init__``, and
    every map's ends are the poset's own faces.  The faces of a face ``F``
    are the faces below ``F`` here, so a set over ``F`` is the downset view
    ``downset_mask(F)`` of this poset.

    ``faces`` is by ``(rank, key)``, and each face's ``pos`` is its index
    there.  All else is stored by position: the maps into each face
    (``faces_of``, by ``(kind, at)``: bottom, inner, top), the maps out of
    it (``extensions_of``, by codomain key, since their codomains share one
    rank), and its downset and upset as bitmasks.  ``index``, the one table
    keyed by face key, is read by :meth:`_pos`, the one place that resolves
    a ``Face | FaceKey`` argument, only for a face not the poset's own.
    ``covers`` is derived on first read, by codomain key, then ``(kind, at)``.
    """

    def __init__(self, ambient: Tree):
        self.ambient = ambient
        top = self.top = full_face(ambient)
        # a face's one int: its edge mask, with its cap mask above it
        shift = len(ambient.bits.names)
        by_mask: dict[int, Face] = {top.edge_mask | top.cap_mask << shift: top}
        found, into = [top], []
        for p in found:
            maps = []
            for kind, at, edges, caps in _elementary_domains(p):
                domain = by_mask.get(edges | caps << shift)
                if domain is None:
                    domain = by_mask[edges | caps << shift] = Face(ambient, edges, caps)
                    found.append(domain)
                maps.append(ElementaryFace(kind, at, domain, p))
            # the rule emits the bottom maps last; (kind, at) order puts them first
            i = len(maps)
            while i and maps[i - 1].kind == BOTTOM:
                i -= 1
            into.append(maps[i:] + maps[:i])
        order = sorted(range(len(found)), key=lambda k: (found[k].rank, found[k].key))
        self.faces: list[Face] = [found[k] for k in order]
        self._into: list[list[ElementaryFace]] = [into[k] for k in order]
        self.index: dict[FaceKey, int] = {}
        for i, f in enumerate(self.faces):
            f.pos = i
            self.index[f.key] = i
        # the maps out of each face, and downsets and upsets as bitmasks,
        # computed along the rank grading
        out = self._out = [[] for _ in order]
        down = self._down = [0] * len(order)
        for i, efs in enumerate(self._into):
            mask = 1 << i
            for ef in efs:
                mask |= down[ef.domain.pos]
                out[ef.domain.pos].append(ef)
            down[i] = mask
        up = self._up = [0] * len(order)
        for i in reversed(range(len(order))):
            mask = 1 << i
            for ef in out[i]:
                mask |= up[ef.codomain.pos]
            up[i] = mask

    @functools.cached_property
    def text(self) -> str | None:
        """The ambient's canonical DSL, ``render_tree(ambient)``, or ``None``
        when an edge name is no DSL name (a shuffle tree's ``s,t``), since
        that text would not parse back to the ambient."""
        if all(e and NAME_CHARS.issuperset(e) for e in self.ambient.edges):
            return render_tree(self.ambient)
        return None

    @functools.cached_property
    def covers(self) -> list[ElementaryFace]:
        order = sorted(range(len(self.faces)), key=lambda i: self.faces[i].key)
        return [ef for i in order for ef in self._into[i]]

    def __len__(self) -> int:
        return len(self.faces)

    def __iter__(self) -> Iterator[Face]:
        return iter(self.faces)

    def __contains__(self, face: Face | FaceKey) -> bool:
        return (face.key if isinstance(face, Face) else face) in self.index

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
        return self._into[self._pos(p)]

    def extensions_of(self, p: Face | FaceKey) -> list[ElementaryFace]:
        """Elementary face maps out of ``p`` (codimension-one extensions)."""
        return self._out[self._pos(p)]

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

    def mask_of(self, keys: AbstractSet[FaceKey]) -> int:
        """The mask of the faces in the key set ``keys`` (a complex's
        members); a key that is no face of the poset is skipped.  It walks
        the smaller side: the keys, or the poset's faces."""
        if len(keys) > len(self.faces):
            return sum(1 << f.pos for f in self.faces if f.key in keys)
        index = self.index
        return sum(1 << index[k] for k in keys if k in index)

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
        for ef in self._into[self._pos(p)]:
            if ef.kind == kind and ef.at == at:
                return ef
        return None

    def square(
        self, f: ElementaryFace, g: ElementaryFace
    ) -> tuple[ElementaryFace, ElementaryFace] | None:
        """The lower sides ``(f_low, g_low)`` of the commuting square on two
        faces ``f`` and ``g`` of one face: ``f_low`` is labelled like ``f``
        and lands in ``g``'s domain, ``g_low`` is labelled like ``g`` and
        lands in ``f``'s, and both leave one corner.  ``None`` when a side
        is missing or the two sides leave different faces."""
        g_low = self.face_map(f.domain, g.kind, g.at)
        f_low = g_low and self.face_map(g.domain, f.kind, f.at)
        if f_low and f_low.domain is g_low.domain:
            return f_low, g_low
        return None


def count_faces(tree: Tree) -> int:
    """The number of faces of ``Sub(tree)``, counted without building it.

    A face rooted at an edge ``e`` is ``e`` alone, or ``e`` with its vertex
    and one of ``M(c)`` choices over each input ``c``: ``c`` is a leaf of
    the face, or the vertex over ``c`` is kept too (a stump's as a cap),
    with ``c`` an edge of the face or contracted into the vertex below,
    ``P(c)`` ways each, ``P`` being the product of ``M`` over the inputs.
    So a leaf has ``A = M = 1``, any other edge ``A = 1 + P`` faces rooted
    at it and ``M = 2P + 1``, and the count is the sum of ``A``.
    """
    ways: dict[str, int] = {}
    total = 0
    for e in sorted(tree.edges, key=tree.height, reverse=True):  # inputs first
        if e in tree.leaves:
            ways[e] = 1
            total += 1
        else:
            p = math.prod(ways[c] for c in tree.children[e])
            ways[e] = 2 * p + 1
            total += 1 + p
    return total


_SUB_BOUND = 32
_sub_cache: dict[Tree, SubPoset] = {}


def enumerate_sub(ambient: Tree) -> SubPoset:
    """The poset of all faces of a tree, memoized per tree.

    The memo holds at most ``_SUB_BOUND`` posets, oldest use first: a hit
    moves its tree to the end, and a miss appends the new poset and drops
    the least recently used one once the memo is over the bound.  It
    shares posets between equal ambients: a tensor keeps its shuffle
    posets (``TensorAmbient.posets``), and an equal tensor, such as a
    loaded certificate's, finds them here.  A dropped poset is freed once
    no tensor holds it, and a face of it is still resolved by key in the
    rebuilt poset.
    A hit keeps the memo's own tree as the key, the poset's ``ambient``;
    :func:`memo_sub` finds a poset by the text of its tree.
    """
    poset = _sub_cache.pop(ambient, None)
    if poset is None:
        poset = SubPoset(ambient)
    _sub_cache[poset.ambient] = poset
    if len(_sub_cache) > _SUB_BOUND:
        del _sub_cache[next(iter(_sub_cache))]
    return poset


def memo_sub(text: str) -> SubPoset | None:
    """The memo's poset of the tree whose canonical DSL is ``text``, or
    ``None``; a hit moves its tree to the end, as in :func:`enumerate_sub`.
    It lets a loader skip parsing a tree the memo already holds."""
    for tree, poset in reversed(_sub_cache.items()):
        if poset.text == text:
            _sub_cache[tree] = _sub_cache.pop(tree)
            return poset
    return None


# ---------------------------------------------------------------------------
# Pair classification
# ---------------------------------------------------------------------------


def _is_mixed(f: ElementaryFace, g: ElementaryFace) -> bool:
    """Two faces of one face form a mixed pair: one contracts the inner
    edge ``e`` and the other, top or bottom, chops the vertex that ``e``
    attaches, so both are labelled ``e``.  Symmetric in ``f`` and ``g``."""
    return f.at == g.at and (f.kind == INNER) != (g.kind == INNER)


def _is_bad_pair(f: ElementaryFace, g: ElementaryFace) -> bool:
    """Two extensions of one face form a bad pair: two top faces at one
    edge, or two bottom faces."""
    return f.kind == g.kind and (f.kind == BOTTOM or f.kind == TOP and f.at == g.at)


def _is_adjacent(poset: SubPoset, f: ElementaryFace, g: ElementaryFace) -> bool:
    """Adjacency for a composable pair ``f: Q -> P``, ``g: P -> P'`` of the
    ambient's ``poset``: the pair admits no commuting square, i.e. the map
    labelled like ``f`` is no face of ``g``'s codomain, or has no square
    with ``g``."""
    cand = poset.face_map(g.codomain, f.kind, f.at)
    return cand is None or poset.square(cand, g) is None
