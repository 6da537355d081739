"""Face-closed complexes inside a representable or a union of shuffles.

A complex is a set of face keys closed under elementary faces.  The
ambient universe is either ``Sub(T)`` for a single tree, or the union of
``Sub(R_i)`` over all shuffles of a tensor pair; in the tensor case a face
key is shared across the shuffles containing it, which is what makes the
union of representables a genuine union.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, KeysView, Optional, Union

from .faces import (
    ElementaryFace,
    Face,
    FaceError,
    FaceKey,
    SubPoset,
    count_faces,
    enumerate_sub,
    make_key,
    memo_sub,
)
from .shuffles import PercolationPoset, Shuffle, enumerate_shuffles
from .trees import PlanarTree, Record, Tree, Value, parse_tree, render_tree


class TensorAmbient:
    """The tensor of two planar trees: shuffle poset, the face poset of
    each shuffle tree and a global face table shared by key across them."""

    def __init__(self, s_tree: PlanarTree, t_tree: PlanarTree):
        self.s_tree = s_tree
        self.t_tree = t_tree
        self.ident = (render_tree(s_tree), render_tree(t_tree))
        self.poset: PercolationPoset = enumerate_shuffles(s_tree, t_tree)
        self._universe: dict[FaceKey, Face] | None = None

    def __eq__(self, other) -> bool:
        return isinstance(other, TensorAmbient) and self.ident == other.ident

    def __hash__(self) -> int:
        return hash(self.ident)

    @cached_property
    def posets(self) -> dict[Tree, SubPoset]:
        """The face poset of each shuffle tree, built once per tensor from
        the ``enumerate_sub`` memo, so that equal tensors share them; keyed
        by each poset's own tree, as in :func:`posets_of`."""
        posets = (enumerate_sub(sh.tree.tree) for sh in self.poset)
        return {poset.ambient: poset for poset in posets}

    def sub(self, shuffle: Shuffle) -> SubPoset:
        return self.posets[shuffle.tree.tree]

    @property
    def universe(self) -> dict[FaceKey, Face]:
        if self._universe is None:
            table: dict[FaceKey, Face] = {}
            for poset in self.posets.values():
                for f in poset:
                    table.setdefault(f.key, f)
            self._universe = table
        return self._universe

    def __repr__(self) -> str:
        return f"TensorAmbient({self.ident[0]!r}, {self.ident[1]!r})"


Ambient = Union[Tree, TensorAmbient]


def posets_of(ambient: Ambient) -> dict[Tree, SubPoset]:
    """The face posets of an ambient by tree: a tensor's own, or the one
    poset of a tree.  Each is keyed by the poset's own tree, so that looking
    up a face's ambient hits by identity.  A reader asks once per call, not
    once per face."""
    if isinstance(ambient, TensorAmbient):
        return ambient.posets
    poset = enumerate_sub(ambient)
    return {poset.ambient: poset}


def _faces_by_key(
    ambient: Ambient,
) -> tuple[KeysView[FaceKey], Callable[[FaceKey], Optional[Face]]]:
    """The keys of the ambient's faces, and the face with a given key or
    ``None``: a tree is read from its poset's ``index``, with no copy of
    it; a tensor from its universe."""
    if isinstance(ambient, TensorAmbient):
        universe = ambient.universe
        return universe.keys(), universe.get
    poset = enumerate_sub(ambient)
    index, faces = poset.index, poset.faces
    return index.keys(), lambda key: None if (i := index.get(key)) is None else faces[i]


def _universe_of(ambient: Ambient) -> dict[FaceKey, Face]:
    keys, face_of = _faces_by_key(ambient)
    return {k: face_of(k) for k in keys}


class FaceComplex(Value):
    """An ambient together with a face-closed set of face keys."""

    __slots__ = ("ambient", "members")

    def __init__(self, ambient: Ambient, members: frozenset[FaceKey]):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "members", members)

    def contains(self, face: Face | FaceKey) -> bool:
        key = face.key if isinstance(face, Face) else face
        return key in self.members

    def __contains__(self, face) -> bool:
        return self.contains(face)

    def __len__(self) -> int:
        return len(self.members)

    def union(self, other: "FaceComplex") -> "FaceComplex":
        if self.ambient != other.ambient:
            raise FaceError("complexes live in different ambients")
        return FaceComplex(self.ambient, self.members | other.members)

    def intersection(self, other: "FaceComplex") -> "FaceComplex":
        if self.ambient != other.ambient:
            raise FaceError("complexes live in different ambients")
        return FaceComplex(self.ambient, self.members & other.members)

    def __or__(self, other):
        return self.union(other)

    def __and__(self, other):
        return self.intersection(other)

    def missing_faces(self) -> list[Face]:
        """Ambient faces not in the complex, by rank then key."""
        keys, face_of = _faces_by_key(self.ambient)
        out = [face_of(k) for k in keys if k not in self.members]
        out.sort(key=lambda f: (f.rank, f.key))
        return out

    def maximal_members(self) -> list[FaceKey]:
        """Members not properly contained in another member.  A member is
        maximal when, in each poset that holds it, no other member's bit
        lies in its upset; the faces of a face are the same in every poset
        that holds it, so this is the face order.  A key outside the
        ambient (a loaded base may hold one) lies below no face, so it is
        maximal and kept verbatim."""
        dominated = set()
        for poset in posets_of(self.ambient).values():
            mask = poset.mask_of(self.members)
            for f in poset.faces_in(mask):
                if poset.upset_mask(f) & mask != 1 << f.pos:
                    dominated.add(f.key)
        return sorted(k for k in self.members if k not in dominated)

    def is_closed(self) -> bool:
        posets = posets_of(self.ambient)
        _, face_of = _faces_by_key(self.ambient)
        for k in self.members:
            if (face := face_of(k)) is None:
                raise KeyError(k)
            for ef in posets[face.ambient].faces_of(face):
                if ef.domain.key not in self.members:
                    return False
        return True


def closure(ambient: Ambient, faces: Iterable[Face]) -> FaceComplex:
    """The smallest complex containing the given faces: the OR of their
    downset masks in the poset of each ambient tree, read back once."""
    posets = posets_of(ambient)
    masks: dict[Tree, int] = {}
    for f in faces:
        masks[f.ambient] = masks.get(f.ambient, 0) | posets[f.ambient].downset_mask(f)
    members = frozenset(
        f.key for tree, mask in masks.items() for f in posets[tree].faces_in(mask)
    )
    return FaceComplex(ambient, members)


def empty_complex(ambient: Ambient) -> FaceComplex:
    return FaceComplex(ambient, frozenset())


def full_complex(ambient: Ambient) -> FaceComplex:
    return FaceComplex(ambient, frozenset(_faces_by_key(ambient)[0]))


def boundary_complex(t: Tree) -> FaceComplex:
    """Union of the closures of all codimension-one faces."""
    poset = enumerate_sub(t)
    if poset.top.rank == 0:
        raise FaceError("the boundary needs a tree with at least one vertex")
    return closure(t, [ef.domain for ef in poset.faces_of(poset.top)])


def horn_complex(t: Tree, omit: ElementaryFace | tuple[str, str]) -> FaceComplex:
    """Union of the closures of all codimension-one faces except one."""
    site = (omit.kind, omit.at) if isinstance(omit, ElementaryFace) else omit
    poset = enumerate_sub(t)
    efs = poset.faces_of(poset.top)
    if site not in {(ef.kind, ef.at) for ef in efs}:
        raise FaceError(f"{site} is not an elementary face of the tree")
    return closure(t, [ef.domain for ef in efs if (ef.kind, ef.at) != site])


def segal_core(t: Tree) -> FaceComplex:
    """Union of the corolla faces, one per vertex (with its incident edges);
    the corolla of a stump is the capped unit."""
    poset = enumerate_sub(t)
    if poset.top.rank == 0:
        raise FaceError("the Segal core needs a tree with at least one vertex")
    corollas = []
    for o in t.edges - t.leaves:
        inputs = t.vertex(o)
        corollas.append(poset.face(make_key({o, *inputs}, () if inputs else (o,))))
    return closure(t, corollas)


def ambient_to_json(ambient: Ambient) -> dict:
    if isinstance(ambient, TensorAmbient):
        return {"type": "tensor", "s": ambient.ident[0], "t": ambient.ident[1]}
    return {"type": "tree", "tree": render_tree(ambient)}


class MalformedCertificateError(ValueError):
    """Certificate JSON with a missing key or a value of the wrong type, or
    an ambient too large to check."""


class AmbientTooLargeError(FaceError):
    """A producer's input is over the size bound that the loader checks."""


# The largest ambient a certificate may name, checked before any poset is
# built, by the loader and by the producers alike.  A poset's masks grow
# with the square of its face count, and the count doubles with each vertex
# of a linear tree: x0[...x16] has 131,071 faces.  The ambients in use fit:
# x0[...x9] has 1,023 faces, and the largest tensor in the tests,
# a0[a1 a2 a3] x b0[b1 b2[b4] b3[b5 b6 b7]], has 27,665 in its five
# shuffle trees.
MAX_FACES = 1 << 15
MAX_TENSOR_VERTICES = 8


def _check_faces(count: int, what: str, error: type[Exception]) -> None:
    if count > MAX_FACES:
        raise error(f"{what} has more than {MAX_FACES} faces")


def bounded_tree(tree: Tree, error: type[Exception] = AmbientTooLargeError) -> Tree:
    """``tree``, refused with ``error`` when it has more than ``MAX_FACES``
    faces, counted without building its poset."""
    _check_faces(count_faces(tree), "the ambient tree", error)
    return tree


def tensor_face_floor(S: Tree, T: Tree) -> int:
    """A lower bound on the faces of the shuffle trees of S and T in all,
    from S and T alone.  Each shuffle tree has an edge per pair of leaves
    and a root edge, which is no such pair unless neither factor has a
    vertex, and each edge alone is a face.  When both factors have a vertex
    the initial and terminal shuffles are two different trees."""
    sides = (S.num_vertices() > 0) + (T.num_vertices() > 0)  # factors with a vertex
    trees = 2 if sides == 2 else 1
    return trees * (len(S.leaves) * len(T.leaves) + (sides > 0))


def bounded_tensor(
    s_tree: PlanarTree, t_tree: PlanarTree, error: type[Exception] = AmbientTooLargeError
) -> TensorAmbient:
    """The tensor of two trees, refused with ``error`` when its factors
    have more than ``MAX_TENSOR_VERTICES`` vertices or its shuffle trees
    more than ``MAX_FACES`` faces in all.  No poset is built, and the
    shuffles only once ``tensor_face_floor`` is within the bound."""
    S, T = s_tree.tree, t_tree.tree
    if S.num_vertices() + T.num_vertices() > MAX_TENSOR_VERTICES:
        raise error(f"the tensor factors have more than {MAX_TENSOR_VERTICES} vertices")
    _check_faces(tensor_face_floor(S, T), "the tensor", error)
    ambient = TensorAmbient(s_tree, t_tree)
    _check_faces(sum(count_faces(sh.tree.tree) for sh in ambient.poset), "the tensor", error)
    return ambient


def json_field(data, name: str, kind: type):
    """``data[name]``, checked to be present and of type ``kind``."""
    if not isinstance(data, dict) or not isinstance(data.get(name), kind):
        raise MalformedCertificateError(f"{name!r} must be a {kind.__name__}")
    return data[name]


def ambient_from_json(data: dict) -> Ambient:
    """The ambient a certificate names, refused when over the size bound.
    A tree whose text is the canonical DSL of one in the ``enumerate_sub``
    memo is that poset's tree, with no parse; any other text is parsed."""
    kind = json_field(data, "type", str)
    if kind == "tree":
        text = json_field(data, "tree", str)
        poset = memo_sub(text)
        if poset is not None:
            _check_faces(len(poset), "the ambient tree", MalformedCertificateError)
            return poset.ambient
        return bounded_tree(parse_tree(text).tree, MalformedCertificateError)
    if kind == "tensor":
        s, t = json_field(data, "s", str), json_field(data, "t", str)
        return bounded_tensor(parse_tree(s), parse_tree(t), MalformedCertificateError)
    raise MalformedCertificateError(f"unknown ambient type {kind!r}")


def key_to_json(key: FaceKey) -> dict:
    return {"edges": list(key[0]), "caps": list(key[1])}


def key_from_json(item: dict) -> FaceKey:
    """A face key read from its JSON, refused as :func:`json_field` would
    refuse a field of the wrong type."""
    if not isinstance(item, dict) or not isinstance(edges := item.get("edges"), list):
        raise MalformedCertificateError("'edges' must be a list")
    if not isinstance(caps := item.get("caps"), list):
        raise MalformedCertificateError("'caps' must be a list")
    if not all(isinstance(e, str) for e in edges + caps):
        raise MalformedCertificateError("face edges and caps must be strings")
    return make_key(edges, caps)
