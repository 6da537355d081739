"""Face-closed complexes inside a representable or a union of shuffles.

A complex is a set of face keys closed under elementary faces.  The
ambient universe is either ``Sub(T)`` for a single tree, or the union of
``Sub(R_i)`` over all shuffles of a tensor pair; in the tensor case a face
key is shared across the shuffles containing it, which is what makes the
union of representables a genuine union.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .faces import ElementaryFace, Face, FaceError, FaceKey, SubPoset, enumerate_sub, make_key
from .shuffles import PercolationPoset, Shuffle, enumerate_shuffles
from .trees import PlanarTree, Tree, parse_tree, render_tree


class TensorAmbient:
    """The tensor of two planar trees: shuffle poset plus a global face
    table shared by key across shuffles."""

    def __init__(self, s_tree: PlanarTree, t_tree: PlanarTree):
        self.s_tree = s_tree
        self.t_tree = t_tree
        self.poset: PercolationPoset = enumerate_shuffles(s_tree, t_tree)
        self._universe: dict[FaceKey, Face] | None = None

    @property
    def ident(self) -> tuple[str, str]:
        return (render_tree(self.s_tree), render_tree(self.t_tree))

    def sub(self, shuffle: Shuffle) -> SubPoset:
        return enumerate_sub(shuffle.tree.tree)

    @property
    def universe(self) -> dict[FaceKey, Face]:
        if self._universe is None:
            table: dict[FaceKey, Face] = {}
            for sh in self.poset:
                for f in self.sub(sh):
                    table.setdefault(f.key, f)
            self._universe = table
        return self._universe

    def __repr__(self) -> str:
        return f"TensorAmbient({self.ident[0]!r}, {self.ident[1]!r})"


Ambient = Union[Tree, TensorAmbient]


def _universe_of(ambient: Ambient) -> dict[FaceKey, Face]:
    if isinstance(ambient, TensorAmbient):
        return ambient.universe
    return {f.key: f for f in enumerate_sub(ambient)}


def _same_ambient(a: Ambient, b: Ambient) -> bool:
    if isinstance(a, TensorAmbient) and isinstance(b, TensorAmbient):
        return a.ident == b.ident
    return a == b


@dataclass(frozen=True)
class FaceComplex:
    """An ambient together with a face-closed set of face keys."""

    ambient: Ambient
    members: frozenset[FaceKey]

    def contains(self, face: Face | FaceKey) -> bool:
        key = face.key if isinstance(face, Face) else face
        return key in self.members

    def __contains__(self, face) -> bool:
        return self.contains(face)

    def __len__(self) -> int:
        return len(self.members)

    def union(self, other: "FaceComplex") -> "FaceComplex":
        if not _same_ambient(self.ambient, other.ambient):
            raise FaceError("complexes live in different ambients")
        return FaceComplex(self.ambient, self.members | other.members)

    def intersection(self, other: "FaceComplex") -> "FaceComplex":
        if not _same_ambient(self.ambient, other.ambient):
            raise FaceError("complexes live in different ambients")
        return FaceComplex(self.ambient, self.members & other.members)

    def __or__(self, other):
        return self.union(other)

    def __and__(self, other):
        return self.intersection(other)

    def missing_faces(self) -> list[Face]:
        """Ambient faces not in the complex, by rank then key."""
        table = _universe_of(self.ambient)
        out = [f for k, f in table.items() if k not in self.members]
        out.sort(key=lambda f: (f.rank, f.key))
        return out

    def maximal_members(self) -> list[FaceKey]:
        """Members not properly contained in another member.  A member is
        maximal when, in each poset that holds it, no other member's bit
        lies in its upset; the faces of a face are the same in every poset
        that holds it, so this is the face order.  A key outside the
        ambient (a loaded base may hold one) lies below no face, so it is
        maximal and kept verbatim."""
        if isinstance(self.ambient, TensorAmbient):
            posets = [self.ambient.sub(sh) for sh in self.ambient.poset]
        else:
            posets = [enumerate_sub(self.ambient)]
        dominated = set()
        for poset in posets:
            mask = poset.mask_of(self.members)
            for f in poset.faces_in(mask):
                if poset.upset_mask(f) & mask != 1 << f.pos:
                    dominated.add(f.key)
        return sorted(k for k in self.members if k not in dominated)

    def is_closed(self) -> bool:
        table = _universe_of(self.ambient)
        for k in self.members:
            for ef in enumerate_sub(table[k].ambient).faces_of(table[k]):
                if ef.domain.key not in self.members:
                    return False
        return True


def closure(ambient: Ambient, faces: Iterable[Face]) -> FaceComplex:
    """The smallest complex containing the given faces: the OR of their
    downset masks in the poset of each ambient tree, read back once."""
    masks: dict[Tree, int] = {}
    for f in faces:
        masks[f.ambient] = masks.get(f.ambient, 0) | enumerate_sub(f.ambient).downset_mask(f)
    members = frozenset(
        f.key for tree, mask in masks.items() for f in enumerate_sub(tree).faces_in(mask)
    )
    return FaceComplex(ambient, members)


def empty_complex(ambient: Ambient) -> FaceComplex:
    return FaceComplex(ambient, frozenset())


def full_complex(ambient: Ambient) -> FaceComplex:
    return FaceComplex(ambient, frozenset(_universe_of(ambient)))


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
    """Certificate JSON with a missing key or a value of the wrong type."""


def json_field(data, name: str, kind: type):
    """``data[name]``, checked to be present and of type ``kind``."""
    if not isinstance(data, dict) or not isinstance(data.get(name), kind):
        raise MalformedCertificateError(f"{name!r} must be a {kind.__name__}")
    return data[name]


def ambient_from_json(data: dict) -> Ambient:
    kind = json_field(data, "type", str)
    if kind == "tree":
        return parse_tree(json_field(data, "tree", str)).tree
    if kind == "tensor":
        s, t = json_field(data, "s", str), json_field(data, "t", str)
        return TensorAmbient(parse_tree(s), parse_tree(t))
    raise MalformedCertificateError(f"unknown ambient type {kind!r}")


def key_to_json(key: FaceKey) -> dict:
    return {"edges": list(key[0]), "caps": list(key[1])}


def key_from_json(item: dict) -> FaceKey:
    edges, caps = json_field(item, "edges", list), json_field(item, "caps", list)
    if not all(isinstance(e, str) for e in edges + caps):
        raise MalformedCertificateError("face edges and caps must be strings")
    return make_key(edges, caps)
