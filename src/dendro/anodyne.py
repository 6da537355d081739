"""Extension sets, their axioms, and horn-filtration certificates.

An extension set for a base complex ``A`` inside ``Sub(R)`` is a set of
elementary face maps between faces missing with respect to ``A`` that
satisfies five axioms (no forbidden pairs, controlled bad pairs, closure
under squares and joins, and existence).  Whenever the axioms hold, the
missing region is swept out by *canonical extensions*: pairs ``(D, P)``
where the map ``D -> P`` is least both among the set's faces of ``P`` and
among its extensions of ``D``.  Emitting one horn step per canonical pair,
in order of (rank, extension count), yields a certificate that the
inclusion of the base is a composition of horn pushouts.  The certificate
format and its replay live in ``certify``; every certificate built here
passes ``certify.replay_guard`` before it is returned.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .certify import Certificate, Step, class_of_steps, replay_guard
from .complexes import FaceComplex, segal_core
from .faces import (
    INNER,
    ElementaryFace,
    Face,
    FaceError,
    FaceKey,
    SubPoset,
    _is_adjacent,
    _is_mixed,
    classify_pair,
    enumerate_sub,
)
from .order import EdgeOrder, compare_face_maps, edge_order
from .trees import Tree

AXIOMS = ("F1", "F2", "F3", "F4", "F5")


class AxiomError(FaceError):
    """An extension-set axiom failed."""

    def __init__(self, report: "AxiomReport"):
        super().__init__("extension set fails axioms: " + report.summary())
        self.report = report


def _sig(ef: ElementaryFace) -> tuple:
    return (ef.kind, ef.at, ef.domain.key, ef.codomain_key)


class ExtensionSet:
    """A base complex plus a set of elementary face maps whose endpoints
    are both missing, over a face ``top`` of the ambient (by default the
    full face).  A set over a face is a downset view: the faces of ``top``
    are the faces below it in ``Sub(ambient)``, with the same keys.

    Every member is resolved to the equal map of the ambient's poset, so
    ``members`` and every list read from the set hold the poset's own
    maps; a member that is not a cover of that poset raises
    :class:`FaceError`.  ``Sub(T)`` is a poset, so a cover is named by the
    positions of its two ends: membership is a mask per codomain position,
    with one bit per member domain position, kept only for the codomains
    that have members."""

    def __init__(self, ambient: Tree, base: FaceComplex, members: Iterable[ElementaryFace],
                 top: Face | None = None):
        self.ambient = ambient
        self.base = base
        self.poset: SubPoset = enumerate_sub(ambient)
        self.top = self.poset.top if top is None else top
        self.view = self.poset.downset_mask(self.top)
        self.members = frozenset(_own_cover(self.poset, ef) for ef in members)
        for ef in self.members:
            if base.contains(ef.domain.key) or base.contains(ef.codomain_key):
                raise FaceError(f"member {ef!r} touches a non-missing face")
        self.missing: list[Face] = [
            f for f in self.poset.faces_in(self.view) if not base.contains(f.key)
        ]
        self._missing = frozenset(f.pos for f in self.missing)
        # the members in _sig order, and by position: the member mask of
        # each codomain and the members into and out of each face
        self._sorted = sorted(self.members, key=_sig)
        self._mask: dict[int, int] = {}
        self._faces_in: dict[int, list[ElementaryFace]] = {}
        self._exts_in: dict[int, list[ElementaryFace]] = {}
        for ef in self._sorted:
            c, d = ef.codomain.pos, ef.domain.pos
            self._mask[c] = self._mask.get(c, 0) | 1 << d
            self._faces_in.setdefault(c, []).append(ef)
            self._exts_in.setdefault(d, []).append(ef)

    def extensions_of(self, p: Face | FaceKey) -> list[ElementaryFace]:
        """Elementary face maps out of ``p`` whose codomain lies in the view."""
        return [g for g in self.poset.extensions_of(p) if self.view >> g.codomain.pos & 1]

    def is_missing(self, key: FaceKey) -> bool:
        return self.poset.index.get(key) in self._missing

    def contains_map(self, ef: ElementaryFace) -> bool:
        """Whether the cover with ``ef``'s ends is a member: one mask test."""
        poset = self.poset
        return bool(self._mask.get(poset._pos(ef.codomain), 0) >> poset._pos(ef.domain) & 1)

    def faces_in_set(self, p: Face | FaceKey) -> list[ElementaryFace]:
        return self._faces_in.get(self.poset._pos(p), [])

    def extensions_in_set(self, p: Face | FaceKey) -> list[ElementaryFace]:
        return self._exts_in.get(self.poset._pos(p), [])


def _own_cover(poset: SubPoset, ef: ElementaryFace) -> ElementaryFace:
    """The cover of ``poset`` equal to ``ef``; :class:`FaceError` if none."""
    try:
        own = poset.face_map(ef.codomain_key, ef.kind, ef.at)
    except KeyError:  # the codomain is not a face of the poset
        own = None
    if own is None or own.domain.key != ef.domain.key:
        raise FaceError(f"member {ef!r} is not a cover of the face poset of {poset.ambient!r}")
    return own


def missing_inner_covers(poset: SubPoset, base: FaceComplex) -> list[ElementaryFace]:
    """The inner face maps of ``poset`` whose two ends are both missing
    from ``base``; each inner extension set is a subset of these."""
    return [
        ef
        for ef in poset.covers
        if ef.kind == INNER
        and not base.contains(ef.domain.key)
        and not base.contains(ef.codomain_key)
    ]


def inner_extension_set(ambient: Tree, base: FaceComplex) -> ExtensionSet:
    """All inner face maps between missing faces (the Segal-core set)."""
    return ExtensionSet(ambient, base, missing_inner_covers(enumerate_sub(ambient), base))


@dataclass
class AxiomReport:
    failures: dict[str, list[str]]

    @property
    def ok(self) -> bool:
        return not any(self.failures.values())

    def passed(self, axiom: str) -> bool:
        return not self.failures.get(axiom)

    def summary(self) -> str:
        if self.ok:
            return "all axioms hold"
        parts = []
        for ax in AXIOMS:
            if self.failures.get(ax):
                parts.append(f"{ax}: {self.failures[ax][0]}")
        return "; ".join(parts)


def check_axioms(es: ExtensionSet) -> AxiomReport:
    """Evaluate the five extension-set axioms, with witnesses.

    Every test reads face positions in the ambient's poset, not face keys:
    a map is a member when its domain's bit is set in the member mask of
    its codomain.  F3 visits only the squares that can hold a member: those
    whose top is a member's codomain or lies one extension above one, with
    a member or a member mask on each side.  F4 checks each ``(low, join)``
    interval once, reading it as the mask ``down[join] & up[low]`` of the
    ambient face poset.
    """
    failures: dict[str, list[str]] = {ax: [] for ax in AXIOMS}
    poset = es.poset
    mask, faces_in, exts_in = es._mask, es._faces_in, es._exts_in

    # F1: no mixed pair of faces, no bad pair of extensions, and no
    # adjacent composable pair inside the set.
    for p in es.missing:
        ff = faces_in.get(p.pos, ())
        for i, f in enumerate(ff):
            for g in ff[i + 1 :]:
                if _is_mixed(f, g) or _is_mixed(g, f):
                    failures["F1"].append(f"mixed pair {f!r} / {g!r}")
        ee = exts_in.get(p.pos, ())
        for i, f in enumerate(ee):
            for g in ee[i + 1 :]:
                if classify_pair(f, g, mode="extensions").startswith("bad"):
                    failures["F1"].append(f"bad pair {f!r} / {g!r}")
    for f in es.members:
        for g in exts_in.get(f.codomain.pos, ()):
            if _is_adjacent(poset, f, g):
                failures["F1"].append(f"adjacent pair {f!r} then {g!r}")

    # F2: an extension outside the set has at most one bad partner inside.
    for p in es.missing:
        inside = exts_in.get(p.pos)
        if not inside:
            continue
        for g in es.extensions_of(p):
            if mask.get(g.codomain.pos, 0) >> p.pos & 1:
                continue
            bad = [
                f
                for f in inside
                if classify_pair(f, g, mode="extensions").startswith("bad")
            ]
            if len(bad) > 1:
                failures["F2"].append(f"{g!r} has bad partners {bad!r}")

    # F3: two-out-of-four closure on commuting squares.  A square holding
    # no member cannot fail, so its top is a member's codomain or the
    # codomain of an extension of one.  The square of faces f, g of p has
    # the sides (f_low, f) and (g_low, g); f_low is a face of g's domain
    # and g_low one of f's, so a side holds no member when neither its top
    # map is in the mask of p nor its domain has a mask.
    tops = 0
    for c in mask:
        tops |= 1 << c
        for ext in poset.extensions_of(poset.faces[c]):
            tops |= 1 << ext.codomain.pos
    for p in poset.faces_in(tops & es.view):
        if p.rank < 2:
            continue
        ff = poset.faces_of(p)
        top_mask = mask.get(p.pos, 0)
        low_masks = [mask.get(f.domain.pos, 0) for f in ff]
        for i, f in enumerate(ff):
            f_in = top_mask >> f.domain.pos & 1
            for j in range(i + 1, len(ff)):
                g = ff[j]
                g_in = top_mask >> g.domain.pos & 1
                if not ((f_in or low_masks[j]) and (g_in or low_masks[i])):
                    continue
                if _is_mixed(f, g) or _is_mixed(g, f):
                    continue
                g_low = poset.face_map(f.domain, g.kind, g.at)
                if g_low is None:
                    continue
                f_low = poset.face_map(g.domain, f.kind, f.at)
                if f_low is None or f_low.domain is not g_low.domain:
                    continue
                corner = g_low.domain.pos
                got = (low_masks[j] >> corner & 1, f_in, low_masks[i] >> corner & 1, g_in)
                if (got[0] or got[1]) and (got[2] or got[3]) and not all(got):
                    missing = (f_low, f, g_low, g)[got.index(0)]
                    failures["F3"].append(f"square at {p!r} not closed: missing {missing!r}")

    # F4: extension sequences up to joins stay inside the set.
    failures["F4"] = _join_interval_failures(es)

    # F5: every missing face has a face or an extension in the set.
    for p in es.missing:
        if p.pos not in faces_in and p.pos not in exts_in:
            failures["F5"].append(f"isolated missing face {p!r}")

    return AxiomReport(failures)


def _join_interval_failures(es: ExtensionSet) -> list[str]:
    """F4: for each member ``f`` and other in-view extension ``g`` of its
    domain, the two codomains have a unique join in the view, and every
    elementary face map inside the interval from ``g``'s codomain up to
    that join is a member.  The witnesses are the maps of the first
    failing interval, or the non-unique joins of the first member that
    has one (up to its next unique join, which ends the check)."""
    poset = es.poset
    up, down, mask = poset._up, poset._down, es._mask
    out: list[str] = []
    clean: set[tuple[int, int]] = set()
    # per face x: the domains of the maps into x that are not members
    outside: dict[int, int] = {}
    # per member domain: its extensions into the view
    view_exts: dict[int, list[ElementaryFace]] = {}
    for f in es._sorted:
        exts = view_exts.get(f.domain.pos)
        if exts is None:
            exts = view_exts[f.domain.pos] = es.extensions_of(f.domain)
        for g in exts:
            if g is f:
                continue
            low = g.codomain.pos
            j = poset._join(f.codomain.pos, low, es.view)
            if j < 0:
                out.append(f"non-unique join over {f.domain!r}")
                continue
            if out:
                return out
            if (low, j) in clean:
                continue
            up_low = up[low]
            interval = down[j] & up_low
            while interval:
                x = (interval & -interval).bit_length() - 1
                interval &= interval - 1
                if x not in outside:
                    into = 0
                    for step in poset.faces_of(poset.faces[x]):
                        into |= 1 << step.domain.pos
                    outside[x] = into & ~mask.get(x, 0)
                stray = outside[x] & up_low
                if stray:
                    return [
                        f"interval map {step!r} outside the set (join of {f!r} and {g!r})"
                        for step in poset.faces_of(poset.faces[x])
                        if stray >> step.domain.pos & 1
                    ]
            clean.add((low, j))
        if out:
            return out
    return out


def canonical_extensions(
    es: ExtensionSet, ord: EdgeOrder
) -> list[ElementaryFace]:
    """All canonical extensions: maps least both in the faces of their
    codomain and in the extensions of their domain.

    Asserts the two structural guarantees (pairs are disjoint; every
    missing face occurs in some pair).
    """
    cmp = functools.cmp_to_key(lambda a, b: compare_face_maps(ord, a, b))
    pairs: list[ElementaryFace] = []
    for p in es.missing:
        ff = es._faces_in.get(p.pos)
        if not ff:
            continue
        best = min(ff, key=cmp)
        if min(es._exts_in[best.domain.pos], key=cmp) is best:
            pairs.append(best)
    seen: set[int] = set()
    for ef in pairs:
        for face in (ef.domain, ef.codomain):
            if face.pos in seen:
                raise FaceError(f"canonical extensions are not disjoint at {face.key}")
            seen.add(face.pos)
    uncovered = [p for p in es.missing if p.pos not in seen]
    if uncovered:
        raise FaceError(
            f"missing faces not covered by canonical extensions: {uncovered[:3]!r}"
        )
    return pairs


def filtration_steps(es: ExtensionSet, ord: EdgeOrder, phase: int = 0) -> list[Step]:
    """Canonical extensions as horn steps, batched by (rank of the omitted
    face, number of set-extensions of it), batches in ascending order."""
    report = check_axioms(es)
    if not report.ok:
        raise AxiomError(report)
    pairs = canonical_extensions(es, ord)

    def batch(ef: ElementaryFace) -> tuple[int, int, int]:
        return (phase, ef.domain.rank, len(es._exts_in[ef.domain.pos]))

    pairs.sort(key=lambda ef: (*batch(ef), ef.domain.key))
    _assert_descent(es, pairs)
    return [Step(ef.codomain_key, ef.kind, ef.at, batch(ef)) for ef in pairs]


def _assert_descent(es: ExtensionSet, pairs: list[ElementaryFace]) -> None:
    """The trichotomy behind step soundness: any other face of a step's
    codomain is either present, part of an earlier canonical pair, or has
    strictly fewer set-extensions."""
    poset = es.poset
    # canonical pairs are disjoint, so each face is the codomain of at most one
    canonical_into = {ef.codomain.pos: ef for ef in pairs}
    for ef in pairs:
        c = len(es._exts_in[ef.domain.pos])
        for g in poset.faces_of(ef.codomain):
            if g is ef:
                continue
            dg = g.domain
            if dg.pos not in es._missing:
                continue
            transported = poset.face_map(dg, ef.kind, ef.at)
            if transported is not None and canonical_into.get(dg.pos) is transported:
                continue
            if not len(es._exts_in.get(dg.pos, ())) < c:
                raise FaceError(
                    f"descent failed at step {ef!r} against face {g!r}"
                )


def build_filtration(es: ExtensionSet, ord: EdgeOrder) -> Certificate:
    """Certificate for ``base -> full`` over the extension set's ambient;
    replays itself as an internal guard before returning."""
    steps = tuple(filtration_steps(es, ord))
    return replay_guard(Certificate(es.ambient, es.base, class_of_steps(steps), steps))


def segal_certificate(pt) -> Certificate:
    """Certificate that the Segal core includes anodynely, via the inner
    extension set; the class is operadic for every tree with two or more
    vertices."""
    base = segal_core(pt.tree)
    es = inner_extension_set(pt.tree, base)
    return build_filtration(es, edge_order(pt))
