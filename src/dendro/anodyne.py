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
from typing import Callable

from .certify import Certificate, Step, class_of_steps, replay_guard
from .complexes import FaceComplex, bounded_tree, segal_core
from .faces import (
    INNER,
    ElementaryFace,
    Face,
    FaceError,
    FaceKey,
    SubPoset,
    _is_adjacent,
    _is_bad_pair,
    _is_mixed,
    enumerate_sub,
)
from .order import EdgeOrder, compare_face_maps, edge_order
from .trees import Record, Tree

AXIOMS = ("F1", "F2", "F3", "F4", "F5")


class AxiomError(FaceError):
    """An extension-set axiom failed."""

    def __init__(self, report: "AxiomReport"):
        super().__init__("extension set fails axioms: " + report.summary())
        self.report = report


def _sig(ef: ElementaryFace) -> tuple:
    return (ef.kind, ef.at, ef.domain.key, ef.codomain_key)


class ExtensionSet:
    """An extension set: the elementary face maps between missing faces of
    one view that a rule keeps.  ``ExtensionSet(poset, base, keep, top)``
    reads the view of ``top`` in ``poset`` (by default the full face), the
    faces of the view missing from ``base``, and the covers between two
    missing faces, and keeps those that ``keep`` accepts; every producer's
    set is such a rule.  A set over a face is a downset view: the faces of
    ``top`` are the faces below it in ``Sub(ambient)``, with the same keys.

    ``members`` holds the poset's own maps, as one tuple in ``_sig``
    order; the missing faces of the view are a mask, listed in
    ``missing``.  ``Sub(T)`` is a poset, so a cover is named by the
    positions of its two ends: membership is a mask per codomain position,
    with one bit per member domain position, kept only for the codomains
    that have members."""

    def __init__(self, poset: SubPoset, base: FaceComplex,
                 keep: Callable[[ElementaryFace], bool], top: Face | None = None):
        self.poset = poset
        self.ambient: Tree = poset.ambient
        self.base = base
        self.top = poset.top if top is None else top
        self.view = poset.downset_mask(self.top)
        missing = self._missing_mask = self.view & ~poset.mask_of(base.members)
        self.missing: list[Face] = poset.faces_in(missing)
        self.members = tuple(sorted(
            (ef for p in self.missing for ef in poset.faces_of(p)
             if missing >> ef.domain.pos & 1 and keep(ef)),
            key=_sig,
        ))
        # by position: the member mask of each codomain and the members
        # into and out of each face
        self._mask: dict[int, int] = {}
        self._faces_in: dict[int, list[ElementaryFace]] = {}
        self._exts_in: dict[int, list[ElementaryFace]] = {}
        for ef in self.members:
            c, d = ef.codomain.pos, ef.domain.pos
            self._mask[c] = self._mask.get(c, 0) | 1 << d
            self._faces_in.setdefault(c, []).append(ef)
            self._exts_in.setdefault(d, []).append(ef)

    def extensions_of(self, p: Face | FaceKey) -> list[ElementaryFace]:
        """Elementary face maps out of ``p`` whose codomain lies in the view."""
        return [g for g in self.poset.extensions_of(p) if self.view >> g.codomain.pos & 1]

    def contains_map(self, ef: ElementaryFace) -> bool:
        """Whether the cover with ``ef``'s ends is a member: one mask test."""
        poset = self.poset
        return bool(self._mask.get(poset._pos(ef.codomain), 0) >> poset._pos(ef.domain) & 1)

    def faces_in_set(self, p: Face | FaceKey) -> list[ElementaryFace]:
        return self._faces_in.get(self.poset._pos(p), [])

    def extensions_in_set(self, p: Face | FaceKey) -> list[ElementaryFace]:
        return self._exts_in.get(self.poset._pos(p), [])


def inner_extension_set(ambient: Tree, base: FaceComplex) -> ExtensionSet:
    """All inner face maps between missing faces (the Segal-core set)."""
    return ExtensionSet(enumerate_sub(ambient), base, lambda ef: ef.kind == INNER)


class AxiomReport(Record):
    __slots__ = ("failures",)

    def __init__(self, failures: dict[str, list[str]]):
        self.failures = failures

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

    # One pass over the missing faces.  F1: no mixed pair of faces and no
    # bad pair of extensions into one face.  F2: an extension outside the
    # set has at most one bad partner inside.  F5: every missing face has a
    # face or an extension in the set.
    for p in es.missing:
        ff = faces_in.get(p.pos, ())
        for i, f in enumerate(ff):
            for g in ff[i + 1 :]:
                if _is_mixed(f, g):
                    failures["F1"].append(f"mixed pair {f!r} / {g!r}")
        inside = exts_in.get(p.pos, ())
        for i, f in enumerate(inside):
            for g in inside[i + 1 :]:
                if _is_bad_pair(f, g):
                    failures["F1"].append(f"bad pair {f!r} / {g!r}")
        if inside:
            for g in es.extensions_of(p):
                if mask.get(g.codomain.pos, 0) >> p.pos & 1:
                    continue
                bad = [f for f in inside if _is_bad_pair(f, g)]
                if len(bad) > 1:
                    failures["F2"].append(f"{g!r} has bad partners {bad!r}")
        elif not ff:
            failures["F5"].append(f"isolated missing face {p!r}")
    # F1: no adjacent composable pair inside the set.
    for f in es.members:
        for g in exts_in.get(f.codomain.pos, ()):
            if _is_adjacent(poset, f, g):
                failures["F1"].append(f"adjacent pair {f!r} then {g!r}")

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
                if _is_mixed(f, g):
                    continue
                sides = poset.square(f, g)
                if sides is None:
                    continue
                f_low, g_low = sides
                corner = g_low.domain.pos
                got = (low_masks[j] >> corner & 1, f_in, low_masks[i] >> corner & 1, g_in)
                if (got[0] or got[1]) and (got[2] or got[3]) and not all(got):
                    missing = (f_low, f, g_low, g)[got.index(0)]
                    failures["F3"].append(f"square at {p!r} not closed: missing {missing!r}")

    # F4: extension sequences up to joins stay inside the set.
    failures["F4"] = _join_interval_failures(es)

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
    for f in es.members:
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
    seen = 0
    for ef in pairs:
        for face in (ef.domain, ef.codomain):
            if seen >> face.pos & 1:
                raise FaceError(f"canonical extensions are not disjoint at {face.key}")
            seen |= 1 << face.pos
    uncovered = es.poset.faces_in(es._missing_mask & ~seen)
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
            if not es._missing_mask >> dg.pos & 1:
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
    return replay_guard(Certificate.of(es.ambient, es.base, filtration_steps(es, ord)))


def segal_certificate(pt) -> Certificate:
    """Certificate that the Segal core includes anodynely, via the inner
    extension set; the class is operadic for every tree with two or more
    vertices.  A tree over the loader's size bound is refused before its
    poset is built."""
    base = segal_core(bounded_tree(pt.tree))
    es = inner_extension_set(pt.tree, base)
    return build_filtration(es, edge_order(pt))
