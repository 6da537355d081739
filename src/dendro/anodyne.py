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
    ADJACENT,
    INNER,
    MIXED,
    ElementaryFace,
    Face,
    FaceError,
    FaceKey,
    SubPoset,
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
    are the faces below it in ``Sub(ambient)``, with the same keys."""

    def __init__(self, ambient: Tree, base: FaceComplex, members: Iterable[ElementaryFace],
                 top: Face | None = None):
        self.ambient = ambient
        self.base = base
        self.poset: SubPoset = enumerate_sub(ambient)
        self.top = self.poset.top if top is None else top
        self.view = self.poset.downset_mask(self.top)
        self.members = frozenset(members)
        self._member_sigs = frozenset(_sig(ef) for ef in self.members)
        for ef in self.members:
            if base.contains(ef.domain.key) or base.contains(ef.codomain_key):
                raise FaceError(f"member {ef!r} touches a non-missing face")
        self.missing: list[Face] = [
            f for f in self.poset.faces_in(self.view) if not base.contains(f.key)
        ]
        self._missing_keys = frozenset(f.key for f in self.missing)
        self._faces_in: dict[FaceKey, list[ElementaryFace]] = {}
        self._exts_in: dict[FaceKey, list[ElementaryFace]] = {}
        for ef in sorted(self.members, key=_sig):
            self._faces_in.setdefault(ef.codomain_key, []).append(ef)
            self._exts_in.setdefault(ef.domain.key, []).append(ef)

    def extensions_of(self, p: Face | FaceKey) -> list[ElementaryFace]:
        """Elementary face maps out of ``p`` whose codomain lies in the view."""
        index = self.poset.index
        return [
            g for g in self.poset.extensions_of(p) if self.view >> index[g.codomain_key] & 1
        ]

    def is_missing(self, key: FaceKey) -> bool:
        return key in self._missing_keys

    def contains_map(self, ef: ElementaryFace) -> bool:
        return _sig(ef) in self._member_sigs

    def faces_in_set(self, p: Face | FaceKey) -> list[ElementaryFace]:
        key = p.key if isinstance(p, Face) else p
        return self._faces_in.get(key, [])

    def extensions_in_set(self, p: Face | FaceKey) -> list[ElementaryFace]:
        key = p.key if isinstance(p, Face) else p
        return self._exts_in.get(key, [])


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

    F3 visits only the squares that can hold a member: those whose top is
    a member's codomain or lies one extension above one.  F4 checks each
    ``(low, join)`` interval once, reading it as the mask
    ``down[join] & up[low]`` of the ambient face poset.
    """
    failures: dict[str, list[str]] = {ax: [] for ax in AXIOMS}
    poset = es.poset

    # F1: no mixed pair of faces, no bad pair of extensions, and no
    # adjacent composable pair inside the set.
    for p in es.missing:
        ff = es.faces_in_set(p.key)
        for i, f in enumerate(ff):
            for g in ff[i + 1 :]:
                if classify_pair(f, g, mode="faces") == MIXED:
                    failures["F1"].append(f"mixed pair {f!r} / {g!r}")
        ee = es.extensions_in_set(p.key)
        for i, f in enumerate(ee):
            for g in ee[i + 1 :]:
                if classify_pair(f, g, mode="extensions").startswith("bad"):
                    failures["F1"].append(f"bad pair {f!r} / {g!r}")
    for f in es.members:
        for g in es.extensions_in_set(f.codomain_key):
            if classify_pair(f, g, mode="composable") == ADJACENT:
                failures["F1"].append(f"adjacent pair {f!r} then {g!r}")

    # F2: an extension outside the set has at most one bad partner inside.
    for p in es.missing:
        inside = es.extensions_in_set(p.key)
        if not inside:
            continue
        for g in es.extensions_of(p.key):
            if es.contains_map(g):
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
    # codomain of an extension of one.
    index = poset.index
    tops = 0
    for m in es.members:
        tops |= 1 << index[m.codomain_key]
        for ext in poset.extensions_of(m.codomain_key):
            tops |= 1 << index[ext.codomain_key]
    for p in poset.faces_in(tops & es.view):
        if p.rank < 2:
            continue
        ff = poset.faces_of(p.key)
        for i, f in enumerate(ff):
            for g in ff[i + 1 :]:
                if classify_pair(f, g, mode="faces") == MIXED:
                    continue
                g_low = poset.face_map(f.domain.key, g.kind, g.at)
                if g_low is None:
                    continue
                f_low = poset.face_map(g.domain.key, f.kind, f.at)
                if f_low is None or f_low.domain.key != g_low.domain.key:
                    continue
                square = (f_low, f, g_low, g)
                got = [es.contains_map(m) for m in square]
                if (got[0] or got[1]) and (got[2] or got[3]) and not all(got):
                    missing = square[got.index(False)]
                    failures["F3"].append(f"square at {p!r} not closed: missing {missing!r}")

    # F4: extension sequences up to joins stay inside the set.
    failures["F4"] = _join_interval_failures(es)

    # F5: every missing face has a face or an extension in the set.
    for p in es.missing:
        if not es.faces_in_set(p.key) and not es.extensions_in_set(p.key):
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
    index = poset.index
    out: list[str] = []
    clean: set[tuple[int, int]] = set()
    # per face x: the domains of the maps into x that are not members
    outside: dict[int, int] = {}
    for f in sorted(es.members, key=_sig):
        sig = _sig(f)
        for g in es.extensions_of(f.domain.key):
            if _sig(g) == sig:
                continue
            join = poset.unique_join(f.codomain_key, g.codomain_key, es.view)
            if join is None:
                out.append(f"non-unique join over {f.domain!r}")
                continue
            if out:
                return out
            low, j = index[g.codomain_key], index[join.key]
            if (low, j) in clean:
                continue
            up_low = poset.upset_mask(g.codomain_key)
            interval = poset.downset_mask(join.key) & up_low
            while interval:
                x = (interval & -interval).bit_length() - 1
                interval &= interval - 1
                if x not in outside:
                    outside[x] = 0
                    for step in poset.faces_of(poset.faces[x].key):
                        if not es.contains_map(step):
                            outside[x] |= 1 << index[step.domain.key]
                if outside[x] & up_low:
                    return [
                        f"interval map {step!r} outside the set (join of {f!r} and {g!r})"
                        for step in poset.faces_of(poset.faces[x].key)
                        if up_low >> index[step.domain.key] & 1 and not es.contains_map(step)
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
        ff = es.faces_in_set(p.key)
        if not ff:
            continue
        best = min(ff, key=cmp)
        ee = es.extensions_in_set(best.domain.key)
        least_ext = min(ee, key=cmp)
        if _sig(least_ext) == _sig(best):
            pairs.append(best)
    seen: set[FaceKey] = set()
    for ef in pairs:
        for key in (ef.domain.key, ef.codomain_key):
            if key in seen:
                raise FaceError(f"canonical extensions are not disjoint at {key}")
            seen.add(key)
    uncovered = [p for p in es.missing if p.key not in seen]
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
    canonical_keys = {(ef.domain.key, ef.codomain_key) for ef in pairs}

    def batch(ef: ElementaryFace) -> tuple[int, int, int]:
        return (phase, ef.domain.rank, len(es.extensions_in_set(ef.domain.key)))

    pairs.sort(key=lambda ef: (*batch(ef), ef.domain.key))
    _assert_descent(es, pairs, canonical_keys)
    return [Step(ef.codomain_key, ef.kind, ef.at, batch(ef)) for ef in pairs]


def _assert_descent(es, pairs, canonical_keys):
    """The trichotomy behind step soundness: any other face of a step's
    codomain is either present, part of an earlier canonical pair, or has
    strictly fewer set-extensions."""
    poset = es.poset
    for ef in pairs:
        p_key = ef.codomain_key
        c = len(es.extensions_in_set(ef.domain.key))
        for g in poset.faces_of(p_key):
            if _sig(g) == _sig(ef):
                continue
            dg = g.domain
            if not es.is_missing(dg.key):
                continue
            transported = poset.face_map(dg.key, ef.kind, ef.at)
            if (
                transported is not None
                and es.contains_map(transported)
                and (transported.domain.key, dg.key) in canonical_keys
            ):
                continue
            if not len(es.extensions_in_set(dg.key)) < c:
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
