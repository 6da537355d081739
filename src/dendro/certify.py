"""Certificates: their format, their loader and their independent replay.

A certificate is an ordered list of horn-pushout steps from a base complex
to the full complex of its ambient, with an anodyne class tag.  The
verifier reads each face's elementary faces from its ambient's face poset,
the same ``Sub(T)`` the universe is built from: for each step it checks
that the step's face and omitted face are new, that every other elementary
face is already present, and that the closure stays intact; at the end the
complex must equal the full ambient complex and the class tag must match
the step kinds.  It imports only the face and complex layers, never the
modules that produce certificates; those hand every certificate they build
to :func:`replay_guard` before returning it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .complexes import (
    Ambient,
    FaceComplex,
    MalformedCertificateError,
    _universe_of,
    ambient_from_json,
    ambient_to_json,
    closure,
    json_field,
    key_from_json,
    key_to_json,
)
from .faces import BOTTOM, INNER, TOP, FaceError, FaceKey, enumerate_sub

OPERADIC = "operadic"
COVARIANT = "covariant"
STABLE = "stable"


class ReplayGuardError(FaceError):
    """A freshly built certificate failed its own replay (internal bug)."""


@dataclass(frozen=True)
class Step:
    """One horn pushout.  ``batch`` is ``(phase, rank, extensions)``: steps
    sharing a batch label are mutually independent; the phase component
    separates the filtrations a composite certificate was assembled from,
    the other two are the rank of the omitted face and the number of its
    set-extensions."""

    face: FaceKey
    omit_kind: str
    omit_at: str
    batch: tuple[int, int, int]

    def to_json(self) -> dict:
        return {
            "face": key_to_json(self.face),
            "omit": {"kind": self.omit_kind, "at": self.omit_at},
            "batch": list(self.batch),
        }

    @staticmethod
    def from_json(data: dict) -> "Step":
        omit = json_field(data, "omit", dict)
        batch = json_field(data, "batch", list)
        if not all(isinstance(b, int) and not isinstance(b, bool) for b in batch):
            raise MalformedCertificateError("'batch' must be a list of integers")
        return Step(
            key_from_json(json_field(data, "face", dict)),
            json_field(omit, "kind", str),
            json_field(omit, "at", str),
            tuple(batch),
        )


@dataclass(frozen=True)
class Certificate:
    """An ordered list of horn-pushout steps from a base complex to the
    full complex of the ambient, with an anodyne class tag."""

    ambient: Ambient
    base: FaceComplex
    class_tag: str
    steps: tuple[Step, ...]

    def to_json(self) -> dict:
        return {
            "ambient": ambient_to_json(self.ambient),
            "base": [key_to_json(k) for k in self.base.maximal_members()],
            "class": self.class_tag,
            "steps": [s.to_json() for s in self.steps],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(data: dict) -> "Certificate":
        steps = tuple(Step.from_json(s) for s in json_field(data, "steps", list))
        class_tag = json_field(data, "class", str)
        keys = [key_from_json(item) for item in json_field(data, "base", list)]
        ambient = ambient_from_json(json_field(data, "ambient", dict))
        universe = _universe_of(ambient)
        base = closure(ambient, [universe[key] for key in keys if key in universe])
        # keys outside the ambient stay in the base, where replay rejects them
        base = FaceComplex(ambient, base.members.union(keys))
        return Certificate(ambient, base, class_tag, steps)

    @staticmethod
    def loads(text: str) -> "Certificate":
        return Certificate.from_json(json.loads(text))


def class_of_steps(steps: Sequence[Step]) -> str:
    kinds = {s.omit_kind for s in steps}
    if kinds <= {INNER}:
        return OPERADIC
    if kinds <= {INNER, TOP}:
        return COVARIANT
    return STABLE


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    step_index: Optional[int] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.accepted


def replay_certificate(cert: Certificate) -> Verdict:
    """Replay a certificate step by step against its base complex."""
    universe = _universe_of(cert.ambient)
    keys = universe.keys()
    current = set(cert.base.members)
    if not current <= keys:
        return Verdict(False, None, "base contains keys outside the ambient")
    for i, step in enumerate(cert.steps):
        face = universe.get(step.face)
        if face is None:
            return Verdict(False, i, f"step face {step.face} is not an ambient face")
        if face.key in current:
            return Verdict(False, i, f"step face {step.face} already present")
        poset = enumerate_sub(face.ambient)
        omit = poset.face_map(face.key, step.omit_kind, step.omit_at)
        if omit is None:
            return Verdict(
                False, i, f"omitted face {step.omit_kind}({step.omit_at}) not found"
            )
        if omit.domain.key in current:
            return Verdict(False, i, f"omitted face {omit.domain.key} already present")
        # all_elementary_faces order (inner, top, bottom), which the poset
        # sorts bottom first: "horn incomplete" names the first missing face
        for ef in sorted(poset.faces_of(face.key), key=lambda ef: ef.kind == BOTTOM):
            if ef is not omit and ef.domain.key not in current:
                return Verdict(
                    False,
                    i,
                    f"horn incomplete: face {ef.kind}({ef.at}) of {step.face} missing",
                )
        for ef in poset.faces_of(omit.domain.key):
            if ef.domain.key not in current:
                return Verdict(
                    False,
                    i,
                    f"closure broken: face of the omitted face missing at step {i}",
                )
        current.add(face.key)
        current.add(omit.domain.key)
    if current != keys:
        return Verdict(False, None, "final complex is not the full complex")
    expected = class_of_steps(cert.steps)
    if cert.class_tag != expected:
        return Verdict(False, None, f"class tag {cert.class_tag!r} != {expected!r}")
    return Verdict(True)


def replay_guard(cert: Certificate) -> Certificate:
    """``cert``, a certificate just built by a producer, if it replays;
    :class:`ReplayGuardError` naming the failing step otherwise."""
    verdict = replay_certificate(cert)
    if not verdict.accepted:
        raise ReplayGuardError(
            f"fresh certificate rejected at step {verdict.step_index}: {verdict.reason}"
        )
    return cert


@dataclass(frozen=True)
class Mutation:
    description: str
    same_batch_swap: bool
    verdict: Verdict


@dataclass
class MutationReport:
    mutations: list[Mutation]


def _with_steps(cert: Certificate, steps) -> Certificate:
    steps = tuple(steps)
    return Certificate(cert.ambient, cert.base, class_of_steps(steps), steps)


def mutate_and_check(cert: Certificate) -> MutationReport:
    """Systematically drop, duplicate, and adjacent-swap steps, replaying
    each mutant.  Intra-batch swaps are expected to pass (canonical
    extensions within a batch are disjoint); everything else should be
    rejected."""
    base = replay_certificate(cert)
    if not base.accepted:
        raise ValueError(f"certificate must be accepted before mutating: {base.reason}")
    steps = cert.steps
    mutations: list[Mutation] = []
    for i in range(len(steps)):
        dropped = steps[:i] + steps[i + 1 :]
        mutations.append(
            Mutation(
                f"drop step {i}",
                False,
                replay_certificate(_with_steps(cert, dropped)),
            )
        )
        duplicated = steps[: i + 1] + steps[i:]
        mutations.append(
            Mutation(
                f"duplicate step {i}",
                False,
                replay_certificate(_with_steps(cert, duplicated)),
            )
        )
    for i in range(len(steps) - 1):
        swapped = list(steps)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        mutations.append(
            Mutation(
                f"swap steps {i},{i + 1}",
                steps[i].batch == steps[i + 1].batch,
                replay_certificate(_with_steps(cert, swapped)),
            )
        )
    return MutationReport(mutations)
