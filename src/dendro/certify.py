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
from typing import Optional, Sequence

from .complexes import (
    Ambient,
    FaceComplex,
    MalformedCertificateError,
    Record,
    Value,
    _faces_by_key,
    ambient_from_json,
    ambient_to_json,
    closure,
    json_field,
    key_from_json,
    key_to_json,
    posets_of,
)
from .faces import BOTTOM, INNER, TOP, FaceError, FaceKey

OPERADIC = "operadic"
COVARIANT = "covariant"
STABLE = "stable"


class ReplayGuardError(FaceError):
    """A freshly built certificate failed its own replay (internal bug)."""


class Step(Value):
    """One horn pushout: the face it adds and the elementary face of it
    that the horn omits."""

    __slots__ = ("face", "omit_kind", "omit_at")

    def __init__(self, face: FaceKey, omit_kind: str, omit_at: str):
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "omit_kind", omit_kind)
        object.__setattr__(self, "omit_at", omit_at)

    def to_json(self) -> dict:
        return {
            "face": key_to_json(self.face),
            "omit": {"kind": self.omit_kind, "at": self.omit_at},
        }

    @staticmethod
    def from_json(data: dict) -> "Step":
        """A step read from its JSON, in one pass of type checks: a field of
        the wrong type is refused as :func:`~dendro.complexes.json_field`
        would refuse it, in the order omit, face, kind, at.  Other keys are
        ignored."""
        if not isinstance(data, dict) or not isinstance(omit := data.get("omit"), dict):
            raise MalformedCertificateError("'omit' must be a dict")
        if not isinstance(face := data.get("face"), dict):
            raise MalformedCertificateError("'face' must be a dict")
        face = key_from_json(face)
        if not isinstance(kind := omit.get("kind"), str):
            raise MalformedCertificateError("'kind' must be a str")
        if not isinstance(at := omit.get("at"), str):
            raise MalformedCertificateError("'at' must be a str")
        return Step(face, kind, at)


class Certificate(Value):
    """An ordered list of horn-pushout steps from a base complex to the
    full complex of the ambient, with an anodyne class tag."""

    __slots__ = ("ambient", "base", "class_tag", "steps")

    def __init__(
        self, ambient: Ambient, base: FaceComplex, class_tag: str, steps: tuple[Step, ...]
    ):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "class_tag", class_tag)
        object.__setattr__(self, "steps", steps)

    @classmethod
    def of(cls, ambient: Ambient, base: FaceComplex, steps: Sequence[Step]) -> "Certificate":
        """A produced certificate: its class tag is the one its steps determine."""
        return cls(ambient, base, class_of_steps(steps), tuple(steps))

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
        _, face_of = _faces_by_key(ambient)
        base = closure(ambient, [f for f in map(face_of, keys) if f is not None])
        # keys outside the ambient stay in the base, where replay rejects them
        base = FaceComplex(ambient, base.members.union(keys))
        return Certificate(ambient, base, class_tag, steps)

    @staticmethod
    def loads(text: str) -> "Certificate":
        try:
            data = json.loads(text)
        except RecursionError:
            raise MalformedCertificateError("JSON nested too deeply") from None
        return Certificate.from_json(data)


def class_of_steps(steps: Sequence[Step]) -> str:
    kinds = {s.omit_kind for s in steps}
    if kinds <= {INNER}:
        return OPERADIC
    if kinds <= {INNER, TOP}:
        return COVARIANT
    return STABLE


class Verdict(Value):
    __slots__ = ("accepted", "step_index", "reason")

    def __init__(self, accepted: bool, step_index: Optional[int] = None, reason: str = ""):
        object.__setattr__(self, "accepted", accepted)
        object.__setattr__(self, "step_index", step_index)
        object.__setattr__(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.accepted


def replay_certificate(cert: Certificate) -> Verdict:
    """Replay a certificate step by step against its base complex."""
    keys, face_of = _faces_by_key(cert.ambient)
    posets = posets_of(cert.ambient)
    current = set(cert.base.members)
    if not current <= keys:
        return Verdict(False, None, "base contains keys outside the ambient")
    for i, step in enumerate(cert.steps):
        face = face_of(step.face)
        if face is None:
            return Verdict(False, i, f"step face {step.face} is not an ambient face")
        if face.key in current:
            return Verdict(False, i, f"step face {step.face} already present")
        poset = posets[face.ambient]
        omit = poset.face_map(face, step.omit_kind, step.omit_at)
        if omit is None:
            return Verdict(False, i, f"omitted face {step.omit_kind}({step.omit_at}) not found")
        if omit.domain.key in current:
            return Verdict(False, i, f"omitted face {omit.domain.key} already present")
        faces = poset.faces_of(face)
        missing = [ef for ef in faces if ef is not omit and ef.domain.key not in current]
        if missing:
            # "horn incomplete" names the first missing face in
            # all_elementary_faces order (inner, top, bottom); the poset
            # lists bottom faces first, and min keeps the first of equals
            ef = min(missing, key=lambda ef: ef.kind == BOTTOM)
            reason = f"horn incomplete: face {ef.kind}({ef.at}) of {step.face} missing"
            return Verdict(False, i, reason)
        for ef in poset.faces_of(omit.domain):
            if ef.domain.key not in current:
                reason = f"closure broken: face of the omitted face missing at step {i}"
                return Verdict(False, i, reason)
        current.update((face.key, omit.domain.key))
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


class Mutation(Value):
    __slots__ = ("description", "verdict")

    def __init__(self, description: str, verdict: Verdict):
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "verdict", verdict)


class MutationReport(Record):
    __slots__ = ("mutations",)

    def __init__(self, mutations: list[Mutation]):
        self.mutations = mutations


def mutate_and_check(cert: Certificate) -> MutationReport:
    """Systematically drop, duplicate, and adjacent-swap steps, replaying
    each mutant.  A swap replays exactly when the two steps are
    independent: the later step's horn, and the faces of its omitted face,
    need none of the faces the earlier step adds."""
    base = replay_certificate(cert)
    if not base.accepted:
        raise ValueError(f"certificate must be accepted before mutating: {base.reason}")
    steps = tuple(cert.steps)
    mutants: list[tuple[str, tuple]] = []
    for i in range(len(steps)):
        mutants.append((f"drop step {i}", steps[:i] + steps[i + 1 :]))
        mutants.append((f"duplicate step {i}", steps[: i + 1] + steps[i:]))
    for i in range(len(steps) - 1):
        swapped = steps[:i] + (steps[i + 1], steps[i]) + steps[i + 2 :]
        mutants.append((f"swap steps {i},{i + 1}", swapped))
    return MutationReport([
        Mutation(desc, replay_certificate(Certificate.of(cert.ambient, cert.base, mutant)))
        for desc, mutant in mutants
    ])
