"""Independent certificate replay.

The verifier reads each face's elementary faces from its ambient's face
poset, the same ``Sub(T)`` the universe is built from: for each step it
checks that the step's face and omitted face are new, that every other
elementary face is already present, and that the closure stays intact; at
the end the complex must equal the full ambient complex and the class tag
must match the step kinds.  It never consults the modules that produce
certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .anodyne import Certificate, class_of_steps
from .complexes import _universe_of
from .faces import BOTTOM, enumerate_sub


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
        # all_elementary_faces order (inner, top, bottom), which the poset
        # sorts bottom first: "horn incomplete" names the first missing face
        efs = sorted(poset.faces_of(face.key), key=lambda ef: ef.kind == BOTTOM)
        omitted = [
            ef for ef in efs if ef.kind == step.omit_kind and ef.at == step.omit_at
        ]
        if len(omitted) != 1:
            return Verdict(
                False, i, f"omitted face {step.omit_kind}({step.omit_at}) not found"
            )
        omit = omitted[0]
        if omit.domain.key in current:
            return Verdict(False, i, f"omitted face {omit.domain.key} already present")
        for ef in efs:
            if ef is omit:
                continue
            if ef.domain.key not in current:
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
