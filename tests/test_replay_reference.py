"""Replay and closure read elementary faces from the ambient face poset.

The reference functions below derive them afresh with
``all_elementary_faces`` for every face, as replay and closure did before
they read ``SubPoset.faces_of``.  Both must give the same verdicts, reasons
included, and the same complexes.
"""

import json
import sys

import pytest

from dendro import certify, faces
from dendro.anodyne import Certificate, Step, class_of_steps, segal_certificate
from dendro.complexes import _universe_of, closure, empty_complex, key_from_json
from dendro.faces import all_elementary_faces, enumerate_sub, full_face
from dendro.pushout import certify_pp_inner, certify_pp_stable
from dendro.trees import parse_tree as p


def reference_replay(cert):
    universe = _universe_of(cert.ambient)
    current = set(cert.base.members)
    if not current <= set(universe):
        return certify.Verdict(False, None, "base contains keys outside the ambient")
    for i, step in enumerate(cert.steps):
        face = universe.get(step.face)
        if face is None:
            return certify.Verdict(False, i, f"step face {step.face} is not an ambient face")
        if face.key in current:
            return certify.Verdict(False, i, f"step face {step.face} already present")
        efs = all_elementary_faces(face)
        omitted = [ef for ef in efs if ef.kind == step.omit_kind and ef.at == step.omit_at]
        if len(omitted) != 1:
            return certify.Verdict(
                False, i, f"omitted face {step.omit_kind}({step.omit_at}) not found"
            )
        omit = omitted[0]
        if omit.domain.key in current:
            return certify.Verdict(False, i, f"omitted face {omit.domain.key} already present")
        for ef in efs:
            if ef is omit:
                continue
            if ef.domain.key not in current:
                return certify.Verdict(
                    False, i, f"horn incomplete: face {ef.kind}({ef.at}) of {step.face} missing"
                )
        for ef in all_elementary_faces(omit.domain):
            if ef.domain.key not in current:
                return certify.Verdict(
                    False, i, f"closure broken: face of the omitted face missing at step {i}"
                )
        current.add(face.key)
        current.add(omit.domain.key)
    if current != set(universe):
        return certify.Verdict(False, None, "final complex is not the full complex")
    expected = class_of_steps(cert.steps)
    if cert.class_tag != expected:
        return certify.Verdict(False, None, f"class tag {cert.class_tag!r} != {expected!r}")
    return certify.Verdict(True)


def reference_closure(faces):
    members = set()
    queue = list(faces)
    while queue:
        f = queue.pop()
        if f.key in members:
            continue
        members.add(f.key)
        for ef in all_elementary_faces(f):
            if ef.domain.key not in members:
                queue.append(ef.domain)
    return members


CASES = [
    ("segal x0[x1[x2[x3[x4]]]]", lambda: segal_certificate(p("x0[x1[x2[x3[x4]]]]"))),
    ("segal r[c[] d e[a b] f]", lambda: segal_certificate(p("r[c[] d e[a b] f]"))),
    ("pp-stable s0[s1 s2] x t0[t1]", lambda: certify_pp_stable(p("s0[s1 s2]"), p("t0[t1]"))),
    (
        "pp-inner s0[s1[s2]] at s1 x t0[t1]",
        lambda: certify_pp_inner(p("s0[s1[s2]]"), "s1", p("t0[t1]")),
    ),
]


@pytest.mark.parametrize("make", [c[1] for c in CASES], ids=[c[0] for c in CASES])
def test_every_mutant_verdict_matches_reference(make, monkeypatch):
    cert = make()
    replay = certify.replay_certificate
    verdicts = []

    def checked(cert):
        verdict = replay(cert)
        assert verdict == reference_replay(cert)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(certify, "replay_certificate", checked)
    report = certify.mutate_and_check(cert)
    assert len(verdicts) == len(report.mutations) + 1
    assert any(not v.accepted and v.reason.startswith("horn incomplete") for v in verdicts)


@pytest.mark.parametrize("text", ["a[b[c]]", "r[c[] d e[a b] f]", "s0[s1[s2] s3]"])
def test_first_missing_face_matches_reference(text):
    """Over the empty base every other face of the top is missing, so the
    reason names the first one in the order of ``all_elementary_faces``."""
    t = p(text).tree
    top = full_face(t)
    for ef in all_elementary_faces(top):
        steps = (Step(top.key, ef.kind, ef.at),)
        cert = Certificate(t, empty_complex(t), class_of_steps(steps), steps)
        verdict = certify.replay_certificate(cert)
        assert verdict.reason.startswith("horn incomplete")
        assert verdict == reference_replay(cert)


@pytest.mark.parametrize("make", [c[1] for c in CASES], ids=[c[0] for c in CASES])
def test_loaded_base_closure_matches_reference(make):
    data = make().to_json()
    universe = _universe_of(Certificate.from_json(data).ambient)
    # the genuine base, and a forged one: the top face of every ambient tree
    tops = sorted({enumerate_sub(f.ambient).top.key for f in universe.values()})
    for base in (data["base"], [{"edges": list(e), "caps": list(c)} for e, c in tops]):
        loaded = Certificate.loads(json.dumps(dict(data, base=base)))
        faces = [universe[key_from_json(item)] for item in base]
        assert closure(loaded.ambient, faces).members == loaded.base.members
        assert reference_closure(faces) == set(loaded.base.members)


def test_warm_load_and_replay_derive_no_elementary_faces(monkeypatch):
    text = segal_certificate(p("a[b[c[d]]]")).dumps()
    assert certify.replay_certificate(Certificate.loads(text)).accepted
    calls = []
    derive = faces.all_elementary_faces

    def counted(face):
        calls.append(face)
        return derive(face)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dendro" and vars(module).get("all_elementary_faces") is derive:
            monkeypatch.setattr(module, "all_elementary_faces", counted)
    assert certify.replay_certificate(Certificate.loads(text)).accepted
    assert calls == []
