import json

import pytest

from dendro.anodyne import Certificate, Step, class_of_steps, segal_certificate
from dendro.certify import mutate_and_check, replay_certificate
from dendro.complexes import MalformedCertificateError, boundary_complex, horn_complex
from dendro.faces import INNER, enumerate_sub, full_face, make_key
from dendro.trees import parse_tree, tree

EXAMPLE = "r[c[] d e[a b] f]"


def one_step_horn_cert(text, site):
    t = tree(text)
    base = horn_complex(t, site)
    top = full_face(t)
    steps = (Step(top.key, site[0], site[1], (0, top.rank - 1, 1)),)
    return Certificate(t, base, class_of_steps(steps), steps)


class TestReplay:
    def test_horn_certificate_accepted(self):
        cert = one_step_horn_cert("a[b[c]]", (INNER, "b"))
        assert replay_certificate(cert).accepted

    def test_wrong_base_rejected(self):
        t = tree("a[b[c]]")
        base = boundary_complex(t)
        top = full_face(t)
        steps = (Step(top.key, INNER, "b", (0, 1, 1)),)
        cert = Certificate(t, base, class_of_steps(steps), steps)
        verdict = replay_certificate(cert)
        assert not verdict.accepted
        # the omitted face is already in the boundary
        assert "already present" in verdict.reason

    def test_incomplete_final_rejected(self):
        t = tree("a[b[c]]")
        base = horn_complex(t, (INNER, "b"))
        cert = Certificate(t, base, "operadic", ())
        verdict = replay_certificate(cert)
        assert not verdict.accepted
        assert "final" in verdict.reason

    def test_wrong_class_tag_rejected(self):
        cert = one_step_horn_cert("a[b[c]]", (INNER, "b"))
        bad = Certificate(cert.ambient, cert.base, "stable", cert.steps)
        verdict = replay_certificate(bad)
        assert not verdict.accepted
        assert "class" in verdict.reason

    def test_unknown_face_rejected(self):
        t = tree("a[b[c]]")
        base = horn_complex(t, (INNER, "b"))
        steps = (Step(make_key({"a", "zz"}, ()), INNER, "b", (0, 1, 1)),)
        cert = Certificate(t, base, "operadic", steps)
        assert not replay_certificate(cert).accepted

    def test_segal_certificates_replay(self):
        for text in ("a[b[c]]", EXAMPLE, "r[x y[u v]]"):
            cert = segal_certificate(parse_tree(text))
            assert replay_certificate(cert).accepted

    def test_replay_from_json(self):
        cert = segal_certificate(parse_tree(EXAMPLE))
        data = json.loads(cert.dumps())
        again = Certificate.from_json(data)
        assert replay_certificate(again).accepted


class TestMutations:
    def test_drop_last_rejected(self):
        cert = segal_certificate(parse_tree(EXAMPLE))
        report = mutate_and_check(cert)
        drops = [m for m in report.mutations if m.description.startswith("drop")]
        assert drops and all(not m.verdict.accepted for m in drops)

    def test_duplicates_rejected(self):
        cert = segal_certificate(parse_tree(EXAMPLE))
        report = mutate_and_check(cert)
        dups = [m for m in report.mutations if m.description.startswith("duplicate")]
        assert dups and all(not m.verdict.accepted for m in dups)

    def test_swaps_pass_iff_independent(self):
        # an adjacent swap replays exactly when the later step's horn does
        # not need the faces added by the earlier one
        from dendro.complexes import _universe_of
        from dendro.faces import all_elementary_faces

        cert = segal_certificate(parse_tree(EXAMPLE))
        universe = _universe_of(cert.ambient)

        def added(step):
            face = universe[step.face]
            omit = next(
                ef
                for ef in all_elementary_faces(face)
                if (ef.kind, ef.at) == (step.omit_kind, step.omit_at)
            )
            return {face.key, omit.domain.key}, omit

        def required(step):
            face = universe[step.face]
            _, omit = added(step)
            need = {
                ef.domain.key
                for ef in all_elementary_faces(face)
                if (ef.kind, ef.at) != (step.omit_kind, step.omit_at)
            }
            need |= {ef.domain.key for ef in all_elementary_faces(omit.domain)}
            return need

        report = mutate_and_check(cert)
        swaps = [m for m in report.mutations if m.description.startswith("swap")]
        for m in swaps:
            i = int(m.description.split()[2].split(",")[0])
            dependent = bool(added(cert.steps[i])[0] & required(cert.steps[i + 1]))
            assert m.verdict.accepted == (not dependent), m.description

    def test_some_dependent_swap_exists_and_rejected(self):
        cert = segal_certificate(parse_tree(EXAMPLE))
        report = mutate_and_check(cert)
        swaps = [m for m in report.mutations if m.description.startswith("swap")]
        assert any(not m.verdict.accepted for m in swaps)

    def test_intra_batch_swaps_accepted(self):
        # a tree whose Segal filtration has a batch with two steps
        for text in ("r[x y[u v]]", "r[x[a] y[b]]", EXAMPLE):
            cert = segal_certificate(parse_tree(text))
            report = mutate_and_check(cert)
            intra = [m for m in report.mutations if m.same_batch_swap]
            if intra:
                assert all(m.verdict.accepted for m in intra)
                return
        pytest.skip("no multi-step batch found in the sampled trees")

    def test_rejects_unaccepted_input(self):
        cert = one_step_horn_cert("a[b[c]]", (INNER, "b"))
        broken = Certificate(cert.ambient, cert.base, "operadic", ())
        with pytest.raises(ValueError):
            mutate_and_check(broken)


GOOD_STEP = {"face": {"edges": ["a", "b"], "caps": []}, "omit": {"kind": "inner", "at": "b"},
             "batch": [0, 1, 1]}


def _step(**fields):
    data = json.loads(json.dumps(GOOD_STEP))
    for name, value in fields.items():
        part, _, sub = name.partition("__")
        target = data[part] if sub else data
        if value is None:
            target.pop(sub or part)
        else:
            target[sub or part] = value
    return data


class TestStepDecode:
    """Each malformed step is refused with the message of its first bad
    field, read in the order omit, batch, face, kind, at."""

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "'omit' must be a dict"),
            (_step(omit=None), "'omit' must be a dict"),
            (_step(omit=[], batch=None), "'omit' must be a dict"),
            (_step(batch=None, face=None), "'batch' must be a list"),
            (_step(batch=(0, 1, 1)), "'batch' must be a list"),
            (_step(batch=[0, 1]), "'batch' must be a list of three integers"),
            (_step(batch=[0, 1, True]), "'batch' must be a list of three integers"),
            (_step(batch=[0, 1.0, 1], face=None), "'batch' must be a list of three integers"),
            (_step(face=None, omit__kind=None), "'face' must be a dict"),
            (_step(face=["a"]), "'face' must be a dict"),
            (_step(face__edges="ab"), "'edges' must be a list"),
            (_step(face__edges=None, face__caps=None), "'edges' must be a list"),
            (_step(face__caps=None, omit__at=None), "'caps' must be a list"),
            (_step(face__caps=[1]), "face edges and caps must be strings"),
            (_step(face__edges=["a", None], omit__kind=3), "face edges and caps must be strings"),
            (_step(omit__kind=3, omit__at=3), "'kind' must be a str"),
            (_step(omit__at=None), "'at' must be a str"),
        ],
    )
    def test_message_of_the_first_bad_field(self, data, message):
        with pytest.raises(MalformedCertificateError) as info:
            Step.from_json(data)
        assert str(info.value) == message

    def test_a_good_step_round_trips(self):
        step = Step.from_json(GOOD_STEP)
        assert step == Step(make_key(["a", "b"], []), INNER, "b", (0, 1, 1))
        assert step.to_json() == GOOD_STEP
