"""The producers read every face from the face poset.

Each test runs cold: ``faces._sub_cache`` is swapped for an empty dict, so
every poset a run needs is built inside the test.  The count guards count
``Face.__init__`` calls; the reference below is the earlier run-index
definition of a same-batch swap in ``certify.mutate_and_check``.
"""

import pytest

from dendro import faces
from dendro.anodyne import segal_certificate
from dendro.certify import mutate_and_check
from dendro.cli import run
from dendro.faces import INNER, Face, FaceError, enumerate_sub
from dendro.pushout import PPContext, certify_pp_inner, certify_pp_stable
from dendro.trees import parse_tree


@pytest.fixture
def cold(monkeypatch):
    cache = {}
    monkeypatch.setattr(faces, "_sub_cache", cache)
    return cache


@pytest.fixture
def built(monkeypatch):
    made = []
    init = Face.__init__

    def counted(face, *args, **kwargs):
        made.append(face)
        init(face, *args, **kwargs)

    monkeypatch.setattr(faces.Face, "__init__", counted)
    return made


def test_pp_stable_builds_only_poset_faces(cold, built):
    # the one face outside the posets is the omitted face of S
    certify_pp_stable(parse_tree("s0[s1[s2[s3[s4]]]]"), parse_tree("t0[t1 t2]"))
    in_posets = sum(len(poset) for poset in cold.values())
    assert in_posets == 2351
    assert len(built) <= in_posets + 1


def test_segal_certificate_builds_only_poset_faces(cold, built):
    pt = parse_tree("r[c[] d e[a b] f]")
    segal_certificate(pt)
    assert len(built) == len(enumerate_sub(pt.tree)) == 18


def reference_batch_runs(steps):
    runs, run_index, prev = [], -1, None
    for s in steps:
        if s.batch != prev:
            run_index += 1
            prev = s.batch
        runs.append(run_index)
    return runs


@pytest.mark.parametrize(
    "make",
    [
        lambda: segal_certificate(parse_tree("x0[x1[x2[x3[x4[x5[x6]]]]]]")),
        lambda: certify_pp_stable(parse_tree("s0[s1 s2]"), parse_tree("t0[t1 t2]")),
    ],
    ids=["segal x0[...x6]", "pp-stable s0[s1 s2] x t0[t1 t2]"],
)
def test_same_batch_swap_matches_run_indices(make):
    cert = make()
    runs = reference_batch_runs(cert.steps)
    swaps = [m for m in mutate_and_check(cert).mutations if m.description.startswith("swap")]
    assert len(swaps) == len(cert.steps) - 1
    for m in swaps:
        i, j = map(int, m.description.split()[-1].split(","))
        assert m.same_batch_swap == (runs[i] == runs[j]), m.description
    assert {m.same_batch_swap for m in swaps} == {True, False}


def test_poset_face_rejects_a_key_it_lacks(cold):
    poset = enumerate_sub(parse_tree("a[b[c]]").tree)
    for key in [(("zz",), ()), (("a", "b"), ("a",)), (("a", "b", "c"), ("c",))]:
        with pytest.raises(FaceError, match="is not a face of the tree"):
            poset.face(key)


def test_missing_contraction_is_a_face_error(cold, monkeypatch, capsys):
    # a poset without the contraction of the distinguished root input
    face_map = faces.SubPoset.face_map

    def without(poset, p, kind, at):
        return None if (kind, at) == (INNER, "s1,t0") else face_map(poset, p, kind, at)

    monkeypatch.setattr(faces.SubPoset, "face_map", without)
    with pytest.raises(FaceError, match=r"has no elementary face inner\(s1,t0\)"):
        certify_pp_stable(parse_tree("s0[s1 s2]"), parse_tree("t0[t1 t2]"))
    assert run(["pp-stable", "--s", "s0[s1 s2]", "--t", "t0[t1 t2]"]) == 3
    assert "has no elementary face inner(s1,t0)" in capsys.readouterr().err


def test_pp_stable_builds_no_face_outside_its_posets(cold, built):
    # the omitted face of S is read from the poset of S, not built again
    certify_pp_stable(parse_tree("s0[s1[s2[s3[s4]]]]"), parse_tree("t0[t1 t2]"))
    assert len(built) == sum(len(poset) for poset in cold.values()) == 2351


def test_pp_inner_builds_no_face_outside_its_posets(cold, built):
    certify_pp_inner(parse_tree("s0[s1[s2]]"), "s1", parse_tree("t0[t1 t2]"))
    assert len(built) == sum(len(poset) for poset in cold.values()) == 127


def test_omit_site_that_s_lacks_is_a_face_error(cold):
    s, t = parse_tree("s0[s1[s2]]"), parse_tree("t0[t1 t2]")
    with pytest.raises(FaceError, match=r"^Face\(s0,s1,s2\) has no elementary face inner\(zz\)$"):
        PPContext(s, t, (INNER, "zz"))
