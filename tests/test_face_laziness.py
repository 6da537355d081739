"""A checker that loads and replays certificates reads only face keys.

A poset face keeps only its key, rank, root, position and masks, and
derives its edge and cap sets, its parents and its children on each read.
Loading and replaying a certificate needs none of the links, so a cold
replay derives the parents and children of no face.
A poset, in turn, keeps one table keyed by face key, ``index``, and builds
its cover list only when something reads it.
"""

import pytest

from dendro import faces
from dendro.anodyne import segal_certificate
from dendro.certify import Certificate, replay_certificate
from dendro.pushout import certify_pp_inner
from dendro.trees import parse_tree as p

LINEAR = "".join(f"x{i}[" for i in range(9)) + "x9" + "]" * 9


@pytest.mark.parametrize(
    "make",
    [
        lambda: segal_certificate(p(LINEAR)),
        lambda: certify_pp_inner(p("s0[s1[s2]]"), "s1", p("t0[t1 t2]")),
    ],
    ids=["segal x0[...x9]", "pp-inner s0[s1[s2]] at s1 x t0[t1 t2]"],
)
def test_cold_replay_builds_no_face_structure(make, monkeypatch):
    text = make().dumps()
    cold = {}
    monkeypatch.setattr(faces, "_sub_cache", cold)
    derived = []
    derive = faces.Face._derive_links

    def counted(face):
        derived.append(face)
        return derive(face)

    monkeypatch.setattr(faces.Face, "_derive_links", counted)
    assert replay_certificate(Certificate.loads(text)).accepted
    assert sum(len(poset) for poset in cold.values()) > 100
    assert derived == []


def test_poset_keeps_one_key_table_and_no_cover_list(monkeypatch):
    # the maps of each face are stored by position; covers is derived on read
    poset = faces.SubPoset(p(LINEAR).tree)
    assert [name for name, v in vars(poset).items() if isinstance(v, dict)] == ["index"]
    cold = {}
    monkeypatch.setattr(faces, "_sub_cache", cold)
    text = segal_certificate(p(LINEAR)).dumps()
    assert replay_certificate(Certificate.loads(text)).accepted
    assert cold
    for poset in cold.values():
        assert "covers" not in vars(poset)
