"""A checker that loads and replays certificates reads only face keys.

A poset face derives its edge and cap sets, its parents and its children
from its masks on first read.  Loading and replaying a certificate needs
none of them, so after a cold replay no face of any poset holds them: the
verifier keeps one key, rank and position per face, not four containers.
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
    assert replay_certificate(Certificate.loads(text)).accepted
    posets = list(cold.values())
    assert sum(len(poset) for poset in posets) > 100
    for poset in posets:
        for f in poset:
            assert (f._edges, f._caps, f._links) == (None, None, None), f


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
