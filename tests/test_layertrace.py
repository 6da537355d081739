"""The benchmark's tracer wraps ``dendro`` names from outside the package.

``perfbench/layertrace.py`` patches public functions and methods by name;
a rename of a wrapped name would otherwise break only ``--trace 1`` runs.
Its face count wraps ``Face.__init__``, so a poset build must make every
face through it.
"""

import importlib.util
from pathlib import Path

from dendro import anodyne, faces, pushout
from dendro.anodyne import segal_certificate
from dendro.pushout import certify_pp_inner
from dendro.trees import parse_tree as p

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores():
    check_axioms, local_base = anodyne.check_axioms, pushout.PPContext.local_base
    tracer = _layertrace().Tracer()
    tracer.install()
    try:
        patched = list(tracer._restore)
        assert anodyne.check_axioms is not check_axioms
        segal_certificate(p("a[b[c] d]"))
        certify_pp_inner(p("s0[s1[s2]]"), "s1", p("t0[t1]"))
    finally:
        tracer.uninstall()
    assert patched
    assert all(vars(owner)[attr] is orig for owner, attr, orig in patched)
    assert anodyne.check_axioms is check_axioms
    assert pushout.PPContext.local_base is local_base
    calls = {name: rec["calls"] for name, rec in tracer.summary().items()}
    assert calls["pushout.local_base"] > 0
    assert calls["anodyne.check_axioms"] > 0
    assert tracer.counts["members"] > 0


def test_trace_counts_one_face_object_per_poset_face(monkeypatch):
    # a poset build that made its faces without Face.__init__ would show
    # fewer face objects than poset faces here
    monkeypatch.setattr(faces, "_sub_cache", {})
    tracer = _layertrace().Tracer()
    tracer.install()
    try:
        segal_certificate(p("r[c[] d e[a b] f]"))
    finally:
        tracer.uninstall()
    assert tracer.counts["face_objects"] == tracer.counts["sub_faces"] == 18
