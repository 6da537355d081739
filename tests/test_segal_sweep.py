"""Opt-in sweep: the Segal certificate of every tree of ``tree_catalog(5,
3)`` and of ``tree_catalog(6, 3)`` with a vertex is accepted after a JSON
round trip, and the ``enumerate_sub`` memo stays within its bound over the
whole sweep.  The one tree left out is the bare edge, which has no Segal
core.  Deselected by default; run it with ``pytest -m sweep``."""

import pytest

from dendro import faces
from dendro.anodyne import segal_certificate
from dendro.certify import Certificate, replay_certificate
from dendro.trees import tree_catalog

pytestmark = pytest.mark.sweep


@pytest.mark.parametrize(
    "edges,arity,expected", [(5, 3, (1932, 49824)), (6, 3, (11148, 705048))]
)
def test_segal_certificates_of_catalog_replay(edges, arity, expected):
    certificates = steps = 0
    for pt in tree_catalog(edges, arity):
        if pt.tree.num_vertices() == 0:
            continue
        cert = Certificate.loads(segal_certificate(pt).dumps())
        verdict = replay_certificate(cert)
        assert verdict.accepted, (pt, verdict.reason)
        certificates += 1
        steps += len(cert.steps)
    assert (certificates, steps) == expected
    assert len(faces._sub_cache) <= faces._SUB_BOUND
