"""Certificates are pinned byte for byte: the sha256 of ``dumps()`` for a
fixed set of inputs must not change under a refactor of the producers."""

import hashlib

import pytest

from dendro.anodyne import segal_certificate
from dendro.pushout import certify_pp_inner, certify_pp_stable
from dendro.trees import parse_tree as p

PINNED = [
    (
        "segal r[c[] d e[a b] f]",
        lambda: segal_certificate(p("r[c[] d e[a b] f]")),
        "f90a85b566fd34576aa134a95ddf4029a8f3340f8028a9aef6de6663dbecc0f9",
    ),
    (
        "segal x0[x1[x2[x3[x4[x5]]]]]",
        lambda: segal_certificate(p("x0[x1[x2[x3[x4[x5]]]]]")),
        "f578d7d14b70d730afa3a652f8fd75bd8e540fb6973dcfc82777a3a87ff7982f",
    ),
    (
        "pp-stable s0[s1 s2] x t0[t1 t2]",
        lambda: certify_pp_stable(p("s0[s1 s2]"), p("t0[t1 t2]")),
        "15a9e826df339190993f4f48d7d25b749790af2274b35bd5400c676ed0a75aac",
    ),
    (
        "pp-stable s0[s1[s2]] x t0[t1 t2]",
        lambda: certify_pp_stable(p("s0[s1[s2]]"), p("t0[t1 t2]")),
        "13eb5610891387a6cee12b66f72b2c6204a66a18b4e9341d279a231525c2a5c9",
    ),
    (
        "pp-stable s0[s1] x a[b[] c]",
        lambda: certify_pp_stable(p("s0[s1]"), p("a[b[] c]")),
        "b8cc08d968e2ea9b5b9bf10f4eba20d70130117c3789796ab5e76cbd8e329b81",
    ),
    (
        "pp-stable s0[s1 s2] x t0[t1[t2]]",
        lambda: certify_pp_stable(p("s0[s1 s2]"), p("t0[t1[t2]]")),
        "bf7c085bf8f29615ae737188f14f59dc1e73de4ae7ec6a454105dfb7c91e5840",
    ),
    (
        "pp-inner s0[s1[s2]] at s1 x t0[t1 t2]",
        lambda: certify_pp_inner(p("s0[s1[s2]]"), "s1", p("t0[t1 t2]")),
        "87a6254e3681b1d8a55ddc029b009e927507f31ba1566a5c886ba34b1a9770de",
    ),
]


@pytest.mark.parametrize("make,digest", [c[1:] for c in PINNED], ids=[c[0] for c in PINNED])
def test_certificate_digest_is_pinned(make, digest):
    assert hashlib.sha256(make().dumps().encode()).hexdigest() == digest
