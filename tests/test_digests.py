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
        "7d9a1e3843bb247c4e0738b77040c774f681d0c5bfb9a6025703f034efd5ebd8",
    ),
    (
        "segal x0[x1[x2[x3[x4[x5]]]]]",
        lambda: segal_certificate(p("x0[x1[x2[x3[x4[x5]]]]]")),
        "aa0be2212457170c207a1dbf5db20ede731fac6f361d11050b6f891e8ac024d8",
    ),
    (
        "pp-stable s0[s1 s2] x t0[t1 t2]",
        lambda: certify_pp_stable(p("s0[s1 s2]"), p("t0[t1 t2]")),
        "745eb30539d5357742743728d14550c4a4c843526e3aa284a0a8def99a5afce8",
    ),
    (
        "pp-stable s0[s1[s2]] x t0[t1 t2]",
        lambda: certify_pp_stable(p("s0[s1[s2]]"), p("t0[t1 t2]")),
        "893ba03e1e20bc923fdc810b262d1c77c7b5e859831dad1878bcd60083db2e3e",
    ),
    (
        "pp-stable s0[s1] x a[b[] c]",
        lambda: certify_pp_stable(p("s0[s1]"), p("a[b[] c]")),
        "5c427d0ecd9a3ec67ae6f3441d0da2fbbab3a92088e8f383e2e9d7c901072d82",
    ),
    (
        "pp-stable s0[s1 s2] x t0[t1[t2]]",
        lambda: certify_pp_stable(p("s0[s1 s2]"), p("t0[t1[t2]]")),
        "73956e3a22bd5efcb92408af8942c54f771a094d51d280aed2b97e31cab3cbcf",
    ),
    (
        "pp-inner s0[s1[s2]] at s1 x t0[t1 t2]",
        lambda: certify_pp_inner(p("s0[s1[s2]]"), "s1", p("t0[t1 t2]")),
        "2e44752f933e568628be8eebe6dd67adbb716daaa76a22b22ade0119e19aca56",
    ),
]


@pytest.mark.parametrize("make,digest", [c[1:] for c in PINNED], ids=[c[0] for c in PINNED])
def test_certificate_digest_is_pinned(make, digest):
    assert hashlib.sha256(make().dumps().encode()).hexdigest() == digest
