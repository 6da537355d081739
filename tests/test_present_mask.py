"""The pushout sweep's mask of present faces always agrees with
``PPContext.current``, the set of present keys it stands for.

Every ``add_downset`` and ``local_base`` call is wrapped: after it, the
context's mask is that of the poset just used, and equals the mask of
``current`` in that poset.  The pipelines are run on the benchmark's pushout
grid, and each pair is also driven shuffle by shuffle from outside the
sweep, replacing and growing ``current`` before the context moves to the
next poset, as a caller may.
"""

import pytest

from dendro.pushout import (
    PPContext,
    _root_vertex_data,
    black_root_extension_set,
    certify_pp_inner,
    certify_pp_stable,
)
from dendro.shuffles import BLACK
from dendro.trees import parse_tree

GRID = [
    ("s0[s1]", "t0[t1]"),
    ("s0[s1 s2]", "t0[t1]"),
    ("s0[s1 s2]", "t0[t1 t2]"),
    ("s0[s1[s2]]", "t0[t1 t2]"),
    ("s0[s1 s2]", "t0[t1[t2]]"),
    ("s0[s1]", "a[b[] c]"),
    ("s0[s1[s2[s3[s4]]]]", "t0[t1 t2]"),
]


@pytest.fixture
def checked(monkeypatch):
    """Wrap ``add_downset`` and ``local_base`` with the mask check; yields
    the list of checked calls."""
    calls = []

    def wrapped(method):
        def call(ctx, sub, face):
            out = method(ctx, sub, face)
            assert ctx._sub is sub
            assert ctx._present == sub.mask_of(ctx.current)
            calls.append(method.__name__)
            return out

        return call

    for name in ("add_downset", "local_base"):
        monkeypatch.setattr(PPContext, name, wrapped(getattr(PPContext, name)))
    return calls


@pytest.mark.parametrize("s,t", GRID)
def test_mask_follows_current_in_the_pipelines(checked, s, t):
    S, T = parse_tree(s), parse_tree(t)
    certify_pp_stable(S, T)
    for e in sorted(S.tree.inner_edges):
        certify_pp_inner(S, e, T)
    assert {"add_downset", "local_base"} <= set(checked)


@pytest.mark.parametrize("s,t", GRID)
def test_mask_follows_current_set_from_outside(checked, s, t):
    S, T = parse_tree(s), parse_tree(t)
    ctx = PPContext(S, T, ("bottom", _root_vertex_data(S)[0]))
    ctx.current = set(ctx.base_complex().members)
    for sh in ctx.tensor.poset.linearization():
        sub = ctx.tensor.sub(sh)
        # before the sweep reaches this poset, the caller replaces
        # ``current`` by a copy grown by the downset of one of its faces
        grown = sub.faces_of(sub.top)[0].domain
        ctx.current = ctx.current | {f.key for f in sub.faces_in(sub.downset_mask(grown))}
        if sh.vertex_colour(sh.tree.tree.root) == BLACK:
            black_root_extension_set(sh, ctx)
        ctx.local_base(sub, sub.top)
        assert ctx._present >> grown.pos & 1
        ctx.add_downset(sub, sub.top)
    assert ctx.current == set(ctx.tensor.universe)
    assert {"add_downset", "local_base"} <= set(checked)
