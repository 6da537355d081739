"""The base of a pushout product, decided by projections read from colour
masks, against the projection rule on edge names that it replaced.

A wrong base can still yield certificates that replay as accepted (replay
accepts any base that reaches the full complex), so the projections are
pinned here face by face: on every face of every shuffle of every pair of
trees of ``tree_catalog(2, 2)`` whose S has a vertex, which puts stumps on
both sides; the base is compared for every bottom and inner horn of S.
"""

import pytest

from dendro.faces import TOP, FaceError, enumerate_sub, make_key
from dendro.pushout import PPContext
from dendro.shuffles import split_name
from dendro.trees import parse_tree, render_tree, tree_catalog


def reference_project(face, side, partner, own):
    """Projection of a tensor face to one side, with cap bookkeeping:
    a cap forces dead branches on this side only when the partner tree
    still has a leaf above its coordinate."""
    cols = {split_name(e)[side] for e in face.key[0]}
    hard = set()
    for e in face.key[1]:
        mine, other = split_name(e)[side], split_name(e)[1 - side]
        if any(partner.leq(other, l) for l in partner.leaves):
            hard.add(mine)
    maxs = {c for c in cols if not any(x != c and own.leq(c, x) for x in cols)}
    caps = {m for m in maxs if any(own.leq(h, m) for h in hard)}
    return make_key(cols, caps)


def reference_in_base(ctx, face):
    """Membership in horn(S) (x) T union S (x) boundary(T), by the
    reference projections."""
    S, T = ctx.s_tree.tree, ctx.t_tree.tree
    sp = reference_project(face, 0, T, S)
    if sp not in ctx.s_sub.index:
        raise FaceError(f"S-projection {sp} of {face!r} is not a face")
    if sp not in ctx.s_excluded:
        return True
    tp = reference_project(face, 1, S, T)
    if tp not in ctx.t_sub.index:
        raise FaceError(f"T-projection {tp} of {face!r} is not a face")
    return tp != ctx.t_full_key


def _outcome(in_base, face):
    """``in_base(face)``, or the message of the ``FaceError`` it raises
    (a projection that is no face, as on inadmissible pairs)."""
    try:
        return in_base(face)
    except FaceError as err:
        return str(err)


def _catalog(prefix):
    return [parse_tree(render_tree(pt).replace("e", prefix)) for pt in tree_catalog(2, 2)]


PAIRS = [(S, T) for S in _catalog("s") if S.tree.num_vertices() for T in _catalog("t")]


@pytest.mark.parametrize(
    "S,T", PAIRS, ids=[f"{render_tree(S)}x{render_tree(T)}" for S, T in PAIRS]
)
def test_mask_projections_match_reference(S, T):
    sub = enumerate_sub(S.tree)
    sites = [(ef.kind, ef.at) for ef in sub.faces_of(sub.top)]
    ctx = PPContext(S, T, sites[0])
    for sh in ctx.tensor.poset:
        for face in ctx.tensor.sub(sh):
            assert ctx._project(face, 0) == reference_project(face, 0, T.tree, S.tree)
            assert ctx._project(face, 1) == reference_project(face, 1, S.tree, T.tree)
    for site in sites:
        if site[0] == TOP:
            continue
        ctx = PPContext(S, T, site)
        universe = ctx.tensor.universe.values()
        want = [_outcome(lambda f: reference_in_base(ctx, f), f) for f in universe]
        assert [_outcome(ctx.in_base, f) for f in universe] == want, site
        if all(isinstance(w, bool) for w in want):
            members = {f.key for f, w in zip(universe, want) if w}
            assert ctx.base_complex().members == members, site
