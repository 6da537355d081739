"""The base of a pushout product, computed by its definition, against the
projection rule on edge names.

``PPContext.base_complex`` takes the closure of the shuffles of the
tensors of the elementary faces, ``A (x) T`` for each face A of the horn
of S and ``S (x) B`` for each face B of T.  The oracle here decides the
same base face by face instead: a tensor face lies in it iff its
S-projection lands in the horn or its T-projection is a proper face of T.
A wrong base can still yield certificates that replay as accepted (replay
accepts any base that reaches the full complex), so the two are compared
on every bottom, inner and top horn of S, for every pair of trees of
``tree_catalog(2, 2)`` whose S has a vertex, which puts stumps on both
sides.  Every base is checked to be closed; on an inadmissible pair a
projection may be no face, and there is no reference base to compare.
The opt-in sweep does the same over ``tree_catalog(2, 3)`` and pins its
counts.
"""

import pytest

from dendro.complexes import AmbientTooLargeError
from dendro.faces import FaceError, enumerate_sub, make_key
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
    return tp != ctx.t_sub.top.key


def reference_base(ctx):
    """The keys of the base by the reference projections, or ``None`` when
    a projection is no face."""
    try:
        return {k for k, f in ctx.tensor.universe.items() if reference_in_base(ctx, f)}
    except FaceError:
        return None


def sites(S):
    """Every elementary face of the top face of S, as ``(kind, at)``."""
    sub = enumerate_sub(S.tree)
    return [(ef.kind, ef.at) for ef in sub.faces_of(sub.top)]


def check_site(S, T, site):
    """Check the base of the site, closed and equal to the reference one
    where that exists; return whether it does."""
    ctx = PPContext(S, T, site)
    base = ctx.base_complex()
    assert base.is_closed(), site
    want = reference_base(ctx)
    if want is not None:
        assert base.members == want, site
    return want is not None


def _catalog(prefix, vertices):
    return [
        parse_tree(render_tree(pt).replace("e", prefix))
        for pt in tree_catalog(2, vertices)
    ]


def _pairs(vertices):
    return [
        (S, T)
        for S in _catalog("s", vertices)
        if S.tree.num_vertices()
        for T in _catalog("t", vertices)
    ]


PAIRS = _pairs(2)


@pytest.mark.parametrize(
    "S,T", PAIRS, ids=[f"{render_tree(S)}x{render_tree(T)}" for S, T in PAIRS]
)
def test_base_matches_reference(S, T):
    for site in sites(S):
        check_site(S, T, site)


@pytest.mark.sweep
def test_base_matches_reference_up_to_three_vertices():
    counts = {"agree": 0, "closed": 0, "refused": 0}
    for S, T in _pairs(3):
        for site in sites(S):
            try:
                counts["agree"] += check_site(S, T, site)
            except AmbientTooLargeError:
                counts["refused"] += 1
            else:
                counts["closed"] += 1
    assert counts == {"agree": 456, "closed": 686, "refused": 96}
