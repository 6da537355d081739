"""Pushout-product certificates over a tensor of two trees.

Certifies that horn-tensor-boundary inclusions are anodyne.  Both pipelines
run one sweep: starting from the base, it visits the shuffles in
percolation order (reversed for the inner horn), skips a shuffle whose
faces are all present, and hands any other to the pipeline's fill step,
which must exhaust it.  The sweep ends by checking that the full tensor
complex is reached and by replaying the certificate.  The fill steps:

* ``pp-inner`` fills a shuffle by inner horns at the edges ``(e, x)`` where
  the vertex of S below ``e`` occurs whole at ``x``;
* ``pp-stable`` fills a black-rooted shuffle by inner horns on
  root-coloured edges, and a white-rooted one in two passes over the faces
  hanging over the distinguished root input: first the contractions of
  that input (covariant filtrations), then one bottom horn per missing
  hanging face followed by another covariant filtration.

Every face a fill step uses is read from the shuffle's face poset.  The
base complex is computed by projection tests: a tensor face lies in the
base iff its S-projection lands in the horn or its T-projection is a
proper face of T.
"""

from __future__ import annotations

from dataclasses import dataclass

from .anodyne import ExtensionSet, filtration_steps, missing_inner_covers
from .certify import Certificate, ReplayGuardError, Step, class_of_steps, replay_guard
from .complexes import FaceComplex, TensorAmbient
from .faces import (
    BOTTOM,
    INNER,
    TOP,
    Face,
    FaceError,
    FaceKey,
    SubPoset,
    apply_elementary_face,
    enumerate_sub,
    make_key,
)
from .order import EdgeOrder, edge_order
from .shuffles import BLACK, Shuffle, pair_name, split_name
from .trees import Operation, PlanarTree, Tree, classify, is_operation


class InadmissiblePairError(FaceError):
    """The tensor pair falls outside the admissible cases (one factor
    linear, or both factors open)."""


@dataclass(frozen=True)
class EssentialData:
    """Leaf-cover data of an essential face: the T-colours seen at leaves
    over the distinguished input, and their maximal elements (which always
    form an operation of T with the root as output)."""

    face: Face
    covered: frozenset[str]
    top: frozenset[str]


class PPContext:
    """Shared state of one pushout-product run."""

    def __init__(self, s_tree: PlanarTree, t_tree: PlanarTree, omit_site: tuple[str, str]):
        self.s_tree = s_tree
        self.t_tree = t_tree
        S = s_tree.tree
        self.omit_site = omit_site  # the horn of S being tensored
        self.tensor = TensorAmbient(s_tree, t_tree)
        self.s_sub = enumerate_sub(S)
        self.t_sub = enumerate_sub(t_tree.tree)
        omitted = apply_elementary_face(self.s_sub.top, *omit_site)
        self.s_excluded = {self.s_sub.top.key, omitted.key}
        self.t_full_key = self.t_sub.top.key
        self.current: set[FaceKey] = set()
        self.steps: list[Step] = []
        self.extension_sets: list[ExtensionSet] | None = None  # kept only when collected
        self.phase = 0

    # -- projections -----------------------------------------------------

    def _project(self, face: Face, side: int, partner: Tree, own: Tree) -> FaceKey:
        """Projection of a tensor face to one side, with cap bookkeeping:
        a cap forces dead branches on this side only when the partner tree
        still has a leaf above its coordinate."""
        cols = {split_name(e)[side] for e in face.edges}
        hard = set()
        for e in face.caps:
            mine, other = split_name(e)[side], split_name(e)[1 - side]
            if any(partner.leq(other, l) for l in partner.leaves):
                hard.add(mine)
        maxs = {c for c in cols if not any(x != c and own.leq(c, x) for x in cols)}
        caps = {m for m in maxs if any(own.leq(h, m) for h in hard)}
        return make_key(cols, caps)

    def in_base(self, face: Face) -> bool:
        """Membership in horn(S) (x) T union S (x) boundary(T)."""
        sp = self._project(face, 0, self.t_tree.tree, self.s_tree.tree)
        if sp not in self.s_sub.index:
            raise FaceError(f"S-projection {sp} of {face!r} is not a face")
        if sp not in self.s_excluded:
            return True
        tp = self._project(face, 1, self.s_tree.tree, self.t_tree.tree)
        if tp not in self.t_sub.index:
            raise FaceError(f"T-projection {tp} of {face!r} is not a face")
        return tp != self.t_full_key

    def base_complex(self) -> FaceComplex:
        members = frozenset(
            k for k, f in self.tensor.universe.items() if self.in_base(f)
        )
        return FaceComplex(self.tensor, members)

    # -- per-shuffle plumbing ---------------------------------------------

    def local_base(self, sub: SubPoset, top: Face) -> FaceComplex:
        """The present faces in the downset view of ``top`` in ``sub``."""
        keys = (f.key for f in sub.downset(top))
        return FaceComplex(sub.ambient, frozenset(k for k in keys if k in self.current))

    def add_downset(self, sub: SubPoset, face: Face) -> None:
        self.current.update(f.key for f in sub.downset(face))

    def next_phase(self) -> int:
        self.phase += 1
        return self.phase - 1

    def run_filtration(self, es: ExtensionSet, ordr: EdgeOrder) -> None:
        if self.extension_sets is not None:
            self.extension_sets.append(es)
        self.steps.extend(filtration_steps(es, ordr, phase=self.next_phase()))
        self.add_downset(es.poset, es.top)


def require_admissible(s_tree: PlanarTree, t_tree: PlanarTree) -> None:
    """The pipelines need one linear factor or two open factors (this keeps
    the tensored horn inclusion a normal monomorphism)."""
    info_s, info_t = classify(s_tree.tree), classify(t_tree.tree)
    if not (info_s.is_linear or info_t.is_linear or (info_s.is_open and info_t.is_open)):
        raise InadmissiblePairError("need one linear factor or two open factors")


def _root_vertex_data(s_tree: PlanarTree) -> tuple[str, list[str]]:
    """The distinguished input of the bottom vertex of S and the remaining
    (leaf) inputs.  The distinguished input is the unique non-leaf input
    when there is one, else the first input in planar order."""
    S = s_tree.tree
    if S.num_vertices() == 0:
        raise InadmissiblePairError("S needs at least one vertex")
    inputs = s_tree.ordered_children(S.root)
    if not inputs:
        raise InadmissiblePairError("the bottom vertex of S has no inputs")
    non_leaf = [x for x in inputs if x not in S.leaves]
    if len(non_leaf) > 1:
        raise InadmissiblePairError(
            "the bottom vertex of S has more than one non-leaf input"
        )
    l1 = non_leaf[0] if non_leaf else inputs[0]
    return l1, [x for x in inputs if x != l1]


# ---------------------------------------------------------------------------
# Extension sets for the black-root and white-root cases
# ---------------------------------------------------------------------------


def _white_vertex_sites(sh: Shuffle, out_s: str) -> set[str]:
    """T-colours x such that the full white vertex of ``out_s`` occurs in
    the shuffle at the edge (out_s, x)."""
    return {
        split_name(e)[1]
        for e in sh.tree.tree.edges
        if split_name(e)[0] == out_s and sh.white_vertex_at(e)
    }


def black_root_extension_set(sh: Shuffle, ctx: PPContext) -> ExtensionSet:
    """Inner face maps at root-coloured edges (r_S, x) where the white
    bottom vertex of S occurs at x, between missing faces of a black-rooted
    shuffle."""
    tr = sh.tree.tree
    if sh.vertex_colour(tr.root) != BLACK:
        raise FaceError("expected a black-rooted shuffle")
    S = ctx.s_tree
    rs = S.tree.root
    v_inputs = S.ordered_children(rs)
    xs = _white_vertex_sites(sh, rs)
    sub = enumerate_sub(tr)
    base = ctx.local_base(sub, sub.top)
    members = []
    for ef in missing_inner_covers(sub, base):
        s, x = split_name(ef.at)
        if s == rs and x in xs and any(pair_name(l, x) in ef.codomain.edges for l in v_inputs):
            members.append(ef)
    return ExtensionSet(tr, base, members)


def _t_top(
    ctx: PPContext, l1: str, edges: frozenset[str], empty: frozenset[str]
) -> tuple[frozenset[str], frozenset[str]]:
    """The T-colours of the given edges that lie over the distinguished
    input ``l1`` of S, and their maximal elements in T (``empty`` when there
    are none), checked to form an operation of T with the root as output."""
    S, T = ctx.s_tree.tree, ctx.t_tree.tree
    covered = frozenset(split_name(e)[1] for e in edges if S.leq(l1, split_name(e)[0]))
    top = frozenset(t for t in covered if not any(x != t and T.leq(t, x) for x in covered))
    top = top or empty
    if not is_operation(T, Operation(top, T.root)):
        raise FaceError(f"T-top {sorted(top)} is not an operation of T")
    return covered, top


def essential_data(sh: Shuffle, face: Face, ctx: PPContext) -> EssentialData:
    """T-covering and T-top of an essential face of a white-rooted shuffle."""
    tr = sh.tree.tree
    l1, leaf_inputs = _root_vertex_data(ctx.s_tree)
    T = ctx.t_tree.tree
    required = {
        pair_name(l, t)
        for l in leaf_inputs
        for t in T.edges
        if pair_name(l, t) in tr.edges
    }
    if not required <= face.edges:
        raise FaceError("face is not essential: a copy over a leaf input is incomplete")
    covered, top = _t_top(ctx, l1, face.leaves, frozenset())
    return EssentialData(face, covered, top)


def white_root_extension_set(
    face: Face, top_colours: frozenset[str], base: FaceComplex, ctx: PPContext
) -> ExtensionSet:
    """The covariant extension set of an essential face: inner faces at
    (l_j, x) for x in the T-top, and top faces over a leaf input l_j whose
    chopped vertex carries exactly the T-top colours above its output.

    The chopped vertex at output y is the unique admissible one: all
    elements of the T-top strictly above y, or the cap when there are none
    and nothing of the T-top lies below y either.
    """
    T = ctx.t_tree.tree
    _, leaf_inputs = _root_vertex_data(ctx.s_tree)
    sub = enumerate_sub(face.ambient)

    def top_shape(y: str) -> frozenset[str] | None:
        over = frozenset(x for x in top_colours if x != y and T.leq(y, x))
        if over:
            return over
        if any(T.leq(x, y) for x in top_colours):
            return None
        return frozenset()

    members = []
    for p in sub.downset(face):
        for ef in sub.faces_of(p):
            if base.contains(ef.codomain_key) or base.contains(ef.domain.key):
                continue
            s, y = split_name(ef.at)
            if s not in leaf_inputs:
                continue
            if ef.kind == INNER:
                if y in top_colours:
                    members.append(ef)
            elif ef.kind == TOP:
                shape = top_shape(y)
                if shape is None:
                    continue
                chopped = ef.codomain.vertex_inputs(ef.at)
                want = frozenset(pair_name(s, c) for c in shape)
                if chopped == want:
                    members.append(ef)
    return ExtensionSet(face.ambient, base, members, face)


# ---------------------------------------------------------------------------
# The pipelines
# ---------------------------------------------------------------------------


def _sweep(ctx: PPContext, shuffles: list[Shuffle], fill, collect: list | None) -> Certificate:
    """Run one pipeline: in the given order, hand every shuffle that is not
    yet full to ``fill(sh, sub)``, which must exhaust it; then check that
    the steps reach the full tensor complex and replay the certificate.
    ``collect``, when given, receives every extension set built."""
    ctx.extension_sets = collect
    base = ctx.base_complex()
    ctx.current = set(base.members)
    for sh in shuffles:
        sub = ctx.tensor.sub(sh)
        if all(k in ctx.current for k in sub.index):
            continue
        fill(sh, sub)
        missing = [k for k in sub.index if k not in ctx.current]
        if missing:
            raise ReplayGuardError(f"shuffle not exhausted: {missing[:3]}")
    if ctx.current != set(ctx.tensor.universe):
        raise ReplayGuardError("pipeline did not reach the full tensor complex")
    steps = tuple(ctx.steps)
    return replay_guard(Certificate(ctx.tensor, base, class_of_steps(steps), steps))


def certify_pp_stable(
    s_tree: PlanarTree, t_tree: PlanarTree, collect: list | None = None
) -> Certificate:
    """Certificate that the root-horn of S tensored against T fills in:
    ``horn(S) (x) T  u  S (x) boundary(T)  ->  S (x) T`` as a stable
    anodyne extension.

    ``collect``, when given, receives every extension set built along the
    way (for auditing against the axioms).
    """
    require_admissible(s_tree, t_tree)
    l1, leaf_inputs = _root_vertex_data(s_tree)
    ctx = PPContext(s_tree, t_tree, (BOTTOM, l1))

    def fill(sh: Shuffle, sub: SubPoset) -> None:
        if sh.vertex_colour(sh.tree.tree.root) == BLACK:
            ctx.run_filtration(black_root_extension_set(sh, ctx), edge_order(sh.tree))
        else:
            _fill_white_rooted(ctx, sh, sub, l1, leaf_inputs)

    return _sweep(ctx, ctx.tensor.poset.linearization(), fill, collect)


def _top_colours(ctx: PPContext, face: Face) -> frozenset[str]:
    """The handover colours used by the white-root machinery.

    On open pairs this is the T-top of the essential face (maximal edges
    over the distinguished input are leaves there).  With dead zones over
    the distinguished input (stumps of S above it, which by admissibility
    forces T linear), caps contribute their colours too, and a fully
    removed zone collapses to the root identity of T.
    """
    l1, leaf_inputs = _root_vertex_data(ctx.s_tree)
    if not leaf_inputs:
        return frozenset()
    T = ctx.t_tree.tree
    root_identity = frozenset({T.root}) if T.leaves else frozenset()
    return _t_top(ctx, l1, face.maximal, root_identity)[1]


def _fill_white_rooted(ctx: PPContext, sh: Shuffle, sub: SubPoset, l1, leaf_inputs) -> None:
    """Fill a white-rooted shuffle; every face used is read from ``sub``."""
    tr = sh.tree.tree
    ordr = edge_order(sh.tree)
    l1_rt = pair_name(l1, ctx.t_tree.tree.root)
    top = sub.top
    hang_edges = {e for e in tr.edges if tr.leq(l1_rt, e)}
    hanging = sub.face(make_key(hang_edges, top.caps & hang_edges))
    over = [f for f in sub.downset(hanging) if f.root == l1_rt]

    def grafted(rp: Face) -> Face:
        edges = {tr.root} | {
            pair_name(l, t) for l in leaf_inputs for t in ctx.t_tree.tree.edges
        } | rp.edges
        return sub.face(make_key(edges, (top.caps & (edges - rp.edges)) | rp.caps))

    # first sweep: contractions of the distinguished root input
    for rp in over:
        if rp.rank == 0:
            continue
        whole = grafted(rp)
        contraction = sub.face_map(whole, INNER, l1_rt)
        if contraction is None:
            raise FaceError(f"{whole!r} has no elementary face inner({l1_rt})")
        contracted = contraction.domain
        tc = _top_colours(ctx, contracted)
        local = ctx.local_base(sub, contracted)
        es = white_root_extension_set(contracted, tc, local, ctx)
        ctx.run_filtration(es, ordr)

    # second sweep: one bottom horn per missing hanging face, then fill
    for rp in over:
        whole = grafted(rp)
        if whole.key in ctx.current:
            continue
        tc = _top_colours(ctx, whole)
        if rp.key not in ctx.current:
            corolla_leaves = {pair_name(l, x) for l in leaf_inputs for x in tc}
            capped = sub.face(make_key({tr.root} | corolla_leaves | rp.edges, rp.caps))
            ctx.steps.append(
                Step(capped.key, BOTTOM, l1_rt, (ctx.next_phase(), rp.rank, 0))
            )
            ctx.add_downset(sub, capped)
        local = ctx.local_base(sub, whole)
        es = white_root_extension_set(whole, tc, local, ctx)
        ctx.run_filtration(es, ordr)


def certify_pp_inner(
    s_tree: PlanarTree, e: str, t_tree: PlanarTree, collect: list | None = None
) -> Certificate:
    """Certificate that the inner horn of S at ``e`` tensored against T
    fills in, using only inner horns (left percolation order)."""
    require_admissible(s_tree, t_tree)
    S = s_tree.tree
    if e not in S.inner_edges:
        raise InadmissiblePairError(f"{e!r} is not an inner edge of S")
    ctx = PPContext(s_tree, t_tree, (INNER, e))
    below = S.parent[e]

    def fill(sh: Shuffle, sub: SubPoset) -> None:
        sites = {(e, x) for x in _white_vertex_sites(sh, below)}
        local = ctx.local_base(sub, sub.top)
        members = [ef for ef in missing_inner_covers(sub, local) if split_name(ef.at) in sites]
        ctx.run_filtration(ExtensionSet(sh.tree.tree, local, members), edge_order(sh.tree))

    return _sweep(ctx, ctx.tensor.poset.linearization(reverse=True), fill, collect)
