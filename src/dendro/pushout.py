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

Every face a fill step uses is read from the shuffle's face poset, and the
sweep keeps one mask of the present faces of the shuffle being filled.  The
base, ``horn(S) (x) T  u  S (x) boundary(T)``, is computed by its
definition, from the shuffles of the elementary faces' tensors.
``PPContext`` refuses a tensor over the loader's size bound
(``complexes.bounded_tensor``) before it builds any poset.
"""

from __future__ import annotations

from .anodyne import ExtensionSet, filtration_steps
from .certify import Certificate, ReplayGuardError, Step, replay_guard
from .complexes import FaceComplex, bounded_tensor, closure
from .faces import (
    BOTTOM,
    INNER,
    TOP,
    Face,
    FaceError,
    FaceKey,
    SubPoset,
    enumerate_sub,
    make_key,
)
from .order import EdgeOrder, edge_order
from .shuffles import BLACK, Shuffle, enumerate_shuffles, pair_name, split_name
from .trees import Operation, PlanarTree, Tree, Value, classify, is_operation


class InadmissiblePairError(FaceError):
    """The tensor pair falls outside the admissible cases (one factor
    linear, or both factors open)."""


class EssentialData(Value):
    """Leaf-cover data of an essential face: the T-colours seen at leaves
    over the distinguished input, and their maximal elements (which always
    form an operation of T with the root as output)."""

    __slots__ = ("face", "covered", "top")

    def __init__(self, face: Face, covered: frozenset[str], top: frozenset[str]):
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "covered", covered)
        object.__setattr__(self, "top", top)


class PPContext:
    """Shared state of one pushout-product run.

    ``current`` is the set of keys of the faces present so far, across all
    shuffles; it is the authority.  Beside it the context keeps the mask of
    the present faces of one shuffle's poset, the one being filled: it is
    read from ``current`` when the context moves to another poset, and
    ``add_downset``, the one writer of ``current`` during a sweep, keeps
    both up to date.  ``s_excluded`` holds the keys of the faces of S
    outside the horn: the top face and the omitted one.  The tensor is
    checked against the loader's size bound before any poset.
    """

    def __init__(self, s_tree: PlanarTree, t_tree: PlanarTree, omit_site: tuple[str, str]):
        self.tensor = bounded_tensor(s_tree, t_tree)
        self.s_tree = s_tree
        self.t_tree = t_tree
        self.s_sub = enumerate_sub(s_tree.tree)
        self.t_sub = enumerate_sub(t_tree.tree)
        kind, at = omit_site
        omitted = self.s_sub.face_map(self.s_sub.top, kind, at)
        if omitted is None:
            raise FaceError(f"{self.s_sub.top!r} has no elementary face {kind}({at})")
        self.s_excluded = {self.s_sub.top.key, omitted.domain.key}
        self.current: set[FaceKey] = set()
        self.steps: list[Step] = []
        self.phase = 0
        self._sub: SubPoset | None = None  # the poset being filled
        self._present = 0  # its present faces, as a mask

    def base_complex(self) -> FaceComplex:
        """``horn(S) (x) T  u  S (x) boundary(T)``: the closure of the
        shuffles of ``A (x) T`` for each elementary face A of S but the
        omitted one, and of ``S (x) B`` for each elementary face B of T.
        A face is taken as a tree, caps becoming stumps, with its inputs in
        name order: the edge sets of the shuffles do not depend on it."""
        s_sub, t_sub = self.s_sub, self.t_sub
        pairs = [
            (_planar(ef.domain), self.t_tree)
            for ef in s_sub.faces_of(s_sub.top)
            if ef.domain.key not in self.s_excluded
        ]
        pairs += [(self.s_tree, _planar(ef.domain)) for ef in t_sub.faces_of(t_sub.top)]
        universe = self.tensor.universe
        faces = []
        for a, b in pairs:
            for sh in enumerate_shuffles(a, b):
                tr = sh.tree.tree
                faces.append(universe[make_key(tr.edges, tr.maximal_edges - tr.leaves)])
        return closure(self.tensor, faces)

    # -- per-shuffle plumbing ---------------------------------------------

    def _present_mask(self, sub: SubPoset) -> int:
        """The mask of the present faces of ``sub``, re-read from
        ``current`` only when the context moves to another poset."""
        if sub is not self._sub:
            self._present = sub.mask_of(self.current)
            self._sub = sub
        return self._present

    def local_base(self, sub: SubPoset, top: Face) -> FaceComplex:
        """The present faces in the downset view of ``top`` in ``sub``."""
        present = self._present_mask(sub) & sub.downset_mask(top)
        return FaceComplex(sub.ambient, frozenset(f.key for f in sub.faces_in(present)))

    def add_downset(self, sub: SubPoset, face: Face) -> None:
        present = self._present_mask(sub)
        down = sub.downset_mask(face)
        self.current.update(f.key for f in sub.faces_in(down & ~present))
        self._present = present | down

    def next_phase(self) -> int:
        self.phase += 1
        return self.phase - 1

    def run_filtration(self, es: ExtensionSet, ordr: EdgeOrder) -> None:
        self.steps.extend(filtration_steps(es, ordr, phase=self.next_phase()))
        self.add_downset(es.poset, es.top)


def _planar(face: Face) -> PlanarTree:
    """A face as a planar tree, caps as stumps, inputs in name order."""
    tree = face.as_tree()
    return PlanarTree(tree, tree.children)


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
    sub = ctx.tensor.sub(sh)

    def keep(ef) -> bool:
        s, x = split_name(ef.at)
        if ef.kind != INNER or s != rs or x not in xs:
            return False
        edges = ef.codomain.edges
        return any(pair_name(l, x) in edges for l in v_inputs)

    return ExtensionSet(sub, ctx.local_base(sub, sub.top), keep)


def _t_top(
    S: Tree, T: Tree, l1: str, edges: frozenset[str], empty: frozenset[str]
) -> tuple[frozenset[str], frozenset[str]]:
    """The T-colours of the given edges that lie over the distinguished
    input ``l1`` of S, and their maximal elements in T (``empty`` when there
    are none), checked to form an operation of T with the root as output."""
    covered = frozenset(split_name(e)[1] for e in edges if S.leq(l1, split_name(e)[0]))
    top = frozenset(t for t in covered if not any(x != t and T.leq(t, x) for x in covered))
    top = top or empty
    if not is_operation(T, Operation(top, T.root)):
        raise FaceError(f"T-top {sorted(top)} is not an operation of T")
    return covered, top


def essential_data(sh: Shuffle, face: Face) -> EssentialData:
    """T-covering and T-top of an essential face of a white-rooted shuffle."""
    tr = sh.tree.tree
    l1, leaf_inputs = _root_vertex_data(sh.s_tree)
    T = sh.t_tree.tree
    required = {
        pair_name(l, t)
        for l in leaf_inputs
        for t in T.edges
        if pair_name(l, t) in tr.edges
    }
    if not required <= face.edges:
        raise FaceError("face is not essential: a copy over a leaf input is incomplete")
    covered, top = _t_top(sh.s_tree.tree, T, l1, face.leaves, frozenset())
    return EssentialData(face, covered, top)


def white_root_extension_set(
    face: Face, top_colours: frozenset[str], leaf_inputs, sub: SubPoset, ctx: PPContext
) -> ExtensionSet:
    """The covariant extension set of an essential face of the shuffle
    poset ``sub``, over the present faces below it: inner faces at
    (l_j, x) for x in the T-top, and top faces over a leaf input l_j whose
    chopped vertex carries exactly the T-top colours above its output.

    The chopped vertex at output y is the unique admissible one: all
    elements of the T-top strictly above y, or the cap when there are none
    and nothing of the T-top lies below y either.
    """
    T = ctx.t_tree.tree

    def top_shape(y: str) -> frozenset[str] | None:
        over = frozenset(x for x in top_colours if x != y and T.leq(y, x))
        if over:
            return over
        if any(T.leq(x, y) for x in top_colours):
            return None
        return frozenset()

    def keep(ef) -> bool:
        s, y = split_name(ef.at)
        if s not in leaf_inputs:
            return False
        if ef.kind == INNER:
            return y in top_colours
        if ef.kind != TOP or (shape := top_shape(y)) is None:
            return False
        return ef.codomain.vertex_inputs(ef.at) == frozenset(pair_name(s, c) for c in shape)

    return ExtensionSet(sub, ctx.local_base(sub, face), keep, face)


# ---------------------------------------------------------------------------
# The pipelines
# ---------------------------------------------------------------------------


def _sweep(ctx: PPContext, shuffles: list[Shuffle], fill) -> Certificate:
    """Run one pipeline: in the given order, hand every shuffle that is not
    yet full to ``fill(sh, sub)``, which must exhaust it; then check that
    the steps reach the full tensor complex and replay the certificate."""
    base = ctx.base_complex()
    ctx.current = set(base.members)
    for sh in shuffles:
        sub = ctx.tensor.sub(sh)
        full = (1 << len(sub)) - 1
        if ctx._present_mask(sub) == full:
            continue
        fill(sh, sub)
        missing = full & ~ctx._present_mask(sub)
        if missing:
            keys = [f.key for f in sub.faces_in(missing)]
            raise ReplayGuardError(f"shuffle not exhausted: {keys[:3]}")
    if ctx.current != set(ctx.tensor.universe):
        raise ReplayGuardError("pipeline did not reach the full tensor complex")
    return replay_guard(Certificate.of(ctx.tensor, base, ctx.steps))


def certify_pp_stable(s_tree: PlanarTree, t_tree: PlanarTree) -> Certificate:
    """Certificate that the root-horn of S tensored against T fills in:
    ``horn(S) (x) T  u  S (x) boundary(T)  ->  S (x) T`` as a stable
    anodyne extension."""
    require_admissible(s_tree, t_tree)
    l1, leaf_inputs = _root_vertex_data(s_tree)
    ctx = PPContext(s_tree, t_tree, (BOTTOM, l1))

    def fill(sh: Shuffle, sub: SubPoset) -> None:
        if sh.vertex_colour(sh.tree.tree.root) == BLACK:
            ctx.run_filtration(black_root_extension_set(sh, ctx), edge_order(sh.tree))
        else:
            _fill_white_rooted(ctx, sh, sub, l1, leaf_inputs)

    return _sweep(ctx, ctx.tensor.poset.linearization(), fill)


def _fill_white_rooted(ctx: PPContext, sh: Shuffle, sub: SubPoset, l1, leaf_inputs) -> None:
    """Fill a white-rooted shuffle; every face used is read from ``sub``.

    Each face is filled by its handover colours.  On open pairs these are
    the T-top of the essential face (maximal edges over the distinguished
    input are leaves there).  With dead zones over the distinguished input
    (stumps of S above it, which by admissibility forces T linear), caps
    contribute their colours too, and a fully removed zone collapses to the
    root identity of T.
    """
    T = ctx.t_tree.tree
    tr = sh.tree.tree
    ordr = edge_order(sh.tree)
    l1_rt = pair_name(l1, T.root)
    root_identity = frozenset({T.root}) if T.leaves else frozenset()
    top_caps = sub.top.caps
    hang_edges = {e for e in tr.edges if tr.leq(l1_rt, e)}
    hanging = sub.face(make_key(hang_edges, top_caps & hang_edges))
    # each hanging face over the root input, grafted onto the root vertex
    # and the copies of T over the leaf inputs
    copies = {tr.root} | {pair_name(l, t) for l in leaf_inputs for t in T.edges}
    copy_caps = top_caps & copies
    over = [
        (rp, sub.face(make_key(copies | rp.edges, copy_caps | rp.caps)))
        for rp in sub.downset(hanging)
        if rp.root == l1_rt
    ]

    def top_colours(face: Face) -> frozenset[str]:
        if not leaf_inputs:
            return frozenset()
        return _t_top(ctx.s_tree.tree, T, l1, face.maximal, root_identity)[1]

    def fill(face: Face, tc: frozenset[str]) -> None:
        ctx.run_filtration(white_root_extension_set(face, tc, leaf_inputs, sub, ctx), ordr)

    # first sweep: contractions of the distinguished root input
    for rp, whole in over:
        if rp.rank == 0:
            continue
        contraction = sub.face_map(whole, INNER, l1_rt)
        if contraction is None:
            raise FaceError(f"{whole!r} has no elementary face inner({l1_rt})")
        fill(contraction.domain, top_colours(contraction.domain))

    # second sweep: one bottom horn per missing hanging face, then fill
    for rp, whole in over:
        if whole.key in ctx.current:
            continue
        tc = top_colours(whole)
        if rp.key not in ctx.current:
            corolla_leaves = {pair_name(l, x) for l in leaf_inputs for x in tc}
            capped = sub.face(make_key({tr.root} | corolla_leaves | rp.edges, rp.caps))
            ctx.steps.append(
                Step(capped.key, BOTTOM, l1_rt, (ctx.next_phase(), rp.rank, 0))
            )
            ctx.add_downset(sub, capped)
        fill(whole, tc)


def certify_pp_inner(s_tree: PlanarTree, e: str, t_tree: PlanarTree) -> Certificate:
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
        es = ExtensionSet(
            sub,
            ctx.local_base(sub, sub.top),
            lambda ef: ef.kind == INNER and split_name(ef.at) in sites,
        )
        ctx.run_filtration(es, edge_order(sh.tree))

    return _sweep(ctx, ctx.tensor.poset.linearization(reverse=True), fill)
