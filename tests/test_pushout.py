import pytest

from dendro.anodyne import check_axioms
from dendro.certify import replay_certificate
from dendro.complexes import TensorAmbient, full_complex
from dendro.faces import Face, FaceError, enumerate_sub, full_face, make_key, valid_face_key
from dendro.pushout import (
    InadmissiblePairError,
    PPContext,
    black_root_extension_set,
    certify_pp_inner,
    certify_pp_stable,
    essential_data,
    white_root_extension_set,
)
from dendro.order import EdgeOrder
from dendro.shuffles import BLACK, WHITE, enumerate_shuffles, pair_name
from dendro.trees import PlanarTree, parse_tree

WORKED_S = "0[1[4 5] 2 3]"
WORKED_T = "a[b[] c[d[]]]"

SHUFFLE2_EDGES = [
    ("0", "a"), ("1", "a"), ("2", "a"), ("3", "a"), ("4", "a"), ("5", "a"),
    ("4", "b"), ("4", "c"), ("4", "d"), ("5", "b"), ("5", "c"), ("5", "d"),
    ("2", "b"), ("2", "c"), ("2", "d"), ("3", "b"), ("3", "c"), ("3", "d"),
]

ESSENTIAL_EDGES = [
    ("0", "a"), ("1", "a"), ("2", "a"), ("3", "a"), ("4", "a"), ("5", "a"),
    ("4", "b"), ("4", "c"), ("5", "d"),
    ("2", "b"), ("2", "c"), ("2", "d"), ("3", "b"), ("3", "c"), ("3", "d"),
]
# caps: the full copies over the leaf inputs end in dead T-colours
ESSENTIAL_CAPS = [("2", "b"), ("2", "d"), ("3", "b"), ("3", "d")]


def names(pairs):
    return {pair_name(s, t) for s, t in pairs}


class TestEssentialData:
    def test_worked_essential_face(self):
        S, T = parse_tree(WORKED_S), parse_tree(WORKED_T)
        poset = enumerate_shuffles(S, T)
        key = tuple(sorted(names(SHUFFLE2_EDGES)))
        assert key in poset.index
        sh = poset.shuffles[poset.index[key]]
        assert sh.vertex_colour(sh.tree.tree.root) == WHITE
        face = Face(sh.tree.tree, names(ESSENTIAL_EDGES), names(ESSENTIAL_CAPS))
        # Sub of this shuffle is huge; the invariant predicate suffices
        assert valid_face_key(sh.tree.tree, face.edges, face.caps)
        data = essential_data(sh, face)
        assert data.covered == {"b", "c", "d"}
        assert data.top == {"b", "d"}

    def test_whole_shuffle_covers_t_leaves(self):
        S, T = parse_tree("s0[s1 s2]"), parse_tree("t0[t1 t2]")
        poset = enumerate_shuffles(S, T)
        for sh in poset:
            tr = sh.tree.tree
            if sh.vertex_colour(tr.root) != WHITE:
                continue
            data = essential_data(sh, full_face(tr))
            assert data.covered == T.tree.leaves

    def test_non_essential_rejected(self):
        S, T = parse_tree("s0[s1 s2]"), parse_tree("t0[t1]")
        poset = enumerate_shuffles(S, T)
        sh = next(
            s for s in poset if s.vertex_colour(s.tree.tree.root) == WHITE
        )
        bad = Face(sh.tree.tree, {sh.tree.tree.root})
        with pytest.raises(FaceError, match="not essential"):
            essential_data(sh, bad)


def restricted_order(ordr: EdgeOrder, face: Face) -> EdgeOrder:
    """The planar order ``ordr`` restricted to the edges of ``face``."""
    planar = PlanarTree(
        face.as_tree(),
        {
            e: tuple(sorted(face.children[e], key=ordr.rank.__getitem__))
            for e in face.edges
            if face.children[e] or e in face.caps
        },
    )
    rank = {e: ordr.rank[e] for e in face.edges}
    return EdgeOrder(planar, rank)


class TestBaseComplex:
    @staticmethod
    def oracle(ctx):
        """Direct product-of-complexes enumeration of the base: union over
        pairs of factor faces with the first in the horn or the second
        proper, of all faces of all shuffles of the pair of faces."""
        from dendro.order import edge_order

        S, T = ctx.s_tree, ctx.t_tree
        s_ord, t_ord = edge_order(S), edge_order(T)
        t_full = full_face(T.tree).key
        members = set()
        for sf in enumerate_sub(S.tree):
            for tf in enumerate_sub(T.tree):
                if sf.key in ctx.s_excluded and tf.key == t_full:
                    continue
                s_planar = restricted_order(s_ord, sf).tree
                t_planar = restricted_order(t_ord, tf).tree
                for sh in enumerate_shuffles(s_planar, t_planar):
                    for f in enumerate_sub(sh.tree.tree):
                        members.add(f.key)
        return members

    @pytest.mark.parametrize(
        "s,t,site",
        [
            ("s0[s1]", "t0[t1]", ("bottom", "s1")),
            ("s0[s1 s2]", "t0[t1]", ("bottom", "s1")),
            ("s0[s1]", "a[b[] c]", ("bottom", "s1")),
            ("s0[s1[s2]]", "t0[t1]", ("inner", "s1")),
        ],
    )
    def test_projection_base_matches_oracle(self, s, t, site):
        ctx = PPContext(parse_tree(s), parse_tree(t), site)
        got = set(ctx.base_complex().members)
        want = self.oracle(ctx)
        assert got == want

    def test_base_is_closed(self):
        ctx = PPContext(parse_tree("s0[s1 s2]"), parse_tree("t0[t1]"), ("bottom", "s1"))
        assert ctx.base_complex().is_closed()


class TestExtensionSets:
    def grid(self):
        pairs = [
            ("s0[s1]", "t0[t1]"),
            ("s0[s1 s2]", "t0[t1]"),
            ("s0[s1 s2]", "t0[t1 t2]"),
            ("s0[s1]", "a[b[] c]"),
        ]
        for s, t in pairs:
            yield parse_tree(s), parse_tree(t)

    def test_black_root_sets_pass_axioms(self):
        for S, T in self.grid():
            ctx = PPContext(S, T, ("bottom", sorted(S.tree.children[S.tree.root])[0]))
            ctx.current = set(ctx.base_complex().members)
            for sh in ctx.tensor.poset.linearization():
                tr = sh.tree.tree
                if sh.vertex_colour(tr.root) != BLACK:
                    ctx.current |= set(ctx.tensor.sub(sh).index)
                    continue
                es = black_root_extension_set(sh, ctx)
                report = check_axioms(es)
                assert report.ok, report.summary()
                ctx.current |= set(ctx.tensor.sub(sh).index)

    def test_black_root_rejects_white_rooted(self):
        S, T = parse_tree("s0[s1]"), parse_tree("t0[t1]")
        ctx = PPContext(S, T, ("bottom", "s1"))
        ctx.current = set(ctx.base_complex().members)
        white = next(
            sh
            for sh in ctx.tensor.poset
            if sh.vertex_colour(sh.tree.tree.root) == WHITE
        )
        with pytest.raises(Exception):
            black_root_extension_set(white, ctx)

    def test_white_root_set_on_degenerate_unary(self):
        # m = 1: the white-root set is empty and nothing is missing
        S, T = parse_tree("s0[s1]"), parse_tree("t0[t1]")
        cert = certify_pp_stable(S, T)
        assert replay_certificate(cert).accepted


class TestStable:
    CASES = [
        ("s0[s1]", "t0[t1]"),
        ("s0[s1 s2]", "t0[t1]"),
        ("s0[s1 s2]", "t0[t1 t2]"),
        ("s0[s1[s2]]", "t0[t1 t2]"),
        ("s0[s1 s2]", "t0[t1[t2]]"),
        ("s0[s1]", "a[b[] c]"),
    ]

    @pytest.mark.parametrize("s,t", CASES)
    def test_replays_and_completes(self, s, t):
        cert = certify_pp_stable(parse_tree(s), parse_tree(t))
        verdict = replay_certificate(cert)
        assert verdict.accepted, verdict.reason
        added = {st.face for st in cert.steps}
        assert added and cert.class_tag in {"stable", "covariant", "operadic"}

    def test_open_pair_has_bottom_step(self):
        cert = certify_pp_stable(parse_tree("s0[s1 s2]"), parse_tree("t0[t1]"))
        kinds = {st.omit_kind for st in cert.steps}
        assert "bottom" in kinds
        assert cert.class_tag == "stable"

    def test_unit_t_is_single_horn(self):
        cert = certify_pp_stable(parse_tree("s0[s1 s2]"), parse_tree("t"))
        assert len(cert.steps) == 1
        assert cert.steps[0].omit_kind == "bottom"

    DEAD_ZONE_CASES = [
        ("s0[s1[]]", "t0[t1]"),
        ("s0[s1[] s2]", "t0[t1]"),
        ("s0[s1[] s2]", "t0[t1[t2]]"),
        ("s0[s1[] s2]", "t"),
        ("s0[s1[] s2 s3]", "t0[t1]"),
        ("s0[s1[s4[]] s2]", "t0[t1]"),
        ("s0[s1[s4[] s5] s2]", "t0[t1]"),
    ]

    @pytest.mark.parametrize("s,t", DEAD_ZONE_CASES)
    def test_dead_zone_over_distinguished_input(self, s, t):
        # stumps of S above the distinguished input kill its leaf zone;
        # admissibility then forces T linear and the pipeline must still
        # complete
        cert = certify_pp_stable(parse_tree(s), parse_tree(t))
        verdict = replay_certificate(cert)
        assert verdict.accepted, (s, t, verdict.reason)

    def test_inadmissible_pairs(self):
        with pytest.raises(InadmissiblePairError):
            certify_pp_stable(parse_tree("s0[s1[x] s2[y]]"), parse_tree("t0[t1]"))
        with pytest.raises(InadmissiblePairError):
            certify_pp_stable(parse_tree("s0[]"), parse_tree("t0[t1]"))
        with pytest.raises(InadmissiblePairError):
            # S has a stump and is not linear; T is not linear either
            certify_pp_stable(parse_tree("s0[s1[] s2]"), parse_tree("t0[t1 t2]"))


class TestInvariants:
    def test_branch_cover_for_essential_faces(self):
        # every branch from a leaf of the shuffle to its root meets an edge
        # whose T-colour belongs to the covering set; quantified over the
        # essential faces obtained by face maps over the distinguished
        # input, where the cover property holds
        S, T = parse_tree("s0[s1 s2]"), parse_tree("t0[t1 t2]")
        ctx = PPContext(S, T, ("bottom", "s1"))
        for sh in ctx.tensor.poset:
            tr = sh.tree.tree
            if sh.vertex_colour(tr.root) != WHITE:
                continue
            fixed = {e for e in tr.edges if not tr.leq(pair_name("s1", "t0"), e)}
            for face in ctx.tensor.sub(sh):
                if not fixed <= face.edges:
                    continue
                data = essential_data(sh, face)
                for leaf in tr.leaves:
                    branch = tr.branch(leaf)
                    assert any(e.split(",")[1] in data.covered for e in branch)

    def test_black_root_witness_nonempty(self):
        # every missing face of a black-rooted shuffle carries an edge
        # (l_j, x) witnessing a usable white-vertex colour
        S, T = parse_tree("s0[s1 s2]"), parse_tree("t0[t1]")
        ctx = PPContext(S, T, ("bottom", "s1"))
        ctx.current = set(ctx.base_complex().members)
        sh = ctx.tensor.poset.shuffles[0]
        assert sh.vertex_colour(sh.tree.tree.root) == BLACK
        es = black_root_extension_set(sh, ctx)
        whites = {
            t
            for e in sh.tree.tree.edges
            if e.split(",")[0] == "s0" and e not in sh.tree.tree.leaves
            for t in [e.split(",")[1]]
            if set(sh.tree.tree.children[e])
            == {pair_name(x, t) for x in ("s1", "s2")}
        }
        for p in es.missing:
            witnesses = {
                x
                for x in whites
                if pair_name("s1", x) in p.edges or pair_name("s2", x) in p.edges
            }
            assert witnesses

    def test_worked_capped_graft_shape(self):
        # the illustrated capped face: the hanging subtree grafted on the
        # bottom corolla whose other leaves pair the leaf inputs with the
        # T-top colours
        S, T = parse_tree(WORKED_S), parse_tree(WORKED_T)
        poset = enumerate_shuffles(S, T)
        key = tuple(sorted(names(SHUFFLE2_EDGES)))
        sh = poset.shuffles[poset.index[key]]
        hanging = names(
            [("1", "a"), ("4", "a"), ("5", "a"), ("4", "b"), ("4", "c"), ("5", "d")]
        )
        top = {"b", "d"}
        corolla_leaves = {pair_name(l, x) for l in ("2", "3") for x in top}
        edges = {"0,a"} | corolla_leaves | hanging
        assert valid_face_key(sh.tree.tree, edges, set())

    def test_bottom_steps_only_from_horn_phases(self):
        cert = certify_pp_stable(parse_tree("s0[s1 s2]"), parse_tree("t0[t1]"))
        for st in cert.steps:
            assert (st.omit_kind == "bottom") == (st.batch[2] == 0)

    def test_no_step_face_added_twice(self):
        cert = certify_pp_stable(parse_tree("s0[s1 s2]"), parse_tree("t0[t1 t2]"))
        faces = [st.face for st in cert.steps]
        assert len(faces) == len(set(faces))


class TestInner:
    def test_linear_times_corolla(self):
        cert = certify_pp_inner(parse_tree("s0[s1[s2]]"), "s1", parse_tree("t0[t1 t2]"))
        assert cert.class_tag == "operadic"
        assert {st.omit_kind for st in cert.steps} == {"inner"}
        assert replay_certificate(cert).accepted

    def test_linear_times_linear_stays_linear(self):
        cert = certify_pp_inner(parse_tree("s0[s1[s2]]"), "s1", parse_tree("t0[t1]"))
        assert cert.class_tag == "operadic"
        universe = cert.ambient.universe
        for st in cert.steps:
            face = universe[st.face]
            assert all(len(face.children[e]) <= 1 for e in face.edges)

    def test_non_inner_edge_rejected(self):
        with pytest.raises(InadmissiblePairError):
            certify_pp_inner(parse_tree("s0[s1[s2]]"), "s2", parse_tree("t0[t1]"))
        with pytest.raises(InadmissiblePairError):
            certify_pp_inner(parse_tree("s0[s1[s2]]"), "s0", parse_tree("t0[t1]"))
