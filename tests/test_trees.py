import itertools
import random

import pytest

from dendro import trees
from dendro.trees import (
    Operation,
    Tree,
    TreeError,
    TreeParseError,
    classify,
    graft,
    is_operation,
    operation_vertices,
    parse_tree,
    render_tree,
    tree,
    tree_catalog,
    unit_tree,
)

# The running example: stump above c, top vertex {a,b} above e,
# bottom vertex {c,d,e,f} above the root r.
EXAMPLE = "r[c[] d e[a b] f]"


class TestParse:
    def test_unit_tree(self):
        t = tree("r")
        assert t.edges == {"r"}
        assert t.leaves == {"r"}
        assert t.root == "r"

    def test_example_tree(self):
        t = tree(EXAMPLE)
        assert t.leaves == {"a", "b", "d", "f"}
        assert t.stump_outputs == {"c"}
        assert t.vertex("c") == frozenset()
        assert t.vertex("e") == {"a", "b"}
        assert t.vertex("r") == {"c", "d", "e", "f"}

    def test_corolla(self):
        t = tree("r[x y]")
        assert t.leaves == {"x", "y"}
        assert t.num_vertices() == 1

    def test_round_trip_planar(self):
        for text in (EXAMPLE, "r", "a[b[c]]", "x[y[] z]"):
            pt = parse_tree(text)
            assert render_tree(parse_tree(render_tree(pt))) == render_tree(pt)

    def test_canonical_render_idempotent(self):
        t = tree("r[f e[b a] d c[]]")
        once = render_tree(t)
        assert render_tree(tree(once)) == once

    def test_syntax_error_position(self):
        with pytest.raises(TreeParseError) as exc:
            parse_tree("r[a !]")
        assert exc.value.position == 4

    def test_duplicate_name(self):
        with pytest.raises(TreeParseError):
            parse_tree("r[a a]")

    def test_empty_input(self):
        with pytest.raises(TreeParseError):
            parse_tree("   ")

    def test_unclosed_bracket(self):
        with pytest.raises(TreeParseError):
            parse_tree("r[a")


class TestTreeStructure:
    def test_heights(self):
        t = tree(EXAMPLE)
        assert t.height("r") == 1
        assert t.height("c") == 2
        assert t.height("a") == 3

    def test_leq(self):
        t = tree(EXAMPLE)
        assert t.leq("r", "a")
        assert t.leq("e", "b")
        assert not t.leq("a", "b")
        assert not t.leq("e", "d")

    def test_invalid_two_roots(self):
        with pytest.raises(TreeError):
            Tree(["a", "b"], {}, ["a", "b"])

    def test_non_maximal_leaf_rejected(self):
        with pytest.raises(TreeError):
            Tree(["a", "b"], {"b": "a"}, ["a", "b"])


class TestGraft:
    def test_graft_on_unit_tree(self):
        t = tree("a[b c]")
        assert graft(unit_tree("a"), [t]) == t

    def test_graft_forced(self):
        assert graft(tree("a[b]"), [tree("b[c d]")]) == tree("a[b[c d]]")

    def test_graft_two_crowns(self):
        got = graft(tree("a[b c]"), [tree("b[x]"), tree("c[y]")])
        assert got == tree("a[b[x] c[y]]")

    def test_leaf_count_additive(self):
        base = parse_tree("a[b c]")
        crowns = [tree("b[x y]"), tree("c[z]")]
        got = graft(base, crowns)
        assert len(got.leaves) == sum(len(c.leaves) for c in crowns)

    def test_root_mismatch(self):
        with pytest.raises(TreeError):
            graft(tree("a[b]"), [tree("c[d]")])

    def test_name_collision(self):
        with pytest.raises(TreeError):
            graft(tree("a[b]"), [tree("b[a]")])


class TestIsOperation:
    def test_identity_everywhere(self):
        for pt in tree_catalog(3, 3):
            t = pt.tree
            for e in t.edges:
                assert is_operation(t, Operation.of([e], e))

    def test_leaf_condition_fails(self):
        t = tree("r[x y]")
        assert not is_operation(t, Operation.of(["x"], "r"))

    def test_stump_clause(self):
        t = tree(EXAMPLE)
        assert is_operation(t, Operation.of(["a", "b", "d", "f"], "r"))
        assert is_operation(t, Operation.of(["c", "d", "e", "f"], "r"))
        assert not is_operation(t, Operation.of(["c", "d", "e"], "r"))

    def test_input_below_stump_at_most_one(self):
        t = tree("r[c[] d]")
        assert is_operation(t, Operation.of(["d"], "r"))
        assert is_operation(t, Operation.of(["c", "d"], "r"))
        # two inputs on the branch below one stump output are rejected
        assert not is_operation(t, Operation.of(["r", "c", "d"], "r"))

    def test_edge_errors(self):
        t = tree("r[x]")
        with pytest.raises(TreeError):
            is_operation(t, Operation.of(["zz"], "r"))
        with pytest.raises(TreeError):
            is_operation(t, Operation.of(["r"], "x"))

    def test_composition_closure(self):
        # substituting an operation into an input slot of another stays an
        # operation; exercised at random over the catalog
        rng = random.Random(7)
        for pt in itertools.islice(tree_catalog(4, 3), 0, None, 7):
            t = pt.tree
            outputs = [e for e in t.edges if e not in t.leaves]
            if not outputs:
                continue
            for _ in range(5):
                o = rng.choice(outputs)
                op = Operation(t.vertex(o), o)
                assert is_operation(t, op)
                inner = [i for i in op.inputs if i not in t.leaves]
                if not inner:
                    continue
                i = rng.choice(inner)
                composed = Operation((op.inputs - {i}) | t.vertex(i), o)
                assert is_operation(t, composed)

    def test_inputs_are_a_set(self):
        op1 = Operation.of(["a", "b"], "r")
        op2 = Operation.of(["b", "a"], "r")
        assert op1 == op2


class TestOperationVertices:
    def test_leaf_operation_gives_top_vertices(self):
        t = tree("a[b[x y] c]")
        got = operation_vertices(t, Operation(t.leaves, t.root))
        assert got == {"b"}
        t2 = tree("a[b[x] c[y]]")
        got2 = operation_vertices(t2, Operation(t2.leaves, t2.root))
        assert got2 == {"b", "c"}

    def test_identity_operation_restricted_to_subtree(self):
        t = tree(EXAMPLE)
        assert operation_vertices(t, Operation.of(["e"], "e")) == frozenset()

    def test_vertex_above_cut(self):
        t = tree(EXAMPLE)
        assert operation_vertices(t, Operation.of(["a", "b"], "e")) == {"e"}

    def test_invalid_operation_rejected(self):
        t = tree("r[x y]")
        with pytest.raises(TreeError):
            operation_vertices(t, Operation.of(["x"], "r"))


def reference_shapes_exact(v, max_arity, cache):
    """The catalog's shapes as they were first enumerated: every multiset of
    smaller shapes, kept when its vertex counts sum to ``v - 1``."""
    if v in cache:
        return cache[v]
    if v == 0:
        cache[0] = [None]
        return cache[0]
    pool = []
    for w in range(v):
        pool.extend(reference_shapes_exact(w, max_arity, cache))

    def vertices(shape):
        return 0 if shape is None else 1 + sum(vertices(c) for c in shape)

    found = set()
    for k in range(0, max_arity + 1):
        for combo in itertools.combinations_with_replacement(pool, k):
            if sum(vertices(c) for c in combo) == v - 1:
                found.add(tuple(sorted(combo, key=trees._shape_key)))
    cache[v] = sorted(found, key=trees._shape_key)
    return cache[v]


class TestCatalog:
    @pytest.mark.parametrize("max_v, max_a", [(4, 3), (3, 4), (5, 2)])
    def test_same_trees_in_the_same_order_as_reference(self, max_v, max_a):
        cache = {}
        want = [
            render_tree(trees._shape_to_tree(shape))
            for v in range(max_v + 1)
            for shape in reference_shapes_exact(v, max_a, cache)
        ]
        assert [render_tree(pt) for pt in tree_catalog(max_v, max_a)] == want

    def test_five_vertices_arity_three(self):
        assert sum(1 for _ in tree_catalog(5, 3)) == 1933

    def test_zero_vertices(self):
        got = list(tree_catalog(0, 5))
        assert len(got) == 1
        assert got[0].tree.num_vertices() == 0

    def test_one_vertex_arity_two(self):
        got = [render_tree(pt) for pt in tree_catalog(1, 2)]
        assert got == ["e0", "e0[]", "e0[e1]", "e0[e1 e2]"]

    def test_counts_match_independent_counter(self):
        # independent oracle: count classes by generating all ordered trees
        # and quotienting by sibling permutation
        def ordered_trees(v, arity):
            if v == 0:
                return [None]
            out = []
            for k in range(arity + 1):
                for split in itertools.product(range(v), repeat=k):
                    if sum(split) != v - 1:
                        continue
                    for kids in itertools.product(
                        *(ordered_trees(w, arity) for w in split)
                    ):
                        out.append(tuple(kids))
            return out

        def canon(s):
            if s is None:
                return "L"
            return "(" + ",".join(sorted(canon(c) for c in s)) + ")"

        for max_v, max_a in [(2, 2), (2, 3), (3, 2)]:
            expected = len(
                {
                    canon(s)
                    for v in range(max_v + 1)
                    for s in ordered_trees(v, max_a)
                }
            )
            got = sum(1 for _ in tree_catalog(max_v, max_a))
            assert got == expected

    def test_all_distinct_and_within_bounds(self):
        seen = set()
        for pt in tree_catalog(3, 3):
            t = pt.tree
            assert t.num_vertices() <= 3
            for e in t.edges - t.leaves:
                assert len(t.vertex(e)) <= 3
            key = render_tree(t)
            assert key not in seen
            seen.add(key)


class TestClassify:
    def test_unit(self):
        info = classify(tree("e"))
        assert info.is_open and info.is_linear and not info.is_corolla
        assert info.inner_edges == frozenset()

    def test_example(self):
        info = classify(tree(EXAMPLE))
        assert not info.is_open
        # stump outputs are inner edges: both c and e here
        assert info.inner_edges == {"c", "e"}

    def test_linear(self):
        info = classify(tree("a[b[c]]"))
        assert info.is_linear
        assert info.inner_edges == {"b"}

    def test_corolla_with_no_inputs(self):
        info = classify(tree("a[]"))
        assert info.is_corolla and not info.is_open
