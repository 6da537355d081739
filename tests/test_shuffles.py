import math

from dendro.reference import satisfies_shuffle_conditions
from dendro.shuffles import (
    BLACK,
    WHITE,
    brute_force_shuffles,
    enumerate_shuffles,
    initial_shuffle,
    pair_name,
    percolation_successors,
    terminal_shuffle,
)
from dendro.trees import parse_tree, render_tree, tree_catalog

WORKED_S = "0[1[4 5] 2 3]"
WORKED_T = "a[b[] c[d[]]]"

# a known shuffle of the worked pair above
WORKED_SHUFFLE_EDGES = {
    (0, "a"), (1, "a"), (2, "a"), (3, "a"),
    (1, "b"), (1, "c"), (2, "b"), (2, "c"), (3, "b"), (3, "c"),
    (4, "b"), (5, "b"), (1, "d"), (2, "d"), (3, "d"), (4, "d"), (5, "d"),
}


def linear(n):
    # L_n as a chain x0[x1[...]]
    text = "".join(f"x{i}[" for i in range(n)) + f"x{n}" + "]" * n
    return parse_tree(text)


class TestInitial:
    def test_unit_s_gives_t_relabelled(self):
        S, T = parse_tree("u"), parse_tree("a[b c[]]")
        sh = initial_shuffle(S, T)
        assert set(sh.key) == {pair_name("u", t) for t in T.tree.edges}
        assert sh.tree.tree.leaves == {pair_name("u", "b")}

    def test_leafless_t(self):
        S, T = parse_tree(WORKED_S), parse_tree(WORKED_T)
        sh = initial_shuffle(S, T)
        # no leaves in T: the initial shuffle is just T coloured by the root of S
        assert set(sh.key) == {pair_name("0", t) for t in T.tree.edges}

    def test_terminal_is_maximal(self):
        S, T = parse_tree("s0[s1]"), parse_tree("t0[t1]")
        poset = enumerate_shuffles(S, T)
        assert poset.shuffles[0].key == initial_shuffle(S, T).key
        assert poset.shuffles[-1].key == terminal_shuffle(S, T).key


class TestPercolation:
    def test_corolla_step(self):
        # a binary corolla over a ternary one: the first percolation moves
        # the whites below the black
        S, T = parse_tree("s[s1 s2]"), parse_tree("t[t1 t2 t3]")
        sh = initial_shuffle(S, T)
        succ = percolation_successors(sh)
        assert len(succ) == 1
        got = set(succ[0].key)
        want = {pair_name("s", "t")}
        want |= {pair_name(x, "t") for x in ("s1", "s2")}
        want |= {pair_name(x, t) for x in ("s1", "s2") for t in ("t1", "t2", "t3")}
        assert got == want

    def test_stump_absorption(self):
        # S a corolla with no inputs: its white stumps absorb the black vertex
        S, T = parse_tree("s[]"), parse_tree("t[t1 t2]")
        sh = initial_shuffle(S, T)
        succ = percolation_successors(sh)
        assert len(succ) == 1
        assert set(succ[0].key) == {pair_name("s", "t")}

    def test_black_stump_to_white_stump(self):
        S, T = parse_tree("s[]"), parse_tree("t[]")
        poset = enumerate_shuffles(S, T)
        # both readings of the lone capped edge have the same edge set
        assert len(poset) == 1

    def test_maximal_has_no_successors(self):
        S, T = parse_tree("s0[s1]"), parse_tree("t0[t1]")
        assert percolation_successors(terminal_shuffle(S, T)) == []


class TestEnumerate:
    def test_two_linear_ones(self):
        poset = enumerate_shuffles(linear(1), parse_tree("a[b]"))
        assert len(poset) == 2

    def test_binomial_counts(self):
        for m in range(0, 5):
            for n in range(0, 8 - m):
                S = linear(m)
                T = parse_tree(
                    "".join(f"y{i}[" for i in range(n)) + f"y{n}" + "]" * n
                )
                poset = enumerate_shuffles(S, T)
                assert len(poset) == math.comb(m + n, n), (m, n)
                assert len(brute_force_shuffles(S, T)) == math.comb(m + n, n)

    def test_worked_shuffle_is_found(self):
        S, T = parse_tree(WORKED_S), parse_tree(WORKED_T)
        poset = enumerate_shuffles(S, T)
        key = tuple(sorted(pair_name(str(s), t) for s, t in WORKED_SHUFFLE_EDGES))
        assert key in {sh.key for sh in poset}

    def test_linearization_extends_covers(self):
        S, T = parse_tree("r[x y]"), parse_tree("a[b]")
        poset = enumerate_shuffles(S, T)
        for a, b in poset.covers:
            assert a < b

    def test_generators_agree_on_catalog_pairs(self):
        pairs = list(tree_catalog(2, 3))
        for S in pairs:
            for T in pairs:
                fast = enumerate_shuffles(S, T)
                slow = brute_force_shuffles(S, T)
                assert sorted(poset_keys(fast)) == [sh.key for sh in slow], (
                    render_tree(S),
                    render_tree(T),
                )

    def test_all_generated_satisfy_conditions(self):
        pairs = [parse_tree(x) for x in ("a[b c[]]", "a[b[c]]", "a[x y]")]
        for S in pairs:
            for T in pairs:
                for sh in enumerate_shuffles(S, T):
                    assert satisfies_shuffle_conditions(sh)

    def test_covers_are_single_steps(self):
        S, T = parse_tree("s[s1 s2]"), parse_tree("t[t1[t2]]")
        poset = enumerate_shuffles(S, T)
        for a, b in poset.covers:
            succ_keys = {s.key for s in percolation_successors(poset.shuffles[a])}
            assert poset.shuffles[b].key in succ_keys

    def test_left_poset_is_reverse(self):
        S, T = parse_tree("s[s1 s2]"), parse_tree("t[t1]")
        poset = enumerate_shuffles(S, T)
        assert [sh.key for sh in poset.linearization(reverse=True)] == list(
            reversed([sh.key for sh in poset.linearization()])
        )


def poset_keys(poset):
    return [sh.key for sh in poset]


class TestColours:
    def test_initial_colours(self):
        S, T = parse_tree("s[s1 s2]"), parse_tree("t[t1]")
        sh = initial_shuffle(S, T)
        assert sh.vertex_colour(pair_name("s", "t")) == BLACK
        assert sh.vertex_colour(pair_name("s", "t1")) == WHITE

    def test_cap_colours(self):
        S, T = parse_tree("s0[s1]"), parse_tree("a[b[] c]")
        sh = initial_shuffle(S, T)
        # (s0, b) is capped by the stump of T at b: black
        assert sh.vertex_colour(pair_name("s0", "b")) == BLACK
