"""The initial and terminal shuffles are the ends of the percolation order.

The initial shuffle grafts one copy of S on each leaf of T; the terminal
one grafts one copy of T on each leaf of S.  For every pair of small
trees, stumps on either side included, each must be a shuffle, be found
by the brute-force generator, and be the first or last shuffle of the
linearization with the same planar structure.
"""

import pytest

from dendro.reference import satisfies_shuffle_conditions
from dendro.shuffles import (
    brute_force_shuffles,
    enumerate_shuffles,
    initial_shuffle,
    terminal_shuffle,
)
from dendro.trees import render_tree, tree_catalog

CATALOG = list(tree_catalog(2, 2))
PAIRS = [(s, t) for s in CATALOG for t in CATALOG]


@pytest.mark.parametrize(
    "s_tree, t_tree", PAIRS, ids=[f"{render_tree(s)} x {render_tree(t)}" for s, t in PAIRS]
)
def test_end_shuffles_are_the_ends_of_the_linearization(s_tree, t_tree):
    order = enumerate_shuffles(s_tree, t_tree).linearization()
    found = {sh.key: sh for sh in brute_force_shuffles(s_tree, t_tree)}
    ends = [
        (initial_shuffle(s_tree, t_tree), order[0]),
        (terminal_shuffle(s_tree, t_tree), order[-1]),
    ]
    for end, want in ends:
        assert end.key == want.key
        assert end.tree.input_order == want.tree.input_order
        assert end == want
        assert satisfies_shuffle_conditions(end)
        assert found.get(end.key) == end
