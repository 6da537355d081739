"""The percolation enumeration against the brute-force shuffle generator.

For a pair (S, T), ``enumerate_shuffles`` closes the initial shuffle under
percolation steps; ``brute_force_shuffles`` expands one coordinate at every
edge in every possible way.  They must find the same shuffles, every
shuffle must satisfy the defining conditions, and the linearization must
extend the cover relation.  The property test draws random planar pairs
with at most two vertices a side, arity at most two and stumps; the opt-in
sweep (``pytest -m sweep``) runs every pair of
``tree_catalog(3, 3) x tree_catalog(2, 3)``.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendro.shuffles import brute_force_shuffles, enumerate_shuffles, satisfies_shuffle_conditions
from dendro.trees import parse_tree, render_tree, tree_catalog

MAX_VERTICES = 2
MAX_ARITY = 2


def planar_trees(prefix: str):
    """Random trees in the DSL with edges ``<prefix>0``, ...: each edge is a
    leaf or carries a vertex with 0 (a stump) to ``MAX_ARITY`` inputs, at
    most ``MAX_VERTICES`` in all."""

    @st.composite
    def draw_tree(draw):
        names = (f"{prefix}{i}" for i in itertools.count())
        budget = [draw(st.integers(0, MAX_VERTICES))]

        def edge() -> str:
            name = next(names)
            if not budget[0] or not draw(st.booleans()):
                return name
            budget[0] -= 1
            inputs = [edge() for _ in range(draw(st.integers(0, MAX_ARITY)))]
            return f"{name}[{' '.join(inputs)}]"

        return parse_tree(edge())

    return draw_tree()


def _check(S, T) -> int:
    """The number of shuffles of (S, T), after the three checks."""
    poset = enumerate_shuffles(S, T)
    slow = brute_force_shuffles(S, T)
    pair = (render_tree(S), render_tree(T))
    assert sorted(sh.key for sh in poset) == [sh.key for sh in slow], pair
    for sh in poset:
        assert satisfies_shuffle_conditions(sh), (pair, sh.key)
    for a, b in poset.covers:
        assert a < b, (pair, a, b)
    return len(poset)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(planar_trees("s"), planar_trees("t"))
def test_percolation_is_brute_force(S, T):
    _check(S, T)


def _catalog(vertices: int, prefix: str) -> list:
    """``tree_catalog(vertices, 3)`` with the edges renamed ``<prefix>0``, ..."""
    return [parse_tree(render_tree(pt).replace("e", prefix)) for pt in tree_catalog(vertices, 3)]


@pytest.mark.sweep
def test_percolation_is_brute_force_on_catalog_pairs():
    counts = [_check(S, T) for S in _catalog(3, "s") for T in _catalog(2, "t")]
    assert len(counts) == 73 * 17
    assert max(counts) == 14
