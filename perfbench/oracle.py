"""Reference computations the benchmark makes without the program under test.

They read the tree DSL with their own small parser and count the tree
catalog with their own recursion, so a fault the program shares between its
producer and its verifier cannot hide in them.
"""

from __future__ import annotations


def parse_dsl(text: str) -> tuple[dict[str, tuple[str, ...]], set[str]]:
    """Read ``edge := NAME ('[' edge* ']')?`` without recursion.

    Returns the ordered children of every edge that carries a vertex (an
    empty tuple for a stump) and the set of leaves.
    """
    children: dict[str, tuple[str, ...]] = {}
    leaves: set[str] = set()
    open_lists: list[tuple[str, list[str]]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "]":
            name, kids = open_lists.pop()
            children[name] = tuple(kids)
            i += 1
        else:
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i:
                raise ValueError(f"unexpected {c!r} at {i} in {text!r}")
            name = text[i:j]
            if open_lists:
                open_lists[-1][1].append(name)
            k = j
            while k < n and text[k].isspace():
                k += 1
            if k < n and text[k] == "[":
                open_lists.append((name, []))
                i = k + 1
            else:
                leaves.add(name)
                i = j
    if open_lists:
        raise ValueError(f"unclosed '[' in {text!r}")
    return children, leaves


def corolla_keys(text: str) -> set[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Face keys of the vertex corollas: ``({o} + inputs, ())`` for a vertex
    with output ``o``, and the capped unit ``({o}, {o})`` for a stump."""
    children, _ = parse_dsl(text)
    keys = set()
    for out, kids in children.items():
        if kids:
            keys.add((tuple(sorted((out, *kids))), ()))
        else:
            keys.add(((out,), (out,)))
    return keys


def vertices_and_edges(text: str) -> tuple[int, int]:
    children, leaves = parse_dsl(text)
    return len(children), len(children) + len(leaves)


def full_face_key(text: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The key of the whole tree: all edges, stumps capped."""
    children, leaves = parse_dsl(text)
    stumps = [e for e, kids in children.items() if not kids]
    return tuple(sorted(set(children) | leaves)), tuple(sorted(stumps))


def catalog_count(max_vertices: int, max_arity: int) -> int:
    """Trees with at most ``max_vertices`` vertices of arity at most
    ``max_arity``, up to permuting siblings.

    A shape is a leaf, or a vertex carrying a multiset of at most
    ``max_arity`` child shapes (the empty multiset is a stump).  Shapes get
    ids in order of creation; a multiset is a non-decreasing id sequence.
    """
    weight = [0]  # vertices of each shape; id 0 is the leaf
    total = 1
    for v in range(1, max_vertices + 1):
        pool = list(range(len(weight)))  # every shape with fewer than v vertices
        found = 0

        def extend(start: int, slots: int, need: int) -> None:
            nonlocal found
            if need == 0:
                # the remaining slots may hold leaves (id 0) only if start == 0
                found += slots + 1 if start == 0 else 1
                return
            if slots == 0:
                return
            for sid in pool[start:]:
                if weight[sid] <= need:
                    extend(sid, slots - 1, need - weight[sid])

        extend(0, max_arity, v - 1)
        weight.extend([v] * found)
        total += found
    return total
