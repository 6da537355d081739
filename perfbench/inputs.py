"""The benchmark's fixed inputs.  Plain data, so the parent process can read
them without importing ``dendro``."""

# x0[x1[...[x9]]]: 9 vertices, 2^10 - 1 faces, 2^9 - 9 - 1 steps
LINEAR = "".join(f"x{i}[" for i in range(9)) + "x9" + "]" * 9
LINEAR_VERTICES = 9

CATALOG = (4, 3)  # tree_catalog(max_vertices, max_arity)
CATALOG_SIZE = 357  # documented; the check recounts it independently

BIG_S = "s0[s1[s2[s3[s4]]]]"
GRID = (
    ("s0[s1]", "t0[t1]"),
    ("s0[s1 s2]", "t0[t1]"),
    ("s0[s1 s2]", "t0[t1 t2]"),
    ("s0[s1[s2]]", "t0[t1 t2]"),
    ("s0[s1 s2]", "t0[t1[t2]]"),
    ("s0[s1]", "a[b[] c]"),
)
PP_STABLE = GRID + ((BIG_S, "t0[t1 t2]"),)
PP_INNER = (
    ("s0[s1[s2]]", "s1", "t0[t1 t2]"),
    ("s0[s1[s2]]", "s1", "t0[t1]"),
    (BIG_S, "s2", "t0[t1 t2]"),
)


def segal_label(dsl: str) -> str:
    return f"segal:{dsl}"


def stable_label(s: str, t: str) -> str:
    return f"pp-stable:{s}|{t}"


def inner_label(s: str, e: str, t: str) -> str:
    return f"pp-inner:{s}|{e}|{t}"


# One input per workload for the end-to-end CLI timing (produce, then verify,
# each in a fresh interpreter), and how many times it is repeated after each
# round.  The catalog tree is the largest of tree_catalog(4, 3); its timing is
# mostly interpreter start-up, as it is for every small tree.  pp and verify
# share the big inner triple: it is a pp input whose verify rebuilds a
# 1788-face universe, and at 2 s it leaves room for three rounds in a run,
# where the big stable pair (5 s) leaves two.
CATALOG_CLI_TREE = "e0[e1[e4 e5 e6] e2[e7 e8 e9] e3[e10 e11 e12]]"
CLI = {
    "segal-linear": (["segal-cert", "--t", LINEAR], segal_label(LINEAR), 1),
    "segal-catalog": (
        ["segal-cert", "--t", CATALOG_CLI_TREE],
        segal_label(CATALOG_CLI_TREE),
        5,
    ),
    "pp": (
        ["pp-inner", "--s", BIG_S, "--e", "s2", "--t", "t0[t1 t2]"],
        inner_label(BIG_S, "s2", "t0[t1 t2]"),
        1,
    ),
    "verify": (
        ["pp-inner", "--s", BIG_S, "--e", "s2", "--t", "t0[t1 t2]"],
        inner_label(BIG_S, "s2", "t0[t1 t2]"),
        1,
    ),
}
