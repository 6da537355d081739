"""The producers refuse what the verifier refuses.

``complexes`` holds the one size rule: at most ``MAX_FACES`` faces in an
ambient tree or in a tensor's shuffle trees, and at most
``MAX_TENSOR_VERTICES`` vertices in a tensor's two trees.  The loader
refuses with ``MalformedCertificateError`` (exit 2); ``segal_certificate``,
``certify_pp_stable`` and ``certify_pp_inner`` refuse with
``AmbientTooLargeError``, a ``FaceError`` (exit 3), before they build any
face poset.  A tensor is refused before its shuffles are enumerated when a
lower bound on their faces, computed from S and T alone, is over the bound.
"""

import importlib.util
import time
from pathlib import Path

import pytest

from dendro import complexes, faces
from dendro.cli import run
from dendro.complexes import (
    MAX_FACES,
    MAX_TENSOR_VERTICES,
    AmbientTooLargeError,
    MalformedCertificateError,
    ambient_from_json,
    bounded_tensor,
    bounded_tree,
    tensor_face_floor,
)
from dendro.faces import count_faces
from dendro.pushout import certify_pp_inner, certify_pp_stable
from dendro.shuffles import enumerate_shuffles
from dendro.trees import parse_tree, render_tree, tree_catalog

_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"

OVER = ("e0[e1 e2 e3[e4 e5 e6]]", "e0[e1[e2]]")  # 42,130 faces in its shuffle trees
GRID = [
    ("s0[s1]", "t0[t1]"),
    ("s0[s1 s2]", "t0[t1]"),
    ("s0[s1 s2]", "t0[t1 t2]"),
    ("s0[s1[s2]]", "t0[t1 t2]"),
    ("s0[s1 s2]", "t0[t1[t2]]"),
    ("s0[s1]", "a[b[] c]"),
    ("s0[s1[s2[s3[s4]]]]", "t0[t1 t2]"),
]
STUMPS = ["r[]", "r[a[]]", "r[a[] b[]]", "r[a[b[]]]", "r[a[] b[] c[]]"]


def linear(prefix: str, vertices: int) -> str:
    inner = "".join(f"{prefix}{i}[" for i in range(vertices))
    return inner + f"{prefix}{vertices}" + "]" * vertices


def corolla(root: str, leaf: str, leaves: int) -> str:
    return f"{root}[" + " ".join(f"{leaf}{i}" for i in range(leaves)) + "]"


@pytest.fixture
def cold(monkeypatch):
    """An empty memo; counts ``SubPoset`` builds and shuffle enumerations."""
    calls = {"sub": 0, "shuffles": 0}
    init, shuffles = faces.SubPoset.__init__, complexes.enumerate_shuffles

    def counted_init(poset, ambient):
        calls["sub"] += 1
        init(poset, ambient)

    def counted_shuffles(s, t):
        calls["shuffles"] += 1
        return shuffles(s, t)

    monkeypatch.setattr(faces, "_sub_cache", {})
    monkeypatch.setattr(faces.SubPoset, "__init__", counted_init)
    monkeypatch.setattr(complexes, "enumerate_shuffles", counted_shuffles)
    return calls


def _cli(argv, tmp_path, capsys) -> tuple[int, str, float, Path]:
    out = tmp_path / "cert.json"
    start = time.perf_counter()
    code = run([*argv, "--out", str(out)])
    return code, capsys.readouterr().err, time.perf_counter() - start, out


def test_an_over_bound_stable_pair_exits_3_before_any_poset(tmp_path, capsys, cold):
    code, err, seconds, out = _cli(["pp-stable", "--s", OVER[0], "--t", OVER[1]], tmp_path, capsys)
    assert code == 3
    assert err == f"error: the tensor has more than {MAX_FACES} faces\n"
    assert seconds < 1
    assert cold["sub"] == 0
    assert not out.exists()


def test_an_over_bound_inner_triple_is_refused_before_any_poset(cold):
    with pytest.raises(AmbientTooLargeError, match=f"more than {MAX_FACES} faces"):
        certify_pp_inner(parse_tree(OVER[0]), "e3", parse_tree(OVER[1]))
    assert cold["sub"] == 0


def test_too_many_tensor_vertices_is_refused_before_the_shuffles(cold):
    with pytest.raises(AmbientTooLargeError, match=f"more than {MAX_TENSOR_VERTICES} vertices"):
        certify_pp_stable(parse_tree(linear("s", 5)), parse_tree(linear("t", 4)))
    assert cold == {"sub": 0, "shuffles": 0}


def test_an_over_bound_segal_tree_exits_3_before_any_poset(tmp_path, capsys, cold):
    code, err, seconds, out = _cli(["segal-cert", "--t", linear("x", 15)], tmp_path, capsys)
    assert code == 3
    assert err == f"error: the ambient tree has more than {MAX_FACES} faces\n"
    assert seconds < 1
    assert cold["sub"] == 0
    assert not out.exists()


def test_every_benchmark_input_is_within_the_bound():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", _INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    bounded_tree(parse_tree(inputs.LINEAR).tree)
    for pt in tree_catalog(*inputs.CATALOG):
        bounded_tree(pt.tree)
    for s, t in inputs.PP_STABLE:
        assert certify_pp_stable(parse_tree(s), parse_tree(t)).steps
    for s, e, t in inputs.PP_INNER:
        assert certify_pp_inner(parse_tree(s), e, parse_tree(t)).steps


# -- the face floor of a tensor --------------------------------------------


def _floor_holds(s: str, t: str) -> None:
    S, T = parse_tree(s), parse_tree(t)
    total = sum(count_faces(sh.tree.tree) for sh in enumerate_shuffles(S, T))
    assert tensor_face_floor(S.tree, T.tree) <= total, (s, t)


def _small_pairs(max_vertices: int):
    trees = list(tree_catalog(max_vertices, 3))
    return [(a, b) for a in trees for b in trees]


def test_the_face_floor_never_exceeds_the_face_sum():
    pairs = [(render_tree(a), render_tree(b)) for a, b in _small_pairs(2)]
    pairs += GRID + [(a, b) for a in STUMPS for b in STUMPS + ["e", "e[f]", "e[f g]"]]
    pairs += [(b, a) for a in STUMPS for b in ["e", "e[f]", "e[f g]"]]
    for s, t in pairs:
        _floor_holds(s, t)


@pytest.mark.sweep
def test_the_face_floor_never_exceeds_the_face_sum_on_the_larger_catalog():
    for a, b in _small_pairs(3):
        if a.tree.num_vertices() + b.tree.num_vertices() <= MAX_TENSOR_VERTICES:
            _floor_holds(render_tree(a), render_tree(b))


def test_two_181_leaf_corollas_are_refused_before_their_shuffles(cold):
    s, t = corolla("r", "a", 181), corolla("q", "b", 181)
    # the old bound, one face per pair of leaves, let this pair through
    assert 181 * 181 <= MAX_FACES < tensor_face_floor(parse_tree(s).tree, parse_tree(t).tree)
    with pytest.raises(MalformedCertificateError, match=f"more than {MAX_FACES} faces"):
        ambient_from_json({"type": "tensor", "s": s, "t": t})
    with pytest.raises(AmbientTooLargeError, match=f"more than {MAX_FACES} faces"):
        bounded_tensor(parse_tree(s), parse_tree(t))
    assert cold == {"sub": 0, "shuffles": 0}
