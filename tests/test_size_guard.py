"""The size guard on untrusted certificates.

``ambient_from_json`` refuses an ambient too large to check before any face
poset is built: a tree with more than ``MAX_FACES`` faces, a tensor whose
factors have more than ``MAX_TENSOR_VERTICES`` vertices together, and a
tensor whose shuffle trees have more than ``MAX_FACES`` faces in all.  The
face count comes from ``count_faces``, which must equal the size of
``Sub(T)``.  ``dendro verify`` turns a refusal into exit 2, and every ambient
the benchmark's producers make still loads.
"""

import importlib.util
import itertools
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendro import complexes, faces
from dendro.anodyne import segal_certificate
from dendro.certify import Certificate, replay_certificate
from dendro.cli import run
from dendro.complexes import (
    MAX_FACES,
    MAX_TENSOR_VERTICES,
    MalformedCertificateError,
    ambient_from_json,
)
from dendro.faces import SubPoset, count_faces
from dendro.trees import parse_tree, render_tree, tree_catalog

_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def _inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", _INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def linear(prefix: str, vertices: int) -> str:
    """``<prefix>0[<prefix>1[...[<prefix><vertices>]]]``."""
    inner = "".join(f"{prefix}{i}[" for i in range(vertices))
    return inner + f"{prefix}{vertices}" + "]" * vertices


# -- the face count ------------------------------------------------------


def test_count_faces_is_the_poset_size_on_the_catalog():
    for pt in tree_catalog(4, 3):
        assert count_faces(pt.tree) == len(SubPoset(pt.tree)), pt


@pytest.mark.parametrize(
    "text",
    ["r[]", "r[a[] b[] c[]]", "r[a[b[c[]]]]", "r[a[] b[c[] d[]] e]", "r[c[] d e[a b] f]",
     linear("x", 9)],
)
def test_count_faces_with_stumps_and_the_linear_input(text):
    tree = parse_tree(text).tree
    assert count_faces(tree) == len(SubPoset(tree))


@st.composite
def planar_trees(draw):
    """A random tree in the DSL: each edge is a leaf or carries a vertex
    with 0 (a stump) to 3 inputs, at most 6 vertices in all."""
    names = (f"e{i}" for i in itertools.count())
    budget = [draw(st.integers(0, 6))]

    def edge() -> str:
        name = next(names)
        if not budget[0] or not draw(st.booleans()):
            return name
        budget[0] -= 1
        inputs = [edge() for _ in range(draw(st.integers(0, 3)))]
        return f"{name}[{' '.join(inputs)}]"

    return parse_tree(edge())


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(planar_trees())
def test_count_faces_is_the_poset_size_on_random_trees(pt):
    assert count_faces(pt.tree) == len(SubPoset(pt.tree))


@pytest.mark.sweep
def test_count_faces_is_the_poset_size_on_the_larger_catalog():
    for pt in tree_catalog(5, 3):
        assert count_faces(pt.tree) == len(SubPoset(pt.tree)), pt


# -- the guard -----------------------------------------------------------


@pytest.fixture
def no_build(monkeypatch):
    """Count ``SubPoset`` builds and shuffle enumerations; yields the counts."""
    calls = {"sub": 0, "shuffles": 0}
    init, shuffles = faces.SubPoset.__init__, complexes.enumerate_shuffles

    def counted_init(poset, ambient):
        calls["sub"] += 1
        init(poset, ambient)

    def counted_shuffles(s, t):
        calls["shuffles"] += 1
        return shuffles(s, t)

    monkeypatch.setattr(faces.SubPoset, "__init__", counted_init)
    monkeypatch.setattr(complexes, "enumerate_shuffles", counted_shuffles)
    return calls


def _verify(tmp_path, capsys, ambient: dict) -> tuple[int, str, float]:
    data = {"ambient": ambient, "base": [], "class": "operadic", "steps": []}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code = run(["verify", str(path)])
    return code, capsys.readouterr().err, time.perf_counter() - start


def test_a_linear_tree_of_16_vertices_exits_2_at_once(tmp_path, capsys, no_build):
    code, err, seconds = _verify(tmp_path, capsys, {"type": "tree", "tree": linear("x", 16)})
    assert code == 2
    assert err.startswith("malformed certificate:") and f"more than {MAX_FACES} faces" in err
    assert seconds < 1
    assert no_build == {"sub": 0, "shuffles": 0}


def test_a_tensor_of_two_8_vertex_trees_exits_2_at_once(tmp_path, capsys, no_build):
    ambient = {"type": "tensor", "s": linear("s", 8), "t": linear("t", 8)}
    code, err, seconds = _verify(tmp_path, capsys, ambient)
    assert code == 2
    assert f"more than {MAX_TENSOR_VERTICES} vertices" in err
    assert seconds < 1
    assert no_build == {"sub": 0, "shuffles": 0}


def test_a_tensor_of_two_wide_corollas_is_refused_before_its_shuffles(no_build):
    s = "r[" + " ".join(f"a{i}" for i in range(200)) + "]"
    t = "q[" + " ".join(f"b{i}" for i in range(200)) + "]"
    with pytest.raises(MalformedCertificateError, match="more than"):
        ambient_from_json({"type": "tensor", "s": s, "t": t})
    assert no_build == {"sub": 0, "shuffles": 0}


def test_a_tensor_within_the_vertex_bound_is_refused_on_its_face_sum(no_build):
    # 4 + 4 vertices: 70 shuffle trees with 35,770 faces in all
    with pytest.raises(MalformedCertificateError, match=f"more than {MAX_FACES} faces"):
        ambient_from_json({"type": "tensor", "s": linear("s", 4), "t": linear("t", 4)})
    assert no_build == {"sub": 0, "shuffles": 1}


@pytest.mark.parametrize(
    "ambient,faces_in_all",
    [
        ({"type": "tree", "tree": linear("x", 14)}, MAX_FACES - 1),
        ({"type": "tensor", "s": linear("s", 4), "t": linear("t", 3)}, 8925),
        ({"type": "tensor", "s": "a0[a1 a2 a3]", "t": "b0[b1 b2[b4] b3[b5 b6 b7]]"}, 27665),
    ],
    ids=["x0[...x14]", "35 shuffles", "the wide pair"],
)
def test_the_largest_ambients_in_use_still_load(no_build, ambient, faces_in_all):
    loaded = ambient_from_json(ambient)
    if ambient["type"] == "tree":
        assert count_faces(loaded) == faces_in_all
    else:
        assert sum(count_faces(sh.tree.tree) for sh in loaded.poset) == faces_in_all
    assert no_build["sub"] == 0


def test_every_benchmark_ambient_still_loads():
    inputs = _inputs()
    trees = [inputs.LINEAR] + [render_tree(pt) for pt in tree_catalog(*inputs.CATALOG)]
    pairs = list(inputs.PP_STABLE) + [(s, t) for s, _, t in inputs.PP_INNER]
    for text in trees:
        ambient_from_json({"type": "tree", "tree": text})
    for s, t in pairs:
        ambient_from_json({"type": "tensor", "s": s, "t": t})


def test_the_linear_benchmark_certificate_still_verifies():
    cert = segal_certificate(parse_tree(_inputs().LINEAR))
    assert replay_certificate(Certificate.loads(cert.dumps())).accepted
