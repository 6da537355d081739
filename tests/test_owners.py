"""Each fact at the verifier boundary has one owner.

* ``complexes._faces_by_key`` is the one reading of an ambient's face table
  (a tree's poset ``index``, a tensor's universe); ``_universe_of`` is that
  table as a dict, with the same keys and the same ``Face`` objects.
* A tensor ambient compares and hashes by its two rendered trees, so two
  loads of one certificate name one ambient.
* ``Certificate.of`` is the one constructor that sets a produced
  certificate's class from its steps.
* The pushout-product pipeline reads the root vertex of S once per run.
"""

import pytest

from dendro import pushout
from dendro.anodyne import segal_certificate
from dendro.certify import Certificate, class_of_steps, mutate_and_check
from dendro.complexes import (
    FaceComplex,
    TensorAmbient,
    _faces_by_key,
    _universe_of,
    empty_complex,
    full_complex,
)
from dendro.faces import FaceError, enumerate_sub
from dendro.pushout import certify_pp_stable
from dendro.trees import parse_tree, tree_catalog

GRID = [
    ("s0[s1]", "t0[t1]"),
    ("s0[s1 s2]", "t0[t1]"),
    ("s0[s1 s2]", "t0[t1 t2]"),
    ("s0[s1[s2]]", "t0[t1 t2]"),
    ("s0[s1 s2]", "t0[t1[t2]]"),
    ("s0[s1]", "a[b[] c]"),
    ("s0[s1[s2[s3[s4]]]]", "t0[t1 t2]"),
]

NOT_A_FACE = (("zz",), ())


def _tensor(s: str, t: str) -> TensorAmbient:
    return TensorAmbient(parse_tree(s), parse_tree(t))


def _check_table(ambient, expected: dict) -> None:
    keys, face_of = _faces_by_key(ambient)
    universe = _universe_of(ambient)
    assert list(keys) == list(universe) == list(expected)
    for key, face in expected.items():
        assert face_of(key) is face and universe[key] is face
    assert face_of(NOT_A_FACE) is None


def test_the_face_table_of_every_small_tree():
    for pt in tree_catalog(3, 3):
        poset = enumerate_sub(pt.tree)
        _check_table(pt.tree, {f.key: f for f in poset.faces})


@pytest.mark.parametrize("s,t", GRID)
def test_the_face_table_of_every_grid_tensor(s, t):
    tensor = _tensor(s, t)
    expected = {}
    for sh in tensor.poset:
        for f in tensor.sub(sh):
            expected.setdefault(f.key, f)
    _check_table(tensor, expected)


def test_full_and_missing_faces_read_the_table():
    tensor = _tensor("s0[s1 s2]", "t0[t1]")
    full = full_complex(tensor)
    assert full.members == set(tensor.universe)
    assert full.missing_faces() == []
    missing = empty_complex(tensor).missing_faces()
    assert [f.key for f in missing] == sorted(tensor.universe, key=lambda k: (tensor.universe[k].rank, k))
    assert full.is_closed()


def test_is_closed_raises_key_error_outside_the_ambient():
    tree = parse_tree("a[b c]").tree
    with pytest.raises(KeyError):
        FaceComplex(tree, frozenset({NOT_A_FACE})).is_closed()


def test_two_loads_of_one_tensor_certificate_name_one_ambient():
    text = certify_pp_stable(parse_tree("s0[s1 s2]"), parse_tree("t0[t1]")).dumps()
    a, b = Certificate.loads(text).ambient, Certificate.loads(text).ambient
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert not a != b
    other = _tensor("s0[s1]", "t0[t1]")
    assert a != other and other != a
    tree = parse_tree("s0[s1 s2]").tree
    assert a != tree and tree != a


def test_union_and_intersection_compare_tensors_by_value():
    a, b = _tensor("s0[s1 s2]", "t0[t1]"), _tensor("s0[s1 s2]", "t0[t1]")
    x, y = full_complex(a), empty_complex(b)
    assert (x | y).members == x.members
    assert (x & y).members == frozenset()
    other = empty_complex(_tensor("s0[s1]", "t0[t1]"))
    with pytest.raises(FaceError):
        x | other
    with pytest.raises(FaceError):
        x & other


@pytest.mark.parametrize(
    "cert",
    [
        segal_certificate(parse_tree("r[c[] d e[a b] f]")),
        certify_pp_stable(parse_tree("s0[s1 s2]"), parse_tree("t0[t1]")),
    ],
    ids=["segal", "pp-stable"],
)
def test_certificate_of_sets_the_class_from_the_steps(cert):
    assert cert.class_tag == class_of_steps(cert.steps)
    for steps in (cert.steps, list(cert.steps), cert.steps[:1], ()):
        made = Certificate.of(cert.ambient, cert.base, steps)
        assert made.class_tag == class_of_steps(steps)
        assert made.steps == tuple(steps) and isinstance(made.steps, tuple)
        assert made.ambient is cert.ambient and made.base is cert.base
    report = mutate_and_check(cert)
    assert len(report.mutations) == 3 * len(cert.steps) - 1


def test_the_root_vertex_of_s_is_read_once_per_run(monkeypatch):
    calls = []
    read = pushout._root_vertex_data

    def counted(s_tree):
        calls.append(s_tree)
        return read(s_tree)

    monkeypatch.setattr(pushout, "_root_vertex_data", counted)
    for s, t in GRID:
        calls.clear()
        certify_pp_stable(parse_tree(s), parse_tree(t))
        assert len(calls) == 1, (s, t)
