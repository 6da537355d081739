"""The value types of ``src/dendro`` behave as records: one constructor
signature (positional or keyword), equality, hash and ``repr`` by field,
frozen or mutable as declared, and ``pickle`` and ``copy`` round trips.

Each case is one instance built the way the library builds it, with the
names of its constructor parameters, in order.  Frozen classes refuse
assignment and hash by field (``TypeError`` when a field holds a dict, as
for ``PlanarTree``); mutable classes accept assignment and are unhashable.
"""

import copy
import inspect
import pickle

import pytest

from dendro.anodyne import AxiomReport, check_axioms, inner_extension_set, segal_certificate
from dendro.certify import Mutation, MutationReport, Step, Verdict
from dendro.complexes import FaceComplex, full_complex, segal_core
from dendro.faces import Face
from dendro.order import edge_order
from dendro.pushout import EssentialData, certify_pp_stable
from dendro.shuffles import enumerate_shuffles, initial_shuffle
from dendro.trees import Operation, PlanarTree, TreeError, TreeInfo, classify, parse_tree, tree

S, T = parse_tree("s0[s1 s2]"), parse_tree("t0[t1 t2]")
LINEAR = parse_tree("a[b[c]]")


def _verdict():
    return Verdict(False, 3, "horn incomplete: face inner(b) of x missing")


def _essential():
    t = tree("a[b[c d]]")
    return EssentialData(Face(t, {"a", "b"}), frozenset({"c", "d"}), frozenset({"b"}))


# name -> (factory, constructor parameters in order, hashable, frozen)
CASES = {
    "PlanarTree": (lambda: parse_tree("a[b c[d]]"), ("tree", "input_order"), False, True),
    "Operation": (lambda: Operation.of({"b", "c"}, "a"), ("inputs", "output"), True, True),
    "TreeInfo": (
        lambda: classify(tree("a[b c[]]")),
        ("is_open", "is_linear", "is_corolla", "inner_edges"),
        True,
        True,
    ),
    "Shuffle": (lambda: initial_shuffle(S, T), ("s_tree", "t_tree", "tree"), False, True),
    "PercolationPoset": (
        lambda: enumerate_shuffles(S, T),
        ("s_tree", "t_tree", "shuffles", "covers"),
        False,
        False,
    ),
    "FaceComplex": (lambda: segal_core(LINEAR.tree), ("ambient", "members"), True, True),
    "Step": (
        lambda: segal_certificate(LINEAR).steps[0],
        ("face", "omit_kind", "omit_at"),
        True,
        True,
    ),
    "Certificate": (
        lambda: certify_pp_stable(S, parse_tree("t0[t1]")),
        ("ambient", "base", "class_tag", "steps"),
        True,
        True,
    ),
    "Verdict": (_verdict, ("accepted", "step_index", "reason"), True, True),
    "Mutation": (
        lambda: Mutation("drop step 0", _verdict()),
        ("description", "verdict"),
        True,
        True,
    ),
    "MutationReport": (
        lambda: MutationReport([Mutation("swap steps 0,1", Verdict(True))]),
        ("mutations",),
        False,
        False,
    ),
    "EdgeOrder": (lambda: edge_order(LINEAR), ("tree", "rank"), False, True),
    "EssentialData": (_essential, ("face", "covered", "top"), True, True),
    "AxiomReport": (
        lambda: check_axioms(inner_extension_set(LINEAR.tree, segal_core(LINEAR.tree))),
        ("failures",),
        False,
        False,
    ),
}

NAMES = sorted(CASES)


def _case(name):
    factory, params, hashable, frozen = CASES[name]
    return factory(), params, hashable, frozen


@pytest.mark.parametrize("name", NAMES)
def test_signature_names_the_fields_in_order(name):
    obj, params, _, _ = _case(name)
    assert type(obj).__name__ == name
    assert tuple(inspect.signature(type(obj)).parameters) == params


def test_defaults():
    assert Verdict(True) == Verdict(True, None, "")
    assert Verdict(accepted=False, reason="r") == Verdict(False, None, "r")
    info = TreeInfo(is_open=True, is_linear=False, is_corolla=True, inner_edges=frozenset())
    assert info == TreeInfo(True, False, True, frozenset())
    assert (info.is_open, info.is_linear, info.is_corolla) == (True, False, True)
    with pytest.raises(TypeError):
        TreeInfo(is_open=True)


@pytest.mark.parametrize("name", NAMES)
def test_positional_and_keyword_construction(name):
    obj, params, _, _ = _case(name)
    cls, values = type(obj), [getattr(obj, p) for p in params]
    assert cls(*values) == obj
    assert cls(**dict(zip(params, values))) == obj


@pytest.mark.parametrize("name", NAMES)
def test_equality_by_field(name):
    obj = _case(name)[0]
    twin = _case(name)[0]
    assert twin is not obj and twin == obj and not twin != obj
    assert obj.__eq__(object()) is NotImplemented
    assert obj != object()
    other = next(CASES[n][0]() for n in NAMES if n != name)
    assert obj.__eq__(other) is NotImplemented


def test_unequal_fields_compare_unequal():
    assert Verdict(True) != Verdict(False)
    assert Operation.of("b", "a") != Operation.of("c", "a")
    step = segal_certificate(LINEAR).steps[0]
    assert step != Step(step.face, step.omit_kind, "zz")
    assert AxiomReport({"F1": []}) != AxiomReport({"F1": ["x"]})


@pytest.mark.parametrize("name", NAMES)
def test_hash(name):
    obj, _, hashable, frozen = _case(name)
    if hashable:
        assert hash(obj) == hash(_case(name)[0])
        assert {obj: 1}[_case(name)[0]] == 1
    else:
        # a mutable record, or a frozen one holding a dict or a PlanarTree
        with pytest.raises(TypeError):
            hash(obj)
    if not frozen:
        assert type(obj).__hash__ is None


@pytest.mark.parametrize("name", NAMES)
def test_frozen_or_mutable(name):
    obj, params, _, frozen = _case(name)
    field, value = params[0], getattr(obj, params[0])
    if frozen:
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
        assert getattr(obj, field) is value
    else:
        setattr(obj, field, value)
        assert getattr(obj, field) is value


@pytest.mark.parametrize("name", sorted(set(NAMES) - {"Shuffle"}))
def test_repr_lists_the_fields(name):
    obj, params, _, _ = _case(name)
    text = repr(obj)
    assert text.startswith(f"{name}(") and text.endswith(")")
    assert text.startswith(f"{name}({params[0]}={getattr(obj, params[0])!r}")
    positions = [text.index(f"{p}=") for p in params]
    assert positions == sorted(positions)


def test_repr_exact():
    assert repr(Verdict(True)) == "Verdict(accepted=True, step_index=None, reason='')"
    assert repr(Operation(frozenset({"b"}), "a")) == "Operation(inputs=frozenset({'b'}), output='a')"
    assert repr(AxiomReport({"F1": []})) == "AxiomReport(failures={'F1': []})"
    assert repr(initial_shuffle(S, parse_tree("t0[t1]"))) == "Shuffle(s0,t0|s0,t1|s1,t1|s2,t1)"


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize(
    "clone",
    [lambda o: pickle.loads(pickle.dumps(o)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(name, clone):
    obj, _, hashable, _ = _case(name)
    twin = clone(obj)
    assert type(twin) is type(obj) and twin == obj
    if hashable:
        assert hash(twin) == hash(obj)


def test_planar_tree_order_check():
    t = tree("a[b c]")
    assert PlanarTree(t, {"a": ("c", "b")}).ordered_children("a") == ("c", "b")
    for bad in ({}, {"a": ("b",)}, {"a": ("b", "b")}, {"a": ("b", "c", "d")}):
        with pytest.raises(TreeError, match="does not cover its inputs"):
            PlanarTree(t, bad)
    with pytest.raises(TreeError):
        PlanarTree(tree=t, input_order={"a": ("b", "x")})


def test_frozen_values_as_set_members():
    cert = segal_certificate(parse_tree("a[b[c[d]]]"))
    assert len(set(cert.steps + cert.steps)) == len(cert.steps)
    assert len({cert, copy.copy(cert), copy.deepcopy(cert)}) == 1
    empty = FaceComplex(LINEAR.tree, frozenset())
    assert len({empty, full_complex(LINEAR.tree), FaceComplex(LINEAR.tree, frozenset())}) == 2
