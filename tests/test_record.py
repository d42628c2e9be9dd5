"""The value classes keep the behaviour they had as generated dataclasses:
the repr text, == (same class, equal fields), the hash of the field tuple,
no field assignment, slots, and pickle and deepcopy round trips."""

import copy
import pickle

import pytest

from idag.algebra import identity, make_idag
from idag.core import In, NodeRef, Out
from idag.equivalence import TRANSITIVE, EqReport, TheoryMode, equal_mod_theory
from idag.errors import ModeMismatch
from idag.layers import TranspositionReport
from idag.loops import LoopsModel, LoopsMorphism
from idag.matrices import MatrixModel, matrix
from idag.models import FreeIdagModel
from idag.record import Record
from idag.selftest import SuiteResult
from idag.terms import parse
from idag.weights import BOOL, INT, NAT, WeightSystem

# (value, its repr, its field values in constructor order)
_VALUES = [
    (In(3), "In(index=3)", (3,)),
    (Out(2), "Out(index=2)", (2,)),
    (NodeRef("x"), "NodeRef(id='x')", ("x",)),
    (NAT, "NAT", ("nat",)),
    (TheoryMode(), "TheoryMode(weights=BOOL, quotients=frozenset(), labels=None)", (BOOL, frozenset(), None)),
    (
        TheoryMode(BOOL, frozenset({TRANSITIVE}), frozenset({"a"})),
        "TheoryMode(weights=BOOL, quotients=frozenset({'transitive'}), labels=frozenset({'a'}))",
        (BOOL, frozenset({TRANSITIVE}), frozenset({"a"})),
    ),
    (
        TranspositionReport(1, True, False, True, True, False),
        "TranspositionReport(position=1, prefix_layers_equal=True, swapped_pair_composite_equal=False, "
        "swap_threads_middle_layers=True, swap_absorbed_by_final_layer=True, "
        "node_box_slides_past_next_layer=False)",
        (1, True, False, True, True, False),
    ),
    (matrix([[1, 2], [0, 3]], NAT), "MatrixMorphism(NAT, ((1, 2), (0, 3)))", None),
    (LoopsMorphism((1, 0), (("a",), ())), "LoopsMorphism(perm=(1, 0), words=(('a',), ()))", ((1, 0), (("a",), ()))),
    (FreeIdagModel(NAT), "FreeIdagModel(weights=NAT)", (NAT,)),
    (MatrixModel(INT, {"a": 2}), "MatrixModel(weights=INT, lambda_images={'a': 2})", None),
    (LoopsModel(), "LoopsModel()", ()),
]
_IDS = [type(v).__name__ for v, _, _ in _VALUES]


@pytest.mark.parametrize("value, text, fields", _VALUES, ids=_IDS)
def test_repr_eq_and_hash(value, text, fields):
    assert repr(value) == text
    twin = type(value)(*fields) if fields is not None else copy.copy(value)
    assert twin == value and not twin != value
    assert value != 5 and value != object()
    if fields is not None:
        assert hash(value) == hash(fields)


@pytest.mark.parametrize("value, text, fields", _VALUES, ids=_IDS)
def test_slotted_and_immutable(value, text, fields):
    assert not hasattr(value, "__dict__")
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value, text, fields", _VALUES, ids=_IDS)
def test_pickle_and_deepcopy_round_trips(value, text, fields):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert twin == value and repr(twin) == text


def test_weight_systems_round_trip_as_themselves():
    # mode checks compare weight systems by identity
    for ws in (BOOL, NAT, INT):
        assert pickle.loads(pickle.dumps(ws)) is ws and copy.deepcopy(ws) is ws
    other = pickle.loads(pickle.dumps(WeightSystem("tropical")))
    assert other == WeightSystem("tropical") and repr(other) == "TROPICAL"


def test_equality_needs_the_same_class():
    assert In(1) != Out(1) and In(1) == In(1) and In(1) != In(2)
    assert hash(In(3)) == hash((3,)) and hash(NodeRef("a")) == hash(("a",))
    assert FreeIdagModel() == FreeIdagModel(BOOL) != FreeIdagModel(NAT)


def test_unhashable_values_stay_unhashable():
    d = make_idag(1, 1, ["a"], [(In(0), NodeRef("a")), (NodeRef("a"), Out(0))])
    report = equal_mod_theory(parse("delta ; nabla"), parse("id(1)"), BOOL)
    assert report.witness is not None
    for value in (d, MatrixModel(), report, SuiteResult("s", 1, [])):
        with pytest.raises(TypeError):
            hash(value)
    with pytest.raises(AttributeError):
        d.n_in = 2
    # an idag holds plain wires, so it pickles and copies
    for value in (d, report):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert twin == value and repr(twin) == repr(value)
    assert copy.copy(d) == d and repr(d) == "Idag(BOOL, 1->1, nodes=['a'], 2 edges)"
    assert repr(report) == (
        "EqReport(equal=True, normal_form_left=Idag(BOOL, 1->1, nodes=[], 1 edges), "
        "normal_form_right=Idag(BOOL, 1->1, nodes=[], 1 edges), witness={})"
    )


def test_constructors_keep_names_defaults_and_checks():
    assert TheoryMode(weights=NAT) == TheoryMode(NAT, frozenset(), None)
    assert EqReport(False, identity(1), identity(1)).witness is None
    assert MatrixModel() == MatrixModel(NAT, {}) and MatrixModel().lambda_images == {}
    assert FreeIdagModel().weights is BOOL
    with pytest.raises(ModeMismatch):
        TheoryMode(NAT, frozenset({TRANSITIVE}))
    with pytest.raises(ModeMismatch):
        TheoryMode(BOOL, frozenset({"nonsense"}))


def test_records_are_mutable_and_unhashable():
    result = SuiteResult("s", 1, ["f"])
    assert repr(result) == "SuiteResult(name='s', cases=1, failures=['f'])"
    assert result == SuiteResult("s", 1, ["f"]) and isinstance(result, Record)
    result.cases = 2
    assert result != SuiteResult("s", 1, ["f"])
    assert pickle.loads(pickle.dumps(result)) == result == copy.deepcopy(result)


class _Sub(FreeIdagModel):
    __slots__ = ()


def test_subclasses_keep_the_fields_of_their_bases():
    sub = _Sub(NAT)
    assert repr(sub) == "_Sub(weights=NAT)" and sub != FreeIdagModel(NAT)
    assert sub == _Sub(NAT) != _Sub(INT) and hash(sub) == hash((NAT,))
    assert pickle.loads(pickle.dumps(sub)) == sub == copy.deepcopy(sub)
