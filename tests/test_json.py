import json

import pytest
from hypothesis import given, settings, strategies as st

import random

from idag.algebra import make_idag
from idag.core import In, NodeRef, Out
from idag.errors import BadEndpoint, SchemaError
from idag.jsonio import idag_to_json, idag_to_obj
from idag.jsonread import idag_from_json
from idag.randgen import random_idag
from idag.weights import BOOL, INT, NAT


def test_field_shape(dag23):
    obj = idag_to_obj(dag23)
    assert list(obj) == ["mode", "inputs", "outputs", "nodes", "edges"]
    assert obj["mode"] == "bool"
    assert obj["nodes"] == [{"id": "k"}, {"id": "l"}]
    # node destinations sort before interface destinations at the same source
    assert obj["edges"][0] == {"src": {"in": 0}, "dst": {"node": "k"}}
    assert obj["edges"][1] == {"src": {"in": 0}, "dst": {"out": 1}}


def test_label_and_weight_defaults_omitted():
    d = make_idag(1, 1, [("p", "x"), "q"], {(In(0), NodeRef("p")): 2, (NodeRef("p"), Out(0)): 1}, NAT)
    obj = idag_to_obj(d)
    assert obj["nodes"] == [{"id": "p", "label": "x"}, {"id": "q"}]
    assert {"src": {"in": 0}, "dst": {"node": "p"}, "w": 2} in obj["edges"]
    assert {"src": {"node": "p"}, "dst": {"out": 0}} in obj["edges"]


def test_edges_sorted(dag31):
    text = idag_to_json(dag31)
    back = idag_from_json(text)
    assert idag_to_json(back) == text


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_byte_exact(seed):
    rng = random.Random(seed)
    ws = (BOOL, NAT, INT)[seed % 3]
    d = random_idag(rng, rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 6), 0.5, ws, labels=("•", "x", "y"))
    text = idag_to_json(d)
    back = idag_from_json(text)
    assert back == d
    assert idag_to_json(back) == text


@pytest.mark.parametrize("index", [0, 0.0, True])
def test_make_idag_builds_only_what_json_reads_back(index):
    # In(0.0) was once stored as source 0.0 and written as {"in":0.0}
    try:
        d = make_idag(2, 2, [("a", "x")], [(In(index), NodeRef("a")), (NodeRef("a"), Out(1)), (In(1), Out(0), 1)])
    except BadEndpoint:
        assert type(index) is not int
        return
    text = idag_to_json(d)
    assert idag_from_json(text) == d
    assert idag_to_json(idag_from_json(text)) == text


def test_unicode_label_survives():
    d = make_idag(0, 0, [("p", "λ•")], {})
    assert idag_from_json(idag_to_json(d)) == d
    assert "λ" in idag_to_json(d)  # ensure_ascii off


def test_parse_errors():
    with pytest.raises(SchemaError):
        idag_from_json("not json")
    with pytest.raises(SchemaError):
        idag_from_json("[]")
    with pytest.raises(SchemaError):
        idag_from_json('{"mode":"bool","inputs":0,"outputs":0,"nodes":[],"edges":[],"extra":1}')
    with pytest.raises(SchemaError):
        idag_from_json('{"mode":"tropical","inputs":0,"outputs":0,"nodes":[],"edges":[]}')
    with pytest.raises(SchemaError):
        idag_from_json('{"mode":"bool","inputs":0,"outputs":0,"nodes":[]}')
    with pytest.raises(SchemaError):
        idag_from_json(
            '{"mode":"bool","inputs":1,"outputs":1,"nodes":[],'
            '"edges":[{"src":{"out":0},"dst":{"in":0}}]}'
        )
    with pytest.raises(SchemaError):
        idag_from_json(
            '{"mode":"bool","inputs":1,"outputs":1,"nodes":[],'
            '"edges":[{"src":{"in":0},"dst":{"out":0},"w":true}]}'
        )


def test_booleans_are_not_integers():
    # bool is an int in Python; accepted, true/false would be echoed back, so
    # equal idags would serialize to different bytes
    def doc(inputs=1, outputs=1, src=0, dst=0):
        return json.dumps({
            "mode": "bool", "inputs": inputs, "outputs": outputs, "nodes": [],
            "edges": [{"src": {"in": src}, "dst": {"out": dst}}],
        })

    assert idag_to_json(idag_from_json(doc())) == doc().replace(" ", "")
    for bad in ({"inputs": True}, {"outputs": True}, {"src": False}, {"dst": False}):
        with pytest.raises(SchemaError):
            idag_from_json(doc(**bad))


def test_validation_errors_pass_through():
    from idag.errors import CycleDetected

    doc = {
        "mode": "bool",
        "inputs": 0,
        "outputs": 0,
        "nodes": [{"id": "p"}, {"id": "q"}],
        "edges": [
            {"src": {"node": "p"}, "dst": {"node": "q"}},
            {"src": {"node": "q"}, "dst": {"node": "p"}},
        ],
    }
    with pytest.raises(CycleDetected):
        idag_from_json(json.dumps(doc))
