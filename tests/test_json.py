import json

import pytest
from hypothesis import given, settings, strategies as st

import random

from idag.algebra import make_idag
from idag.core import In, NodeRef, Out
import json_reference
from idag.errors import BadEndpoint, IdagError, SchemaError
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


# idag_to_json formats the text from the wires; json_reference builds the
# dicts the writer once built, and json.dumps writes them


def _reference_text(d):
    return json.dumps(json_reference.idag_to_obj(d), separators=(",", ":"), ensure_ascii=False)


def test_text_matches_the_dict_writer_on_random_idags():
    rng = random.Random(20261020)
    for k in range(300):
        ws = (BOOL, NAT, INT)[k % 3]
        d = random_idag(
            rng, rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 12), rng.random(), ws,
            labels=("•", "x", "y"), id_prefix=rng.choice(("n", "", "é")),
        )
        assert idag_to_json(d) == _reference_text(d)
        assert idag_to_obj(d) == json_reference.idag_to_obj(d)


ODD_STRINGS = ['"', "\\", "a\nb", "\x00", "\u2028", " ", "é", "\ud800", "•", "", "\x7f\x1f"]


@pytest.mark.parametrize("mode, weights", [
    (NAT, [2**63, 2**64 + 1, 10**40, 1]),
    (INT, [-(2**63) - 1, 2**63, -(10**40), -1]),
])
def test_text_matches_the_dict_writer_on_odd_ids_labels_and_weights(mode, weights):
    # labelled nodes with odd ids and labels, then default-labelled ones with
    # odd ids; each is fed from an input, and each labelled node feeds one
    # default-labelled node and an output
    labelled = [(f"{s}{k}", s) for k, s in enumerate(ODD_STRINGS)]
    plain = [(s, "•") for s in ODD_STRINGS]
    edges = []
    for k, (nid, _) in enumerate(labelled + plain):
        edges.append((In(k % 2), NodeRef(nid), weights[k % len(weights)]))
    for k, (nid, _) in enumerate(labelled):
        edges.append((NodeRef(nid), NodeRef(plain[-1 - k][0]), weights[(k + 1) % len(weights)]))
        edges.append((NodeRef(nid), Out(k % 3), weights[(k + 2) % len(weights)]))
    d = make_idag(2, 3, labelled + plain, edges, mode)
    text = idag_to_json(d)
    assert text == _reference_text(d)
    assert idag_to_obj(d) == json_reference.idag_to_obj(d)
    assert json.loads(text) == json_reference.idag_to_obj(d)


def test_a_weight_too_long_to_write_raises():
    d = make_idag(1, 1, [], {(In(0), Out(0)): 10**4300}, NAT)  # 4,301 digits
    with pytest.raises(IdagError, match="^cannot write a number: "):
        idag_to_json(d)
    with pytest.raises(IdagError, match="^cannot write a number: "):
        idag_to_obj(d)
    d = make_idag(1, 1, [], {(In(0), Out(0)): -(10**4299)}, INT)  # 4,300 digits
    assert idag_to_json(d) == _reference_text(d)
