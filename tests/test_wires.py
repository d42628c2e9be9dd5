"""An idag stores integer wires, and every algorithm reads them. These
tests play the library against the vertex-keyed reference code in
vertex_reference.py, on seeded random idags and free images of random
expressions in BOOL, NAT and INT: the edges view, ==, canonical JSON bytes,
both quotients, concat, juxt and is_isomorphic witnesses must agree."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import vertex_reference as ref
from idag.core import (
    In,
    NodeRef,
    Out,
    canonical_form,
    concat,
    is_isomorphic,
    juxt,
    make_idag,
    prune_dangling,
    transitive_closure,
)
from idag.jsonio import idag_from_json, idag_to_json
from idag.models import FreeIdagModel, _walk, evaluate
from idag.randgen import random_expression, random_idag
from idag.selftest import _scramble
from idag.weights import BOOL, INT, NAT

_LABELS = ("•", "x", "y")


def _draw(rng, mode, n_in=None, prefix="n"):
    """A seeded idag, random or (when n_in is not fixed) half the time the
    free image of a random expression, checked against the reference image;
    with its reference copy."""
    if n_in is None and rng.random() < 0.5:
        e = random_expression(rng, max_depth=3, allow_anti=mode is INT, labels=_LABELS)
        d = evaluate(e, FreeIdagModel(mode))
        _assert_same(d, ref.read_image(mode, *_walk(e, mode)))
        return d, ref.VIdag.of(d)
    if n_in is None:
        n_in = rng.randint(0, 3)
    d = random_idag(
        rng, n_in, rng.randint(0, 3), rng.randint(0, 6), 0.4, mode, labels=_LABELS, id_prefix=prefix
    )
    return d, ref.VIdag.of(d)


def _assert_same(d, v):
    """d and the reference idag v are the same idag, by every view."""
    assert (d.weights, d.n_in, d.n_out, d.nodes) == (v.weights, v.n_in, v.n_out, v.nodes)
    assert dict(d.edges) == v.edges
    assert d == make_idag(v.n_in, v.n_out, v.nodes, v.edges, v.weights)
    assert idag_to_json(d) == ref.to_json(v)


def _assert_view_reads_the_wires(d):
    ends = [NodeRef(nid) for nid in d.node_ids]
    sources = [In(i) for i in range(d.n_in)] + ends
    targets = ends + [Out(j) for j in range(d.n_out)]
    weights = {(s, t): d.weight(s, t) for s in sources for t in targets}
    assert dict(d.edges) == {e: w for e, w in weights.items() if w}
    assert idag_from_json(idag_to_json(d)) == d


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from((BOOL, NAT, INT)))
def test_wires_match_the_vertex_reference(seed, mode):
    rng = random.Random(seed)
    a, va = _draw(rng, mode)
    b, vb = _draw(rng, mode, n_in=a.n_out, prefix=rng.choice(("n", "m")))
    c, vc = _draw(rng, mode)
    cases = [(a, va), (b, vb), (c, vc)]
    cases.append((concat(b, a), ref.concat(vb, va)))
    cases.append((juxt(a, c), ref.juxt(va, vc)))
    cases.append((juxt(c, b), ref.juxt(vc, vb)))
    for d, v in cases:
        _assert_same(d, v)
        _assert_view_reads_the_wires(d)
        _assert_same(canonical_form(d), ref.canonical_form(v))
        if mode is BOOL:
            _assert_same(prune_dangling(d), ref.prune_dangling(v))
            _assert_same(transitive_closure(d), ref.transitive_closure(v))
            closed = prune_dangling(transitive_closure(d))
            _assert_same(closed, ref.prune_dangling(ref.transitive_closure(v)))
    for d, v in cases:
        copy = _scramble(rng, d, "s")
        assert is_isomorphic(d, copy) == ref.is_isomorphic(v, ref.VIdag.of(copy))
        assert is_isomorphic(d, copy) is not None
        assert is_isomorphic(d, a) == ref.is_isomorphic(v, va)


def test_edges_view_is_read_only(dag23):
    with pytest.raises(TypeError):
        dag23.edges[(In(0), Out(0))] = 1
    with pytest.raises(AttributeError):
        dag23.edges = {}
    assert dag23.edges == dag23.edges and dag23.edges is not dag23.edges


def test_label_of_and_weight_read_by_position(dag23):
    assert [dag23.label_of(nid) for nid in dag23.node_ids] == [lbl for _, lbl in dag23.nodes]
    with pytest.raises(KeyError):
        dag23.label_of("nope")
    assert dag23.weight(Out(0), In(0)) == 0 and dag23.weight(In(9), Out(0)) == 0
    assert dag23.weight(NodeRef("nope"), Out(0)) == 0
