import random

import pytest
from hypothesis import given, settings, strategies as st

from idag.core import canonical_form, juxt, prune_dangling, transitive_closure
from idag.equivalence import (
    NO_DANGLING,
    TRANSITIVE,
    TheoryMode,
    _apply_quotients,
    equal_mod_theory,
    normalize,
)
from idag.errors import ArityMismatch, IdagError, ModeMismatch, UnsupportedGenerator
from idag.jsonio import idag_to_json
from idag.models import FreeIdagModel, evaluate
from idag.randgen import random_expression, random_idag
from idag.decomposition import decompose, default_sorting, sample_topological_sorting
from idag.terms import Anti, Delta, Id, Node, Seq, Ten, arity_of, map_atoms, parse, validate_for_mode
from helpers import consume_row
from idag.weights import BOOL, INT, NAT


def test_mode_construction():
    m = TheoryMode(BOOL, frozenset({TRANSITIVE}))
    assert not m.antipode_enabled
    assert TheoryMode(INT).antipode_enabled
    with pytest.raises(ModeMismatch):
        TheoryMode(NAT, frozenset({TRANSITIVE}))
    with pytest.raises(ModeMismatch):
        TheoryMode(BOOL, frozenset({"sideways"}))
    assert TRANSITIVE == "transitive" and NO_DANGLING == "nodangling"


def test_degeneracy_is_bool_only():
    lhs, rhs = parse("delta ; nabla"), parse("id(1)")
    assert equal_mod_theory(lhs, rhs, BOOL).equal
    assert not equal_mod_theory(lhs, rhs, NAT).equal
    assert not equal_mod_theory(lhs, rhs, INT).equal


def test_normalize_examples():
    eta2 = normalize(parse("eta ; delta"), BOOL)
    free = FreeIdagModel(BOOL)
    assert eta2 == canonical_form(juxt(free.generator(parse("eta")), free.generator(parse("eta"))))
    nf = normalize(parse("delta ; nabla"), NAT)
    assert len(nf.edges) == 1 and list(nf.edges.values()) == [2]


def test_no_equations_involve_the_node():
    r = equal_mod_theory(parse("nabla ; node"), parse("(node * node) ; nabla"), BOOL)
    assert not r.equal
    assert len(r.normal_form_left.nodes) == 1
    assert len(r.normal_form_right.nodes) == 2


def test_transitive_quotient_example():
    lhs = parse("delta ; (node * id(1)) ; nabla")
    rhs = parse("node")
    assert not equal_mod_theory(lhs, rhs, BOOL).equal
    mode = TheoryMode(BOOL, frozenset({TRANSITIVE}))
    assert equal_mod_theory(lhs, rhs, mode).equal


def test_nodangling_quotient_example():
    mode = TheoryMode(BOOL, frozenset({NO_DANGLING}))
    assert equal_mod_theory(parse("eta ; node"), parse("eta"), mode).equal
    assert equal_mod_theory(parse("node ; eps"), parse("eps"), mode).equal
    assert not equal_mod_theory(parse("eta ; node"), parse("eta"), BOOL).equal


def test_both_quotients_together():
    mode = TheoryMode(BOOL, frozenset({TRANSITIVE, NO_DANGLING}))
    # a node bypassed and then discarded leaves only the closure of the wire
    lhs = parse("delta ; (node * id(1)) ; (eps * id(1))")
    rhs = parse("id(1)")
    assert equal_mod_theory(lhs, rhs, mode).equal


def test_arity_mismatch_is_an_error():
    with pytest.raises(ArityMismatch):
        equal_mod_theory(parse("nabla"), parse("delta"), BOOL)


def test_anti_needs_int():
    with pytest.raises(UnsupportedGenerator):
        normalize(parse("anti"), BOOL)
    with pytest.raises(UnsupportedGenerator):
        equal_mod_theory(parse("anti"), parse("id(1)"), NAT)
    assert not equal_mod_theory(parse("anti"), parse("id(1)"), INT).equal


def test_report_shape_and_witness():
    r = equal_mod_theory(parse("node[x] ; node[y]"), parse("node[x] ; node[y]"), BOOL)
    assert r.equal
    assert r.witness is not None
    obj = r.to_json_obj()
    assert sorted(obj) == ["equal", "lhs", "rhs"]
    assert obj["lhs"] == obj["rhs"]

    r2 = equal_mod_theory(parse("eps"), parse("eps"), BOOL)
    assert r2.equal and r2.witness == {}


def test_hopf_cancellation():
    assert equal_mod_theory(
        parse("delta ; (anti * id(1)) ; nabla"), parse("eps ; eta"), INT
    ).equal
    assert equal_mod_theory(
        parse("delta ; (id(1) * anti) ; nabla"), parse("eps ; eta"), INT
    ).equal


# ---------------------------------------------------------------------------
# properties


def _random_equal_pair(rng):
    """A pair of distinct spellings of one morphism: padding with identities
    and reassociating are sound."""
    e = consume_row(rng, rng.randint(0, 3), False)
    n, m = arity_of(e)
    variants = [
        Seq(e, Id(m)),
        Seq(Id(n), e),
        Ten(e, Id(0)),
    ]
    return e, rng.choice(variants)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_congruence(seed):
    rng = random.Random(seed)
    e1, e2 = _random_equal_pair(rng)
    assert equal_mod_theory(e1, e2, BOOL).equal
    _, m = arity_of(e1)
    f = consume_row(rng, m, False)
    assert equal_mod_theory(Seq(e1, f), Seq(e2, f), BOOL).equal
    g = consume_row(rng, rng.randint(0, 2), False)
    assert equal_mod_theory(Ten(e1, g), Ten(e2, g), BOOL).equal


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_completeness_on_decompositions(seed):
    rng = random.Random(seed)
    ws = (BOOL, NAT, INT)[seed % 3]
    d = random_idag(rng, rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 5), 0.4, ws, labels=("•", "x"))
    e1 = decompose(d, default_sorting(d))
    e2 = decompose(d, sample_topological_sorting(d, rng))
    assert equal_mod_theory(e1, e2, ws).equal

    other = random_idag(rng, d.n_in, d.n_out, rng.randint(0, 5), 0.4, ws, labels=("•", "x"), id_prefix="o")
    expect = canonical_form(other) == canonical_form(d)
    got = equal_mod_theory(e1, decompose(other, default_sorting(other)), ws).equal
    assert got == expect


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_cheap_invariants_agree_with_decision(seed):
    # node multiset and output in-weight are invariants of the theory:
    # whenever the decision says equal, they match before canonicalization
    rng = random.Random(seed)
    e1, e2 = _random_equal_pair(rng)
    free = FreeIdagModel(BOOL)
    v1, v2 = evaluate(e1, free), evaluate(e2, free)
    assert equal_mod_theory(e1, e2, BOOL).equal
    assert sorted(l for _, l in v1.nodes) == sorted(l for _, l in v2.nodes)
    from idag.core import Out

    w1 = sum(w for (s, t), w in v1.edges.items() if isinstance(t, Out))
    w2 = sum(w for (s, t), w in v2.edges.items() if isinstance(t, Out))
    assert w1 == w2


def _quotient_loop(d, mode):
    """The quotients as once applied: prune, close, prune until nothing
    changes."""
    close = TRANSITIVE in mode.quotients
    prune = NO_DANGLING in mode.quotients
    if not close and not prune:
        return d
    while True:
        before = d
        if prune:
            d = prune_dangling(d)
        if close:
            d = transitive_closure(d)
        if prune:
            d = prune_dangling(d)
        if d == before:
            return d


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_one_prune_then_one_closure_is_the_fixed_point(seed):
    rng = random.Random(seed)
    d = random_idag(rng, rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 8), 0.3, BOOL)
    for quotients in ({TRANSITIVE}, {NO_DANGLING}, {TRANSITIVE, NO_DANGLING}):
        mode = TheoryMode(BOOL, frozenset(quotients))
        assert _apply_quotients(d, mode) == _quotient_loop(d, mode)


def test_many_interchangeable_copies():
    def copies(k):
        return parse(" * ".join(["(eta ; node ; eps)"] * k))

    for k in (9, 12):
        for mode in (BOOL, NAT):
            nf = normalize(copies(k), mode)
            assert (len(nf.nodes), len(nf.edges)) == (k, 0)
        assert equal_mod_theory(copies(k), copies(k), NAT).equal
        assert not equal_mod_theory(copies(k), copies(k + 1), NAT).equal


def _normalize_checking_twice(e, tm):
    validate_for_mode(e, tm.weights, tm.labels)
    return canonical_form(_apply_quotients(evaluate(e, FreeIdagModel(tm.weights)), tm))


def _equal_checking_twice(e1, e2, tm):
    a1, a2 = arity_of(e1), arity_of(e2)
    if a1 != a2:
        raise ArityMismatch(f"interfaces differ: {a1} vs {a2}")
    return _normalize_checking_twice(e1, tm) == _normalize_checking_twice(e2, tm)


def _outcome(f):
    """f()'s result, an idag as its canonical JSON, or its error's type and
    message."""
    try:
        result = f()
    except IdagError as exc:
        return type(exc), str(exc)
    return result if isinstance(result, bool) else idag_to_json(result)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_errors_come_as_when_each_expression_was_checked_twice(seed):
    """normalize and equal_mod_theory type-check each expression once, and
    leave the anti check to the walk unless a label set is closed; the
    errors, and the order in which they win, are those of the version that
    checked each expression in validate_for_mode, arity_of and evaluate."""
    rng = random.Random(seed)

    def mutate(e):
        swaps = [Anti(), Node("zz"), Delta()]
        return map_atoms(e, lambda a: rng.choice(swaps) if rng.random() < 0.1 else a)

    for _ in range(10):
        e1 = random_expression(rng, max_depth=3, allow_anti=True)
        e2 = mutate(e1)
        e1 = mutate(e1) if rng.random() < 0.3 else e1
        tm = rng.choice(
            [
                TheoryMode(BOOL),
                TheoryMode(NAT),
                TheoryMode(INT),
                TheoryMode(BOOL, frozenset({TRANSITIVE})),
                TheoryMode(NAT, frozenset(), frozenset({"•", "x"})),
            ]
        )
        for e in (e1, e2):
            assert _outcome(lambda: normalize(e, tm)) == _outcome(lambda: _normalize_checking_twice(e, tm))
        assert _outcome(lambda: equal_mod_theory(e1, e2, tm).equal) == _outcome(
            lambda: _equal_checking_twice(e1, e2, tm)
        )
