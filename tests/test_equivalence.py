import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import idag.core as core
import idag.equivalence as equivalence
from idag.cli import main
from idag.core import _invariant, canonical_form, juxt, prune_dangling, transitive_closure
from idag.equivalence import (
    NO_DANGLING,
    TRANSITIVE,
    EqReport,
    TheoryMode,
    _apply_quotients,
    equal_mod_theory,
    normalize,
)
from idag.errors import ArityMismatch, IdagError, ModeMismatch, SearchBudgetExceeded, UnsupportedGenerator
from idag.jsonio import idag_to_json
from idag.models import FreeIdagModel, evaluate
from idag.randgen import random_expression, random_idag
from idag.decomposition import decompose, default_sorting, sample_topological_sorting
from idag.terms import (
    Anti,
    Delta,
    Id,
    Node,
    Seq,
    Ten,
    arity_of,
    map_atoms,
    parse,
    print_expression,
    validate_for_mode,
)
from helpers import consume_row
from test_canon import _cfi, _dag_space, _interfaced_space
from test_core import _crown
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


# ---------------------------------------------------------------------------
# the invariant shortcut: a pair whose quotiented images differ in
# core._invariant is unequal, and its normal forms wait until they are read

MODES = [
    TheoryMode(BOOL),
    TheoryMode(NAT),
    TheoryMode(INT),
    TheoryMode(BOOL, frozenset({TRANSITIVE})),
    TheoryMode(BOOL, frozenset({NO_DANGLING})),
    TheoryMode(BOOL, frozenset({TRANSITIVE, NO_DANGLING})),
]


def _expression(d):
    return decompose(d, default_sorting(d))


def _images(e1, e2, tm):
    free = FreeIdagModel(tm.weights)
    return [_apply_quotients(evaluate(e, free), tm) for e in (e1, e2)]


def _eager(e1, e2, tm):
    """The report of e1 = e2 built with both normal forms given."""
    nf1, nf2 = (canonical_form(q) for q in _images(e1, e2, tm))
    equal = nf1 == nf2
    return EqReport(equal, nf1, nf2, {nid: nid for nid in nf1.node_ids} if equal else None)


def _assert_decides_as_canonical_forms(e1, e2, tm):
    q1, q2 = _images(e1, e2, tm)
    report = equal_mod_theory(e1, e2, tm)
    assert report.equal == (canonical_form(q1) == canonical_form(q2))
    return report


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(MODES))
def test_the_verdict_is_that_of_the_canonical_forms(seed, tm):
    rng = random.Random(seed)
    labels = ("•", "x")
    d = random_idag(rng, rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 6), 0.4, tm.weights, labels=labels)
    others = [
        random_idag(rng, d.n_in, d.n_out, rng.randint(0, 6), 0.4, tm.weights, labels=labels, id_prefix="o"),
        random_idag(rng, d.n_in, d.n_out, len(d.nodes), 0.4, tm.weights, labels=labels, id_prefix="o"),
    ]
    e1 = _expression(d)
    for other in others:
        _assert_decides_as_canonical_forms(e1, _expression(other), tm)
    e2 = decompose(d, sample_topological_sorting(d, rng))
    assert _assert_decides_as_canonical_forms(e1, e2, tm).equal


def test_the_verdict_is_that_of_the_canonical_forms_on_whole_spaces():
    # every pair of upper-triangular dags on n <= 4 nodes, and of BOOL idags
    # on n <= 2 nodes with the same interface, with and without quotients
    both = TheoryMode(BOOL, frozenset({TRANSITIVE, NO_DANGLING}))
    spaces = [(list(_dag_space(n)), [TheoryMode(BOOL)]) for n in range(5)]
    by_shape: dict = {}
    for d in _interfaced_space():
        if len(d.nodes) <= 2:
            by_shape.setdefault((d.n_in, d.n_out, len(d.nodes)), []).append(d)
    spaces += [(space, [TheoryMode(BOOL), both]) for space in by_shape.values()]
    pairs = unequal = 0
    for space, modes in spaces:
        exprs = [_expression(d) for d in space]
        for tm in modes:
            forms = [canonical_form(_apply_quotients(d, tm)) for d in space]
            for (i, e1), (j, e2) in itertools.product(enumerate(exprs), repeat=2):
                verdict = equal_mod_theory(e1, e2, tm).equal
                assert verdict == (forms[i] == forms[j])
                pairs += 1
                unequal += not verdict
    assert pairs > 10_000 and 0 < unequal < pairs


def _counting_search(monkeypatch):
    """Count the calls of canon.canonical_order, as core binds it."""
    from idag.canon import canonical_order

    calls = []

    def counted(*args):
        calls.append(args)
        return canonical_order(*args)

    monkeypatch.setattr(core, "_canonical_order", counted)
    return calls


def test_no_canonical_labelling_runs_until_a_form_is_read(monkeypatch):
    calls = _counting_search(monkeypatch)
    pairs = [
        ("node[a] ; node[b]", "node[a] ; node[c]"),  # a label
        ("delta ; node[a] * node[b] ; nabla", "delta ; node[a] * id(1) ; nabla"),  # the node count
        ("delta ; nabla ; node[a]", "node[a]"),  # an edge weight, 2 against 1
    ]
    for lhs, rhs in pairs:
        calls.clear()
        report = equal_mod_theory(parse(lhs), parse(rhs), NAT)
        assert not report.equal and report.witness is None and calls == []
        left = report.normal_form_left
        assert len(calls) == 1
        assert report.normal_form_left is left and len(calls) == 1
        assert report.normal_form_right == normalize(parse(rhs), NAT) and len(calls) == 3


def test_pairs_the_invariant_cannot_split_take_both_forms_at_once(monkeypatch):
    calls = _counting_search(monkeypatch)
    for lhs, rhs in [("node[a] ; node[b]", "node[b] ; node[a]"), ("node[a] ; node[b]", "id(1) ; node[a] ; node[b]")]:
        calls.clear()
        equal_mod_theory(parse(lhs), parse(rhs), BOOL)
        assert len(calls) == 2
    # twisted and untwisted CFI dags share every invariant
    untwisted, twisted = (_cfi(6, 6, t) for t in (False, True))
    assert _invariant(untwisted) == _invariant(twisted)
    calls.clear()
    assert not equal_mod_theory(_expression(untwisted), _expression(twisted), BOOL).equal
    assert len(calls) == 2


@pytest.mark.parametrize("tm", MODES, ids=lambda tm: f"{tm.weights.name}{sorted(tm.quotients)}")
def test_a_lazy_report_is_the_eager_one(tm):
    rng = random.Random(3)
    seen = 0
    for _ in range(30):
        d = random_idag(rng, 1, 2, rng.randint(1, 5), 0.5, tm.weights, labels=("•", "x"))
        other = random_idag(rng, 1, 2, rng.randint(1, 5), 0.5, tm.weights, labels=("•", "x"), id_prefix="o")
        e1, e2 = _expression(d), _expression(other)
        eager = _eager(e1, e2, tm)
        if _invariant(eager.normal_form_left) == _invariant(eager.normal_form_right):
            continue
        seen += 1
        # each check on a report whose forms were not read before it
        lazy = lambda: equal_mod_theory(e1, e2, tm)  # noqa: E731
        assert lazy() == eager and eager == lazy()
        assert repr(lazy()) == repr(eager)
        assert lazy().to_json_obj() == eager.to_json_obj()
        assert pickle.loads(pickle.dumps(lazy())) == eager
        report = lazy()
        assert (report.equal, report.normal_form_left, report.normal_form_right, report.witness) == (
            eager.equal,
            eager.normal_form_left,
            eager.normal_form_right,
            eager.witness,
        )
    assert seen >= 10


def _budget_of_one(monkeypatch):
    """canonical_form, as equal_mod_theory calls it, with a budget of one
    search tree node."""
    monkeypatch.setattr(equivalence, "canonical_form", lambda d: canonical_form(d, budget=1))


def _crown_pair():
    # a crown needs the search; the right side relabels one node
    crown = _crown(4)
    relabelled = crown.nodes[:-1] + ((crown.nodes[-1][0], "x"),)
    other = core.Idag(crown.weights, 0, 0, relabelled, crown.wires)
    return crown, _expression(crown), _expression(other)


def test_reading_a_form_raises_what_canonical_form_raises(monkeypatch):
    crown, lhs, rhs = _crown_pair()
    with pytest.raises(SearchBudgetExceeded) as expected:
        canonical_form(crown, budget=1)
    _budget_of_one(monkeypatch)
    report = equal_mod_theory(lhs, rhs, BOOL)
    assert not report.equal
    with pytest.raises(SearchBudgetExceeded) as got:
        report.normal_form_left
    assert str(got.value) == str(expected.value)
    with pytest.raises(SearchBudgetExceeded):
        report.to_json_obj()
    with pytest.raises(AttributeError):
        report.no_such_field


def test_eq_prints_nothing_when_a_form_fails(monkeypatch, capsys):
    _, lhs, rhs = _crown_pair()
    _budget_of_one(monkeypatch)
    texts = [print_expression(e) for e in (lhs, rhs)]
    for fmt in ("text", "json"):
        assert main(["eq", "--format", fmt, *texts]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "exceeded its budget" in err
