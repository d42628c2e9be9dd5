import random

import pytest
from hypothesis import given, settings, strategies as st

from idag.algebra import identity, make_idag, symmetry
from idag.builders import seq_all
from idag.core import MAX_WIDTH, In, NodeRef, Out, is_isomorphic, transitive_closure
from idag.errors import (
    IdagError,
    InterfaceMismatch,
    InvalidWeight,
    ModeMismatch,
    SizeLimitExceeded,
    UnsupportedGenerator,
)
from idag.loops import LoopsModel, LoopsMorphism, loops_eval
from idag.matrices import MatrixModel, matrix, matrix_identity, matrix_permutation
from idag.models import FreeIdagModel, Model, evaluate, free_generator_image
from idag.randgen import random_expression, random_matrix
from idag.terms import Anti, Delta, Eps, Eta, Id, Nabla, Node, Seq, Sym, Ten, arity_of, parse
from idag.weights import BOOL, INT, NAT


# ---------------------------------------------------------------------------
# generator images in the free model


def test_free_images():
    assert free_generator_image(Eta(), BOOL) == make_idag(0, 1, [], {})
    assert free_generator_image(Nabla(), BOOL) == make_idag(2, 1, [], [(In(0), Out(0)), (In(1), Out(0))])
    assert free_generator_image(Eps(), BOOL) == make_idag(1, 0, [], {})
    assert free_generator_image(Delta(), BOOL) == make_idag(1, 2, [], [(In(0), Out(0)), (In(0), Out(1))])
    node = free_generator_image(Node("x"), NAT)
    assert len(node.nodes) == 1 and node.label_of(node.node_ids[0]) == "x"
    assert node.weight(In(0), NodeRef(node.node_ids[0])) == 1
    anti = free_generator_image(Anti(), INT)
    assert dict(anti.edges) == {(In(0), Out(0)): -1}
    with pytest.raises(UnsupportedGenerator):
        free_generator_image(Anti(), NAT)


# ---------------------------------------------------------------------------
# matrix model


def test_matrix_examples():
    assert evaluate(parse("delta ; nabla"), MatrixModel(NAT)).entries == ((2,),)
    assert evaluate(parse("nabla ; delta"), MatrixModel(NAT)).entries == ((1, 1), (1, 1))
    assert evaluate(parse("delta ; nabla"), MatrixModel(BOOL)).entries == ((1,),)
    hopf = parse("delta ; (anti * id(1)) ; nabla")
    assert evaluate(hopf, MatrixModel(INT)).entries == ((0,),)
    assert evaluate(hopf, MatrixModel(INT)) == evaluate(parse("eps ; eta"), MatrixModel(INT))
    assert hash(evaluate(hopf, MatrixModel(INT))) == hash(evaluate(parse("eps ; eta"), MatrixModel(INT)))
    # each generator's image, pinned by literal: the walk and the fold both
    # read it from the generator table
    for ws in (BOOL, NAT, INT):
        model = MatrixModel(ws)
        eta, eps = model.generator(Eta()), model.generator(Eps())
        assert (eta.n_in, eta.n_out, eta.entries) == (0, 1, ())
        assert (eps.n_in, eps.n_out, eps.entries) == (1, 0, ((),))
        assert model.generator(Nabla()).entries == ((1,), (1,))
        assert model.generator(Delta()).entries == ((1, 1),)
        if ws is INT:
            assert model.generator(Anti()).entries == ((-1,),)
        else:
            with pytest.raises(UnsupportedGenerator):
                model.generator(Anti())


def test_matrix_is_exact_beyond_int64():
    e = seq_all([Seq(Delta(), Nabla())] * 64)
    assert evaluate(e, MatrixModel(NAT)).entries == ((2**64,),)
    assert evaluate(e, FreeIdagModel(NAT)).weight(In(0), Out(0)) == 2**64


def test_matrix_constructors():
    m = matrix([[1, 2], [0, 3]], NAT)
    assert m.n_in == 2 and m.n_out == 2
    assert matrix_identity(3, INT).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert matrix_permutation([1, 0], BOOL).entries == ((0, 1), (1, 0))
    assert matrix([], NAT, n=0, m=2).n_out == 2


def _dense_product(a, b, m, ws):
    """The row-major product of dense matrices a (n x k) and b (k x m)."""
    prod = [[sum(x * row[j] for x, row in zip(a_row, b)) for j in range(m)] for a_row in a]
    return [[min(x, 1) for x in row] for row in prod] if ws is BOOL else prod


def test_then_and_tensor_agree_with_dense_products():
    # columns store the matrix; the dense rows are the reference, with
    # entries past 2^63 in NAT and INT
    rng = random.Random(26)
    for case in range(90):
        ws = (BOOL, NAT, INT)[case % 3]
        n, k, m = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        f = random_matrix(rng, n, k, ws, (4, 2**70)[case % 2])
        g = random_matrix(rng, k, m, ws, (4, 2**70)[case % 2])
        a, b = f.entries, g.entries
        assert [list(row) for row in f.then(g).entries] == _dense_product(a, b, m, ws)
        blocks = [list(row) + [0] * m for row in a] + [[0] * k + list(row) for row in b]
        assert [list(row) for row in f.tensor(g).entries] == blocks
        for mat in (f, g, f.then(g), f.tensor(g)):
            rebuilt = matrix(mat.entries, ws, mat.n_in, mat.n_out)
            assert rebuilt == mat and hash(rebuilt) == hash(mat)


def test_matrix_rejects_ragged_rows():
    with pytest.raises(InvalidWeight):
        matrix([[1, 2], [3]], NAT)


def test_matrix_then_errors():
    a = matrix([[1]], NAT)
    b = matrix([[1], [1]], NAT)
    with pytest.raises(InterfaceMismatch):
        a.then(b)
    with pytest.raises(ModeMismatch):
        a.then(matrix([[1]], INT))


def test_matrix_bool_clip():
    fan = matrix([[1, 1]], BOOL)
    merge = matrix([[1], [1]], BOOL)
    assert fan.then(merge).entries == ((1,),)


def test_matrix_json_shape():
    obj = matrix([[1, 2]], NAT).to_json_obj()
    assert obj == {"mode": "nat", "inputs": 1, "outputs": 2, "entries": [[1, 2]]}


def test_matrix_lambda_images():
    mm = MatrixModel(NAT, {"x": 3})
    assert evaluate(Node("x"), mm).entries == ((3,),)
    assert evaluate(Node("unlisted"), mm).entries == ((1,),)
    mm2 = MatrixModel(INT, {"x": matrix([[-2]], INT)})
    assert evaluate(Seq(Node("x"), Node("x")), mm2).entries == ((4,),)


def test_matrix_rejects_anti_without_negatives():
    with pytest.raises(UnsupportedGenerator):
        evaluate(Anti(), MatrixModel(NAT))
    with pytest.raises(UnsupportedGenerator):
        evaluate(Anti(), MatrixModel(BOOL))


# ---------------------------------------------------------------------------
# loops model


def test_loops_examples():
    assert loops_eval(parse("node[x] ; node[y]")) == LoopsMorphism((0,), (("y", "x"),))
    assert loops_eval(parse("sym(1,1)")) == LoopsMorphism((1, 0), ((), ()))
    assert loops_eval(parse("(node[x] * id(1)) ; sym(1,1)")) == LoopsMorphism(
        (1, 0), (("x",), ())
    )
    assert loops_eval(Id(3)) == LoopsMorphism((0, 1, 2), ((), (), ()))


def test_loops_rejects_structural_generators():
    for e in (Eta(), Nabla(), Eps(), Delta(), Anti()):
        with pytest.raises(UnsupportedGenerator):
            evaluate(e, LoopsModel())


def test_loops_composition_formula():
    a = LoopsMorphism((1, 0), (("x",), ()))
    b = LoopsMorphism((0, 1), (("u",), ("v",)))
    c = a.then(b)
    assert c.perm == (1, 0)
    # wire 0 passes through a (word x, lands on 1), then picks up b's word at 1
    assert c.words == (("v", "x"), ("u",))


def _free_path_reading(d):
    """Recover (perm, words) from a free-model value of a node/sym expression:
    follow each input's unique path, collecting labels."""
    succ = {}
    for (src, dst), _ in d.edges.items():
        assert src not in succ
        succ[src] = dst
    perm = [None] * d.n_in
    words = []
    for i in range(d.n_in):
        v = succ[In(i)]
        picked = []
        while isinstance(v, NodeRef):
            picked.append(d.label_of(v.id))
            v = succ[v]
        perm[i] = v.index
        words.append(tuple(reversed(picked)))
    return tuple(perm), tuple(words)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_loops_agrees_with_free_model(seed):
    rng = random.Random(seed)
    width = rng.randint(0, 4)
    rows = [_consume_row(rng, width, True) for _ in range(rng.randint(1, 4))]
    e = seq_all(rows)
    got = loops_eval(e)
    d = evaluate(e, FreeIdagModel(BOOL))
    perm, words = _free_path_reading(d)
    assert got.perm == perm
    assert got.words == words


# ---------------------------------------------------------------------------
# PROP laws, uniformly over models


from helpers import Forwarding, consume_row as _consume_row  # noqa: E402


def _models_for(seed):
    ws = (BOOL, NAT, INT)[seed % 3]
    return [
        FreeIdagModel(ws),
        MatrixModel(ws, {"x": 2 if ws is not BOOL else 0, "y": 3 if ws is not BOOL else 1}),
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_model_composition_laws(seed):
    rng = random.Random(seed)
    e1 = _consume_row(rng, rng.randint(0, 4), False)
    n1, m1 = arity_of(e1)
    e2 = _consume_row(rng, m1, False)
    _, m2 = arity_of(e2)
    e3 = _consume_row(rng, m2, False)
    for model in _models_for(seed):
        lhs = evaluate(Seq(Seq(e1, e2), e3), model)
        rhs = evaluate(Seq(e1, Seq(e2, e3)), model)
        assert model.equal(lhs, rhs)
        assert model.equal(evaluate(Seq(e1, Id(m1)), model), evaluate(e1, model))
        assert model.equal(evaluate(Seq(Id(n1), e1), model), evaluate(e1, model))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_model_interchange_and_symmetry(seed):
    rng = random.Random(seed)
    e1 = _consume_row(rng, rng.randint(0, 3), False)
    n1, m1 = arity_of(e1)
    f1 = _consume_row(rng, m1, False)
    e2 = _consume_row(rng, rng.randint(0, 3), False)
    n2, m2 = arity_of(e2)
    f2 = _consume_row(rng, m2, False)
    for model in _models_for(seed):
        lhs = evaluate(Seq(Ten(e1, e2), Ten(f1, f2)), model)
        rhs = evaluate(Ten(Seq(e1, f1), Seq(e2, f2)), model)
        assert model.equal(lhs, rhs)
        nat_l = evaluate(Seq(Ten(e1, e2), Sym(m1, m2)), model)
        nat_r = evaluate(Seq(Sym(n1, n2), Ten(e2, e1)), model)
        assert model.equal(nat_l, nat_r)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_free_evaluation_matches_the_fold(seed):
    # evaluate() runs FreeIdagModel on a wire list; a wrapped model takes the
    # compose/tensor fold, which stays the reference
    rng = random.Random(seed)
    ws = (BOOL, NAT, INT)[seed % 3]
    e = random_expression(rng, max_depth=rng.randint(1, 5), allow_anti=ws is INT)
    free = FreeIdagModel(ws)
    fast = evaluate(e, free)
    assert (fast.n_in, fast.n_out) == arity_of(e)
    assert is_isomorphic(fast, evaluate(e, Forwarding(free))) is not None


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_matrix_evaluation_matches_the_fold(seed):
    # MatrixModel runs on a wire list as well; the fold stays the reference.
    # "x" has an int image, "y" a matrix image, the default label none
    rng = random.Random(seed)
    ws = (BOOL, NAT, INT)[seed % 3]
    e = random_expression(rng, max_depth=rng.randint(1, 5), allow_anti=ws is INT)
    lo, hi = {BOOL: (0, 1), NAT: (0, 3), INT: (-3, 3)}[ws]
    model = MatrixModel(ws, {"x": rng.randint(lo, hi), "y": matrix([[rng.randint(lo, hi)]], ws)})
    fast = evaluate(e, model)
    assert (fast.n_in, fast.n_out) == arity_of(e)
    assert fast == evaluate(e, Forwarding(model))


def test_matrix_walk_and_fold_raise_alike():
    from idag.errors import TypeMismatch

    hopf = parse("delta ; (anti * id(1)) ; nabla")
    boxed = parse("delta ; (id(1) * node[x]) ; nabla")
    cases = [
        (Seq(Nabla(), Nabla()), MatrixModel(NAT), TypeMismatch),
        (hopf, MatrixModel(NAT), UnsupportedGenerator),
        (hopf, MatrixModel(BOOL), UnsupportedGenerator),
        (boxed, MatrixModel(NAT, {"x": matrix([[2]], INT)}), ModeMismatch),
        (boxed, MatrixModel(NAT, {"x": matrix([[1, 1]], NAT)}), InterfaceMismatch),
        (boxed, MatrixModel(NAT, {"x": -1}), InvalidWeight),
    ]
    for e, model, error in cases:
        for route in (model, Forwarding(model)):
            with pytest.raises(error):
                evaluate(e, route)


# ---------------------------------------------------------------------------
# wiring derived from relation: id and sym are permutation matrices


class _NoWiring(Forwarding):
    """Passes generator, compose, tensor, relation and equal to the wrapped
    model, and takes id and sym from Model, as a model that defines only
    those five does."""

    identity = Model.identity
    symmetry = Model.symmetry


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_a_model_without_wiring_evaluates_wide_ids_and_syms(seed):
    # e padded by wide ids and crossed over them on both sides
    rng = random.Random(seed)
    ws = (BOOL, NAT, INT)[seed % 3]
    e = random_expression(rng, max_depth=rng.randint(1, 4), allow_anti=ws is INT, labels=("x", "y"))
    n, m = arity_of(e)
    k, j = rng.randint(0, 6), rng.randint(0, 6)
    wide = Seq(Seq(Sym(k + n, j), Ten(Id(k), Ten(e, Id(j)))), Sym(k, m + j))
    lo, hi = {BOOL: (0, 1), NAT: (0, 3), INT: (-3, 3)}[ws]
    model = MatrixModel(ws, {"x": rng.randint(lo, hi), "y": rng.randint(lo, hi)})
    for x in (e, wide):
        assert evaluate(x, _NoWiring(model)) == evaluate(x, model)


def test_each_models_wiring_is_its_own_construction():
    for n in range(5):
        assert LoopsModel().identity(n) == LoopsMorphism(tuple(range(n)), ((),) * n)
        for ws in (BOOL, NAT, INT):
            assert FreeIdagModel(ws).identity(n) == identity(n, ws)
            assert MatrixModel(ws).identity(n) == matrix_identity(n, ws)
        for m in range(5):
            perm = [m + i for i in range(n)] + list(range(m))  # wire i to m+i
            assert LoopsModel().symmetry(n, m) == LoopsMorphism(tuple(perm), ((),) * (n + m))
            for ws in (BOOL, NAT, INT):
                assert FreeIdagModel(ws).symmetry(n, m) == symmetry(n, m, ws)
                assert MatrixModel(ws).symmetry(n, m) == matrix_permutation(perm, ws)


def _raised(call):
    try:
        call()
    except IdagError as exc:
        return type(exc), str(exc)
    raise AssertionError("no error")


_BAD_WIDTHS = (-1, True, None, 1.5, MAX_WIDTH + 1)


@pytest.mark.parametrize("model", [FreeIdagModel(), MatrixModel(INT), LoopsModel(), _NoWiring(MatrixModel())], ids=lambda m: type(m).__name__)
def test_wiring_widths_are_checked_before_they_are_summed(model):
    # each error is the algebra constructors' own, class and message
    for bad in _BAD_WIDTHS:
        assert _raised(lambda: model.identity(bad)) == _raised(lambda: identity(bad))
        assert _raised(lambda: model.symmetry(bad, 1)) == _raised(lambda: symmetry(bad, 1))
        assert _raised(lambda: model.symmetry(1, bad)) == _raised(lambda: symmetry(1, bad))
    past = (SizeLimitExceeded, f"width {MAX_WIDTH + 1} exceeds the bound {MAX_WIDTH}")
    assert _raised(lambda: model.symmetry(MAX_WIDTH, 1)) == past


# ---------------------------------------------------------------------------
# bridge: BOOL matrix = interface reachability of the free value


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_bool_matrix_is_reachability(seed):
    rng = random.Random(seed)
    e = _consume_row(rng, rng.randint(0, 4), False)
    e = Seq(e, _consume_row(rng, arity_of(e)[1], False))
    mat = evaluate(e, MatrixModel(BOOL))
    d = evaluate(e, FreeIdagModel(BOOL))
    tc = transitive_closure(d)
    for i in range(d.n_in):
        for j in range(d.n_out):
            assert mat.entries[i][j] == tc.weight(In(i), Out(j))


# ---------------------------------------------------------------------------
# deliberate break: a wrong merge image must fail the axiom suite


def test_mutant_images_fail_axioms(monkeypatch):
    import idag.selftest as selftest
    import idag.terms as terms

    # a merge that drops its second input; every arity stays the same
    monkeypatch.setitem(terms._GENERATORS, Nabla, ("nabla", 2, (((0, 1),),)))
    assert arity_of(Nabla()) == (2, 1)
    res = selftest.suite_axioms()
    assert res.failures

    lines = []
    monkeypatch.setattr(selftest, "REDUCED", selftest.REDUCED[:1])
    assert selftest.run_selftest(seed=0, out=lines.append) is False
    assert any("axioms" in ln and "FAIL" in ln for ln in lines)


def test_free_evaluation_drops_cancelled_edges():
    hopf = parse("delta ; (anti * id(1)) ; nabla")
    assert dict(evaluate(hopf, FreeIdagModel(INT)).edges) == {}
    twice = parse("delta ; (node[x] * id(1)) ; (id(1) * anti) ; nabla")
    d = evaluate(Seq(twice, hopf), FreeIdagModel(INT))
    assert len(d.nodes) == 1 and len(d.edges) == 1


def test_generator_table_serves_parser_printer_and_models():
    from idag.printer import print_expression
    from idag.terms import _GENERATORS

    assert set(_GENERATORS) == {Eta, Nabla, Eps, Delta, Anti}
    for cls, (keyword, _, _) in _GENERATORS.items():
        assert type(parse(keyword)) is cls
        assert print_expression(cls()) == keyword
        for ws in (BOOL, NAT, INT):
            if cls is Anti and ws is not INT:
                continue
            img = free_generator_image(cls(), ws)
            mat = MatrixModel(ws).generator(cls())
            assert arity_of(cls()) == (img.n_in, img.n_out) == (mat.n_in, mat.n_out)


def test_evaluate_type_checks_first():
    from idag.errors import TypeMismatch

    with pytest.raises(TypeMismatch):
        evaluate(Seq(Nabla(), Nabla()), MatrixModel(NAT))
