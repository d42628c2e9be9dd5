"""parse, evaluate in the free and matrix models, normalize and
equal_mod_theory type-check an expression in the pass that builds it. These
tests play them against twopass_reference.py, where arity_of checked each
expression first: the same results, and the same error type and message, on
well- and ill-typed ASTs, printed and mutated texts, terms that are not
atoms, anti outside int mode, closed label sets and unequal interfaces.
(Bad widths and non-str labels are refused where an atom is built.)
The drawn expressions include decompositions, whose atoms are shared, and
(delta ; nabla)^k chains, which run the walk's generator images, and a
fixed corpus of deep left spines, odd or bad terms at a spine's bottom and
non-terms (tuples, ints) placed off the input spine. And a well-typed
input never reaches arity_of, a copy, merge, discard or crossing short of
wires raises arity_of's error, and the walk takes the shapes it runs inline
from the generator table on each call."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

import fold_reference
import twopass_reference as ref
from helpers import Forwarding
from idag import equivalence, models, terms
from idag.builders import map_atoms, seq_all
from idag.core import Idag
from idag.decomposition import decompose, default_sorting
from idag.equivalence import TRANSITIVE, TheoryMode, equal_mod_theory, normalize
from idag.errors import ArityMismatch, ExprSyntaxError, TypeMismatch, UnsupportedGenerator
from idag.jsonio import idag_to_json
from idag.matrices import MatrixModel, MatrixMorphism
from idag.models import FreeIdagModel, evaluate
from idag.printer import print_expression
from idag.randgen import random_expression, random_idag
from idag.terms import (
    Anti,
    Delta,
    Eps,
    Eta,
    Expression,
    Id,
    Nabla,
    Node,
    Seq,
    Sym,
    Ten,
    atoms,
    parse,
)
from idag.weights import BOOL, INT, NAT


class _Label(str):
    pass


class _WideId(Id):
    __slots__ = ()


class _SubSeq(Seq):
    __slots__ = ()


class _Box(Expression):
    __slots__ = ()


class _SubNode(Node):
    __slots__ = ()


_SWAPS = [Delta(), Nabla(), Eta(), Eps(), Anti(), Node("x"), Node("zz"), Id(2), Sym(1, 1), Id(0)]
_ODD = [Node(_Label("x")), Sym(0, 2)]
# terms that are not atoms: a class outside the eleven, a subclass of one
# included; an atom with a bad width or label is not built (test_terms and
# test_validation check that its constructor raises)
_BAD = [_Box(), _SubNode("x"), _WideId(2), _SubSeq(Delta(), Nabla())]
_MODES = [
    TheoryMode(BOOL),
    TheoryMode(NAT),
    TheoryMode(INT),
    TheoryMode(BOOL, frozenset({TRANSITIVE})),
    TheoryMode(NAT, frozenset(), frozenset({"•", "x"})),
]
_TEXT_PIECES = [" ; ", " * ", "(", ")", "id(2)", "sym(1,2)", "delta", "nabla", "eps", "eta", "anti",
                "node[x]", "node", "id(0)", "id(", ","]


def _decomposition(rng):
    """A (delta ; nabla)^k chain, or a decomposition of a random bool, nat or
    int idag of up to 64 nodes with weights of up to 2^70 in size."""
    if rng.random() < 0.2:
        return seq_all([Seq(Delta(), Nabla())] * rng.randint(1, 80))
    mode = rng.choice((BOOL, NAT, INT))
    n = rng.randint(0, rng.choice((8, 16, 64)))
    d = random_idag(rng, rng.randint(0, 3), rng.randint(0, 3), n, 3 / (n / 2 + 3), mode,
                    labels=("x", "y", "•"))
    if mode is not BOOL:
        wires = tuple(
            {s: w * rng.choice((1, 1, 1, rng.randint(1, 2**70 // 3))) for s, w in wire.items()}
            for wire in d.wires
        )
        d = Idag(mode, d.n_in, d.n_out, d.nodes, wires)
    return decompose(d, default_sorting(d))


def _expression(rng):
    """A random expression or decomposition: well-typed, mutated atom by
    atom, or an odd composite of such parts."""
    if rng.random() < 0.1:
        e = _decomposition(rng)
    else:
        e = random_expression(rng, max_depth=rng.randint(1, 4), allow_anti=rng.random() < 0.5)
    roll = rng.random()
    if roll < 0.3:
        return e
    if roll < 0.7:
        pool = _SWAPS + _ODD + (_BAD if rng.random() < 0.3 else [])
        return map_atoms(e, lambda a: rng.choice(pool) if rng.random() < 0.15 else a)
    parts = [rng.choice([e, random_expression(rng, max_depth=2)] + _ODD + _SWAPS) for _ in range(4)]
    if rng.random() < 0.2:
        parts[rng.randrange(4)] = rng.choice(_BAD)
    return Seq(Ten(parts[0], Seq(parts[1], Id(0))), Ten(parts[2], Seq(parts[3], Id(1))))


def _text(rng, e):
    """e printed, and half the time cut, spliced or rejoined as text."""
    try:
        text = print_expression(e)
    except UnsupportedGenerator:
        text = "delta ; id(1) * node[x] ; nabla"
    if rng.random() < 0.5:
        return text
    at = rng.randrange(len(text) + 1)
    roll = rng.random()
    if roll < 0.4:
        return text[:at] + rng.choice(_TEXT_PIECES) + text[at:]
    if roll < 0.7:
        return text[:at] + text[at + rng.randint(1, 6) :]
    return text.replace(";", "*", 1) if rng.random() < 0.5 else text.replace("*", ";", 1)


def _value(result):
    if isinstance(result, Idag):
        return ("idag", result.weights.name, result.n_in, result.n_out, result.nodes, result.wires)
    if isinstance(result, MatrixMorphism):
        return ("matrix", result.weights.name, result.n_in, result.cols)
    if isinstance(result, Expression):
        return repr(result)
    equal, nf1, nf2 = result
    return (equal, idag_to_json(nf1), idag_to_json(nf2))


def _outcome(f, *args):
    """f(*args) as a comparable value, or its error's type and message."""
    try:
        return _value(f(*args))
    except Exception as exc:  # non-IdagErrors (a TypeError, say) must match too
        return type(exc), str(exc)


def _report(e1, e2, mode):
    report = equal_mod_theory(e1, e2, mode)
    return report.equal, report.normal_form_left, report.normal_form_right


def _matrix_model(rng, mode):
    lo, hi = {BOOL: (0, 1), NAT: (0, 3), INT: (-3, 3)}[mode]
    return MatrixModel(mode, {"x": rng.randint(lo, hi), "y": rng.randint(lo, hi)})


def _check_case(rng):
    """Play one drawn case against the reference; its outcome kinds."""
    e1, e2 = _expression(rng), _expression(rng)
    if rng.random() < 0.4:
        e2 = map_atoms(e1, lambda a: rng.choice(_SWAPS) if rng.random() < 0.1 else a)
    mode = rng.choice((BOOL, NAT, INT))
    tm = rng.choice(_MODES)
    text = _text(rng, e1)
    free, matrix_model = FreeIdagModel(mode), _matrix_model(rng, mode)
    pairs = [
        (parse, ref.parse, (text,)),
        (evaluate, ref.evaluate, (e1, free)),
        (evaluate, ref.evaluate, (e1, matrix_model)),
        (normalize, ref.normalize, (e1, tm)),
        (normalize, ref.normalize, (e2, tm.weights)),
        (_report, ref.equal_mod_theory, (e1, e2, tm)),
    ]
    kinds = set()
    for f, g, args in pairs:
        want = _outcome(g, *args)
        assert _outcome(f, *args) == want, (f.__name__, args)
        kinds.add(want[0] if isinstance(want[0], type) else "value")
    return kinds


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_one_pass_matches_the_two_pass_reference(seed):
    rng = random.Random(seed)
    for _ in range(4):
        _check_case(rng)


def test_the_differential_corpus_reaches_every_outcome():
    rng = random.Random(5)
    kinds = set()
    for _ in range(400):
        kinds |= _check_case(rng)
    assert {"value", ExprSyntaxError, TypeMismatch, UnsupportedGenerator, ArityMismatch} <= kinds


# a copy that reads past the last wire and a merge with one wire left
_SHORT_OF_WIRES = [
    Seq(Delta(), Seq(Ten(Node("x"), Id(1)), Ten(Id(2), Delta()))),
    Seq(Delta(), Seq(Ten(Node("x"), Id(1)), Ten(Id(1), Nabla()))),
    Seq(Delta(), Seq(Ten(Node("x"), Id(1)), Ten(Id(2), Eps()))),
    Seq(Delta(), Seq(Ten(Node("x"), Id(1)), Sym(1, 2))),
]


def _left_spines():
    """Left-deep chains of 2,000 terms and more, alone and as the `then` or
    the right factor of a composite; shorter ones with an odd, bad or
    over-reading term (one that consumes more wires than there are) at the
    bottom of a left spine; and non-terms off the input spine."""
    ten = functools.partial(functools.reduce, Ten)
    seq = functools.partial(functools.reduce, Seq)
    cases = [
        ten([Node("x")] * 2500),
        ten([Id(1), Node("y"), Delta(), Sym(1, 1)] * 600),
        seq([Seq(Delta(), Nabla())] * 2000),
        seq([Node("x")] * 2100),
        seq([Ten(Node("x"), Id(1))] * 2000),
        Seq(Id(1), seq([Delta(), Nabla()] * 1000)),
        Ten(Id(1), ten([Node("x")] * 2000)),
    ]
    for bottom in _ODD + _BAD + [Nabla(), Sym(1, 1), Id(2), (Id(1), 0), 7]:
        cases += [
            ten([bottom] + [Id(1)] * 50),
            seq([bottom] + [Id(bottom.n if type(bottom) is _WideId else 1)] * 50),
            Seq(Id(1), seq([bottom] + [Node("x")] * 50)),
            Seq(Node("x"), ten([bottom] + [Id(0)] * 50)),
            Ten(Id(1), Seq(ten([bottom] + [Id(0)] * 50), Id(1))),
        ]
    cases += [
        Seq(Id(2), Ten(Id(1), (Id(1), -2))),
        Seq(Id(2), Ten(Id(1), (Id(0), 1))),
        Seq(Id(2), Ten(Id(1), (Id(0), -2))),
        Seq(Id(2), Ten(Id(1), Ten(1, Id(0)))),
        Seq(Id(2), Ten(Id(1), (Id(1), None))),
        Seq(Id(1), (Id(1), 0)),
        Seq(Node("x"), Seq(-1, Id(1))),
        Seq(Id(1), 0),
        Ten(Id(1), 3),
        Ten(Id(0), Seq(Id(0), (Eta(), 0))),
        Ten((Id(1), 0), Id(1)),
        Seq(Seq(Delta(), Ten((Id(1), 0), Id(1))), Nabla()),
    ]
    return cases + _SHORT_OF_WIRES



def test_deep_spines_and_non_terms_match_the_two_pass_reference():
    rng = random.Random(11)
    kinds = set()
    for k, e in enumerate(_left_spines()):
        tm = rng.choice(_MODES)
        free, matrix_model = FreeIdagModel(tm.weights), _matrix_model(rng, tm.weights)
        pairs = [
            (evaluate, ref.evaluate, (e, free)),
            (evaluate, ref.evaluate, (e, matrix_model)),
            (normalize, ref.normalize, (e, tm)),
            (_report, ref.equal_mod_theory, (e, e, tm.weights)),
        ]
        for f, g, args in pairs:
            want = _outcome(g, *args)
            assert _outcome(f, *args) == want, (f.__name__, k)
            kinds.add(want[0] if isinstance(want[0], type) else "value")
    assert {"value", TypeMismatch, UnsupportedGenerator} <= kinds


def test_well_typed_input_never_calls_arity_of(monkeypatch):
    rng = random.Random(3)
    cases = [random_expression(rng, max_depth=rng.randint(1, 6), allow_anti=True) for _ in range(60)]
    for n in (8, 32):
        d = random_idag(rng, 2, 3, n, 0.3, INT, labels=("a", "x"))
        cases.append(decompose(d, default_sorting(d)))
    texts = [print_expression(e) for e in cases]
    matrix_model = MatrixModel(INT, {"x": 2})
    runs = [
        lambda e, text: parse(text),
        lambda e, text: evaluate(e, FreeIdagModel(INT)),
        lambda e, text: evaluate(e, matrix_model),
        lambda e, text: normalize(e, INT),
        lambda e, text: normalize(e, TheoryMode(INT, frozenset(), frozenset({"•", "a", "x", "y"}))),
        lambda e, text: _report(e, e, INT),
    ]
    want = [[_value(run(e, text)) for run in runs] for e, text in zip(cases, texts)]

    def refuse(e):
        raise AssertionError("arity_of ran on a well-typed input")

    for module in (terms, models, equivalence):
        monkeypatch.setattr(module, "arity_of", refuse)
    for e, text, values in zip(cases, texts, want):
        assert [_value(run(e, text)) for run in runs] == values


def test_a_copy_or_merge_short_of_wires_raises_arity_ofs_error():
    for e in _SHORT_OF_WIRES:
        for model in (FreeIdagModel(NAT), MatrixModel(NAT)):
            with pytest.raises(TypeMismatch) as info:
                evaluate(e, model)
            assert (info.value.position, info.value.expected, info.value.found) == ("expr.then", 2, 3)


@pytest.mark.parametrize("ws", [NAT, INT])
def test_the_walk_reads_copy_and_merge_shapes_off_the_table(monkeypatch, ws):
    # images close to a copy and a merge but not equal to them: a merge
    # weighting its second input by 2 and a copy to three outputs, with the
    # arity table to match. The walk must take their shapes from the table
    # on this call, so it agrees with the reference walk, with the slice
    # fold of a wrapping model and with the compose/tensor fold, which read
    # each image generically
    monkeypatch.setitem(terms._GENERATORS, Nabla, ("nabla", 2, (((0, 1), (1, 2)),)))
    monkeypatch.setitem(terms._GENERATORS, Delta, ("delta", 1, (((0, 1),),) * 3))
    monkeypatch.setitem(terms._GENERATOR_ARITY, Delta, (1, 3))
    rng = random.Random(7)
    cases = [random_expression(rng, max_depth=4, allow_anti=ws is INT, labels=("x", "y")) for _ in range(60)]
    cases += [Delta(), Nabla(), Seq(Delta(), Ten(Nabla(), Id(1))), Seq(Delta(), Ten(Id(1), Nabla()))]
    assert sum(isinstance(a, Delta) for e in cases for a in atoms(e)) > 20
    assert sum(isinstance(a, Nabla) for e in cases for a in atoms(e)) > 20
    for model in (FreeIdagModel(ws), MatrixModel(ws, {"x": 2, "y": 3})):
        for e in cases:
            got = evaluate(e, model)
            assert _value(got) == _value(ref.evaluate(e, model))
            assert model.equal(got, evaluate(e, Forwarding(model)))
            assert model.equal(got, fold_reference.evaluate(e, model))
    assert evaluate(Delta(), MatrixModel(ws)).entries == ((1, 1, 1),)
    assert evaluate(Nabla(), MatrixModel(ws)).entries == ((1,), (2,))


@pytest.mark.parametrize("ws", [NAT, INT])
def test_the_walk_reads_unit_and_discard_shapes_off_the_table(monkeypatch, ws):
    # as above, for images close to a unit and a discard: a unit with two
    # empty outputs and a discard that passes its input on with weight 2
    monkeypatch.setitem(terms._GENERATORS, Eta, ("eta", 0, ((), ())))
    monkeypatch.setitem(terms._GENERATOR_ARITY, Eta, (0, 2))
    monkeypatch.setitem(terms._GENERATORS, Eps, ("eps", 1, (((0, 2),),)))
    monkeypatch.setitem(terms._GENERATOR_ARITY, Eps, (1, 1))
    rng = random.Random(7)
    cases = [random_expression(rng, max_depth=4, allow_anti=ws is INT, labels=("x", "y")) for _ in range(60)]
    cases += [
        Eta(),
        Eps(),
        Seq(Eta(), Ten(Eps(), Node("x"))),
        Seq(Ten(Node("x"), Eta()), Ten(Ten(Id(1), Eps()), Id(1))),
    ]
    assert sum(isinstance(a, Eta) for e in cases for a in atoms(e)) > 20
    assert sum(isinstance(a, Eps) for e in cases for a in atoms(e)) > 20
    for model in (FreeIdagModel(ws), MatrixModel(ws, {"x": 2, "y": 3})):
        for e in cases:
            got = evaluate(e, model)
            assert _value(got) == _value(ref.evaluate(e, model))
            assert model.equal(got, evaluate(e, Forwarding(model)))
            assert model.equal(got, fold_reference.evaluate(e, model))
    assert evaluate(Eta(), MatrixModel(ws)).n_out == 2
    assert evaluate(Eps(), MatrixModel(ws)).entries == ((2,),)
