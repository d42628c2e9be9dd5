import random

import pytest
from hypothesis import given, settings, strategies as st

from idag.core import from_permutation
from idag.errors import ExprSyntaxError, TypeMismatch, UnsupportedGenerator
from idag.models import FreeIdagModel, MatrixModel, evaluate
from idag.randgen import random_expression
from idag.terms import (
    Anti,
    Delta,
    Eps,
    Eta,
    Id,
    Nabla,
    Node,
    Seq,
    Sym,
    Ten,
    arity_of,
    expand_symmetry,
    parse,
    print_expression,
    seq_all,
    ten_all,
    validate_for_mode,
)
from idag.weights import BOOL, INT, NAT


def test_generator_arities():
    table = {
        Eta(): (0, 1),
        Nabla(): (2, 1),
        Eps(): (1, 0),
        Delta(): (1, 2),
        Node("x"): (1, 1),
        Anti(): (1, 1),
        Id(3): (3, 3),
        Sym(2, 1): (3, 3),
    }
    for e, want in table.items():
        assert arity_of(e) == want


def test_composite_arities():
    assert arity_of(Seq(Delta(), Nabla())) == (1, 1)
    assert arity_of(Ten(Delta(), Eps())) == (2, 2)
    with pytest.raises(TypeMismatch) as exc:
        arity_of(Seq(Nabla(), Nabla()))
    assert exc.value.expected == 1 and exc.value.found == 2


def test_type_error_position():
    # leftmost-innermost failure reported with a path into the AST
    bad = Seq(Ten(Seq(Nabla(), Nabla()), Id(1)), Id(2))
    with pytest.raises(TypeMismatch) as exc:
        arity_of(bad)
    assert exc.value.position == "expr.first.left"


def test_parse_basics():
    assert parse("delta ; nabla") == Seq(Delta(), Nabla())
    assert parse("(node[x] * id(1)) ; sym(1,1)") == Seq(Ten(Node("x"), Id(1)), Sym(1, 1))
    assert parse("delta ; (anti * id(1)) ; nabla") == Seq(
        Seq(Delta(), Ten(Anti(), Id(1))), Nabla()
    )
    assert parse("node") == Node("•")
    assert parse("node[7]") == Node("7")
    assert parse("id(0)") == Id(0)


def test_parse_precedence():
    # * binds tighter than ;
    assert parse("eta * eta ; nabla") == Seq(Ten(Eta(), Eta()), Nabla())


def test_parse_errors_carry_position():
    for text in ["", "delta ;", "delta nabla", "id(", "id(-1)", "sym(1)", "node[", "(delta", "delta)"]:
        with pytest.raises(ExprSyntaxError):
            parse(text)
    with pytest.raises(ExprSyntaxError) as exc:
        parse("delta ;\n; nabla")
    assert exc.value.line == 2
    with pytest.raises(TypeMismatch):
        parse("nabla ; nabla")


def test_print_examples():
    assert print_expression(Seq(Delta(), Nabla())) == "delta ; nabla"
    assert print_expression(Ten(Id(2), Eta())) == "id(2) * eta"
    assert print_expression(Node("•")) == "node"
    assert print_expression(Node("x")) == "node[x]"
    assert print_expression(Seq(Ten(Eta(), Eta()), Nabla())) == "eta * eta ; nabla"
    # right-nested structure needs parens to survive
    e = Seq(Delta(), Seq(Nabla(), Eps()))
    assert parse(print_expression(e)) == e


def test_print_rejects_unprintable_label():
    with pytest.raises(ValueError):
        print_expression(Node("two words"))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_parse_print_round_trip(seed):
    e = random_expression(random.Random(seed), max_depth=8, allow_anti=True)
    assert parse(print_expression(e)) == e


def test_validate_for_mode():
    validate_for_mode(Anti(), INT)
    with pytest.raises(UnsupportedGenerator):
        validate_for_mode(Anti(), BOOL)
    with pytest.raises(UnsupportedGenerator):
        validate_for_mode(Seq(Delta(), Ten(Anti(), Id(1))), NAT)
    validate_for_mode(Node("x"), BOOL, labels={"x"})
    with pytest.raises(UnsupportedGenerator):
        validate_for_mode(Node("z"), BOOL, labels={"x"})


def test_builders():
    assert seq_all([Delta(), Ten(Anti(), Id(1)), Nabla()]) == parse("delta ; (anti * id(1)) ; nabla")
    assert ten_all([]) == Id(0)
    assert ten_all([Id(2), Id(3)]) == Id(5)
    assert ten_all([Id(0), Delta(), Id(0)]) == Delta()
    assert ten_all([Delta(), Id(2), Id(1)]) == Ten(Delta(), Id(3))


def test_expand_symmetry_small():
    assert expand_symmetry(1, 1) == Sym(1, 1)
    assert expand_symmetry(3, 0) == Id(3)
    assert expand_symmetry(0, 2) == Id(2)


def test_expand_symmetry_agrees_with_block_form():
    free = FreeIdagModel(BOOL)
    for n in range(4):
        for m in range(4):
            if n + m > 6:
                continue
            got = evaluate(expand_symmetry(n, m), free)
            assert got == free.symmetry(n, m)
            mm = MatrixModel(NAT)
            assert evaluate(expand_symmetry(n, m), mm) == mm.symmetry(n, m)


def test_expand_symmetry_2_1_wiring():
    free = FreeIdagModel(BOOL)
    assert evaluate(expand_symmetry(2, 1), free) == from_permutation([1, 2, 0])


def test_operator_sugar():
    assert (Delta() >> Nabla()) == Seq(Delta(), Nabla())
    assert (Id(1) @ Eta()) == Ten(Id(1), Eta())
    assert str(Seq(Delta(), Nabla())) == "delta ; nabla"


def test_deep_chain_no_recursion_limit():
    e = Id(1)
    for _ in range(30000):
        e = Seq(e, Id(1))
    assert arity_of(e) == (1, 1)
    text = print_expression(e)
    assert parse(text) == e
