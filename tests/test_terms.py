import random

import pytest
from hypothesis import given, settings, strategies as st

from idag.core import from_permutation
from idag.errors import ExprSyntaxError, TypeMismatch, UnsupportedGenerator
from idag.models import FreeIdagModel, MatrixModel, evaluate
from idag.randgen import random_expression
from idag.terms import (
    _tokenize,
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
    with pytest.raises(UnsupportedGenerator):
        print_expression(Node("two words"))


@pytest.mark.parametrize(
    "wiring", [Id(-1), Id(True), Id(1.5), Id("2"), Sym(-1, 1), Sym(1.5, 0), Sym(1, False), Sym(0, None)]
)
def test_wiring_widths_must_be_non_negative_ints(wiring):
    for e in (wiring, Ten(Id(1), Seq(wiring, wiring))):
        with pytest.raises(UnsupportedGenerator):
            arity_of(e)
        with pytest.raises(UnsupportedGenerator):
            print_expression(e)
        for model in (FreeIdagModel(), MatrixModel()):
            with pytest.raises(UnsupportedGenerator):
                evaluate(e, model)
    with pytest.raises(UnsupportedGenerator):
        expand_symmetry(-1, 2)


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


def test_deeply_nested_parentheses():
    depth = 10_000
    assert parse("(" * depth + "id(1)" + ")" * depth) == Id(1)
    assert parse("(" * depth + "eta ; (node ; (eps))" + ")" * depth) == Seq(Eta(), Seq(Node(), Eps()))
    with pytest.raises(ExprSyntaxError) as exc:
        parse("(" * depth + "id(1)" + ")" * (depth - 1))
    assert (exc.value.line, exc.value.column) == (1, 2 * depth + 5)


def _reference_tokens(text):
    """Character-by-character tokenizer: skip whitespace, take the longest
    identifier or number, or one punctuation character."""
    tokens = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        idx = 0
        while idx < len(line):
            ch = line[idx]
            if ch.isspace():
                idx += 1
                continue
            end = idx + 1
            if ch.isascii() and (ch.isalpha() or ch == "_"):
                while end < len(line) and line[end].isascii() and (line[end].isalnum() or line[end] == "_"):
                    end += 1
            elif ch in "0123456789":
                while end < len(line) and line[end] in "0123456789":
                    end += 1
            elif ch not in ";*()[],":
                raise ExprSyntaxError(lineno, idx + 1, f"unexpected character {ch!r}")
            tokens.append((line[idx:end], lineno, idx + 1))
            idx = end
    return tokens


def test_tokens_match_the_reference_tokenizer():
    rng = random.Random(11)
    texts = []
    for _ in range(300):
        text = print_expression(random_expression(rng, max_depth=6, allow_anti=True))
        texts.append(text)
        for _ in range(2):
            i = rng.randrange(len(text) + 1)
            texts.append(text[:i] + rng.choice(["\n  ", "\t", " - ", "é", "(", "x1", "$"]) + text[i:])
    texts += ["", "\n", "  \t", "eta\x1c;eps", "12abc_3 ;", "node[ü]"]
    for text in texts:
        try:
            want = _reference_tokens(text)
        except ExprSyntaxError as exc:
            with pytest.raises(ExprSyntaxError) as got:
                _tokenize(text)
            assert (got.value.line, got.value.column, got.value.message) == (
                exc.line,
                exc.column,
                exc.message,
            )
            continue
        assert [(t.text, t.line, t.column) for t in _tokenize(text)] == want


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("", 1, 1, "empty expression"),
        ("delta ;", 1, 8, "unexpected end of input"),
        ("delta nabla", 1, 7, "trailing input 'nabla'"),
        ("id(-1)", 1, 4, "unexpected character '-'"),
        ("sym(1)", 1, 6, "expected ','"),
        ("node[", 1, 6, "unexpected end of input"),
        ("(delta", 1, 7, "expected ')'"),
        ("delta ;\n; nabla", 2, 1, "unexpected token ';'"),
        ("eta *", 1, 6, "unexpected end of input"),
        ("eta ;\n  eta $ eps", 2, 7, "unexpected character '$'"),
        ("((eta)", 1, 7, "expected ')'"),
        ("node[;]", 1, 6, "expected a label"),
        ("id(x)", 1, 4, "expected a number, got 'x'"),
        ("(eta * (eta ; nabla)", 1, 21, "expected ')'"),
        ("eta\t;\t\t%", 1, 8, "unexpected character '%'"),
        ("id(1) )", 1, 7, "trailing input ')'"),
    ],
)
def test_syntax_error_positions(text, line, column, message):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column, exc.value.message) == (line, column, message)
