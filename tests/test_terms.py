import copy
import pickle
import random
import re
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from idag import terms
from idag.algebra import from_permutation
from idag.builders import expand_symmetry, seq_all, ten_all
from idag.core import DEFAULT_LABEL, MAX_WIDTH
from idag.decomposition import decompose, default_sorting
from idag.equivalence import equal_mod_theory, normalize
from idag.errors import ExprSyntaxError, IdagError, SizeLimitExceeded, TypeMismatch, UnsupportedGenerator
from idag.loops import LoopsModel
from idag.matrices import MatrixModel
from idag.models import FreeIdagModel, evaluate
from idag.parse_errors import _line_column
from idag.printer import _IDENT_RE, print_expression
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
    _GENERATORS,
    _SCAN_RE,
    _STRAY_RE,
    _TOKEN_RE,
    arity_of,
    atoms,
    fold,
    parse,
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


@pytest.mark.parametrize("label", ["a\n", "7\n", "a\nb", "\n"])
def test_labels_with_a_line_break_do_not_print(label):
    # node[a\n] would parse back as node[a]
    with pytest.raises(UnsupportedGenerator):
        print_expression(Ten(Node("a"), Node(label)))


@pytest.mark.parametrize("e", [Seq(Id(1), "x"), "abc", Ten(Node("a"), " ; "), Seq(")", Id(0))])
def test_a_str_is_an_unknown_atom_to_the_printer(e):
    # the printer's own punctuation is on its stack too, and must not let a
    # str through as text
    for read in (arity_of, print_expression):
        with pytest.raises(UnsupportedGenerator, match="unknown atom"):
            read(e)


def test_equal_atoms_share_one_instance():
    assert parse("id(3) * id(03) * id ( 3 )") == Ten(Ten(Id(3), Id(3)), Id(3))
    a, b, c = atoms(parse("id(3) * id(03) * id ( 3 )"))
    assert a is b is c
    e = parse("node[a] * sym(1,2) * id(5) ; node [ a ] * sym( 1 , 02 ) * id(05)")
    a, b, c, d, f, g = atoms(e)
    assert (a, b, c) == (Node("a"), Sym(1, 2), Id(5))
    assert (a, b, c) == (d, f, g) and a is d and b is f and c is g


@pytest.mark.parametrize(
    "wiring",
    [
        (Id, (-1,), "id(-1)"),
        (Id, (True,), "id(True)"),
        (Id, (1.5,), "id(1.5)"),
        (Id, ("2",), "id(2)"),
        (Sym, (-1, 1), "sym(-1,1)"),
        (Sym, (1.5, 0), "sym(1.5,0)"),
        (Sym, (1, False), "sym(1,False)"),
        (Sym, (0, None), "sym(0,None)"),
        (Id, (1.0,), "id(1.0)"),
    ],
)
def test_wiring_widths_must_be_non_negative_ints(wiring):
    # an id or sym checks its widths when built, so no walk meets a bad one;
    # a subclass is built through the same constructor
    cls, args, message = wiring
    for build in (cls, type("Sub", (cls,), {"__slots__": ()})):
        with pytest.raises(UnsupportedGenerator) as info:
            build(*args)
        assert str(info.value) == message
    with pytest.raises(UnsupportedGenerator, match=r"^sym\(-1,2\)$"):
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


@pytest.fixture(scope="module")
def deep_expressions():
    """Left, right and tensor spines of 20,000 atoms, and the decomposition
    of a sparse 2,000-node idag (mean in-degree about 2)."""
    n = 20_000
    atoms_ = [Node(str(k % 7)) if k % 3 else Id(1) for k in range(n)]
    left = right = row = atoms_[0]
    for a in atoms_[1:]:
        left, right, row = Seq(left, a), Seq(a, right), Ten(row, a)
    d = random_idag(random.Random(3), 2, 3, 2_000, 0.002, INT, labels=("a", "b"))
    return [left, right, row, decompose(d, default_sorting(d))]


def test_deep_expressions_pickle_and_copy(deep_expressions):
    for e in deep_expressions:
        twin = pickle.loads(pickle.dumps(e))
        assert twin == e and twin is not e
        assert copy.copy(e) is e and copy.deepcopy(e) is e
    # parts that are not expressions come back as they were
    odd = Seq(3, Ten((Id(1),), Seq(None, Id(2))))
    twin = pickle.loads(pickle.dumps(odd))
    assert twin == odd and repr(twin) == repr(odd)


# the public calls on an expression of any depth; each returns or raises
# an IdagError (the loops model refuses the decomposition's delta and nabla)
_DEEP_CALLS = {
    "repr": repr,
    "hash": hash,
    "print_expression": print_expression,
    "parse ==": lambda e: parse(print_expression(e)) == e,
    "arity_of": arity_of,
    "normalize": lambda e: normalize(e, INT),
    "evaluate-free": lambda e: evaluate(e, FreeIdagModel(INT)),
    "evaluate-matrix": lambda e: evaluate(e, MatrixModel(INT)),
    "evaluate-loops": lambda e: evaluate(e, LoopsModel()),
}


@pytest.mark.parametrize("call", list(_DEEP_CALLS))
def test_deep_expressions_raise_no_recursion_error(deep_expressions, call):
    for e in deep_expressions:
        try:
            _DEEP_CALLS[call](e)
        except IdagError:
            pass


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


def _joined_atoms(text, tokens):
    """The reference tokens of text with those of each well-formed id(n),
    sym(n,m) and node[label] joined into one token, spelled as in text with
    the whitespace between its parts."""
    line_starts = [0]
    for line in text.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))
    shapes = {"id": "(n)", "sym": "(n,n)", "node": "[l]"}
    fits = {"n": str.isdigit, "l": lambda t: t[0].isalnum() or t[0] == "_"}
    joined = []
    k = 0
    while k < len(tokens):
        word, line, column = tokens[k]
        shape = shapes.get(word, "")
        parts = tokens[k + 1 : k + 1 + len(shape)]
        if shape and len(parts) == len(shape) and all(
            fits[s](t) if s in fits else t == s for (t, _, _), s in zip(parts, shape)
        ):
            last, last_line, last_column = parts[-1]
            start = line_starts[line - 1] + column - 1
            end = line_starts[last_line - 1] + last_column - 1 + len(last)
            joined.append((text[start:end], line, column))
            k += 1 + len(shape)
        else:
            joined.append(tokens[k])
            k += 1
    return joined


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
                parse(text)
            assert (got.value.line, got.value.column, got.value.message) == (
                exc.line,
                exc.column,
                exc.message,
            )
            continue
        assert _STRAY_RE.search(text) is None
        got = [(m.group(), *_line_column(text, m.start())) for m in _TOKEN_RE.finditer(text)]
        assert got == _joined_atoms(text, want)


def test_parse_scan_yields_the_tokens_the_position_scan_finds():
    # parse's scan takes the blanks after each token with it; the tokens it
    # returns are those whose positions parse_errors reads
    rng = random.Random(12)
    blanks = ["", " ", "\n  ", "\t", "\r\n", "\u2028", "\x1c"]
    for _ in range(300):
        text = print_expression(random_expression(rng, max_depth=6, allow_anti=True))
        text = "".join(c + rng.choice(blanks) if rng.random() < 0.3 else c for c in text)
        text = rng.choice(blanks) + text + rng.choice(blanks)
        assert _SCAN_RE.findall(text) == _TOKEN_RE.findall(text)
    for text in ["", "  ", "id (1 )sym( 2 ,\n3)", "node [ a ]node[", "12abc_3 ;", "id(1)id", "x;;(,"]:
        assert _SCAN_RE.findall(text) == _TOKEN_RE.findall(text)


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


# ---------------------------------------------------------------------------
# The front end as it was before the one-scan tokenizer, kept as the oracle
# for the parser and the printer: a per-line token scan with a position on
# every token, a recursive-descent parser object and a fold-based printer.

_BY_KEYWORD = {keyword: cls for cls, (keyword, _, _) in _GENERATORS.items()}
_REF_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*|[0-9]+|[;*()\[\],])|(\S))")


@dataclass(slots=True)
class _RefToken:
    text: str
    line: int
    column: int


def _ref_tokenize(text: str) -> list[_RefToken]:
    tokens: list[_RefToken] = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        for m in _REF_TOKEN_RE.finditer(line):
            if m.group(2) is not None:
                raise ExprSyntaxError(lineno, m.start(2) + 1, f"unexpected character {m.group(2)!r}")
            tokens.append(_RefToken(m.group(1), lineno, m.start(1) + 1))
    return tokens


class _RefParser:
    def __init__(self, tokens: list[_RefToken]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos].text
        return None

    def here(self) -> tuple[int, int]:
        if self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            return (t.line, t.column)
        if self.tokens:
            last = self.tokens[-1]
            return (last.line, last.column + len(last.text))
        return (1, 1)

    def fail(self, message: str):
        line, col = self.here()
        raise ExprSyntaxError(line, col, message)

    def take(self) -> _RefToken:
        if self.pos >= len(self.tokens):
            self.fail("unexpected end of input")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _RefToken:
        if self.peek() != text:
            self.fail(f"expected {text!r}")
        return self.take()

    def nat(self) -> int:
        tok = self.take()
        if not tok.text.isdigit():
            raise ExprSyntaxError(tok.line, tok.column, f"expected a number, got {tok.text!r}")
        return int(tok.text)

    def expr(self) -> Expression:
        enclosing: list[tuple[Optional[Expression], Optional[Expression]]] = []
        chain: Optional[Expression] = None
        row: Optional[Expression] = None
        while True:
            if self.peek() == "(":
                self.take()
                enclosing.append((chain, row))
                chain = row = None
                continue
            a = self.atom()
            while True:
                row = a if row is None else Ten(row, a)
                if self.peek() == "*":
                    self.take()
                    break
                chain = row if chain is None else Seq(chain, row)
                row = None
                if self.peek() == ";":
                    self.take()
                    break
                if not enclosing:
                    return chain
                self.expect(")")
                a = chain
                chain, row = enclosing.pop()

    def atom(self) -> Expression:
        tok = self.take()
        text = tok.text
        if text in _BY_KEYWORD:
            return _BY_KEYWORD[text]()
        if text == "node":
            if self.peek() == "[":
                self.take()
                lbl = self.take()
                if not re.match(r"[A-Za-z_0-9]", lbl.text):
                    raise ExprSyntaxError(lbl.line, lbl.column, "expected a label")
                self.expect("]")
                return Node(lbl.text)
            return Node()
        if text == "id":
            self.expect("(")
            n = self.nat()
            self.expect(")")
            return Id(n)
        if text == "sym":
            self.expect("(")
            n = self.nat()
            self.expect(",")
            m = self.nat()
            self.expect(")")
            return Sym(n, m)
        raise ExprSyntaxError(tok.line, tok.column, f"unexpected token {text!r}")


def _ref_parse(text: str) -> Expression:
    tokens = _ref_tokenize(text)
    if not tokens:
        raise ExprSyntaxError(1, 1, "empty expression")
    parser = _RefParser(tokens)
    e = parser.expr()
    if parser.pos != len(tokens):
        parser.fail(f"trailing input {parser.peek()!r}")
    arity_of(e)
    widest = max((_width(a) for a in atoms(e) if isinstance(a, (Id, Sym))), default=0)
    if widest > MAX_WIDTH:
        raise SizeLimitExceeded("width", widest, MAX_WIDTH)
    return e


def _width(a: Id | Sym) -> int:
    return a.n if isinstance(a, Id) else a.n + a.m


def _ref_print(e: Expression) -> str:
    def atom(a: Expression) -> tuple[str, int]:
        # levels: 0 atom, 1 tensor chain, 2 seq chain
        if type(a) is Id or type(a) is Sym:
            return (f"id({a.n})" if type(a) is Id else f"sym({a.n},{a.m})", 0)
        if type(a) in _GENERATORS:
            return (_GENERATORS[type(a)][0], 0)
        if type(a) is Node:
            if a.label == DEFAULT_LABEL:
                return ("node", 0)
            if not _IDENT_RE.match(a.label):
                raise UnsupportedGenerator(
                    f"label {a.label!r} has no expression syntax; use identifier or number labels"
                )
            return (f"node[{a.label}]", 0)
        raise UnsupportedGenerator(f"unknown atom {a!r}")

    def wrap(part: tuple[str, int], max_level: int) -> str:
        text, level = part
        return f"({text})" if level > max_level else text

    return fold(
        e,
        atom,
        lambda _n, a, b: (f"{wrap(a, 2)} ; {wrap(b, 1)}", 2),
        lambda _n, a, b: (f"{wrap(a, 1)} * {wrap(b, 0)}", 1),
    )[0]


def _outcome(fn, arg):
    """fn(arg) as a comparable value: the repr of what it returns, or the
    type, arguments and attributes (line, column, message) of its error."""
    try:
        return repr(fn(arg))
    except IdagError as exc:
        return (type(exc), exc.args, vars(exc))


_INSERTS = ["\r\n", "\x1c", "\u00a0", "\u2028", "é", "$", "-", " ", "\t", "\n  ", "(", ")", ";", "*",
            ",", "[", "]", "node[", "id(", "sym(1,", "node", "eta", "x1", "7", "id(1)"]
_CUT_OFF = ["", "\r\n", "node[", "id(", "sym(1,", "sym(1,2", "node[x", "node[x;", "id(1", "((eta)",
            "eta ;\r\n eps", "eta\x1c;\x1ceps", "eta ; eps", "eta ; é", "eta $", "node[]",
            "node[7] ; node[_]", "sym(1,1) ; sym", "id(01)", "()", "(;)", "eta * * eps",
            "id ( 3 )", "sym( 1 , 2 )", "node [ a ]", "node[1a]", "idx(2)", "xid(2)", "node[a]b",
            "id(1000001)"]


def _parity_corpus(seed: int, n_expressions: int) -> list[str]:
    """Printed random expressions, each with copies cut off, with a piece
    inserted, with a span deleted and with one keyword swapped for another
    (mostly ill-typed), plus hand-picked cut-off and odd-whitespace texts."""
    rng = random.Random(seed)
    texts = list(_CUT_OFF)
    for _ in range(n_expressions):
        text = _ref_print(random_expression(rng, max_depth=rng.randint(1, 7), allow_anti=True))
        texts.append(text)
        for _ in range(2):
            texts.append(text[: rng.randrange(len(text) + 1)])
            i = rng.randrange(len(text) + 1)
            texts.append(text[:i] + rng.choice(_INSERTS) + text[i:])
            i = rng.randrange(len(text))
            texts.append(text[:i] + text[i + rng.randint(1, 4):])
        words = re.findall(r"eta|nabla|eps|delta|anti|node", text)
        if words:
            texts.append(text.replace(rng.choice(words), rng.choice(["eta", "nabla", "eps", "delta"]), 1))
    return texts


def test_parse_matches_the_reference_parser():
    texts = _parity_corpus(seed=2024, n_expressions=700)
    assert len(texts) >= 5000
    errors = 0
    for text in texts:
        want = _outcome(_ref_parse, text)
        assert _outcome(parse, text) == want, text
        errors += not isinstance(want, str)
    # the corpus exercises both outcomes
    assert 1000 < errors < len(texts) - 1000


def test_print_matches_the_reference_printer():
    rng = random.Random(7)
    for _ in range(300):
        e = random_expression(rng, max_depth=rng.randint(1, 8), allow_anti=True)
        assert print_expression(e) == _ref_print(e)
    for n in (8, 64, 256):
        d = random_idag(rng, 3, 3, n, min(1.0, 3 / ((n - 1) / 2 + 3)), INT, labels=("a", "b", "c"))
        e = decompose(d, default_sorting(d))
        assert print_expression(e) == _ref_print(e)


def test_print_raises_at_the_first_unprintable_atom_as_before():
    class Box(Expression):
        __slots__ = ()

    bad = [Node("two words"), Box()]
    rng = random.Random(3)
    for _ in range(200):
        parts = [random_expression(rng, max_depth=3) for _ in range(4)]
        for k in rng.sample(range(4), rng.randint(1, 3)):
            parts[k] = rng.choice(bad)
        e = Seq(Ten(parts[0], parts[1]), Ten(parts[2], Seq(parts[3], Id(0))))
        want = _outcome(_ref_print, e)
        assert not isinstance(want, str)
        assert _outcome(print_expression, e) == want


_SAMPLE = [
    (Eta(), "Eta()"),
    (Nabla(), "Nabla()"),
    (Eps(), "Eps()"),
    (Delta(), "Delta()"),
    (Node("x"), "Node(label='x')"),
    (Anti(), "Anti()"),
    (Id(2), "Id(n=2)"),
    (Sym(1, 2), "Sym(n=1, m=2)"),
    (Seq(Delta(), Nabla()), "Seq(first=Delta(), then=Nabla())"),
    (Ten(Node(), Id(0)), "Ten(left=Node(label='•'), right=Id(n=0))"),
]


def _ref_hash(e: Expression) -> int:
    return fold(
        e,
        atom=lambda a: hash((type(a).__name__, tuple(getattr(a, f) for f in a.__slots__))),
        seq=lambda _, a, b: hash(("Seq", a, b)),
        ten=lambda _, a, b: hash(("Ten", a, b)),
    )


@pytest.mark.parametrize("e, text", _SAMPLE, ids=[type(e).__name__ for e, _ in _SAMPLE])
def test_expression_nodes_are_slotted_and_immutable(e, text):
    assert not hasattr(e, "__dict__")
    for name in e.__slots__:
        with pytest.raises(AttributeError):
            setattr(e, name, Id(1))
    assert repr(e) == text
    assert hash(e) == _ref_hash(e)
    # immutable, so a copy is the expression itself
    assert copy.copy(e) is e and copy.deepcopy(e) is e
    twin = pickle.loads(pickle.dumps(e))
    assert twin == e and twin is not e
    assert repr(twin) == text and hash(twin) == hash(e)


# ---------------------------------------------------------------------------
# arity_of's oracle: plain recursion, which shares no traversal with
# terms.fold and names an ill-typed composite by the path it reached it
# along; for expressions of bounded depth.


def _ref_arity_of(e: Expression, path: str = "expr") -> tuple[int, int]:
    kind = type(e)
    if kind is Seq or kind is Ten:
        names = ("first", "then") if kind is Seq else ("left", "right")
        a, b = (_ref_arity_of(getattr(e, name), f"{path}.{name}") for name in names)
        if kind is Ten:
            return (a[0] + b[0], a[1] + b[1])
        if a[1] != b[0]:
            raise TypeMismatch(path, a[1], b[0])
        return (a[0], b[1])
    if kind is Id or kind is Sym:
        return (_width(e), _width(e))
    if kind is Node:
        return (1, 1)
    if kind not in _GENERATORS:
        raise UnsupportedGenerator(f"unknown atom {e!r}")
    _, n_in, outs = _GENERATORS[kind]
    return (n_in, len(outs))


class _Label(str):
    pass


# A subclass of each of the eleven expression classes, named _Sub<class>
# at module level so that pickle finds it, with one instance of each.
_SUBCLASS_INSTANCES = {}
for _base, _args in [
    (Eta, ()),
    (Nabla, ()),
    (Eps, ()),
    (Delta, ()),
    (Node, ("a",)),
    (Anti, ()),
    (Id, (2,)),
    (Sym, (1, 2)),
    (Seq, (Delta(), Nabla())),
    (Ten, (Node("a"), Id(1))),
    (Expression, ()),
]:
    _cls = type(f"_Sub{_base.__name__}", (_base,), {"__slots__": ()})
    globals()[_cls.__name__] = _cls
    _SUBCLASS_INSTANCES[_base.__name__] = _cls(*_args)


def test_arity_of_matches_the_reference_fold():
    odd = [Node(_Label("x")), Id(0), Sym(0, 2)]
    bad = [_SUBCLASS_INSTANCES[name] for name in ("Expression", "Id", "Seq")]
    rng = random.Random(11)
    well_typed = [random_expression(rng, max_depth=rng.randint(1, 8), allow_anti=True) for _ in range(300)]
    for e in well_typed:
        assert arity_of(e) == _ref_arity_of(e)
    # decompositions are too deep for the recursion: the walk that
    # evaluates them counts their interface
    for n in (8, 64, 300):
        d = random_idag(rng, 2, 3, n, 0.3, INT, labels=("a", "b"))
        e = decompose(d, default_sorting(d))
        value = evaluate(e, FreeIdagModel(INT))
        assert arity_of(e) == (value.n_in, value.n_out) == (2, 3)
    outcomes = set()
    for _ in range(600):
        parts = [rng.choice(well_typed + odd) for _ in range(4)]
        if rng.random() < 0.3:
            parts[rng.randrange(4)] = rng.choice(bad)
        e = Seq(Ten(parts[0], Seq(parts[1], Id(0))), Ten(parts[2], Seq(parts[3], Id(1))))
        want = _outcome(_ref_arity_of, e)
        assert _outcome(arity_of, e) == want
        outcomes.add(want[0] if isinstance(want, tuple) else str)
    assert outcomes == {str, TypeMismatch, UnsupportedGenerator}


class _Box(Expression):
    __slots__ = ("v",)

    def __init__(self, v) -> None:
        object.__setattr__(self, "v", v)


class _TaggedId(Id):
    __slots__ = ("tag",)

    def __init__(self, n: int, tag: str) -> None:
        super().__init__(n)
        object.__setattr__(self, "tag", tag)


def test_parts_outside_the_eleven_classes_compare_by_their_values():
    # other expressions by Record's field tuple, other parts by their own
    # ==, hash and repr
    assert Seq(3, 3) != Seq(4, 4) and Ten("a", "b") != Ten("c", "d")
    assert Seq(3, 3) == Seq(3, 3) and hash(Seq(3, 3)) == hash(Seq(3, 3))
    assert len({Seq(3, 3), Seq(4, 4)}) == 2
    assert _Box(1) != _Box(2) and Seq(_Box(1), Id(1)) != Seq(_Box(2), Id(1))
    assert _Box(1) == _Box(1) and hash(_Box(1)) == hash(_Box(1))
    assert _TaggedId(1, "a") != _TaggedId(1, "b") and _TaggedId(1, "a") == _TaggedId(1, "a")
    assert repr(Seq(3, "x")) == "Seq(first=3, then='x')"
    text = "Ten(left=_Box(v=Id(n=2)), right=_TaggedId(n=1, tag='a'))"
    assert repr(Ten(_Box(Id(2)), _TaggedId(1, "a"))) == text
    # an unhashable part compares by its own == but leaves the composite
    # unhashable
    assert Seq([1], Id(1)) == Seq([1], Id(1)) and Seq([1], Id(1)) != Seq([2], Id(1))
    with pytest.raises(TypeError):
        hash(Seq([1], Id(1)))


@pytest.mark.parametrize("base", list(_SUBCLASS_INSTANCES))
def test_every_reader_rejects_a_subclass_of_an_expression_class(base):
    # a term is built of the eleven classes alone: every reader dispatches
    # on the exact class, so a subclass is an unknown atom, at the root and
    # under a composite of the base classes
    sub = _SUBCLASS_INSTANCES[base]
    message = "^unknown atom " + re.escape(repr(sub)) + "$"
    readers = (
        arity_of,
        lambda e: validate_for_mode(e, INT),
        print_expression,
        lambda e: evaluate(e, FreeIdagModel(INT)),
        lambda e: evaluate(e, MatrixModel(INT)),
        lambda e: evaluate(e, LoopsModel()),
        lambda e: normalize(e, INT),
        lambda e: equal_mod_theory(e, e, INT),
    )
    for e in (sub, Seq(Id(1), Ten(Id(0), sub)), Ten(sub, Seq(Id(1), Id(1)))):
        for read in readers:
            with pytest.raises(UnsupportedGenerator, match=message):
                read(e)
        # the same instances are values: ==, hash and repr by their fields,
        # and they pickle and copy
        twin = pickle.loads(pickle.dumps(e))
        assert twin == e and twin is not e and hash(twin) == hash(e) and repr(twin) == repr(e)
        assert copy.copy(e) is e and copy.deepcopy(e) is e
    assert type(pickle.loads(pickle.dumps(sub))) is type(sub)
    assert sub == type(sub)(*sub._astuple()) and hash(sub) == hash(type(sub)(*sub._astuple()))
    assert repr(sub).startswith(f"_Sub{base}(")
    if base != "Expression":
        plain = getattr(terms, base)(*sub._astuple())
        assert sub != plain and Seq(sub, Id(1)) != Seq(plain, Id(1))
