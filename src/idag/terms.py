"""The generator expression language.

Expressions denote morphisms in a PROP generated by a merge (nabla: 2 -> 1),
a unit (eta: 0 -> 1), a copy (delta: 1 -> 2), a discard (eps: 1 -> 0),
labelled single-wire boxes (node[l]: 1 -> 1) and, when the weight system has
additive inverses, a sign flip (anti: 1 -> 1), together with identities and
wire crossings.

Concrete syntax:

    expr := ten (";" ten)*
    ten  := atom ("*" atom)*
    atom := "eta" | "nabla" | "eps" | "delta" | "anti"
          | "node" ("[" label "]")?
          | "id" "(" nat ")" | "sym" "(" nat "," nat ")"
          | "(" expr ")"

"e1 ; e2" runs e1 first (diagrammatic order), "*" stacks and binds tighter,
both associate to the left. Labels are identifier or number tokens; a bare
"node" carries the default label.

Each node-free generator is defined once, in _GENERATORS: its keyword, its
arity and its free image, which fixes its value in every model. The parser,
the printer, arity_of and the models' generator images all read it there.

Parsing and walks over expressions (arity checking, printing, evaluation)
are iterative, so deeply parenthesized text and the deeply chained
composites produced by decomposition do not hit the interpreter recursion
limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .core import DEFAULT_LABEL
from .errors import ExprSyntaxError, TypeMismatch, UnsupportedGenerator
from .weights import WeightSystem


class Expression:
    """Base class; subclasses are frozen dataclasses forming the AST.

    Equality, hashing and repr are written iteratively here instead of being
    generated per dataclass: decomposition produces composites tens of
    thousands of levels deep, and the generated methods recurse once per
    level.
    """

    def __rshift__(self, other: "Expression") -> "Expression":
        return Seq(self, other)

    def __matmul__(self, other: "Expression") -> "Expression":
        return Ten(self, other)

    def __str__(self) -> str:
        return print_expression(self)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expression):
            return NotImplemented
        stack: list[tuple[Expression, Expression]] = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if isinstance(a, Seq):
                assert isinstance(b, Seq)
                stack.append((a.then, b.then))
                stack.append((a.first, b.first))
            elif isinstance(a, Ten):
                assert isinstance(b, Ten)
                stack.append((a.right, b.right))
                stack.append((a.left, b.left))
            elif _atom_fields(a) != _atom_fields(b):
                return False
        return True

    def __hash__(self) -> int:
        return fold(
            self,
            atom=lambda a: hash((type(a).__name__, _atom_fields(a))),
            seq=lambda _, a, b: hash(("Seq", a, b)),
            ten=lambda _, a, b: hash(("Ten", a, b)),
        )

    def __repr__(self) -> str:
        return fold(
            self,
            atom=_atom_repr,
            seq=lambda _, a, b: f"Seq(first={a}, then={b})",
            ten=lambda _, a, b: f"Ten(left={a}, right={b})",
        )


def _atom_fields(a: "Expression") -> tuple:
    if isinstance(a, Node):
        return (a.label,)
    if isinstance(a, Id):
        return (a.n,)
    if isinstance(a, Sym):
        return (a.n, a.m)
    return ()


def _atom_repr(a: "Expression") -> str:
    if isinstance(a, Node):
        return f"Node(label={a.label!r})"
    if isinstance(a, Id):
        return f"Id(n={a.n})"
    if isinstance(a, Sym):
        return f"Sym(n={a.n}, m={a.m})"
    return f"{type(a).__name__}()"


@dataclass(frozen=True, eq=False, repr=False)
class Eta(Expression):
    """Unit: 0 -> 1."""


@dataclass(frozen=True, eq=False, repr=False)
class Nabla(Expression):
    """Merge: 2 -> 1."""


@dataclass(frozen=True, eq=False, repr=False)
class Eps(Expression):
    """Discard: 1 -> 0."""


@dataclass(frozen=True, eq=False, repr=False)
class Delta(Expression):
    """Copy: 1 -> 2."""


@dataclass(frozen=True, eq=False, repr=False)
class Node(Expression):
    """Labelled box on one wire: 1 -> 1."""

    label: str = DEFAULT_LABEL


@dataclass(frozen=True, eq=False, repr=False)
class Anti(Expression):
    """Sign flip on one wire: 1 -> 1. Requires a weight system with
    additive inverses."""


@dataclass(frozen=True, eq=False, repr=False)
class Id(Expression):
    """n parallel wires: n -> n."""

    n: int


@dataclass(frozen=True, eq=False, repr=False)
class Sym(Expression):
    """Block crossing: n + m -> m + n."""

    n: int
    m: int


@dataclass(frozen=True, eq=False, repr=False)
class Seq(Expression):
    """first, then then: diagrammatic sequential composite."""

    first: Expression
    then: Expression


@dataclass(frozen=True, eq=False, repr=False)
class Ten(Expression):
    """left stacked above right."""

    left: Expression
    right: Expression


T = TypeVar("T")


def fold(
    e: Expression,
    atom: Callable[[Expression], T],
    seq: Callable[[Seq, T, T], T],
    ten: Callable[[Ten, T, T], T],
) -> T:
    """Iterative post-order fold; the workhorse behind arity checking,
    printing and evaluation."""
    stack: list[tuple[Expression, bool]] = [(e, False)]
    results: list[T] = []
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Seq):
            if ready:
                b = results.pop()
                a = results.pop()
                results.append(seq(node, a, b))
            else:
                stack.append((node, True))
                stack.append((node.then, False))
                stack.append((node.first, False))
        elif isinstance(node, Ten):
            if ready:
                b = results.pop()
                a = results.pop()
                results.append(ten(node, a, b))
            else:
                stack.append((node, True))
                stack.append((node.right, False))
                stack.append((node.left, False))
        else:
            results.append(atom(node))
    return results[0]


def atoms(e: Expression) -> Iterator[Expression]:
    """All atom occurrences, left to right."""
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack.append(node.then)
            stack.append(node.first)
        elif isinstance(node, Ten):
            stack.append(node.right)
            stack.append(node.left)
        else:
            yield node


# Per node-free generator: its keyword, its input count and, per output, the
# (input, weight) terms of its free image. A node box's image holds a node,
# so models._walk builds it inline.
_GENERATORS: dict[type, tuple[str, int, tuple[tuple[tuple[int, int], ...], ...]]] = {
    Eta: ("eta", 0, ((),)),
    Nabla: ("nabla", 2, (((0, 1), (1, 1)),)),
    Eps: ("eps", 1, ()),
    Delta: ("delta", 1, (((0, 1),), ((0, 1),))),
    Anti: ("anti", 1, (((0, -1),),)),
}
_BY_KEYWORD = {keyword: cls for cls, (keyword, _, _) in _GENERATORS.items()}


def _generator_image(gen: Expression, mode: WeightSystem) -> tuple[int, tuple]:
    """The free image of a node-free generator in mode: its input count and
    the terms of each output; raises UnsupportedGenerator on any other atom
    and on anti outside int mode."""
    if type(gen) not in _GENERATORS:
        raise UnsupportedGenerator(f"no free image for {gen!r}")
    if isinstance(gen, Anti) and not mode.antipode_enabled:
        raise UnsupportedGenerator(f"anti requires int mode, not {mode!r}")
    _, n_in, outs = _GENERATORS[type(gen)]
    return n_in, outs


def arity_of(e: Expression) -> tuple[int, int]:
    """(inputs, outputs) of e; raises UnsupportedGenerator on an id or sym
    whose widths are not non-negative ints or a node whose label is not a
    str, and TypeMismatch at the first ill-typed sequential composite
    (leftmost-innermost), naming its position by an attribute path from the
    root."""

    def atom(a: Expression) -> tuple[int, int]:
        if isinstance(a, (Id, Sym)):
            width = _wiring_width(a)
            return (width, width)
        if isinstance(a, Node) and not isinstance(a.label, str):
            raise UnsupportedGenerator(f"node label {a.label!r} is not a string")
        if type(a) is Node:
            return (1, 1)
        if type(a) not in _GENERATORS:
            raise UnsupportedGenerator(f"unknown atom {a!r}")
        _, n_in, outs = _GENERATORS[type(a)]
        return (n_in, len(outs))

    def seq(node: Seq, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        if a[1] != b[0]:
            raise TypeMismatch(_path_to(e, node), a[1], b[0])
        return (a[0], b[1])

    def ten(_node: Ten, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return (a[0] + b[0], a[1] + b[1])

    return fold(e, atom, seq, ten)


def _wiring_width(a: Id | Sym) -> int:
    """The wires an id or sym spans; raises UnsupportedGenerator unless its
    widths are non-negative ints (a bool is not one)."""
    if isinstance(a, Id):
        n, m = a.n, 0
    else:
        n, m = a.n, a.m
    if type(n) is not int or type(m) is not int or n < 0 or m < 0:
        raise UnsupportedGenerator(f"id({n})" if isinstance(a, Id) else f"sym({n},{m})")
    return n + m


def _path_to(root: Expression, target: Expression) -> str:
    """The attribute path from root to the first occurrence of target in
    pre-order. A shared target occurs more than once; an occurrence before
    another in pre-order cannot contain it (no expression contains itself),
    so it also comes first in post-order. The first occurrence in pre-order
    is thus the first ill-typed composite arity_of reaches."""
    # each entry carries its path as a (parent path, attribute) chain
    stack: list[tuple[Expression, Optional[tuple]]] = [(root, None)]
    while stack:
        node, path = stack.pop()
        if node is target:
            names: list[str] = []
            while path is not None:
                path, name = path
                names.append(name)
            return ".".join(["expr"] + names[::-1])
        if isinstance(node, Seq):
            stack.append((node.then, (path, "then")))
            stack.append((node.first, (path, "first")))
        elif isinstance(node, Ten):
            stack.append((node.right, (path, "right")))
            stack.append((node.left, (path, "left")))
    raise ValueError(f"{target!r} does not occur in the expression")


def validate_for_mode(e: Expression, mode: WeightSystem, labels=None) -> None:
    """Reject generators the mode cannot interpret: anti outside int mode,
    and labels outside the configured label set if one is given."""
    for a in atoms(e):
        if type(a) in _GENERATORS:
            _generator_image(a, mode)
        if labels is not None and isinstance(a, Node) and a.label not in labels:
            raise UnsupportedGenerator(f"label {a.label!r} not in the label set")


# ---------------------------------------------------------------------------
# Printing

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$|[0-9]+$")


def print_expression(e: Expression) -> str:
    """Concrete syntax for e, with minimal parentheses; parses back to an
    equal AST."""

    def atom(a: Expression) -> tuple[str, int]:
        # levels: 0 atom, 1 tensor chain, 2 seq chain
        if isinstance(a, (Id, Sym)):
            _wiring_width(a)  # no syntax for other widths
            return (f"id({a.n})" if isinstance(a, Id) else f"sym({a.n},{a.m})", 0)
        if type(a) in _GENERATORS:
            return (_GENERATORS[type(a)][0], 0)
        if isinstance(a, Node):
            if a.label == DEFAULT_LABEL:
                return ("node", 0)
            if not isinstance(a.label, str) or not _IDENT_RE.match(a.label):
                raise UnsupportedGenerator(
                    f"label {a.label!r} has no expression syntax; "
                    "use identifier or number labels"
                )
            return (f"node[{a.label}]", 0)
        raise UnsupportedGenerator(f"unknown atom {a!r}")

    def wrap(part: tuple[str, int], max_level: int) -> str:
        text, level = part
        return f"({text})" if level > max_level else text

    def seq(_node: Seq, a: tuple[str, int], b: tuple[str, int]) -> tuple[str, int]:
        return (f"{wrap(a, 2)} ; {wrap(b, 1)}", 2)

    def ten(_node: Ten, a: tuple[str, int], b: tuple[str, int]) -> tuple[str, int]:
        return (f"{wrap(a, 1)} * {wrap(b, 0)}", 1)

    return fold(e, atom, seq, ten)[0]


# ---------------------------------------------------------------------------
# Parsing

# One scan per line: each match skips whitespace, then takes a token or, in
# the last group, a character no token starts with.
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*|[0-9]+|[;*()\[\],])|(\S))")


@dataclass(slots=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        for m in _TOKEN_RE.finditer(line):
            if m.group(2) is not None:
                raise ExprSyntaxError(
                    lineno, m.start(2) + 1, f"unexpected character {m.group(2)!r}"
                )
            tokens.append(_Token(m.group(1), lineno, m.start(1) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
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

    def take(self) -> _Token:
        if self.pos >= len(self.tokens):
            self.fail("unexpected end of input")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        if self.peek() != text:
            self.fail(f"expected {text!r}")
        return self.take()

    def nat(self) -> int:
        tok = self.take()
        if not tok.text.isdigit():
            raise ExprSyntaxError(tok.line, tok.column, f"expected a number, got {tok.text!r}")
        return int(tok.text)

    def expr(self) -> Expression:
        """expr := ten (";" ten)*, ten := atom ("*" atom)*, where an atom may
        be a parenthesized expr. Iterative: each open parenthesis pushes the
        enclosing expression's partial chains, so nesting depth is not
        limited by the interpreter's recursion limit."""
        enclosing: list[tuple[Optional[Expression], Optional[Expression]]] = []
        chain: Optional[Expression] = None  # completed tens, joined by ";"
        row: Optional[Expression] = None  # atoms of the current ten, by "*"
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


def parse(text: str) -> Expression:
    """Parse and type-check expression text.

    Raises ExprSyntaxError (with line and column) on bad syntax and
    TypeMismatch on a well-formed but ill-typed composite.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ExprSyntaxError(1, 1, "empty expression")
    parser = _Parser(tokens)
    e = parser.expr()
    if parser.pos != len(tokens):
        parser.fail(f"trailing input {parser.peek()!r}")
    arity_of(e)
    return e


# ---------------------------------------------------------------------------
# Builders

def seq_all(parts: Sequence[Expression]) -> Expression:
    """Left-associated sequential chain; parts must be nonempty."""
    if not parts:
        raise ValueError("seq_all of no parts")
    e = parts[0]
    for p in parts[1:]:
        e = Seq(e, p)
    return e


def ten_all(parts: Sequence[Expression]) -> Expression:
    """Left-associated tensor chain, collapsing adjacent identities; an empty
    list gives id(0)."""
    merged: list[Expression] = []
    wires = 0  # width of the identities since the last other part
    for p in parts:
        if isinstance(p, Id):
            wires += p.n
            continue
        if wires:
            merged.append(Id(wires))
            wires = 0
        merged.append(p)
    if wires:
        merged.append(Id(wires))
    if not merged:
        return Id(0)
    e = merged[0]
    for p in merged[1:]:
        e = Ten(e, p)
    return e


def map_atoms(e: Expression, fn: Callable[[Expression], Expression]) -> Expression:
    """Rebuild e with every atom replaced by fn(atom)."""
    return fold(
        e,
        fn,
        lambda _n, a, b: Seq(a, b),
        lambda _n, a, b: Ten(a, b),
    )


def expand_symmetry(n: int, m: int) -> Expression:
    """Sym(n, m) written with only sym(1,1), identities, ; and *."""
    _wiring_width(Sym(n, m))
    if n == 0 or m == 0:
        return Id(n + m)

    def cross_one(width: int) -> Expression:
        # wire 0 over the next `width` wires, as adjacent swaps
        layers = [
            ten_all([Id(q), Sym(1, 1), Id(width - 1 - q)]) for q in range(width)
        ]
        return seq_all(layers)

    parts: list[Expression] = []
    for k in range(n):
        # move the wire now at position n-1-k over the m-block
        parts.append(ten_all([Id(n - 1 - k), cross_one(m), Id(k)]))
    return seq_all(parts)
