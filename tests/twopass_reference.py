"""Reference code: each expression type-checked by a pass of its own.

parse built the AST and then ran arity_of over it. evaluate in the free and
matrix models ran arity_of and then a walk that trusted the input count
arity_of returned. normalize ran validate_for_mode, arity_of and that walk;
equal_mod_theory ran arity_of on both sides and compared the interfaces
before it normalized each side.

test_typed_walk.py plays the library, which type-checks an expression in
the pass that builds it, against these. The atom images, the readers of a
free image and the quotients are shared with the library.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional

from idag.core import canonical_form
from idag.equivalence import _apply_quotients, _as_mode
from idag.errors import ArityMismatch, ExprSyntaxError
from idag.models import FreeIdagModel, MatrixModel
from idag.terms import (
    _GENERATORS,
    _PUNCTUATION,
    _STRAY_RE,
    Expression,
    Id,
    Node,
    Seq,
    Sym,
    Ten,
    _generator_image,
    _line_column,
    arity_of,
    validate_for_mode,
)

_BY_KEYWORD = {keyword: cls for cls, (keyword, _, _) in _GENERATORS.items()}
# one token per identifier, number or punctuation character
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[;*()\[\],]")
# the punctuation before each width of id(n) and sym(n,m)
_WIRINGS = {"id": (Id, ("(",)), "sym": (Sym, ("(", ","))}


def _syntax_error(text: str, tokens: list, i: int, message: str) -> ExprSyntaxError:
    """An ExprSyntaxError at token i of text, or just past the last token
    when i is the end-of-input sentinel."""
    at_end = tokens[i] is None
    m = next(itertools.islice(_TOKEN_RE.finditer(text), i - 1 if at_end else i, None))
    line, column = _line_column(text, m.start())
    return ExprSyntaxError(line, column + len(m.group()) if at_end else column, message)


def parse(text: str) -> Expression:
    """Build the AST, then type-check it with arity_of."""
    stray = _STRAY_RE.search(text)
    if stray:
        line, column = _line_column(text, stray.start())
        raise ExprSyntaxError(line, column, f"unexpected character {stray.group()!r}")
    tokens: list = _TOKEN_RE.findall(text)
    if not tokens:
        raise ExprSyntaxError(1, 1, "empty expression")
    tokens.append(None)
    enclosing: list[tuple[Optional[Expression], Optional[Expression]]] = []
    chain: Optional[Expression] = None
    row: Optional[Expression] = None
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        if tok == "(":
            enclosing.append((chain, row))
            chain = row = None
            continue
        if tok in _WIRINGS:
            cls, separators = _WIRINGS[tok]
            widths = []
            for sep in separators:
                if tokens[i] != sep:
                    raise _syntax_error(text, tokens, i, f"expected {sep!r}")
                n = tokens[i + 1]
                if n is None:
                    raise _syntax_error(text, tokens, i + 1, "unexpected end of input")
                if not n.isdigit():
                    raise _syntax_error(text, tokens, i + 1, f"expected a number, got {n!r}")
                widths.append(int(n))
                i += 2
            if tokens[i] != ")":
                raise _syntax_error(text, tokens, i, "expected ')'")
            i += 1
            a = cls(*widths)
        elif tok == "node":
            if tokens[i] == "[":
                label = tokens[i + 1]
                if label is None:
                    raise _syntax_error(text, tokens, i + 1, "unexpected end of input")
                if label in _PUNCTUATION:
                    raise _syntax_error(text, tokens, i + 1, "expected a label")
                if tokens[i + 2] != "]":
                    raise _syntax_error(text, tokens, i + 2, "expected ']'")
                i += 3
                a = Node(label)
            else:
                a = Node()
        elif tok in _BY_KEYWORD:
            a = _BY_KEYWORD[tok]()
        elif tok is None:
            raise _syntax_error(text, tokens, i - 1, "unexpected end of input")
        else:
            raise _syntax_error(text, tokens, i - 1, f"unexpected token {tok!r}")
        while True:
            row = a if row is None else Ten(row, a)
            tok = tokens[i]
            if tok == "*":
                i += 1
                break
            chain = row if chain is None else Seq(chain, row)
            row = None
            if tok == ";":
                i += 1
                break
            if not enclosing:
                if tok is not None:
                    raise _syntax_error(text, tokens, i, f"trailing input {tok!r}")
                arity_of(chain)
                return chain
            if tok != ")":
                raise _syntax_error(text, tokens, i, "expected ')'")
            i += 1
            a = chain
            chain, row = enclosing.pop()


def walk(e: Expression, n_in: int, mode) -> tuple[list[str], list[dict[int, int]]]:
    """The free image of an e that arity_of has checked and found to have
    n_in inputs: its node labels, then its node and output wires."""
    weighted_sum = mode.weighted_sum
    labels: list[str] = []
    ins: list[dict[int, int]] = []
    wires = [{i: 1} for i in range(n_in)]
    stack: list = [(e, 0)]
    end = 0
    while stack:
        x, at = stack.pop()
        at = end if at is None else at
        if isinstance(x, Seq):
            stack.append((x.then, at))
            stack.append((x.first, at))
        elif isinstance(x, Ten):
            stack.append((x.right, None))
            stack.append((x.left, at))
        elif isinstance(x, Id):
            end = at + x.n
        elif isinstance(x, Sym):
            mid, end = at + x.n, at + x.n + x.m
            wires[at:end] = wires[mid:end] + wires[at:mid]
        elif isinstance(x, Node):
            ins.append(wires[at])
            wires[at] = {n_in + len(labels): 1}
            labels.append(x.label)
            end = at + 1
        else:
            width, out_terms = _generator_image(x, mode)
            local = wires[at : at + width]
            wires[at : at + width] = [
                weighted_sum([(local[s], w) for s, w in terms]) for terms in out_terms
            ]
            end = at + len(out_terms)
    return labels, ins + wires


def evaluate(e: Expression, model):
    """e's value in a FreeIdagModel or MatrixModel."""
    assert type(model) in (FreeIdagModel, MatrixModel)
    n_in, _ = arity_of(e)
    mode = model.mode if type(model) is FreeIdagModel else model.weights
    return model._read_image(n_in, *walk(e, n_in, mode))


def _normal_form(e: Expression, tm, n_in: Optional[int] = None):
    if n_in is None or tm.labels is not None:
        validate_for_mode(e, tm.weights, tm.labels)
    if n_in is None:
        n_in, _ = arity_of(e)
    value = FreeIdagModel(tm.weights)._read_image(n_in, *walk(e, n_in, tm.weights))
    return canonical_form(_apply_quotients(value, tm))


def normalize(e: Expression, mode):
    return _normal_form(e, _as_mode(mode))


def equal_mod_theory(e1: Expression, e2: Expression, mode):
    """(equal, left normal form, right normal form)."""
    a1 = arity_of(e1)
    a2 = arity_of(e2)
    if a1 != a2:
        raise ArityMismatch(f"interfaces differ: {a1} vs {a2}")
    tm = _as_mode(mode)
    nf1 = _normal_form(e1, tm, a1[0])
    nf2 = _normal_form(e2, tm, a1[0])
    return nf1 == nf2, nf1, nf2
