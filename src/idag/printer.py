"""Printing expressions in their concrete syntax (see terms).

print_expression writes the text that terms.parse reads back to an equal
expression, with minimal parentheses. Atoms check their fields when
built, so it refuses only what the syntax cannot write.
"""

from __future__ import annotations

import re

from .core import DEFAULT_LABEL, MAX_WIDTH
from .errors import SizeLimitExceeded, UnsupportedGenerator
from .terms import _GENERATORS, _LABEL, Expression, Id, Node, Seq, Sym, Ten, _as_base, _atom_arity


# the whole of a printable label: \Z, unlike $, matches no final newline
_IDENT_RE = re.compile(rf"(?:{_LABEL})\Z")


class _Text(str):
    """A piece of print_expression's punctuation."""


_CLOSE, _SEQ, _SEQ_OPEN, _TEN, _TEN_OPEN, _CLOSE_TEN, _CLOSE_TEN_OPEN = map(
    _Text, (")", " ; ", " ; (", " * ", " * (", ") * ", ") * (")
)


def print_expression(e: Expression) -> str:
    """Concrete syntax for e, with minimal parentheses; parses back to an
    equal AST. Emits pieces left to right from one stack: an operand is
    wrapped when it is a ";" chain right of ";" or on either side of "*",
    or a "*" chain right of "*".

    A composite's text starts with its left part's, so, as models._walk
    does, the printer goes down each left spine at once, to the atom at its
    bottom: each composite on the way writes "(" when its left part is
    wrapped and pushes its right part with the punctuation around it. The
    stack holds only punctuation and right parts. Each term is dispatched
    on its exact class. An atom's text is made once per object and kept by
    identity, so an atom shared across e is spelled once. A subclass of Seq
    or Ten sends the whole of e through map_atoms first, which rebuilds its
    composites as the base classes; _atom_text reads any other class that
    is none of the eleven through terms._as_base. A str in e is an unknown
    atom: punctuation on the stack is a _Text."""
    out: list[str] = []
    stack: list = [e]
    texts: dict[int, str] = {}  # id(atom) -> its text; e keeps each atom alive
    while stack:
        x = stack.pop()
        if type(x) is _Text:
            out.append(x)
            continue
        while True:  # down the left spine, to the atom at its bottom
            kind = type(x)
            if kind is Seq:
                then = x.then
                if type(then) is Seq:
                    stack += (_CLOSE, then, _SEQ_OPEN)
                else:
                    stack += (then, _SEQ)
                x = x.first
            elif kind is Ten:
                right = x.right
                right_kind = type(right)
                if type(x.left) is Seq:
                    out.append("(")
                    if right_kind is Seq or right_kind is Ten:
                        stack += (_CLOSE, right, _CLOSE_TEN_OPEN)
                    else:
                        stack += (right, _CLOSE_TEN)
                elif right_kind is Seq or right_kind is Ten:
                    stack += (_CLOSE, right, _TEN_OPEN)
                else:
                    stack += (right, _TEN)
                x = x.left
            else:
                text = texts.get(id(x))
                if text is None:
                    if isinstance(x, (Seq, Ten)):
                        from .builders import map_atoms

                        return print_expression(map_atoms(e, lambda x: x))
                    text = texts[id(x)] = _atom_text(x)
                out.append(text)
                break
    return "".join(out)


def _atom_text(a: Expression) -> str:
    """The concrete syntax of an atom; raises UnsupportedGenerator on one
    with no syntax, and SizeLimitExceeded on a width too long to write."""
    kind = type(a)
    if kind is Id or kind is Sym:
        try:
            return f"id({a.n})" if kind is Id else f"sym({a.n},{a.m})"
        except ValueError:  # more digits than str() writes
            raise SizeLimitExceeded("width", _atom_arity(a)[0], MAX_WIDTH) from None
    if kind in _GENERATORS:
        return _GENERATORS[kind][0]
    if kind is Node:
        if a.label == DEFAULT_LABEL:
            return "node"
        if _IDENT_RE.match(a.label):
            return f"node[{a.label}]"
        raise UnsupportedGenerator(
            f"label {a.label!r} has no expression syntax; use identifier or number labels"
        )
    return _atom_text(_as_base(a))
