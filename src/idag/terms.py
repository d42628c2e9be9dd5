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

This module holds the expression classes, typing and the parser. The
printer (printer.print_expression), the chain builders (builders.seq_all,
ten_all, map_atoms, expand_symmetry) and the diagnostics of text that does
not parse (parse_errors) are modules of their own, imported on first use.

Expression nodes are immutable slotted classes. Parsing scans the text
for tokens once, one token per atom, resolves each distinct token once and
computes line and column only when it raises. The scan tries punctuation,
the most common token, first, and takes the blanks after each token with
it, so it steps over no blank one character at a time; parse_errors finds
positions with the same token pattern, without the blanks. Printing goes
down each left spine at once and spells each distinct atom object once.
Parsing and walks over expressions (arity checking, printing, evaluation)
are iterative, so deeply parenthesized text and the deeply chained
composites produced by decomposition do not hit the interpreter recursion
limit.

Atoms check their own fields when built (UnsupportedGenerator unless a
width is a non-negative int, a bool not counting, and a label a str), so
walks read them unchecked; MAX_WIDTH is left to parse and the models'
walk. Every reader dispatches on a term's exact class, so a class that
is none of the eleven expression classes, a subclass of one included, is
an unknown atom (UnsupportedGenerator) to each. Equality, hashing and repr
read it by Record's field tuple and repr, and a part that is not an
expression by its own, so a composite with an unhashable part compares
but does not hash. An atom made without its __init__ (object.__new__) is
outside this contract.

Typing is checked while an expression is built: parse compares widths at
each ";" as it reads, and the models' walk (models._walk) checks each
composite as it runs. arity_of folds an expression on its own only to name
the error of an ill-typed one.
"""

from __future__ import annotations

import re
from collections.abc import Collection
from typing import Callable, Iterator, Optional, TypeVar

from .core import DEFAULT_LABEL, MAX_WIDTH
from .errors import (
    ExprSyntaxError,
    SizeLimitExceeded,
    TypeMismatch,
    UnsupportedGenerator,
    _check_collection,
    _check_type,
    _int_text,
)
from .record import Frozen
from .weights import WeightSystem


class Expression(Frozen):
    """Base class; subclasses are immutable slotted classes forming the AST.

    Equality, hashing, repr and pickling are written iteratively here
    instead of taking Frozen's field-tuple versions: decomposition produces
    composites tens of thousands of levels deep, and those recurse once per
    level. Expressions are immutable, so a copy is the expression itself.
    """

    __slots__ = ()

    def __rshift__(self, other: "Expression") -> "Expression":
        return Seq(self, other)

    def __matmul__(self, other: "Expression") -> "Expression":
        return Ten(self, other)

    def __str__(self) -> str:
        from .printer import print_expression

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
            if type(a) is Seq:
                stack.append((a.then, b.then))
                stack.append((a.first, b.first))
            elif type(a) is Ten:
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

    def __deepcopy__(self, memo: Optional[dict] = None) -> "Expression":
        return self

    __copy__ = __deepcopy__


def _atom_fields(a: object) -> tuple:
    """What an atom compares and hashes by: Record's field tuple for an
    expression, and a part that is not an expression itself. The eleven
    classes are read directly: through _astuple, == and hash of a large
    decomposition take 2.8x and 1.6x as long."""
    kind = type(a)
    if kind is Node:
        return (a.label,)
    if kind is Id:
        return (a.n,)
    if kind is Sym:
        return (a.n, a.m)
    if kind in _GENERATORS:
        return ()
    return a._astuple() if isinstance(a, Expression) else (a,)


def _atom_repr(a: object) -> str:
    return Frozen.__repr__(a) if isinstance(a, Expression) else repr(a)


class Eta(Expression):
    """Unit: 0 -> 1."""

    __slots__ = ()


class Nabla(Expression):
    """Merge: 2 -> 1."""

    __slots__ = ()


class Eps(Expression):
    """Discard: 1 -> 0."""

    __slots__ = ()


class Delta(Expression):
    """Copy: 1 -> 2."""

    __slots__ = ()


# Node, Id and Sym check their fields when built, so each keeps its own
# constructor.


class Node(Expression):
    """Labelled box on one wire: 1 -> 1; the label is a str."""

    __slots__ = ("label",)

    def __init__(self, label: str = DEFAULT_LABEL) -> None:
        if not isinstance(label, str):
            raise UnsupportedGenerator(f"node label {label!r} is not a string")
        object.__setattr__(self, "label", label)


class Anti(Expression):
    """Sign flip on one wire: 1 -> 1. Requires a weight system with
    additive inverses."""

    __slots__ = ()


class Id(Expression):
    """n parallel wires: n -> n, for an int n >= 0."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        if type(n) is not int or n < 0:
            raise UnsupportedGenerator(f"id({_int_text(n)})")
        object.__setattr__(self, "n", n)


class Sym(Expression):
    """Block crossing: n + m -> m + n, for ints n, m >= 0."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int) -> None:
        if type(n) is not int or type(m) is not int or n < 0 or m < 0:
            raise UnsupportedGenerator(f"sym({_int_text(n)},{_int_text(m)})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)


class Seq(Expression):
    """first, then then: diagrammatic sequential composite."""

    __slots__ = ("first", "then")

    def __init__(self, first: Expression, then: Expression) -> None:
        _set_first(self, first)
        _set_then(self, then)

    def __reduce__(self) -> tuple:
        """The postfix of the parts, by fold, which _from_postfix reads
        back: the atoms in order, and per step None for the next atom or the
        class that joins the last two parts. Atoms keep Record's reduce, and
        so does a subclass, which fold reads as an atom."""
        if type(self) is not Seq and type(self) is not Ten:
            return Frozen.__reduce__(self)
        atoms: list = []
        ops: list = []

        def atom(a: Expression) -> None:
            atoms.append(a)
            ops.append(None)

        join = lambda node, _a, _b: ops.append(type(node))
        fold(self, atom, join, join)
        return _from_postfix, (atoms, ops)


class Ten(Expression):
    """left stacked above right."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression) -> None:
        _set_left(self, left)
        _set_right(self, right)

    __reduce__ = Seq.__reduce__


def _from_postfix(atoms: list, ops: list) -> Expression:
    """The expression a composite's __reduce__ wrote."""
    built: list = []
    next_atom = iter(atoms).__next__
    for op in ops:
        if op is None:
            built.append(next_atom())
        else:
            b = built.pop()
            built[-1] = op(built[-1], b)
    return built[0]


# Seq and Ten are built once per composite, and a decomposition builds tens
# of thousands, so each keeps its own constructor, which sets its two fields
# through their slot descriptors without Record's generic argument handling.
_set_first, _set_then = Seq.first.__set__, Seq.then.__set__
_set_left, _set_right = Ten.left.__set__, Ten.right.__set__


T = TypeVar("T")


def fold(
    e: Expression,
    atom: Callable[[Expression], T],
    seq: Callable[[Seq, T, T], T],
    ten: Callable[[Ten, T, T], T],
) -> T:
    """Iterative post-order fold; the workhorse behind arity checking,
    hashing, repr and pickling. A term that is not exactly a Seq or Ten is
    an atom."""
    stack: list[tuple[Expression, bool]] = [(e, False)]
    results: list[T] = []
    while stack:
        node, ready = stack.pop()
        if type(node) is Seq:
            if ready:
                b = results.pop()
                a = results.pop()
                results.append(seq(node, a, b))
            else:
                stack.append((node, True))
                stack.append((node.then, False))
                stack.append((node.first, False))
        elif type(node) is Ten:
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
        if type(node) is Seq:
            stack.append(node.then)
            stack.append(node.first)
        elif type(node) is Ten:
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


def _generator_image(gen: Expression, mode: WeightSystem) -> tuple[int, tuple]:
    """The free image of a node-free generator in mode: its input count and
    the terms of each output; raises UnsupportedGenerator on any other atom
    and on anti outside int mode."""
    if type(gen) not in _GENERATORS:
        raise UnsupportedGenerator(f"no free image for {gen!r}")
    if not _interprets(mode, type(gen)):
        raise UnsupportedGenerator(f"anti requires int mode, not {mode!r}")
    _, n_in, outs = _GENERATORS[type(gen)]
    return n_in, outs


def _interprets(mode: WeightSystem, cls: type) -> bool:
    """Whether mode gives the generator class of _GENERATORS a free image:
    anti needs int mode."""
    return cls is not Anti or mode.antipode_enabled


def arity_of(e: Expression) -> tuple[int, int]:
    """(inputs, outputs) of e; raises UnsupportedGenerator on what is not
    an atom, and TypeMismatch at the first ill-typed sequential composite
    (leftmost-innermost), naming its position by an attribute path from
    the root."""

    def seq(node: Seq, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        if a[1] != b[0]:
            raise TypeMismatch(_path_to(e, node), a[1], b[0])
        return a[0], b[1]

    return fold(e, _atom_arity, seq, lambda _, a, b: (a[0] + b[0], a[1] + b[1]))


def _atom_arity(a: Expression) -> tuple[int, int]:
    """(inputs, outputs) of an atom; raises UnsupportedGenerator on what is
    not one."""
    kind = type(a)
    if kind is Id:
        return (a.n, a.n)
    if kind is Sym:
        return (a.n + a.m, a.n + a.m)
    if kind is Node:
        return (1, 1)
    if kind in _GENERATORS:
        _, n_in, outs = _GENERATORS[kind]
        return (n_in, len(outs))
    raise UnsupportedGenerator(f"unknown atom {a!r}")


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
        if type(node) is Seq:
            stack.append((node.then, (path, "then")))
            stack.append((node.first, (path, "first")))
        elif type(node) is Ten:
            stack.append((node.right, (path, "right")))
            stack.append((node.left, (path, "left")))
    raise ValueError(f"{target!r} does not occur in the expression")


def validate_for_mode(e: Expression, mode: WeightSystem, labels=None) -> None:
    """Reject generators the mode cannot interpret: anti outside int mode,
    and labels outside the configured label set if one is given; and, as
    arity_of does, anything that is not an atom. Raises WrongArgumentType
    unless mode is a WeightSystem and labels is None or a collection other
    than a str."""
    _check_type(mode, WeightSystem)
    if labels is not None:
        _check_collection(labels, Collection)
    for a in atoms(e):
        kind = type(a)
        if kind is Node:
            if labels is not None and a.label not in labels:
                raise UnsupportedGenerator(f"label {a.label!r} not in the label set")
        elif kind in _GENERATORS:
            _generator_image(a, mode)
        elif kind is not Id and kind is not Sym:
            raise UnsupportedGenerator(f"unknown atom {a!r}")


# ---------------------------------------------------------------------------
# Parsing

# a node label: an identifier or a number token
_LABEL = r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+"
_PUNCT = r"[;*()\[\],]"
# the parts of expression text: identifiers, numbers and punctuation
_PART = rf"{_LABEL}|{_PUNCT}"
# The tokens of expression text. A well-formed id(n), sym(n,m) or
# node[label], with any whitespace between its parts, is one token; every
# other part is a token of its own. So an id, sym or node[ left as a token
# of its own begins a malformed atom. Punctuation, the most common token,
# is tried first; no punctuation character begins another token.
_TOKEN = (
    rf"{_PUNCT}|id\s*\(\s*[0-9]+\s*\)|sym\s*\(\s*[0-9]+\s*,\s*[0-9]+\s*\)"
    rf"|node\s*\[\s*(?:{_LABEL})\s*\]|{_LABEL}"
)
# each token alone, for the positions parse_errors reports
_TOKEN_RE = re.compile(_TOKEN)
# parse's scan: each token, and the blanks after it with it, so that
# findall, which returns the token, fails only on blanks before the first
_SCAN_RE = re.compile(rf"({_TOKEN})\s*")
# A character that is neither whitespace nor part of a token. Line breaks
# are whitespace, so one scan of the whole text yields the tokens of each
# line in turn.
_STRAY_RE = re.compile(r"[^A-Za-z0-9_;*()\[\],\s]")
# the identifiers and numbers of an atom token: its keyword, then its
# widths or its label
_WORD_RE = re.compile(r"[A-Za-z0-9_]+")
_WIRINGS = {"id": Id, "sym": Sym}
# each atom spelled by one keyword, shared by every parse, with its
# (inputs, outputs); "node" stands for a bare node, without a label
_KEYWORD_ATOMS = {
    keyword: (cls(), n_in, len(outs)) for cls, (keyword, n_in, outs) in _GENERATORS.items()
}
_KEYWORD_ATOMS["node"] = (Node(), 1, 1)
# A width with more digits is past MAX_WIDTH and is not read: int()
# refuses more than 4,300 digits, and a TypeMismatch prints sums of widths.
# Shorter widths are read, so their typing errors still come first.
_READ_DIGITS = 4000


def parse(text: str) -> Expression:
    """Parse and type-check expression text.

    Raises ExprSyntaxError (with line and column) on bad syntax, then
    TypeMismatch on a well-formed but ill-typed composite, then
    SizeLimitExceeded on an id or sym wider than MAX_WIDTH. A width of more
    than _READ_DIGITS digits raises SizeLimitExceeded right after syntax
    errors, since its value is never read. Text that is not a str raises
    WrongArgumentType.

    expr := ten (";" ten)*, ten := atom ("*" atom)*, where an atom may be a
    parenthesized expr. One regex scan yields the tokens, one per atom.
    Each distinct token is resolved once, in order of first occurrence, to
    its atom and (inputs, outputs): each keyword atom is one shared
    instance, and so is each distinct id, sym or labelled node of a parse,
    however spelled. The loop then reads one token per atom. Iterative:
    each open parenthesis pushes the enclosing expression's partial chains,
    so nesting depth is not limited by the interpreter's recursion limit.
    Typing is checked as the chains grow: the parser keeps the (inputs,
    outputs) of the current chain and row, and of the enclosing ones, and
    compares them at each ";". Only an ill-typed text is walked again, by
    arity_of, for its error.
    """
    _check_type(text, str)
    stray = _STRAY_RE.search(text)
    if stray:
        from .parse_errors import stray_error

        raise stray_error(text, stray)
    tokens: list = _SCAN_RE.findall(text)
    if not tokens:
        raise ExprSyntaxError(1, 1, "empty expression")
    atoms = dict(_KEYWORD_ATOMS)  # token -> (atom, inputs, outputs)
    shared: dict = {}  # keyword and widths or label -> (atom, inputs, outputs)
    too_wide = 0  # the widest id or sym past MAX_WIDTH
    too_long = 0  # the digit count of the first width too long to read
    for tok in dict.fromkeys(tokens):
        if len(tok) == 1 or tok[-1] not in ")]":
            continue  # not an id(n), sym(n,m) or node[label]
        keyword, *args = _WORD_RE.findall(tok)
        if keyword != "node":
            for k, digits in enumerate(args):
                digits = digits.lstrip("0") or "0"
                if not too_long and len(digits) > _READ_DIGITS:
                    too_long = len(digits)
                args[k] = 0 if too_long else int(digits)  # unread once too_long
        key = (keyword, *args)
        if key not in shared:
            if keyword == "node":
                shared[key] = (Node(*args), 1, 1)
            else:
                width = sum(args)
                if width > MAX_WIDTH:
                    too_wide = max(too_wide, width)
                shared[key] = (_WIRINGS[keyword](*args), width, width)
        atoms[tok] = shared[key]
    tokens.append(None)  # end of input
    enclosing: list[tuple] = []
    chain: Optional[Expression] = None  # completed tens, joined by ";"
    row: Optional[Expression] = None  # atoms of the current ten, by "*"
    c_in = c_out = r_in = r_out = 0  # the inputs and outputs of chain and row
    ill_typed = False
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        if tok == "(":
            enclosing.append((chain, row, c_in, c_out, r_in, r_out))
            chain = row = None
            continue
        entry = atoms.get(tok)
        if entry is None:
            from .parse_errors import atom_error

            raise atom_error(text, tokens, i - 1)
        a, a_in, a_out = entry
        while True:
            if row is None:
                row, r_in, r_out = a, a_in, a_out
            else:
                row, r_in, r_out = Ten(row, a), r_in + a_in, r_out + a_out
            tok = tokens[i]
            if tok == "*":
                i += 1
                break
            if chain is None:
                chain, c_in, c_out = row, r_in, r_out
            else:
                ill_typed = ill_typed or c_out != r_in
                chain, c_out = Seq(chain, row), r_out
            row = None
            if tok == ";":
                i += 1
                break
            if tok is None and not enclosing:
                if too_long:
                    raise SizeLimitExceeded("width of", f"{too_long} digits", MAX_WIDTH)
                if ill_typed:
                    arity_of(chain)  # raises the TypeMismatch, with its position
                if too_wide:
                    raise SizeLimitExceeded("width", too_wide, MAX_WIDTH)
                return chain
            if tok != ")" or not enclosing:
                from .parse_errors import past_atom_error

                raise past_atom_error(text, tokens, i, bool(enclosing))
            i += 1
            a, a_in, a_out = chain, c_in, c_out
            chain, row, c_in, c_out, r_in, r_out = enclosing.pop()
