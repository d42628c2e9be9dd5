"""Building expressions: left-associated chains of parts (seq_all, ten_all),
atom-by-atom rebuilding (map_atoms) and crossings written with sym(1,1)
alone (expand_symmetry).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .algebra import _check_widths
from .core import MAX_WIDTH
from .errors import IndexOutOfRange, SizeLimitExceeded, UnsupportedGenerator, _check_type
from .terms import Expression, Id, Seq, Sym, Ten, fold


def _expression(p: object) -> Expression:
    """p, when it is an expression; UnsupportedGenerator otherwise, as
    arity_of raises on an atom it does not know."""
    if not isinstance(p, Expression):
        raise UnsupportedGenerator(f"unknown atom {p!r}")
    return p


def seq_all(parts: Sequence[Expression]) -> Expression:
    """Left-associated sequential chain; IndexOutOfRange when parts is
    empty, since a chain of no parts has no width, and UnsupportedGenerator
    on a part that is not an expression."""
    _check_type(parts, Sequence)
    if not parts:
        raise IndexOutOfRange("seq_all of no parts")
    e = _expression(parts[0])
    for p in parts[1:]:
        e = Seq(e, _expression(p))
    return e


def ten_all(parts: Sequence[Expression]) -> Expression:
    """Left-associated tensor chain, collapsing adjacent identities: a run
    of identities becomes one id of their total width, a zero total leaves
    none, and no parts left give id(0). Raises UnsupportedGenerator, as
    arity_of does, on a part that is not an expression."""
    _check_type(parts, Sequence)
    e: Optional[Expression] = None
    wires = 0  # width of the identities since the last other part
    for p in parts:
        if type(p) is Id:
            wires += p.n
            continue
        _expression(p)
        if wires:
            e = Id(wires) if e is None else Ten(e, Id(wires))
            wires = 0
        e = p if e is None else Ten(e, p)
    if wires:
        e = Id(wires) if e is None else Ten(e, Id(wires))
    return Id(0) if e is None else e


def map_atoms(e: Expression, fn: Callable[[Expression], Expression]) -> Expression:
    """Rebuild e with every atom replaced by fn(atom)."""
    _check_type(fn, Callable)
    return fold(
        e,
        fn,
        lambda _n, a, b: Seq(a, b),
        lambda _n, a, b: Ten(a, b),
    )


def expand_symmetry(n: int, m: int) -> Expression:
    """Sym(n, m) written with only sym(1,1), identities, ; and *; raises as
    Sym(n, m) does on widths that are not non-negative ints, then as
    algebra.symmetry does on a width past MAX_WIDTH, and SizeLimitExceeded
    when it would take more than MAX_WIDTH crossings, n * m."""
    Sym(n, m)
    _check_widths("width", n, m)
    _check_widths("width", n + m)
    if n * m > MAX_WIDTH:
        raise SizeLimitExceeded("crossings", n * m, MAX_WIDTH)
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
