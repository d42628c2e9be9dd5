"""Exception types raised across the package.

Every error raised by the library derives from IdagError, so callers (and the
CLI) can catch one type and map it to a diagnostic.
"""

from __future__ import annotations


def _int_text(n: int) -> str:
    """n in decimal for a message, or, when str() refuses it (Python writes
    at most 4,300 digits by default), its sign and digit count, as in
    "<5001 digits>" or "-<5001 digits>"."""
    try:
        return str(n)
    except ValueError:
        pass
    a = abs(n)
    k = int(a.bit_length() * 0.30103)  # then 10**k <= a < 10**(k+1) up to one step
    while 10**k > a:
        k -= 1
    while 10 ** (k + 1) <= a:
        k += 1
    return f"{'-' if n < 0 else ''}<{k + 1} digits>"


class IdagError(Exception):
    """Base class for all errors raised by this package."""


class CycleDetected(IdagError):
    """The internal node-to-node edges contain a directed cycle."""


class BadEndpoint(IdagError):
    """An edge endpoint is out of range, unknown, or on the wrong side."""


class InvalidWeight(IdagError):
    """An edge weight is not a valid nonzero element of the weight system."""


class ZeroWeight(InvalidWeight):
    """An explicit zero weight was supplied; absent edges encode zero."""


class AntipodeWeight(InvalidWeight):
    """A negative weight was supplied outside the integer weight system."""


class DuplicateNodeId(IdagError):
    """Two nodes in one idag share an id."""


class NotBijective(IdagError):
    """The supplied index map is not a permutation."""


class InterfaceMismatch(IdagError):
    """Sequential composition with unequal inner interface widths."""


class ModeMismatch(IdagError):
    """Operands or arguments disagree on the weight system, or an operation
    requires a specific weight system (e.g. the quotients require BOOL)."""


class SearchBudgetExceeded(IdagError):
    """A search gave up at its budget. Canonicalization stops after the
    configured number of search-tree nodes, and its message names N, the
    budget and the sizes of the cells that were still tied when the search
    began. Counting or sampling topological sortings stops once it holds
    more down-sets than sortings.MAX_DOWN_SETS, and its message names N
    and that bound."""


class SizeLimitExceeded(IdagError):
    """A width, interface or node count exceeds its bound, core.MAX_WIDTH;
    the message names the size and the bound. The size is an int, or text
    giving the digit count of a width too long to read."""

    def __init__(self, what: str, size: int, bound: int):
        self.size = size
        self.bound = bound
        super().__init__(f"{what} {_int_text(size)} exceeds the bound {bound}")


class TypeMismatch(IdagError):
    """A sequential composite's inner arities disagree."""

    def __init__(self, position: str, expected: int, found: int):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            f"sequential mismatch at {position}: "
            f"upstream coarity {_int_text(expected)}, downstream arity {_int_text(found)}"
        )


class ExprSyntaxError(IdagError):
    """Expression text failed to parse."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"{line}:{column}: {message}")


class SchemaError(IdagError):
    """A JSON document does not match the idag schema."""


class WrongArgumentType(IdagError, TypeError):
    """An argument is not of the type the function takes, as an Idag or a
    Model; a TypeError too, so callers catching that still catch it."""


def _check_type(value: object, cls: type) -> None:
    """Raise WrongArgumentType unless value is an instance of cls."""
    if not isinstance(value, cls):
        raise WrongArgumentType(f"expected {cls.__name__}, not {type(value).__name__}")


def _check_collection(value: object, cls: type) -> None:
    """_check_type(value, cls), refusing a str too: a str is one label or
    id, not a collection of them."""
    if isinstance(value, str):
        raise WrongArgumentType(f"expected {cls.__name__} other than str, not str")
    _check_type(value, cls)


class UnsupportedGenerator(IdagError):
    """The chosen model has no image for a generator in the expression."""


class IndexOutOfRange(IdagError):
    """A layer or sorting index is outside its valid range."""


class NotATopologicalSorting(IdagError):
    """The supplied node order is not a topological sorting of the idag."""


class NotAdjacentTransposition(IdagError):
    """The two sortings do not differ by exactly one adjacent swap."""


class ArityMismatch(IdagError):
    """Two expressions compared for equality have different interfaces."""
