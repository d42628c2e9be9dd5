"""Where expression text fails to parse, and why.

terms.parse imports this module only when it raises: each function here
builds the ExprSyntaxError, with its 1-based line and column, for text that
parse has already rejected. Positions are found by scanning the text again.
"""

from __future__ import annotations

import itertools
import re

from .errors import ExprSyntaxError
from .terms import _PART, _TOKEN_RE

# the parts of expression text, one at a time: identifiers, numbers and
# punctuation
_PART_RE = re.compile(_PART)
_PUNCTUATION = frozenset(";*()[],")
# the parts that follow the keyword of a well-formed id, sym and labelled
# node, where "n" stands for a number and "label" for a label
_ATOM_PARTS = {
    "id": ("(", "n", ")"),
    "sym": ("(", "n", ",", "n", ")"),
    "node": ("[", "label", "]"),
}


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of a character of text."""
    line_start = 0
    for lineno, line in enumerate(text.splitlines(keepends=True), start=1):
        if offset < line_start + len(line):
            break
        line_start += len(line)
    return lineno, offset - line_start + 1


def _error_at(text: str, m: re.Match, message: str, past: bool = False) -> ExprSyntaxError:
    """An ExprSyntaxError at the token or part m of text, or just past its
    last character."""
    if not past:
        return ExprSyntaxError(*_line_column(text, m.start()), message)
    line, column = _line_column(text, m.end() - 1)
    return ExprSyntaxError(line, column + 1, message)


def _syntax_error(text: str, tokens: list, i: int, message: str) -> ExprSyntaxError:
    """An ExprSyntaxError at token i of text, or just past the last token
    when i is the end-of-input sentinel. Positions are found only here, by
    scanning the text again."""
    at_end = tokens[i] is None
    m = next(itertools.islice(_TOKEN_RE.finditer(text), i - 1 if at_end else i, None))
    return _error_at(text, m, message, past=at_end)


def stray_error(text: str, stray: re.Match) -> ExprSyntaxError:
    """The ExprSyntaxError at a character that is neither whitespace nor part
    of a token."""
    return _error_at(text, stray, f"unexpected character {stray.group()!r}")


def atom_error(text: str, tokens: list, i: int) -> ExprSyntaxError:
    """The ExprSyntaxError for token i, which stands where an atom must and
    is none."""
    tok = tokens[i]
    if tok is None:
        return _syntax_error(text, tokens, i, "unexpected end of input")
    if tok in _ATOM_PARTS:
        return _malformed_atom(text, i)
    return _syntax_error(text, tokens, i, f"unexpected token {tok!r}")


def past_atom_error(text: str, tokens: list, i: int, nested: bool) -> ExprSyntaxError:
    """The ExprSyntaxError for token i, which follows an atom but neither
    extends nor ends the expression; nested tells whether a parenthesis is
    open. A '[' after a bare node begins a malformed label."""
    if tokens[i] == "[" and tokens[i - 1] == "node":
        return _malformed_atom(text, i - 1)
    if nested:
        return _syntax_error(text, tokens, i, "expected ')'")
    return _syntax_error(text, tokens, i, f"trailing input {_PART_RE.match(tokens[i]).group()!r}")


def _malformed_atom(text: str, i: int) -> ExprSyntaxError:
    """The ExprSyntaxError of the malformed id, sym or labelled node whose
    keyword is token i: the text is read again from there one part at a
    time, against the parts a well-formed one has, up to the first that
    differs. One must differ, or the atom would be one token."""
    keyword = next(itertools.islice(_TOKEN_RE.finditer(text), i, None))
    parts = _PART_RE.finditer(text, keyword.start())
    last = next(parts)
    for want in _ATOM_PARTS[last.group()]:
        m = next(parts, None)
        if m is None:
            message = f"expected {want!r}" if want in _PUNCTUATION else "unexpected end of input"
            return _error_at(text, last, message, past=True)
        got = m.group()
        if want == "n" and not got.isdigit():
            message = f"expected a number, got {got!r}"
        elif want == "label" and got in _PUNCTUATION:
            message = "expected a label"
        elif want in _PUNCTUATION and got != want:
            message = f"expected {want!r}"
        else:
            last = m
            continue
        return _error_at(text, m, message)
    raise AssertionError("a well-formed atom is one token")
