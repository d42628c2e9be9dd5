"""The loops model: morphisms as permutations of wires with label words.

LoopsModel interprets only wires, crossings and node boxes: a morphism is a
permutation together with one label word per input wire, composition
composing permutations and concatenating words. It has no native walk, so
evaluate() folds an expression into it by compose and tensor.
"""

from __future__ import annotations

from .algebra import _check_widths, _crossing, _is_permutation
from .errors import InterfaceMismatch, UnsupportedGenerator, _check_type
from .matrices import MatrixMorphism
from .models import Model, evaluate
from .record import Frozen
from .terms import Expression, Node


class LoopsMorphism(Frozen):
    """A morphism of the loops model: a permutation of the wires plus one
    label word per input wire. Composition multiplies permutations and
    prepends the later word (so sequential boxes accumulate on the left)."""

    __slots__ = ("perm", "words")

    def __init__(self, perm: tuple[int, ...], words: tuple[tuple[str, ...], ...]) -> None:
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "words", words)

    @property
    def n(self) -> int:
        return len(self.perm)

    def then(self, other: "LoopsMorphism") -> "LoopsMorphism":
        _check_type(other, LoopsMorphism)
        if self.n != other.n:
            raise InterfaceMismatch(f"cannot feed {self.n} wires into {other.n}")
        perm = tuple(other.perm[self.perm[i]] for i in range(self.n))
        words = tuple(other.words[self.perm[i]] + self.words[i] for i in range(self.n))
        return LoopsMorphism(perm, words)

    def tensor(self, other: "LoopsMorphism") -> "LoopsMorphism":
        _check_type(other, LoopsMorphism)
        n = self.n
        perm = self.perm + tuple(n + p for p in other.perm)
        return LoopsMorphism(perm, self.words + other.words)


def loops_identity(n: int) -> LoopsMorphism:
    _check_widths("width", n)
    return LoopsMorphism(tuple(range(n)), ((),) * n)


class LoopsModel(Model, Frozen):
    """Evaluation into permutations-with-words; supports only wires,
    crossings and node boxes."""

    __slots__ = ()

    def identity(self, n: int) -> LoopsMorphism:
        return loops_identity(n)

    def symmetry(self, n: int, m: int) -> LoopsMorphism:
        return LoopsMorphism(tuple(_crossing(n, m)), ((),) * (n + m))

    def generator(self, gen: Expression) -> LoopsMorphism:
        if type(gen) is Node:
            return LoopsMorphism((0,), ((gen.label,),))
        raise UnsupportedGenerator(f"loops model does not interpret {gen!r}")

    def compose(self, first: LoopsMorphism, then: LoopsMorphism) -> LoopsMorphism:
        _check_type(first, LoopsMorphism)
        return first.then(then)

    def tensor(self, a: LoopsMorphism, b: LoopsMorphism) -> LoopsMorphism:
        _check_type(a, LoopsMorphism)
        return a.tensor(b)

    def relation(self, mat: MatrixMorphism) -> LoopsMorphism:
        """mat as a permutation: each column must hold one entry, a 1, in a
        row no other column uses."""
        _check_type(mat, MatrixMorphism)
        inverse = [i for col in mat.cols if len(col) == 1 for i, w in col.items() if w == 1]
        if not mat.n_in == len(mat.cols) == len(inverse) or not _is_permutation(inverse):
            raise UnsupportedGenerator("loops model interprets only permutations")
        perm = sorted(range(mat.n_in), key=inverse.__getitem__)
        return LoopsMorphism(tuple(perm), ((),) * mat.n_in)

    def equal(self, a: LoopsMorphism, b: LoopsMorphism) -> bool:
        _check_type(a, LoopsMorphism)
        _check_type(b, LoopsMorphism)
        return a == b


def loops_eval(e: Expression) -> LoopsMorphism:
    """Evaluate a node/sym/id expression in the loops model."""
    return evaluate(e, LoopsModel())
