"""The loops model: morphisms as permutations of wires with label words.

LoopsModel interprets only wires, crossings and node boxes: a morphism is a
permutation together with one label word per input wire. It reads a value
off a free image in INT (see models._walk), so it refuses in one place, its
reader, which takes exactly the images that are wirings: it evaluates
delta ; (eps * id(1)) and anti ; anti, but not delta or delta ; nabla.
Importing this module adds LoopsModel to models._NATIVE.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import _is_permutation
from .errors import UnsupportedGenerator, _check_type
from .matrices import MatrixMorphism, _check_columns
from .models import _NATIVE, Model
from .record import Frozen
from .weights import INT


class LoopsMorphism(Frozen):
    """A morphism of the loops model: a permutation of the wires plus one
    label word per input wire. Input i lands on output perm[i], and its
    word lists the labels it meets, the last first."""

    __slots__ = ("perm", "words")

    @property
    def n(self) -> int:
        return len(self.perm)


class LoopsModel(Model, Frozen):
    """Evaluation into permutations-with-words; supports only wires,
    crossings and node boxes."""

    __slots__ = ()

    weights = INT

    def relation(self, mat: MatrixMorphism) -> LoopsMorphism:
        """mat as a permutation: each column must hold one entry, a 1, in a
        row no other column uses."""
        _check_type(mat, MatrixMorphism)
        _check_columns(mat, INT)
        inverse = [i for col in mat.cols if len(col) == 1 for i, w in col.items() if w == 1]
        if not mat.n_in == len(mat.cols) == len(inverse) or not _is_permutation(inverse):
            raise UnsupportedGenerator("loops model interprets only permutations")
        perm = sorted(range(mat.n_in), key=inverse.__getitem__)
        return LoopsMorphism(tuple(perm), ((),) * mat.n_in)

    def equal(self, a: LoopsMorphism, b: LoopsMorphism) -> bool:
        _check_type(a, LoopsMorphism)
        _check_type(b, LoopsMorphism)
        return a == b

    def _read_image(
        self, n_in: int, labels: Sequence[str], wires: Sequence[dict[int, int]]
    ) -> LoopsMorphism:
        """The value of a free image (see models._walk) that is a wiring:
        each wire holds one source with weight 1, and each input and node is
        read once. Each input's chain, source s feeding wire succ[s], passes
        its nodes on the way to its output."""
        n_nodes = len(labels)
        succ = {s: j for j, wire in enumerate(wires) if len(wire) == 1 for s, w in wire.items() if w == 1}
        if not len(succ) == len(wires) == n_in + n_nodes:
            raise UnsupportedGenerator("loops model interprets only wires, crossings and node boxes")
        perm, words = [], []
        for j in (succ[i] for i in range(n_in)):
            word = []
            while j < n_nodes:
                word.append(labels[j])
                j = succ[n_in + j]
            perm.append(j - n_nodes)
            words.append(tuple(reversed(word)))
        return LoopsMorphism(tuple(perm), tuple(words))


_NATIVE.add(LoopsModel)
