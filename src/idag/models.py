"""Models: where expressions evaluate.

A model gives each generator an image and composes images along the PROP
structure (Model). id and sym are permutations, node-free idags with 0/1
weights, so Model reads them once for every model through its relation.
Three models ship with the package. FreeIdagModel, here, interprets every
generator as a small idag and composes with concat/juxt; it is free, so two
expressions are equal modulo the equational theory iff their images here
are isomorphic. MatrixModel (in matrices) interprets morphisms as matrices
over the weight system, and LoopsModel (in loops) as permutations with one
label word per wire; each module is imported on first use, so evaluating
in the free model loads neither.

The free model is initial, so FreeIdagModel and MatrixModel read a value off
a free image, node labels and wires (see _walk), each with one reader,
_read_image: the free model returns the image as an idag, the matrix model
its path sums. The free images of the node-free generators are defined once,
in terms._GENERATORS, so a generator's matrix image too is the path sum of
its free image. evaluate() builds e's image by one walk that touches only
the wires each atom consumes and type-checks e as it goes, so a well-typed e
is walked once; the walk dispatches on each term's class, reads each atom's
fields as they are (atoms check them when built, see terms), and reads the
generator images from that table on each call, running copy-, merge-, unit-
and discard-shaped ones inline; layers.interpret() takes d's own wires along
the sorting. The models walked natively are the keys of _NATIVE, which the
matrices module extends with MatrixModel when it is imported, so evaluate()
tells them apart by one lookup of the model's class. Other models,
subclasses and wrapping models take the compose/tensor fold, which tests use
as the reference.

Every sum of weight products in the walk is WeightSystem.weighted_sum.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Sequence

from . import terms
from .core import MAX_WIDTH, Idag, canonical_form
from .errors import SizeLimitExceeded, _check_type
from .terms import (
    Expression,
    Id,
    Node,
    Seq,
    Sym,
    Ten,
    _as_base,
    _atom_arity,
    _generator_image,
    _interprets,
    arity_of,
    fold,
)
from .record import Frozen
from .weights import BOOL, WeightSystem

if TYPE_CHECKING:
    from .matrices import MatrixMorphism


# ---------------------------------------------------------------------------
# Generator images in the free model


def free_generator_image(gen: Expression, mode: WeightSystem) -> Idag:
    """The idag a single generator evaluates to in the free model; a node
    box's node gets the id "0"."""
    return FreeIdagModel(mode)._read_image(*_typed_walk(gen, mode))


# ---------------------------------------------------------------------------
# Models


class Model:
    """Evaluation target: images for generators plus PROP structure. A
    model defines generator, compose, tensor, relation and equal; identity
    and symmetry read their permutation matrices through relation."""

    __slots__ = ()

    def identity(self, n: int):
        return self.symmetry(n, 0)

    def symmetry(self, n: int, m: int):
        """relation of the BOOL matrix crossing the first n of n+m wires
        over the last m (algebra.symmetry's wires); its entries, all 1, are
        valid in every weight system."""
        from .algebra import _check_widths
        from .matrices import MatrixMorphism

        _check_widths("width", n, m)  # before any sum of them, as _crossing
        _check_widths("width", n + m)
        cols = tuple({n + j: 1} for j in range(m)) + tuple({i: 1} for i in range(n))
        return self.relation(MatrixMorphism(BOOL, n + m, cols))

    def generator(self, gen: Expression):
        raise NotImplementedError

    def compose(self, first, then):
        """Diagrammatic order: first, then then."""
        raise NotImplementedError

    def tensor(self, a, b):
        raise NotImplementedError

    def relation(self, mat: MatrixMorphism):
        """The morphism a plain weight matrix denotes in this model."""
        raise NotImplementedError

    def equal(self, a, b) -> bool:
        raise NotImplementedError


class FreeIdagModel(Model, Frozen):
    """Evaluation into idags themselves; free for the equational theory the
    mode selects."""

    __slots__ = ("mode",)

    def __init__(self, mode: WeightSystem = BOOL) -> None:
        _check_type(mode, WeightSystem)
        object.__setattr__(self, "mode", mode)

    def generator(self, gen: Expression) -> Idag:
        return free_generator_image(gen, self.mode)

    def compose(self, first: Idag, then: Idag) -> Idag:
        from .algebra import concat

        return concat(then, first)

    def tensor(self, a: Idag, b: Idag) -> Idag:
        from .algebra import juxt

        return juxt(a, b)

    def relation(self, mat: MatrixMorphism) -> Idag:
        """The node-free idag whose wires are mat's columns."""
        from .matrices import MatrixMorphism, _check_columns

        _check_type(mat, MatrixMorphism)
        _check_columns(mat.cols, self.mode.check_edge_weight)
        return Idag(self.mode, mat.n_in, mat.n_out, (), mat.cols)

    def equal(self, a: Idag, b: Idag) -> bool:
        return canonical_form(a) == canonical_form(b)

    def _read_image(
        self, n_in: int, labels: Sequence[str], wires: Sequence[dict[int, int]]
    ) -> Idag:
        """The free image as an idag, which stores it as it is (see _walk
        for its form); node k gets the id str(k)."""
        nodes = tuple((str(k), lbl) for k, lbl in enumerate(labels))
        return Idag(self.mode, n_in, len(wires) - len(nodes), nodes, tuple(wires))


# the models evaluate() walks natively, by class, each with a reader of the
# weight system its walk runs in; matrices adds MatrixModel
_NATIVE: dict[type, Callable[[Model], WeightSystem]] = {FreeIdagModel: attrgetter("mode")}


def evaluate(e: Expression, model: Model):
    """Evaluate a well-typed expression in a model.

    Raises TypeMismatch if e is ill-typed, UnsupportedGenerator if the
    model lacks an image for a generator occurring in e, and
    WrongArgumentType if model is not a Model. FreeIdagModel and
    MatrixModel type-check e in the walk that builds its image; other
    models check it with arity_of before their fold.
    """
    weights_of = _NATIVE.get(type(model))
    if weights_of is not None:
        return model._read_image(*_typed_walk(e, weights_of(model)))
    _check_type(model, Model)
    arity_of(e)

    def atom(a: Expression):
        if isinstance(a, Id):
            return model.identity(a.n)
        if isinstance(a, Sym):
            return model.symmetry(a.n, a.m)
        return model.generator(a)

    return fold(
        e,
        atom,
        lambda _n, a, b: model.compose(a, b),
        lambda _n, a, b: model.tensor(a, b),
    )


def _typed_walk(e: Expression, mode: WeightSystem) -> tuple[int, list[str], list[dict[int, int]]]:
    """_walk(e, mode), raising arity_of's error, with its position, when e
    is ill-typed, and otherwise the walk's own."""
    try:
        return _walk(e, mode)
    except Exception:
        arity_of(e)
        raise


class _IllTyped(Exception):
    """_walk met a term that arity_of rejects; arity_of names the error."""


_THEN = object()  # on _walk's stack, over a `then`'s start and the `then`
_CLOSE_THEN = object()  # marks the end of a `then` on _walk's stack


def _input_count(e: Expression) -> int:
    """The inputs of e, read off its input spine: the first of each ";"
    and both sides of each "*". Right for a well-typed e; raises on an atom
    arity_of rejects."""
    n = 0
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Seq):
            stack.append(x.first)
        elif isinstance(x, Ten):
            stack += (x.left, x.right)
        else:
            n += _atom_arity(x)[0]
    return n


def _walk(e: Expression, mode: WeightSystem) -> tuple[int, list[str], list[dict[int, int]]]:
    """The free image of e: its input count, its node labels, and the
    in-wires of its nodes followed by its output wires. Raises on an
    ill-typed e; the caller runs arity_of for the error to raise.

    Sources are numbered: inputs 0..n_in-1, then nodes in the order they are
    emitted, which is topological. A wire is a {source: nonzero weight}
    dict, never changed once made. Each atom runs only on the wires it
    consumes: id is skipped, a crossing reorders them, a node box's in-wire
    feeds a new node whose source replaces the wire, and any other atom
    maps its input wires to its output wires by its free image's terms.
    Atoms run left to right, so a tensor's right factor starts where the
    outputs of its left factor's last atom end.

    A composite's left part starts where the composite starts, so the walk
    goes down each left spine at once, dispatching on each term's class,
    the common ones first. The stack holds each tensor's right part, which
    starts where the last outputs end, and each `then` with its start
    behind the private _THEN marker, so no term of e (a tuple or an int,
    say) is read as a stack entry. The node-free generators' images are
    read from terms._GENERATORS on each call, and an output that is one
    input with weight 1 takes that input's wire itself, as weighted_sum
    would return it. A class whose image there is a copy, a merge, a unit
    (no input, one output with no edge) or a discard (one input, no output)
    runs inline: a copy inserts its input's wire once more, a merge sums its
    two wires by one weighted_sum, a unit inserts an empty wire and a
    discard deletes its wire. A crossing of one wire over m moves that wire
    by one pop and one insert. Any other class is read through
    terms._as_base, and anti outside int mode raises through
    _generator_image.

    Typing is checked with no width arithmetic. No atom may read past the
    wire list, and a well-typed `then` consumes exactly the outputs of its
    `first`, so the number of wires right of the last outputs is the same
    before and after it. Then every subterm consumes and leaves as many
    wires as arity_of says, and e consumes the n_in wires its input spine
    counts, as arity_of counts them.
    """
    n_in = _input_count(e)
    if n_in > MAX_WIDTH:
        raise SizeLimitExceeded("input count", n_in, MAX_WIDTH)
    weighted_sum = mode.weighted_sum
    # per generator class: its input count and, per output, the input it
    # passes on unchanged or the (input, weight) terms it sums; the classes
    # whose image is a copy (one input passed on to two outputs), a merge
    # (two inputs summed with weight 1), a unit (no input, one empty output)
    # or a discard (one input, no output) run inline
    images = {
        cls: (width, tuple(ts[0][0] if len(ts) == 1 and ts[0][1] == 1 else ts for ts in outs))
        for cls, (_, width, outs) in terms._GENERATORS.items()
        if _interprets(mode, cls)
    }
    copies = {cls for cls, image in images.items() if image == (1, (0, 0))}
    merges = {cls for cls, image in images.items() if image == (2, (((0, 1), (1, 1)),))}
    units = {cls for cls, image in images.items() if image == (0, ((),))}
    discards = {cls for cls, image in images.items() if image == (1, ())}
    labels: list[str] = []
    ins: list[dict[int, int]] = []
    wires = [{i: 1} for i in range(n_in)]
    stack: list = [e]  # right parts; per `then`: _CLOSE_THEN, then, its start, _THEN
    right_of: list[int] = []  # per open `then`: the wires right of first's outputs
    end = 0  # where the last atom's outputs end
    while stack:
        x = stack.pop()
        at = end
        if x is _THEN:
            at, x = stack.pop(), stack.pop()
            right_of.append(len(wires) - end)
        elif x is _CLOSE_THEN:
            if right_of.pop() != len(wires) - end:
                raise _IllTyped
            continue
        while True:  # down the left spine, to the atom at its bottom
            kind = type(x)
            if kind is Ten:
                stack.append(x.right)
                x = x.left
            elif kind is Seq:
                stack += (_CLOSE_THEN, x.then, at, _THEN)
                x = x.first
            elif kind is Id:
                end = at + x.n
                if end > len(wires):
                    raise _IllTyped
                break
            elif kind is Sym:
                n = x.n
                mid, end = at + n, at + n + x.m
                if end > len(wires):
                    raise _IllTyped
                if n == 1:
                    wires.insert(end - 1, wires.pop(at))
                else:
                    wires[at:end] = wires[mid:end] + wires[at:mid]
                break
            elif kind in copies:  # short of wires, it raises IndexError
                wires.insert(at + 1, wires[at])
                end = at + 2
                break
            elif kind in merges:  # as does a merge, before it changes a wire
                end = at + 1
                wires[at] = weighted_sum(((wires[at], 1), (wires.pop(end), 1)))
                break
            elif kind in units:
                wires.insert(at, {})
                end = at + 1
                break
            elif kind in discards:  # and a discard
                del wires[at]
                end = at
                break
            elif kind in images:
                width, outs = images[kind]
                stop = at + width
                if stop > len(wires):
                    raise _IllTyped
                wires[at:stop] = [
                    wires[at + o] if type(o) is int
                    else weighted_sum([(wires[at + s], w) for s, w in o])
                    for o in outs
                ]
                end = at + len(outs)
                break
            elif kind is Node:
                ins.append(wires[at])
                wires[at] = {n_in + len(labels): 1}
                labels.append(x.label)
                end = at + 1
                break
            else:
                if kind in terms._GENERATORS:
                    _generator_image(x, mode)  # raises on anti outside int mode
                x = _as_base(x)
    return n_in, labels, ins + wires


