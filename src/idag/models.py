"""Models: where expressions evaluate.

Three models ship with the package. FreeIdagModel interprets every generator
as a small idag and composes with concat/juxt; it is free, so two expressions
are equal modulo the equational theory iff their images here are isomorphic.
MatrixModel interprets wires as coordinates and morphisms as matrices over
the weight system (an (n, m) morphism is an n x m matrix; sequential
composition is matrix product with rows indexed by inputs, tensor is block
diagonal). LoopsModel interprets only wires, crossings and boxes: a morphism
is a permutation together with one label word per input, composition
composing permutations and concatenating words.

The free model is initial, so FreeIdagModel and MatrixModel read a value off
a free image, node labels and wires (see _walk), each with one reader,
_read_image: the free model returns the image as an idag, the matrix model
its path sums (entry (i, j) sums, over the paths from input i to output j,
edge weights times node images). The free images of the node-free
generators are defined once, in terms._GENERATORS, so a generator's matrix
image too is the path sum of its free image. evaluate() builds e's image by
one walk that touches only the wires each atom consumes and type-checks e
as it goes, so a well-typed e is walked once; the walk dispatches on each
term's class and reads the generator images from that table on each call,
running copy- and merge-shaped ones inline; decomposition.interpret() takes
d's own wires along the sorting. Other models, subclasses and wrapping
models take the compose/tensor fold, which tests use as the reference.

Matrices are sparse rows of Python ints, so their arithmetic is exact at
every magnitude. Every sum of weight products here (the matrix product, the
walk's wires, the path sums) is WeightSystem.weighted_sum.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

from . import core, terms
from .core import MAX_WIDTH, Idag, canonical_form
from .errors import (
    InterfaceMismatch,
    InvalidWeight,
    ModeMismatch,
    NotBijective,
    SizeLimitExceeded,
    UnsupportedGenerator,
    _check_type,
)
from .terms import (
    Expression,
    Id,
    Node,
    Seq,
    Sym,
    Ten,
    _atom_arity,
    _generator_image,
    _interprets,
    arity_of,
    fold,
)
from .record import Frozen
from .weights import BOOL, NAT, WeightSystem


class MatrixMorphism(Frozen):
    """An (n_in, n_out) morphism of the matrix model: an n_in x n_out integer
    matrix over a weight system, stored sparsely as one {column: entry} dict
    per row. Rows hold nonzero entries only, so equal matrices have equal
    rows. Treat instances as immutable."""

    __slots__ = ("weights", "rows", "n_out")

    def __init__(self, weights: WeightSystem, rows: tuple[dict[int, int], ...], n_out: int) -> None:
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n_out", n_out)

    @property
    def n_in(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        cols = range(self.n_out)
        return tuple(tuple(row.get(j, 0) for j in cols) for row in self.rows)

    def then(self, other: "MatrixMorphism") -> "MatrixMorphism":
        if self.weights is not other.weights:
            raise ModeMismatch(f"{self.weights!r} vs {other.weights!r}")
        if self.n_out != other.n_in:
            raise InterfaceMismatch(
                f"cannot feed {self.n_out} outputs into {other.n_in} inputs"
            )
        weighted_sum = self.weights.weighted_sum
        rows = tuple(
            weighted_sum([(other.rows[k], a) for k, a in row.items()]) for row in self.rows
        )
        return MatrixMorphism(self.weights, rows, other.n_out)

    def tensor(self, other: "MatrixMorphism") -> "MatrixMorphism":
        if self.weights is not other.weights:
            raise ModeMismatch(f"{self.weights!r} vs {other.weights!r}")
        shift = self.n_out
        shifted = tuple({shift + j: x for j, x in row.items()} for row in other.rows)
        return MatrixMorphism(self.weights, self.rows + shifted, shift + other.n_out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixMorphism):
            return NotImplemented
        return (
            self.weights is other.weights
            and self.n_out == other.n_out
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash(
            (self.weights, self.n_out, tuple(tuple(sorted(r.items())) for r in self.rows))
        )

    def __repr__(self) -> str:
        return f"MatrixMorphism({self.weights!r}, {self.entries!r})"

    def to_json_obj(self) -> dict:
        return {
            "mode": self.weights.name,
            "inputs": self.n_in,
            "outputs": self.n_out,
            "entries": [list(row) for row in self.entries],
        }


def matrix(
    rows: Sequence[Sequence[int]],
    weights: WeightSystem,
    n: Optional[int] = None,
    m: Optional[int] = None,
) -> MatrixMorphism:
    """Build and validate an n x m matrix morphism from nested dense rows.

    The shape defaults to the shape of rows; pass n and m explicitly when
    rows cannot determine it (no rows, or rows of width zero)."""
    if n is None:
        n = len(rows)
    if m is None:
        if not rows:
            raise InvalidWeight("cannot infer the output arity of an empty matrix")
        m = len(rows[0])
    if len(rows) != n or any(len(row) != m for row in rows):
        raise InvalidWeight(
            f"rows of lengths {[len(row) for row in rows]} do not form an {n} x {m} matrix"
        )
    for row in rows:
        for x in row:
            weights.check_value(x)
    return MatrixMorphism(
        weights, tuple({j: x for j, x in enumerate(row) if x} for row in rows), m
    )


def matrix_identity(n: int, weights: WeightSystem) -> MatrixMorphism:
    core._check_widths("width", n)
    return MatrixMorphism(weights, tuple({i: 1} for i in range(n)), n)


def matrix_permutation(perm: Sequence[int], weights: WeightSystem) -> MatrixMorphism:
    if not core._is_permutation(perm):
        raise NotBijective(f"{list(perm)!r} is not a permutation")
    return MatrixMorphism(weights, tuple({j: 1} for j in perm), len(perm))


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
        if self.n != other.n:
            raise InterfaceMismatch(f"cannot feed {self.n} wires into {other.n}")
        perm = tuple(other.perm[self.perm[i]] for i in range(self.n))
        words = tuple(other.words[self.perm[i]] + self.words[i] for i in range(self.n))
        return LoopsMorphism(perm, words)

    def tensor(self, other: "LoopsMorphism") -> "LoopsMorphism":
        n = self.n
        perm = self.perm + tuple(n + p for p in other.perm)
        return LoopsMorphism(perm, self.words + other.words)


def loops_identity(n: int) -> LoopsMorphism:
    core._check_widths("width", n)
    return LoopsMorphism(tuple(range(n)), ((),) * n)


# ---------------------------------------------------------------------------
# Generator images in the free model


def free_generator_image(gen: Expression, mode: WeightSystem) -> Idag:
    """The idag a single generator evaluates to in the free model; a node
    box's node gets the id "0"."""
    return FreeIdagModel(mode)._read_image(*_typed_walk(gen, mode))


# ---------------------------------------------------------------------------
# Models


class Model:
    """Evaluation target: images for generators plus PROP structure."""

    __slots__ = ()

    def identity(self, n: int):
        raise NotImplementedError

    def symmetry(self, n: int, m: int):
        raise NotImplementedError

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
        object.__setattr__(self, "mode", mode)

    def identity(self, n: int) -> Idag:
        return core.identity(n, self.mode)

    def symmetry(self, n: int, m: int) -> Idag:
        return core.symmetry(n, m, self.mode)

    def generator(self, gen: Expression) -> Idag:
        return free_generator_image(gen, self.mode)

    def compose(self, first: Idag, then: Idag) -> Idag:
        return core.concat(then, first)

    def tensor(self, a: Idag, b: Idag) -> Idag:
        return core.juxt(a, b)

    def relation(self, mat: MatrixMorphism) -> Idag:
        wires: list[dict[int, int]] = [{} for _ in range(mat.n_out)]
        for i, row in enumerate(mat.rows):
            for j, w in sorted(row.items()):
                self.mode.check_edge_weight(w)
                wires[j][i] = w
        return Idag(self.mode, mat.n_in, mat.n_out, (), tuple(wires))

    def equal(self, a: Idag, b: Idag) -> bool:
        return canonical_form(a) == canonical_form(b)

    def _read_image(
        self, n_in: int, labels: Sequence[str], wires: Sequence[dict[int, int]]
    ) -> Idag:
        """The free image as an idag, which stores it as it is (see _walk
        for its form); node k gets the id str(k)."""
        nodes = tuple((str(k), lbl) for k, lbl in enumerate(labels))
        return Idag(self.mode, n_in, len(wires) - len(nodes), nodes, tuple(wires))


class MatrixModel(Model, Frozen):
    """Evaluation into weight matrices. lambda_images supplies a 1 x 1 matrix
    per node label; unlisted labels act as the identity wire."""

    __slots__ = ("weights", "lambda_images")

    def __init__(
        self,
        weights: WeightSystem = NAT,
        lambda_images: Optional[Mapping[str, Union[int, MatrixMorphism]]] = None,
    ) -> None:
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "lambda_images", {} if lambda_images is None else lambda_images)

    def _lambda(self, label: str) -> int:
        """The scalar of label's 1 x 1 image."""
        img = self.lambda_images.get(label)
        if img is None:
            return 1
        if isinstance(img, MatrixMorphism):
            if img.weights is not self.weights:
                raise ModeMismatch(
                    f"lambda image for {label!r}: {img.weights!r} vs {self.weights!r}"
                )
            if (img.n_in, img.n_out) != (1, 1):
                raise InterfaceMismatch(f"lambda image for {label!r} must be 1x1")
            return img.rows[0].get(0, 0)
        self.weights.check_value(img)
        return img

    def identity(self, n: int) -> MatrixMorphism:
        return matrix_identity(n, self.weights)

    def symmetry(self, n: int, m: int) -> MatrixMorphism:
        return matrix_permutation(core._crossing(n, m), self.weights)

    def generator(self, gen: Expression) -> MatrixMorphism:
        return self._read_image(*_typed_walk(gen, self.weights))

    def compose(self, first: MatrixMorphism, then: MatrixMorphism) -> MatrixMorphism:
        return first.then(then)

    def tensor(self, a: MatrixMorphism, b: MatrixMorphism) -> MatrixMorphism:
        return a.tensor(b)

    def relation(self, mat: MatrixMorphism) -> MatrixMorphism:
        # entries are checked by row, then by column, as in FreeIdagModel,
        # so the error depends on the matrix and not on its rows' dict order
        for row in mat.rows:
            for j in sorted(row):
                self.weights.check_value(row[j])
        return MatrixMorphism(self.weights, mat.rows, mat.n_out)

    def equal(self, a: MatrixMorphism, b: MatrixMorphism) -> bool:
        return a == b

    def _read_image(
        self, n_in: int, labels: Sequence[str], wires: Sequence[dict[int, int]]
    ) -> MatrixMorphism:
        """The value of a free image (see _walk for its form): entry (i, j)
        sums, over the paths from input i to output j, the product of their
        edge weights and node images. One pass in topological order gives
        each source, then each output, its {input: coefficient} value; node
        images come from _lambda, once per label."""
        weighted_sum = self.weights.weighted_sum
        scalar = {lbl: self._lambda(lbl) for lbl in dict.fromkeys(labels)}
        n_out = len(wires) - len(labels)
        values = [{i: 1} for i in range(n_in)]
        for c, wire in zip([scalar[lbl] for lbl in labels] + [1] * n_out, wires):
            values.append(weighted_sum([(values[s], w * c) for s, w in wire.items()]))
        rows: list[dict[int, int]] = [{} for _ in range(n_in)]
        for j, column in enumerate(values[len(values) - n_out :]):
            for i, x in column.items():
                rows[i][j] = x
        return MatrixMorphism(self.weights, tuple(rows), n_out)


class LoopsModel(Model, Frozen):
    """Evaluation into permutations-with-words; supports only wires,
    crossings and node boxes."""

    __slots__ = ()

    def identity(self, n: int) -> LoopsMorphism:
        return loops_identity(n)

    def symmetry(self, n: int, m: int) -> LoopsMorphism:
        return LoopsMorphism(tuple(core._crossing(n, m)), ((),) * (n + m))

    def generator(self, gen: Expression) -> LoopsMorphism:
        if isinstance(gen, Node):
            arity_of(gen)  # rejects a label that is not a str
            return LoopsMorphism((0,), ((gen.label,),))
        raise UnsupportedGenerator(f"loops model does not interpret {gen!r}")

    def compose(self, first: LoopsMorphism, then: LoopsMorphism) -> LoopsMorphism:
        return first.then(then)

    def tensor(self, a: LoopsMorphism, b: LoopsMorphism) -> LoopsMorphism:
        return a.tensor(b)

    def relation(self, mat: MatrixMorphism) -> LoopsMorphism:
        n, m = mat.n_in, mat.n_out
        if n != m:
            raise UnsupportedGenerator("loops model interprets only permutations")
        perm = []
        for i, row in enumerate(mat.entries):
            ones = [j for j, w in enumerate(row) if w]
            if len(ones) != 1 or row[ones[0]] != 1:
                raise UnsupportedGenerator("loops model interprets only permutations")
            perm.append(ones[0])
        if sorted(perm) != list(range(n)):
            raise UnsupportedGenerator("loops model interprets only permutations")
        return LoopsMorphism(tuple(perm), ((),) * n)

    def equal(self, a: LoopsMorphism, b: LoopsMorphism) -> bool:
        return a == b


def evaluate(e: Expression, model: Model):
    """Evaluate a well-typed expression in a model.

    Raises TypeMismatch if e is ill-typed, UnsupportedGenerator if the
    model lacks an image for a generator occurring in e, and
    WrongArgumentType if model is not a Model. FreeIdagModel and
    MatrixModel type-check e in the walk that builds its image; other
    models check it with arity_of before their fold.
    """
    kind = type(model)
    if kind is FreeIdagModel or kind is MatrixModel:
        mode = model.mode if kind is FreeIdagModel else model.weights
        return model._read_image(*_typed_walk(e, mode))
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
    would return it. A class whose image there is a copy or a merge runs
    inline: a copy inserts its input's wire once more, and a merge sums its
    two wires by one weighted_sum. A subclass of Seq, Ten, Id or Sym is
    read as its base class, as isinstance would; a Node subclass is
    ill-typed, and anti outside int mode raises through _generator_image.

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
    # whose image is a copy (one input passed on to two outputs) or a merge
    # (two inputs summed with weight 1) run inline
    images = {
        cls: (width, tuple(ts[0][0] if len(ts) == 1 and ts[0][1] == 1 else ts for ts in outs))
        for cls, (_, width, outs) in terms._GENERATORS.items()
        if _interprets(mode, cls)
    }
    copies = {cls for cls, image in images.items() if image == (1, (0, 0))}
    merges = {cls for cls, image in images.items() if image == (2, (((0, 1), (1, 1)),))}
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
                n = x.n
                if type(n) is not int or n < 0 or at + n > len(wires):
                    raise _IllTyped
                end = at + n
                break
            elif kind is Sym:
                n, m = x.n, x.m
                if type(n) is not int or type(m) is not int or n < 0 or m < 0:
                    raise _IllTyped
                mid, end = at + n, at + n + m
                if end > len(wires):
                    raise _IllTyped
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
                if not isinstance(x.label, str):
                    raise _IllTyped
                ins.append(wires[at])
                wires[at] = {n_in + len(labels): 1}
                labels.append(x.label)
                end = at + 1
                break
            else:
                x = _as_base(x, mode)
    return n_in, labels, ins + wires


def _as_base(x: Expression, mode: WeightSystem) -> Expression:
    """x, of a class _walk does not dispatch on, rebuilt as the base class
    isinstance finds for it: Seq, Ten, Id or Sym. Raises on anything else:
    _IllTyped on a Node subclass, _generator_image's error on any other
    atom (an unknown one, a generator subclass, anti outside int mode)."""
    if isinstance(x, Seq):
        return Seq(x.first, x.then)
    if isinstance(x, Ten):
        return Ten(x.left, x.right)
    if isinstance(x, Id):
        return Id(x.n)
    if isinstance(x, Sym):
        return Sym(x.n, x.m)
    if not isinstance(x, Node):
        _generator_image(x, mode)
    raise _IllTyped


def loops_eval(e: Expression) -> LoopsMorphism:
    """Evaluate a node/sym/id expression in the loops model."""
    return evaluate(e, LoopsModel())
