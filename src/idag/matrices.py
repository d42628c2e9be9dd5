"""The matrix model: morphisms as matrices over the weight system.

MatrixModel interprets wires as coordinates and morphisms as matrices over
the weight system (an (n, m) morphism is an n x m matrix; sequential
composition is matrix product with rows indexed by inputs, tensor is block
diagonal). The node-free idags are exactly these matrices, so a matrix is
stored as one: as its columns, the {row: entry} wires of its outputs, the
form core.Idag stores. Idags, path sums and decomposition slices pass to
and from matrices with no transpose.

MatrixModel reads a value off a free image (see models._walk) as its path
sums: entry (i, j) sums, over the paths from input i to output j, edge
weights times node images, and the values at the outputs are the matrix's
columns. Importing this module adds MatrixModel to the models evaluate()
walks natively (models._NATIVE).

Matrix columns are sparse dicts of Python ints, so their arithmetic is
exact at every magnitude. Every sum of weight products here (the matrix
product, the path sums) is WeightSystem.weighted_sum.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Mapping, Optional, Sequence, Union

from .algebra import _check_widths, _shifted, from_permutation, identity
from .errors import InterfaceMismatch, InvalidWeight, ModeMismatch, _check_type
from .models import _NATIVE, Model, _typed_walk
from .record import Frozen
from .terms import Expression
from .weights import NAT, WeightSystem


class MatrixMorphism(Frozen):
    """An (n_in, n_out) morphism of the matrix model: an n_in x n_out integer
    matrix over a weight system, stored as the wires of a node-free idag
    (see core.Idag): one {row: entry} dict per column. Columns hold nonzero
    entries only, so equal matrices have equal columns. Treat instances as
    immutable."""

    __slots__ = ("weights", "n_in", "cols")

    def __init__(self, weights: WeightSystem, n_in: int, cols: tuple[dict[int, int], ...]) -> None:
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "n_in", n_in)
        object.__setattr__(self, "cols", cols)

    @property
    def n_out(self) -> int:
        return len(self.cols)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense matrix, row by row."""
        return tuple(tuple(col.get(i, 0) for col in self.cols) for i in range(self.n_in))

    def then(self, other: "MatrixMorphism") -> "MatrixMorphism":
        _check_type(other, MatrixMorphism)
        if self.weights is not other.weights:
            raise ModeMismatch(f"{self.weights!r} vs {other.weights!r}")
        if self.n_out != other.n_in:
            raise InterfaceMismatch(
                f"cannot feed {self.n_out} outputs into {other.n_in} inputs"
            )
        weighted_sum, cols = self.weights.weighted_sum, self.cols
        return MatrixMorphism(
            self.weights,
            self.n_in,
            tuple(weighted_sum([(cols[k], a) for k, a in col.items()]) for col in other.cols),
        )

    def tensor(self, other: "MatrixMorphism") -> "MatrixMorphism":
        _check_type(other, MatrixMorphism)
        if self.weights is not other.weights:
            raise ModeMismatch(f"{self.weights!r} vs {other.weights!r}")
        n = self.n_in
        shifted = _shifted(other.cols, other.n_in, n, n)
        return MatrixMorphism(self.weights, n + other.n_in, self.cols + shifted)

    def __hash__(self) -> int:
        return hash(
            (self.weights, self.n_in, tuple(tuple(sorted(c.items())) for c in self.cols))
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


def _check_columns(cols: Sequence[dict[int, int]], check: Callable[[int], None]) -> None:
    """Run check on each entry, by column, then by row, so an error depends
    on the matrix and not on its columns' dict order."""
    for col in cols:
        for i in sorted(col):
            check(col[i])


def matrix(
    rows: Sequence[Sequence[int]],
    weights: WeightSystem,
    n: Optional[int] = None,
    m: Optional[int] = None,
) -> MatrixMorphism:
    """Build and validate an n x m matrix morphism from nested dense rows;
    entries are checked by column, then by row.

    The shape defaults to the shape of rows; pass n and m explicitly when
    rows cannot determine it (no rows, or rows of width zero)."""
    _check_type(weights, WeightSystem)
    _check_type(rows, Sequence)
    for row in rows:
        _check_type(row, Sequence)
    if n is None:
        n = len(rows)
    if m is None:
        if not rows:
            raise InvalidWeight("cannot infer the output arity of an empty matrix")
        m = len(rows[0])
    _check_widths("width", n, m)
    if len(rows) != n or any(len(row) != m for row in rows):
        raise InvalidWeight(
            f"rows of lengths {[len(row) for row in rows]} do not form an {n} x {m} matrix"
        )
    for j in range(m):
        for row in rows:
            weights.check_value(row[j])
    cols = tuple({i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(m))
    return MatrixMorphism(weights, n, cols)


def matrix_identity(n: int, weights: WeightSystem) -> MatrixMorphism:
    return MatrixMorphism(weights, n, identity(n, weights).wires)


def matrix_permutation(perm: Sequence[int], weights: WeightSystem) -> MatrixMorphism:
    """The matrix sending input i to output perm[i]."""
    d = from_permutation(perm, weights)
    return MatrixMorphism(weights, d.n_in, d.wires)


class MatrixModel(Model, Frozen):
    """Evaluation into weight matrices. lambda_images supplies a 1 x 1 matrix
    per node label; unlisted labels act as the identity wire."""

    __slots__ = ("weights", "lambda_images")

    def __init__(
        self,
        weights: WeightSystem = NAT,
        lambda_images: Optional[Mapping[str, Union[int, MatrixMorphism]]] = None,
    ) -> None:
        _check_type(weights, WeightSystem)
        lambda_images = {} if lambda_images is None else lambda_images
        _check_type(lambda_images, Mapping)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "lambda_images", lambda_images)

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
            return img.cols[0].get(0, 0)
        self.weights.check_value(img)
        return img

    def generator(self, gen: Expression) -> MatrixMorphism:
        return self._read_image(*_typed_walk(gen, self.weights))

    def compose(self, first: MatrixMorphism, then: MatrixMorphism) -> MatrixMorphism:
        _check_type(first, MatrixMorphism)
        return first.then(then)

    def tensor(self, a: MatrixMorphism, b: MatrixMorphism) -> MatrixMorphism:
        _check_type(a, MatrixMorphism)
        return a.tensor(b)

    def relation(self, mat: MatrixMorphism) -> MatrixMorphism:
        _check_type(mat, MatrixMorphism)
        _check_columns(mat.cols, self.weights.check_value)
        return MatrixMorphism(self.weights, mat.n_in, mat.cols)

    def equal(self, a: MatrixMorphism, b: MatrixMorphism) -> bool:
        _check_type(a, MatrixMorphism)
        _check_type(b, MatrixMorphism)
        return a == b

    def _read_image(
        self, n_in: int, labels: Sequence[str], wires: Sequence[dict[int, int]]
    ) -> MatrixMorphism:
        """The value of a free image (see _walk for its form): entry (i, j)
        sums, over the paths from input i to output j, the product of their
        edge weights and node images. One pass in topological order gives
        each source, then each output, its {input: coefficient} value, and
        the outputs' values are the matrix's columns; node images come from
        _lambda, once per label."""
        weighted_sum = self.weights.weighted_sum
        scalar = {lbl: self._lambda(lbl) for lbl in dict.fromkeys(labels)}
        n_out = len(wires) - len(labels)
        values = [{i: 1} for i in range(n_in)]
        for c, wire in zip([scalar[lbl] for lbl in labels] + [1] * n_out, wires):
            values.append(weighted_sum([(values[s], w * c) for s, w in wire.items()]))
        return MatrixMorphism(self.weights, n_in, tuple(values[len(values) - n_out :]))


_NATIVE[MatrixModel] = attrgetter("weights")
