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
columns. A node image is an int entry of the weight system, given per
label. Importing this module adds MatrixModel to the set of model
classes evaluate() walks natively (models._NATIVE), in its weights.

Matrix columns are sparse dicts of Python ints, so their arithmetic is
exact at every magnitude. Every sum of weight products here (the matrix
product, the path sums) is WeightSystem._weighted_sum.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, Optional, Sequence

from .algebra import _check_widths, _shifted, from_permutation, identity
from .errors import BadEndpoint, InterfaceMismatch, InvalidWeight, ModeMismatch, ZeroWeight, _check_type
from .models import _NATIVE, Model, _typed_walk
from .record import Frozen
from .terms import Expression
from .weights import NAT, WeightSystem


class MatrixMorphism(Frozen):
    """An (n_in, n_out) morphism of the matrix model: an n_in x n_out integer
    matrix over a weight system, stored as the wires of a node-free idag
    (see core.Idag): one {row: entry} dict per column. Columns hold nonzero
    entries only, so equal matrices have equal columns. Treat instances as
    immutable. The constructor trusts its columns, as Idag's does, since the
    products that then and tensor build are valid by construction: matrix
    is the checked way to build one, and relation and encode_relation check
    what they are given."""

    __slots__ = ("weights", "n_in", "cols")

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
        weighted_sum, cols = self.weights._weighted_sum, self.cols
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


def _check_columns(mat: MatrixMorphism, weights: WeightSystem) -> None:
    """Check mat's columns as a tuple of dicts and its widths as algebra's
    constructors do, each row as an int in range(mat.n_in), and each entry
    as a nonzero weight of weights (WeightSystem.check_value). A valid
    matrix is checked on its distinct rows and entries; else the first
    fault by column, then by row, is named, so errors ignore dict order."""
    n_in, cols = mat.n_in, mat.cols
    _check_type(cols, tuple)
    _check_widths("width", n_in, len(cols))
    try:  # an unhashable entry, say, is named by the loop below
        rows, entries = set(chain(*cols)), set(chain(*map(dict.values, cols)))
        if {*map(type, rows), *map(type, entries)} <= {int} and 0 not in entries:
            if min(rows, default=0) >= 0 and max(rows, default=-1) < n_in:
                for w in entries:
                    weights.check_value(w)
                return
    except (TypeError, InvalidWeight):
        pass
    for j, col in enumerate(cols):
        _check_type(col, dict)
        if not all(type(i) is int and 0 <= i < n_in for i in col):
            raise BadEndpoint(f"column {j} has a row that is not an int in range({n_in})")
        for i in sorted(col):
            weights.check_value(col[i])
            if col[i] == 0:
                raise ZeroWeight("zero weight: omit the edge instead")


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
    """Evaluation into weight matrices. lambda_images maps a node label to
    its image, an int entry of the weight system; unlisted labels act as
    the identity wire, image 1. An image is checked when evaluation reads
    it: InvalidWeight unless it is a weight of the system; the model keeps
    a copy."""

    __slots__ = ("weights", "lambda_images")
    __hash__ = None  # type: ignore[assignment]  # lambda_images is a dict

    def __init__(
        self,
        weights: WeightSystem = NAT,
        lambda_images: Optional[Mapping[str, int]] = None,
    ) -> None:
        _check_type(weights, WeightSystem)
        lambda_images = {} if lambda_images is None else lambda_images
        _check_type(lambda_images, Mapping)
        super().__init__(weights, dict(lambda_images))

    def _lambda(self, label: str) -> int:
        """label's image, checked as a weight."""
        img = self.lambda_images.get(label, 1)
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
        _check_columns(mat, self.weights)
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
        weighted_sum = self.weights._weighted_sum
        scalar = {lbl: self._lambda(lbl) for lbl in dict.fromkeys(labels)}
        n_out = len(wires) - len(labels)
        values = [{i: 1} for i in range(n_in)]
        for c, wire in zip([scalar[lbl] for lbl in labels] + [1] * n_out, wires):
            values.append(weighted_sum([(values[s], w * c) for s, w in wire.items()]))
        return MatrixMorphism(self.weights, n_in, tuple(values[len(values) - n_out :]))


_NATIVE.add(MatrixModel)
