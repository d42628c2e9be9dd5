"""The slices of a decomposition as matrices.

Along a topological sorting of an idag d (see decomposition), layer k is
the k-th slice as a weight matrix, taken from d's wires renumbered along the
sorting with no transpose (_slice). encode_relation renders any matrix as
an expression by the encoder decompose() runs. interpret() gives d's value
in a model along a sorting without expression syntax: the models walked
natively (models._NATIVE) read d's own wires along the sorting as a free
image in the model's weights, through the reader evaluate() ends in; other
models compose the slices, each wiring entering through their relation,
as evaluate() has them do. decompose() and interpret() exist so tests can
play them against each other.

Different sortings yield different expressions with equal value in every
model; transposition_identities() checks the five local identities that
drive that invariance for one adjacent swap, each as an identity of
matrices.
"""

from __future__ import annotations

from typing import Iterable

from .core import Idag
from .decomposition import _along, _encode, _fan_in, _fan_out, _scale
from .errors import IndexOutOfRange, NotAdjacentTransposition, _check_type
from .matrices import MatrixMorphism, _check_columns, matrix_identity, matrix_permutation
from .models import _NATIVE, Model
from .record import Frozen
from .terms import Expression, Id, Node
from .weights import BOOL, INT, NAT


def layer(d: Idag, sort: Iterable[str], k: int) -> MatrixMorphism:
    """The k-th slice of d along the sorting, as a weight matrix, whose
    columns are wires of d renumbered along the sorting.

    For k < |N| the shape is (n+k) x (n+k+1): identity columns carrying the
    live wires, then node sort[k]'s wire (rows 0..n-1 from the inputs, row
    n+l from the l-th emitted node). For k = |N| the shape is (n+|N|) x m,
    and the columns are the outputs' wires.
    """
    order, wires = _along(d, sort)
    total = len(order)
    if type(k) is not int or not 0 <= k <= total:
        raise IndexOutOfRange(f"layer index {k} not in 0..{total}")
    return _slice(d, wires, k)


def _slice(d: Idag, wires: tuple[dict[int, int], ...], k: int) -> MatrixMorphism:
    """layer k of d, from d's wires renumbered along the sorting (see
    _along). Rows number the slices' live wires: input i is row i, the l-th
    sorted node row n+l."""
    live = d.n_in + k
    if k < len(d.nodes):
        return MatrixMorphism(d.weights, live, tuple({r: 1} for r in range(live)) + (wires[k],))
    return MatrixMorphism(d.weights, live, wires[k:])


def encode_relation(mat: MatrixMorphism) -> Expression:
    """An expression over copy/discard/merge/unit, anti and wire crossings
    whose evaluation in any matrix model is exactly mat, and whose free
    evaluation is the node-free idag with weight matrix mat.

    Each input fans out to one copy per nonzero entry of its row
    (source-major: target index ascending), each copy is scaled by its
    entry as _scale spells it, a routing permutation rearranges the copies
    to target-major order, and merges fan in per output. An identity
    matrix encodes as id(n). This is the encoder decompose() runs on its
    output slice; mat's columns are its wires.
    """
    _check_type(mat, MatrixMorphism)
    _check_columns(mat, INT.check_value)
    return _encode(mat.n_in, mat.cols, Id, _scale, _fan_out, _fan_in)


def interpret(d: Idag, sort: Iterable[str], model: Model):
    """d's value in a model along the sorting, bypassing expression syntax.

    The native models read d's own wires along the sorting as a free
    image: the free model in O(N + E), path sums in O(in-degree x inputs)
    per node. Other models compose the slices (_fold_slices). Independent
    of decompose(); evaluate(decompose(d, s), model) must agree with
    interpret(d, s, model) in every model, which the tests exercise.
    """
    if type(model) not in _NATIVE:
        return _fold_slices(d, sort, model)
    order, wires = _along(d, sort)
    labels = dict(d.nodes)
    # unless d's weight system is the model's, when every weight of d is
    # valid, relation checks d's weights as the matrix whose columns are all
    # of d's wires, by column, then by row: the order in which the slices
    # meet them, so errors match the slice fold's
    if d.weights is not model.weights:
        model.relation(MatrixMorphism(d.weights, d.n_in + len(order), wires))
    return model._read_image(d.n_in, [labels[nid] for nid in order], wires)


def _fold_slices(d: Idag, sort: Iterable[str], model: Model):
    """d's value in model along the sorting by composing its slices: the
    relation of each slice, and each node box beside the relation of the
    BOOL identity on the wires left of it, valid in every weight system."""
    order, wires = _along(d, sort)
    _check_type(model, Model)
    labels = dict(d.nodes)
    n = d.n_in
    mor = model.relation(_slice(d, wires, 0))
    for k, nid in enumerate(order):
        box = model.generator(Node(labels[nid]))
        if n + k > 0:
            box = model.tensor(model.relation(matrix_identity(n + k, BOOL)), box)
        mor = model.compose(mor, box)
        mor = model.compose(mor, model.relation(_slice(d, wires, k + 1)))
    return mor


class TranspositionReport(Frozen):
    """Outcome of the five local identities for one adjacent swap of a
    sorting; all true iff the swap provably preserves every model's value."""

    __slots__ = (
        "position",
        "prefix_layers_equal",
        "swapped_pair_composite_equal",
        "swap_threads_middle_layers",
        "swap_absorbed_by_final_layer",
        "node_box_slides_past_next_layer",
    )

    def __init__(
        self,
        position: int,
        prefix_layers_equal: bool,
        swapped_pair_composite_equal: bool,
        swap_threads_middle_layers: bool,
        swap_absorbed_by_final_layer: bool,
        node_box_slides_past_next_layer: bool,
    ) -> None:
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "prefix_layers_equal", prefix_layers_equal)
        object.__setattr__(self, "swapped_pair_composite_equal", swapped_pair_composite_equal)
        object.__setattr__(self, "swap_threads_middle_layers", swap_threads_middle_layers)
        object.__setattr__(self, "swap_absorbed_by_final_layer", swap_absorbed_by_final_layer)
        object.__setattr__(self, "node_box_slides_past_next_layer", node_box_slides_past_next_layer)

    @property
    def all_ok(self) -> bool:
        return (
            self.prefix_layers_equal
            and self.swapped_pair_composite_equal
            and self.swap_threads_middle_layers
            and self.swap_absorbed_by_final_layer
            and self.node_box_slides_past_next_layer
        )


def _box(width: int, at: int, scalar: int, ws) -> MatrixMorphism:
    """The width x width diagonal matrix scaling wire at by scalar."""
    return MatrixMorphism(ws, width, tuple({r: scalar if r == at else 1} for r in range(width)))


def _block_swap(n_prefix: int, n_suffix: int, ws) -> MatrixMorphism:
    perm = list(range(n_prefix)) + [n_prefix + 1, n_prefix] + [
        n_prefix + 2 + t for t in range(n_suffix)
    ]
    return matrix_permutation(perm, ws)


def transposition_identities(
    d: Idag, sort_a: Iterable[str], sort_b: Iterable[str], i: int
) -> TranspositionReport:
    """Check the five identities relating the slices of two sortings that
    differ by swapping positions i and i+1.

    All five are matrix identities. The four layer identities are over d's
    own weight system; the node-box identity is over NAT (INT for an INT
    idag), with a distinct nontrivial scalar per label, so that a box
    sliding to the wrong wire shows.
    """
    sa, wa = _along(d, sort_a)
    sb, wb = _along(d, sort_b)
    total = len(sa)
    if type(i) is not int or not 0 <= i <= total - 2:
        raise IndexOutOfRange(f"swap position {i} not in 0..{total - 2}")
    swapped = list(sa)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    if list(sb) != swapped:
        raise NotAdjacentTransposition(
            f"{list(sb)!r} is not {list(sa)!r} with positions "
            f"{i} and {i + 1} swapped"
        )
    n = d.n_in
    ws = d.weights
    la = [_slice(d, wa, j) for j in range(total + 1)]
    lb = [_slice(d, wb, j) for j in range(total + 1)]

    prefix = all(la[j] == lb[j] for j in range(i))

    pair_a = la[i].then(la[i + 1])
    pair_b = lb[i].then(lb[i + 1]).then(_block_swap(n + i, 0, ws))
    pair_ok = pair_a == pair_b

    middle_ok = True
    for j in range(i + 2, total):
        pre = _block_swap(n + i, j - i - 2, ws)
        post = _block_swap(n + i, j - i - 1, ws)
        if pre.then(la[j]) != lb[j].then(post):
            middle_ok = False
            break

    pre_final = _block_swap(n + i, total - i - 2, ws)
    final_ok = pre_final.then(la[total]) == lb[total]

    box_ws = INT if ws is INT else NAT
    scalars = {lbl: 2 + k for k, lbl in enumerate(sorted({lbl for _, lbl in d.nodes}))}
    labels = dict(d.nodes)
    node_ok = True
    for order, slices in ((sa, la), (sb, lb)):
        mid = MatrixMorphism(box_ws, n + i + 1, slices[i + 1].cols)
        scalar = scalars[labels[order[i]]]
        # the box on wire n+i, before mid and after it
        if _box(n + i + 1, n + i, scalar, box_ws).then(mid) != mid.then(
            _box(n + i + 2, n + i, scalar, box_ws)
        ):
            node_ok = False
            break

    return TranspositionReport(
        position=i,
        prefix_layers_equal=prefix,
        swapped_pair_composite_equal=pair_ok,
        swap_threads_middle_layers=middle_ok,
        swap_absorbed_by_final_layer=final_ok,
        node_box_slides_past_next_layer=node_ok,
    )
