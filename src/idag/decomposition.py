"""Slicing idags into generator expressions, one node per slice.

Fix a topological sorting sigma of an idag d with n inputs. Reading nodes off
in sigma-order turns d into an alternation of plain weight matrices and
single-node boxes: before node k is emitted, the live wires are the n inputs
plus the k nodes already emitted, and the k-th slice is the
(n+k) x (n+k+1) matrix keeping every live wire and adding one column, the
wire of node sigma_k; a final (n+|N|) x m matrix, whose columns are the
outputs' wires, routes live wires into the outputs. decompose() renders
each slice as encode_relation does and interleaves node boxes.

A slice's encoding copies, scales, routes and merges wires. Each edge gets
one copy, scaled by its weight w in O(log |w|) atoms, and routing moves it
in one crossing, so a decomposition holds at most one crossing per edge and
O(N + E + sum of log |w|) atoms. A matrix is stored as its columns, each
a {row: weight} wire (matrices.MatrixMorphism), so a slice matrix is made of
d's own wires: one encoder (_encode) takes a matrix's columns, and serves
both the output slice, fed the outputs' wires, and encode_relation, fed
mat.cols; a node slice, identity columns and the node's wire, is the same
encoding built straight from the node's in-edges (_encode_node_slice). So
decompose()'s time is linear in its output. Each call that takes a sorting
checks it and renumbers d's wires along it once, by node position
(_along). Expressions are immutable, so one decompose() call builds each
id(k), weight gadget, fan-out, fan-in, crossing sym(1,b) and node box once
and its slices share them; nothing is kept between calls.

Enumeration of sortings runs on a placement state (_Placement): sorted node
ids, successor lists, counts of unplaced predecessors and the sorted list of
ready nodes. Counting and uniform sampling of sortings run on the same state
in sortings, and the slices as matrices (layer, interpret, encode_relation,
transposition_identities) are in layers; decompose() runs neither module,
and each is imported on first use.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from functools import partial
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .algebra import _is_permutation
from .builders import seq_all, ten_all
from .core import Idag, _renumbered
from .errors import NotATopologicalSorting, NotBijective, _check_type
from .terms import Anti, Delta, Eps, Eta, Expression, Id, Nabla, Node, Seq, Sym, Ten


def _along(d: Idag, sort: Iterable[str]) -> tuple[tuple[str, ...], tuple[dict[int, int], ...]]:
    """The sorting as a tuple of node ids, and d's wires renumbered along
    it: node sort[k] becomes source n_in+k and its wire comes k-th, then the
    outputs' wires. Raises NotATopologicalSorting unless sort is an iterable
    other than a str that lists each node id once, as a str, with every
    edge pointing forward, and WrongArgumentType for a d that is not an
    Idag."""
    _check_type(d, Idag)
    if isinstance(sort, str) or not isinstance(sort, Iterable):
        raise NotATopologicalSorting(f"{sort!r} is not a sequence of node ids")
    order = tuple(sort)
    pos = d._position()
    at = [pos.get(nid, -1) if isinstance(nid, str) else -1 for nid in order]
    if len(at) == len(set(at) - {-1}) == len(pos):  # each node once
        wires = _renumbered(d, at)
        if all(s < live for live, wire in enumerate(wires[: len(at)], d.n_in) for s in wire):
            return order, wires
    raise NotATopologicalSorting(f"{list(order)!r} does not sort {d!r}")


def is_topological_sorting(d: Idag, sort: Iterable[str]) -> bool:
    """True when sort lists each node id of d once, as a str, with every
    edge pointing forward; False for anything else."""
    try:
        _along(d, sort)
    except NotATopologicalSorting:
        return False
    return True


class _Placement:
    """A topological sorting in the making. Nodes are numbered by place in
    ids, the sorted node ids; succ lists successors, waiting counts unplaced
    predecessors, ready holds the unplaced nodes waiting on none, ascending,
    and order the placed ones. The unplaced nodes lie at or above a ready
    node, so the ready list names the state (see sortings._Counter)."""

    __slots__ = ("ids", "succ", "waiting", "ready", "order")

    def __init__(self, d: Idag) -> None:
        _check_type(d, Idag)
        self.ids = sorted(d.node_ids)
        index = {nid: k for k, nid in enumerate(self.ids)}
        rank = [index[nid] for nid, _ in d.nodes]  # node position -> place in ids
        self.succ = succ = [[] for _ in rank]
        self.waiting = waiting = [0] * len(rank)
        for k, wire in zip(rank, d.wires):  # the nodes' wires come first
            for s in wire:
                if s >= d.n_in:
                    succ[rank[s - d.n_in]].append(k)
                    waiting[k] += 1
        self.ready = [k for k, w in enumerate(waiting) if not w]
        self.order = []  # placed nodes

    def place(self, k: int) -> None:
        ready, waiting = self.ready, self.waiting
        del ready[bisect_left(ready, k)]
        self.order.append(k)
        for t in self.succ[k]:
            waiting[t] -= 1
            if not waiting[t]:
                insort(ready, t)

    def unplace(self) -> int:
        k = self.order.pop()
        for t in self.succ[k]:
            if not self.waiting[t]:
                del self.ready[bisect_left(self.ready, t)]
            self.waiting[t] += 1
        insort(self.ready, k)
        return k

    def sorting(self) -> tuple[str, ...]:
        return tuple(self.ids[k] for k in self.order)


def topological_sortings(d: Idag) -> Iterator[tuple[str, ...]]:
    """All topological sortings, lazily, in lexicographic node-id order; the
    first is the deterministic default sorting. On backtracking, a position
    takes the least ready node above the one it held."""
    state = _Placement(d)
    ready, place = state.ready, state.place
    while True:
        while ready:  # an idag is acyclic, so this places every node
            place(ready[0])
        yield state.sorting()
        at = len(ready)
        while at == len(ready):
            if not state.order:
                return
            at = bisect_right(ready, state.unplace())
        place(ready[at])


def default_sorting(d: Idag) -> tuple[str, ...]:
    return next(topological_sortings(d))


# ---------------------------------------------------------------------------
# Rendering weight matrices as expressions

# expressions are immutable, so the encoders share one instance of each
# nullary generator
_ANTI, _DELTA, _EPS, _ETA, _NABLA = Anti(), Delta(), Eps(), Eta(), Nabla()


def _fan_out(r: int) -> Expression:
    if r == 0:
        return _EPS
    if r == 1:
        return Id(1)
    return seq_all([_DELTA] + [Ten(_DELTA, Id(q)) for q in range(1, r - 1)])


def _fan_in(c: int) -> Expression:
    if c == 0:
        return _ETA
    if c == 1:
        return Id(1)
    return seq_all([Ten(_NABLA, Id(q)) for q in range(c - 2, 0, -1)] + [_NABLA])


def permutation_expression(perm: Sequence[int]) -> Expression:
    """An expression of identities and block crossings routing input s to
    output perm[s].

    Outputs are filled from the last. The wires bound for the highest open
    outputs that sit next to each other in order move as one block, by
    id(p) * sym(k,q) * id(r), past the q open wires after them, and stay
    there. So each maximal run of perm (consecutive inputs bound for
    consecutive outputs) crosses at most once. Open wires keep their input
    order, so a wire's position is its input index less the placed wires
    before it, which a Fenwick tree counts: routing c wires takes
    O(c log c) time.

    Raises NotBijective if perm is not a permutation of 0..len(perm)-1, and
    WrongArgumentType if it is not a sequence.
    """
    _check_type(perm, Sequence)
    c = len(perm)
    if not _is_permutation(perm):
        raise NotBijective(f"{list(perm)!r} is not a permutation of 0..{c - 1}")
    wire = [0] * c  # wire[t]: the input bound for output t
    for s, t in enumerate(perm):
        wire[t] = s
    # open wires as a doubly linked list in input order; routing ends when
    # no open wire is followed by one bound for a lower output
    prev = list(range(-1, c - 1))
    succ = list(range(1, c + 1))
    descents = sum(perm[s] > perm[s + 1] for s in range(c - 1))
    placed = [0] * (c + 1)  # Fenwick tree over input indices

    def placed_before(s: int) -> int:
        total = 0
        while s:
            total += placed[s]
            s &= s - 1
        return total

    def place(s: int) -> None:
        s += 1
        while s <= c:
            placed[s] += 1
            s += s & -s

    steps: list[Expression] = []
    top = c - 1  # highest open output; open wires fill positions 0..top
    while descents:
        last = wire[top]
        first = last
        while prev[first] >= 0 and perm[prev[first]] == perm[first] - 1:
            first = prev[first]
        k = perm[last] - perm[first] + 1
        p = first - placed_before(first)
        q = top + 1 - p - k
        if q:
            steps.append(ten_all([Id(p), Sym(k, q), Id(c - 1 - top)]))
        before, after = prev[first], succ[last]
        if before >= 0 and perm[before] > perm[first]:
            descents -= 1
        if after < c:
            descents -= 1
            prev[after] = before
        if before >= 0:
            succ[before] = after
            if after < c and perm[before] > perm[after]:
                descents += 1
        s = first
        for _ in range(k):
            place(s)
            s = succ[s]
        top -= k
    return seq_all(steps) if steps else Id(c)


def _scale(w: int) -> Expression:
    """A 1 -> 1 expression denoting the scalar w in O(log |w|) atoms.

    anti comes first when w < 0. Horner's rule then runs over the bits of
    |w| below the leading one: delta ; nabla doubles the upper wire, and
    id(1) * delta ; nabla * id(1) adds to it a carried copy of the input
    where a bit is set. The copy is carried only while a lower set bit
    remains and is merged at the last one by nabla, so nothing is discarded
    and _scale(2) is delta ; nabla.
    """
    parts: list[Expression] = [_ANTI] if w < 0 else []
    a = abs(w)
    top = a.bit_length() - 1
    last = (a & -a).bit_length() - 1  # the lowest set bit
    if last < top:
        parts.append(_DELTA)
    for b in range(top - 1, -1, -1):
        if b < last:
            parts.append(Seq(_DELTA, _NABLA))
            continue
        parts.append(Ten(Seq(_DELTA, _NABLA), Id(1)))
        if b == last:
            parts.append(_NABLA)
        elif (a >> b) & 1:
            parts += [Ten(Id(1), _DELTA), Ten(_NABLA, Id(1))]
    return seq_all(parts) if parts else Id(1)


def _row(
    items: Iterable[int], gadget: Callable[[int], Expression], pad: Callable[[int], Expression]
) -> Optional[Expression]:
    """The left-associated tensor row of gadget(x) for each item x, where
    each run of items equal to 1 is one pad(width) instead; None when every
    item is 1."""
    e: Optional[Expression] = None
    run = 0  # items equal to 1 since the last gadget
    for x in items:
        if x == 1:
            run += 1
            continue
        if run:
            e = pad(run) if e is None else Ten(e, pad(run))
            run = 0
        e = gadget(x) if e is None else Ten(e, gadget(x))
    return Ten(e, pad(run)) if run and e is not None else e


def _encode(
    n: int,
    wires: Sequence[dict[int, int]],
    pad: Callable[[int], Expression],
    scale: Callable[[int], Expression],
    fan_out: Callable[[int], Expression],
    fan_in: Callable[[int], Expression],
) -> Expression:
    """encode_relation of the n x len(wires) matrix whose column j is
    wires[j], a {row: nonzero weight} dict. A row of gadgets that are all
    identities is left out. pad, scale, fan_out and fan_in build Id,
    _scale, _fan_out and _fan_in, or share their instances."""
    fed = [0] * n  # copies per row
    for wire in wires:
        for r in wire:
            fed[r] += 1
    at = list(accumulate(fed, initial=0))  # source-major slot of each row's next copy
    perm = [0] * at[-1]  # source-major slot -> target-major slot
    weights = [0] * at[-1]
    routed = False
    t = 0
    for wire in wires:
        for r in sorted(wire):
            s = at[r]
            at[r] = s + 1
            perm[s], weights[s] = t, wire[r]
            routed = routed or s != t
            t += 1
    e: Optional[Expression] = None
    for step in (
        _row(fed, fan_out, pad),
        _row(weights, scale, pad),
        permutation_expression(perm) if routed else None,
        _row(map(len, wires), fan_in, pad),
    ):
        if step is not None:
            e = step if e is None else Seq(e, step)
    return pad(n) if e is None else e


def _encode_node_slice(
    live: int,
    ins: Sequence[tuple[int, int]],
    pad: Callable[[int], Expression],
    scale: Callable[[int], Expression],
    fan_in: Callable[[int], Expression],
    cross: Callable[[int], Expression],
) -> Expression:
    """_encode of a node slice, built from the node's in-edges in
    O(len(ins) + atoms) time instead of from its wires.

    The slice is the live x (live+1) matrix that keeps each live wire and
    adds a last column with weight w in row r for each (r, w) of ins, which
    is sorted by row. The result is the expression _encode gives for that
    matrix, term for term: each fed row r fans out with one delta into its
    own wire and one copy bound for the node; scale(w) scales the copy; one
    crossing per in-edge, from the highest row down, moves the copy past
    the live-1-r wires of the later rows; one fan-in merges the copies for
    the node. pad, scale, fan_in and cross build Id, _scale, _fan_in and
    Sym(1, b), or share their instances. One pass over ins builds the
    fan-out and scale rows, where the id(1) of a weight 1 merges with the
    pads beside it, and one pass back builds the crossings.
    """
    fans: Optional[Expression] = None
    scales: Optional[Expression] = None  # None while every weight so far is 1
    at = run = 0  # next unfed row; identity wires since the last scale
    for r, w in ins:
        if r > at:
            fans = pad(r - at) if fans is None else Ten(fans, pad(r - at))
        fans = _DELTA if fans is None else Ten(fans, _DELTA)
        run += r + 1 - at  # the rows up to r keep their wires
        if w == 1:
            run += 1
        else:
            scales = pad(run) if scales is None else Ten(scales, pad(run))
            scales = Ten(scales, scale(w))
            run = 0
        at = r + 1
    e = fans
    if e is not None and live > at:
        e = Ten(e, pad(live - at))
    if scales is not None:
        run += live - at
        e = Seq(e, Ten(scales, pad(run)) if run else scales)
    # the copy from ins[t] sits at r + 1 + t, before the placed later ones
    crossings: Optional[Expression] = None
    for placed, (r, _) in enumerate(reversed(ins)):
        if r < live - 1:
            step = Ten(pad(r + len(ins) - placed), cross(live - 1 - r))
            if placed:
                step = Ten(step, pad(placed))
            crossings = step if crossings is None else Seq(crossings, step)
    if crossings is not None:
        e = Seq(e, crossings)
    if len(ins) != 1:
        merge = Ten(pad(live), fan_in(len(ins))) if live else fan_in(len(ins))
        e = merge if e is None else Seq(e, merge)
    return e


# ---------------------------------------------------------------------------
# Decomposition


class _Memo(dict):
    """make(key) for each key looked up, made on its first lookup."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[..., Expression]) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def decompose(d: Idag, sort: Iterable[str]) -> Expression:
    """An expression evaluating to d (up to isomorphism in the free model,
    exactly in matrix models): encoded slices interleaved with one node box
    per sorted node. Every slice is built from d's wires: node slices from
    each node's in-edges, the output slice by the encoder encode_relation
    runs, from the outputs' wires. The slices share each id(k), weight
    gadget, fan-out, fan-in, crossing sym(1,b) and node box the call
    builds."""
    order, wires = _along(d, sort)
    labels = dict(d.nodes)
    n = d.n_in
    # expressions are immutable, so the slices share one instance of each
    pad, scale, fan_in, cross, node = (
        _Memo(make).__getitem__ for make in (Id, _scale, _fan_in, partial(Sym, 1), Node)
    )
    e: Optional[Expression] = None
    for k, nid in enumerate(order):
        live = n + k
        step = _encode_node_slice(live, sorted(wires[k].items()), pad, scale, fan_in, cross)
        box = Ten(pad(live), node(labels[nid])) if live else node(labels[nid])
        e = Seq(step if e is None else Seq(e, step), box)
    out = _encode(
        n + len(order), wires[len(order) :], pad, scale, _Memo(_fan_out).__getitem__, fan_in
    )
    return out if e is None else Seq(e, out)
