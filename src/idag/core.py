"""Interfaced dags (idags) and their symmetric monoidal operations.

An idag is an acyclic graph sandwiched between a row of numbered inputs and a
row of numbered outputs. Edge sources are inputs or internal nodes, edge
targets are internal nodes or outputs, and every edge carries a nonzero weight
from the ambient weight system. Idags with matching interfaces compose like
matrices whose entries happen to remember the graph between the borders:
sequential composition (concat) sums weight products over the shared
interface, parallel composition (juxt) stacks.

Equality of Idag values is structural (same interfaces, same node sequence,
same weighted edges). Identity "up to renaming internal nodes" is what
is_isomorphic and canonical_form decide, by the search in canon, which they
import on first use.

An Idag stores its free image (see Idag): integer sources and one
{source: weight} wire per node and per output. Every algorithm here reads
the wires; In, Out and NodeRef name vertices only at the public edges
(make_idag, Idag.edges, Idag.weight).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    BadEndpoint,
    CycleDetected,
    DuplicateNodeId,
    InterfaceMismatch,
    ModeMismatch,
    NotBijective,
    SizeLimitExceeded,
    _check_type,
    _int_text,
)
from .record import Frozen
from .weights import BOOL, WeightSystem

DEFAULT_LABEL = "•"

CANONICAL_SEARCH_BUDGET = 10**6

# The most wires, nodes or interface positions a width may ask for. Widths
# enter at make_idag, the core constructors, random_idag, parse and the
# expression walk, and each is checked there before anything is allocated.
MAX_WIDTH = 10**6


# In, Out and NodeRef key the edge view, so each spells out == and hash;
# both agree with Frozen's field-tuple versions.


class In(Frozen):
    """Edge source: the idag's input with this index."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        object.__setattr__(self, "index", index)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.index == other.index  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.index,))


class Out(Frozen):
    """Edge target: the idag's output with this index."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        object.__setattr__(self, "index", index)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.index == other.index  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.index,))


class NodeRef(Frozen):
    """Edge endpoint: the internal node with this id."""

    __slots__ = ("id",)

    def __init__(self, id: str) -> None:
        object.__setattr__(self, "id", id)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.id == other.id  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.id,))


Vertex = Union[In, Out, NodeRef]
Edge = tuple[Vertex, Vertex]


class Idag(Frozen):
    """An interfaced dag. Build through make_idag or the constructors below;
    instances are immutable and assumed valid.

    An idag stores its free image, the form models._walk builds. Sources
    are numbered: inputs 0..n_in-1, then nodes by position in `nodes`. Each
    node, and then each output, has one wire: a {source: nonzero weight}
    dict of its in-edges. Wires are never changed once made, so idags share
    them freely.

    Attributes:
        weights: the ambient weight system (BOOL, NAT or INT).
        n_in: number of inputs.
        n_out: number of outputs.
        nodes: internal nodes as an (id, label) sequence; order is
            presentation only and carries no meaning.
        wires: the in-wires of the nodes, in node order, then of the outputs.
        edges: a read-only {(source, target): weight} view of the wires,
            with In/NodeRef/Out endpoints, built on each access.
    """

    __slots__ = ("weights", "n_in", "n_out", "nodes", "wires", "_positions")
    __hash__ = None  # type: ignore[assignment]  # wires are dicts

    def __init__(
        self,
        weights: WeightSystem,
        n_in: int,
        n_out: int,
        nodes: tuple[tuple[str, str], ...],
        wires: tuple[dict[int, int], ...],
    ) -> None:
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "n_in", n_in)
        object.__setattr__(self, "n_out", n_out)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "wires", wires)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(nid for nid, _ in self.nodes)

    def _position(self) -> dict[str, int]:
        """Node id -> position in nodes, built on first use."""
        try:
            return self._positions
        except AttributeError:
            positions = {nid: k for k, (nid, _) in enumerate(self.nodes)}
            object.__setattr__(self, "_positions", positions)
            return positions

    def label_of(self, node_id: str) -> str:
        return self.nodes[self._position()[node_id]][1]

    @property
    def edges(self) -> Mapping[Edge, int]:
        ids = self.node_ids
        sources = [In(i) for i in range(self.n_in)] + [NodeRef(nid) for nid in ids]
        targets = [NodeRef(nid) for nid in ids] + [Out(j) for j in range(self.n_out)]
        return MappingProxyType(
            {(sources[s], t): w for t, wire in zip(targets, self.wires) for s, w in wire.items()}
        )

    def weight(self, src: Vertex, dst: Vertex) -> int:
        """Weight of the edge src -> dst, zero if absent."""
        pos = self._position()
        if isinstance(src, In) and 0 <= src.index < self.n_in:
            s = src.index
        elif isinstance(src, NodeRef) and src.id in pos:
            s = self.n_in + pos[src.id]
        else:
            return 0
        if isinstance(dst, NodeRef) and dst.id in pos:
            t = pos[dst.id]
        elif isinstance(dst, Out) and 0 <= dst.index < self.n_out:
            t = len(self.nodes) + dst.index
        else:
            return 0
        return self.wires[t].get(s, 0)

    def __rshift__(self, other: "Idag") -> "Idag":
        """self >> other: feed self's outputs into other."""
        return concat(other, self)

    def __matmul__(self, other: "Idag") -> "Idag":
        return juxt(self, other)

    def __repr__(self) -> str:
        return (
            f"Idag({self.weights!r}, {self.n_in}->{self.n_out}, "
            f"nodes={list(self.node_ids)!r}, {sum(map(len, self.wires))} edges)"
        )


NodeSpec = Union[str, tuple[str, str]]
EdgeSpec = Union[Mapping[Edge, int], Iterable[Union[Edge, tuple[Vertex, Vertex, int]]]]


def make_idag(
    n_in: int,
    n_out: int,
    nodes: Iterable[NodeSpec],
    edges: EdgeSpec,
    mode: WeightSystem = BOOL,
) -> Idag:
    """Validate and build an idag.

    Args:
        n_in, n_out: interface widths.
        nodes: node ids, or (id, label) pairs; a bare id gets the default
            label.
        edges: a {(src, dst): weight} mapping, or an iterable of (src, dst)
            pairs (weight 1) and (src, dst, weight) triples.
        mode: weight system the edge weights live in.

    Raises:
        WrongArgumentType (a mode that is not a WeightSystem, nodes or
        edges that are not iterable), SizeLimitExceeded (an interface wider
        than MAX_WIDTH), DuplicateNodeId, BadEndpoint (also for a node or
        edge spec of another shape), InvalidWeight (ZeroWeight /
        AntipodeWeight), CycleDetected.
    """
    _check_type(mode, WeightSystem)
    _check_type(nodes, Iterable)
    _check_type(edges, Iterable)
    _check_widths("interface width", n_in, n_out)
    node_seq: list[tuple[str, str]] = []
    for spec in nodes:
        if isinstance(spec, str):
            spec = (spec, DEFAULT_LABEL)
        if not (isinstance(spec, (tuple, list)) and len(spec) == 2):
            raise BadEndpoint(f"node spec {spec!r} is neither an id nor an (id, label) pair")
        nid, lbl = spec
        if not isinstance(nid, str) or not isinstance(lbl, str):
            raise BadEndpoint(f"node ids and labels must be strings: {spec!r}")
        node_seq.append((nid, lbl))
    pos: dict[str, int] = {}
    for k, (nid, _) in enumerate(node_seq):
        if nid in pos:
            raise DuplicateNodeId(f"duplicate node id {nid!r}")
        pos[nid] = k

    n_nodes = len(node_seq)
    wires: list[dict[int, int]] = [{} for _ in range(n_nodes + n_out)]
    for src, dst, w in _edge_triples(edges):
        if isinstance(src, In):
            if not 0 <= src.index < n_in:
                raise BadEndpoint(f"input index {src.index} out of range 0..{n_in - 1}")
            s = src.index
        elif isinstance(src, NodeRef):
            if src.id not in pos:
                raise BadEndpoint(f"unknown source node {src.id!r}")
            s = n_in + pos[src.id]
        else:
            raise BadEndpoint(f"edge source cannot be {src!r}")
        if isinstance(dst, Out):
            if not 0 <= dst.index < n_out:
                raise BadEndpoint(f"output index {dst.index} out of range 0..{n_out - 1}")
            t = n_nodes + dst.index
        elif isinstance(dst, NodeRef):
            if dst.id not in pos:
                raise BadEndpoint(f"unknown target node {dst.id!r}")
            t = pos[dst.id]
        else:
            raise BadEndpoint(f"edge target cannot be {dst!r}")
        mode.check_edge_weight(w)
        if s in wires[t]:
            raise BadEndpoint(f"duplicate edge {src!r} -> {dst!r}")
        wires[t][s] = w

    order = _topological_order(n_in, n_nodes, wires)
    if len(order) != n_nodes:
        cyclic = sorted(set(pos) - {node_seq[k][0] for k in order})
        raise CycleDetected(f"cycle through nodes {cyclic}")
    return Idag(mode, n_in, n_out, tuple(node_seq), tuple(wires))


def _edge_triples(edges: EdgeSpec) -> Iterator[tuple]:
    """make_idag's edges as (src, dst, weight) triples, a pair weighing 1;
    raises BadEndpoint for a spec of another shape."""
    if isinstance(edges, Mapping):
        for key, w in edges.items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise BadEndpoint(f"edge key {key!r} is not a (src, dst) pair")
            yield key[0], key[1], w
        return
    for e in edges:
        if not (isinstance(e, (tuple, list)) and len(e) in (2, 3)):
            raise BadEndpoint(f"edge {e!r} is neither a (src, dst) pair nor a (src, dst, weight) triple")
        yield e[0], e[1], e[2] if len(e) == 3 else 1


def _topological_order(n_in: int, n_nodes: int, wires: Sequence[dict[int, int]]) -> list[int]:
    """Node positions, each after every node that feeds it; a node on or
    behind a cycle is left out."""
    succ: list[list[int]] = [[] for _ in range(n_nodes)]
    waiting = [0] * n_nodes
    for t in range(n_nodes):
        for s in wires[t]:
            if s >= n_in:
                succ[s - n_in].append(t)
                waiting[t] += 1
    ready = [k for k in range(n_nodes) if not waiting[k]]
    order: list[int] = []
    while ready:
        k = ready.pop()
        order.append(k)
        for t in succ[k]:
            waiting[t] -= 1
            if not waiting[t]:
                ready.append(t)
    return order


def _check_widths(what: str, *widths: int) -> None:
    """Raise BadEndpoint unless every width is a non-negative int (a bool is
    not one, as in jsonio), and SizeLimitExceeded past MAX_WIDTH."""
    for n in widths:
        if type(n) is not int:
            raise BadEndpoint(f"{what} {n!r} is not an int")
        if n < 0:
            raise BadEndpoint(f"negative {what} {_int_text(n)}")
        if n > MAX_WIDTH:
            raise SizeLimitExceeded(what, n, MAX_WIDTH)


def _is_permutation(perm: Sequence[int]) -> bool:
    """True when perm holds the ints 0..len(perm)-1 once each (a bool is not
    an int here)."""
    return all(type(p) is int for p in perm) and sorted(perm) == list(range(len(perm)))


def identity(n: int, mode: WeightSystem = BOOL) -> Idag:
    """The (n, n)-idag wiring input i straight to output i."""
    _check_type(mode, WeightSystem)
    _check_widths("width", n)
    return Idag(mode, n, n, (), tuple({i: 1} for i in range(n)))


def from_permutation(perm: Sequence[int], mode: WeightSystem = BOOL) -> Idag:
    """The node-free idag sending input i to output perm[i].

    Raises NotBijective if perm is not a permutation of 0..len(perm)-1,
    and WrongArgumentType if it is not a sequence or mode not a
    WeightSystem.
    """
    _check_type(perm, Sequence)
    _check_type(mode, WeightSystem)
    n = len(perm)
    _check_widths("width", n)
    if not _is_permutation(perm):
        raise NotBijective(f"{list(perm)!r} is not a permutation of 0..{n - 1}")
    inverse = sorted(range(n), key=perm.__getitem__)
    return Idag(mode, n, n, (), tuple({i: 1} for i in inverse))


def _crossing(n: int, m: int) -> list[int]:
    """The permutation crossing the first n of n+m wires over the last m:
    wire i goes to m+i, wire n+j to j. Raises as _check_widths does."""
    _check_widths("width", n, m)
    _check_widths("width", n + m)
    return [m + i for i in range(n)] + list(range(m))


def symmetry(n: int, m: int, mode: WeightSystem = BOOL) -> Idag:
    """The (n+m, m+n)-idag crossing the first n wires over the last m."""
    return from_permutation(_crossing(n, m), mode)


def _freshen(taken: set[str], ids: Iterable[str]) -> dict[str, str]:
    # Deterministic clash resolution: append primes until free.
    ren: dict[str, str] = {}
    for nid in ids:
        cand = nid
        while cand in taken:
            cand += "'"
        ren[nid] = cand
        taken.add(cand)
    return ren


def concat(second: Idag, first: Idag) -> Idag:
    """Sequential composite: run first, feed its outputs into second.

    Each wire of second reads border source j as first's wire into output
    j, so it becomes the weighted sum (WeightSystem.weighted_sum) of those
    wires, as in models._walk; a sum that cancels to zero drops the edge.
    Node ids of first survive unchanged; clashing ids of second get primed.
    """
    _check_type(second, Idag)
    _check_type(first, Idag)
    if first.weights is not second.weights:
        raise ModeMismatch(f"{first.weights!r} vs {second.weights!r}")
    if first.n_out != second.n_in:
        raise InterfaceMismatch(
            f"cannot feed {first.n_out} outputs into {second.n_in} inputs"
        )
    ren = _freshen(set(first.node_ids), second.node_ids)
    nodes = first.nodes + tuple((ren[nid], lbl) for nid, lbl in second.nodes)
    n_first = len(first.nodes)
    border = first.wires[n_first:]
    mid = first.n_out
    # second's nodes follow first's, on sources no border wire holds
    shift = first.n_in + n_first - mid
    weighted_sum = first.weights.weighted_sum

    def route(wire: dict[int, int]) -> dict[int, int]:
        terms = [(border[s], w) for s, w in wire.items() if s < mid]
        if len(terms) == len(wire):
            return weighted_sum(terms)
        own = {s + shift: w for s, w in wire.items() if s >= mid}
        return {**weighted_sum(terms), **own} if terms else own

    wires = first.wires[:n_first] + tuple(map(route, second.wires))
    return Idag(first.weights, first.n_in, second.n_out, nodes, wires)


def juxt(d1: Idag, d2: Idag) -> Idag:
    """Parallel composite: d1's interfaces first, then d2's shifted up."""
    _check_type(d1, Idag)
    _check_type(d2, Idag)
    if d1.weights is not d2.weights:
        raise ModeMismatch(f"{d1.weights!r} vs {d2.weights!r}")
    ren = _freshen(set(d1.node_ids), d2.node_ids)
    nodes = d1.nodes + tuple((ren[nid], lbl) for nid, lbl in d2.nodes)
    n1, n2 = len(d1.nodes), len(d2.nodes)
    # sources: d1's inputs, d2's inputs, d1's nodes, d2's nodes
    w1 = _shifted(d1.wires, d1.n_in, 0, d2.n_in)
    w2 = _shifted(d2.wires, d2.n_in, d1.n_in, d1.n_in + n1)
    wires = w1[:n1] + w2[:n2] + w1[n1:] + w2[n2:]
    return Idag(d1.weights, d1.n_in + d2.n_in, d1.n_out + d2.n_out, nodes, wires)


def _shifted(
    wires: tuple[dict[int, int], ...], n_in: int, in_shift: int, node_shift: int
) -> tuple[dict[int, int], ...]:
    """wires with input sources moved up by in_shift, node sources by
    node_shift."""
    if not in_shift and not node_shift:
        return wires
    return tuple(
        {s + (in_shift if s < n_in else node_shift): w for s, w in wire.items()}
        for wire in wires
    )


def _renumbered(d: Idag, order: Sequence[int]) -> tuple[dict[int, int], ...]:
    """The wires of the nodes at the positions in order, then of the
    outputs, with node sources renumbered to follow order; edges from nodes
    left out of order are dropped."""
    source = list(range(d.n_in)) + [-1] * len(d.nodes)
    for k, p in enumerate(order):
        source[d.n_in + p] = d.n_in + k
    wires = []
    for wire in [d.wires[p] for p in order] + list(d.wires[len(d.nodes) :]):
        renamed = {}
        for s, w in wire.items():
            t = source[s]
            if t >= 0:
                renamed[t] = w
        wires.append(renamed)
    return tuple(wires)


def sorted_edges(d: Idag) -> list[tuple[int, int, int]]:
    """d's edges as (source, target, weight) triples, targets numbered as
    wires (nodes by position, then outputs), in serialization order: by
    source (inputs, then nodes), then by target."""
    return sorted([(s, t, w) for t, wire in enumerate(d.wires) for s, w in wire.items()])


# ---------------------------------------------------------------------------
# Isomorphism and canonical form


_Adjacency = list[list[tuple[int, int]]]
_canonical_order = None  # canon.canonical_order, bound by _labelling


def _adjacency(d: Idag) -> tuple[list[tuple], _Adjacency, _Adjacency]:
    """d's initial node keys, (label, exact weighted interface profiles),
    and the weighted predecessors and successors of each node."""
    n_in, n = d.n_in, len(d.nodes)
    preds: _Adjacency = [[] for _ in range(n)]
    succs: _Adjacency = [[] for _ in range(n)]
    in_prof: _Adjacency = [[] for _ in range(n)]
    out_prof: _Adjacency = [[] for _ in range(n)]
    for t, wire in enumerate(d.wires):
        for s, w in wire.items():
            i = s - n_in
            if t < n:
                if i < 0:
                    in_prof[t].append((s, w))
                else:
                    succs[i].append((t, w))
                    preds[t].append((i, w))
            elif i >= 0:
                out_prof[i].append((t - n, w))
    keys = [
        (lbl, tuple(sorted(in_prof[i])), tuple(sorted(out_prof[i])))
        for i, (_, lbl) in enumerate(d.nodes)
    ]
    return keys, preds, succs


def _labelling(d: Idag, budget: int) -> tuple[tuple, list[int]]:
    """The canonical key of d, (labels, wires), and the node order that
    produces it (canon.canonical_order): node order[k] moves to position k."""
    global _canonical_order
    if _canonical_order is None:
        from .canon import canonical_order as _canonical_order
    order = _canonical_order(*_adjacency(d), budget)
    return (tuple(d.nodes[i][1] for i in order), _renumbered(d, order)), order


def _invariant(d: Idag) -> tuple:
    """What any isomorphism of idags preserves and is cheap to read: the
    weight system, the interface widths, the node count, the sorted labels
    and the sorted edge weights. Idags whose invariants differ are not
    isomorphic; equal invariants decide nothing."""
    return (
        d.weights.name,
        d.n_in,
        d.n_out,
        len(d.nodes),
        sorted([lbl for _, lbl in d.nodes]),
        sorted([w for wire in d.wires for w in wire.values()]),
    )


def is_isomorphic(d1: Idag, d2: Idag) -> Optional[dict[str, str]]:
    """A node bijection matching labels and all weighted edges pointwise, or
    None. Interfaces must match exactly (inputs and outputs are never
    permuted). None at once when the invariants differ; otherwise compares
    the canonical labellings of d1 and d2 and maps node to node by
    position; SearchBudgetExceeded as for canonical_form."""
    _check_type(d1, Idag)
    _check_type(d2, Idag)
    if _invariant(d1) != _invariant(d2):
        return None
    key1, order1 = _labelling(d1, CANONICAL_SEARCH_BUDGET)
    key2, order2 = _labelling(d2, CANONICAL_SEARCH_BUDGET)
    if key1 != key2:
        return None
    ids1, ids2 = d1.node_ids, d2.node_ids
    return {ids1[i]: ids2[j] for i, j in zip(order1, order2)}


def canonical_form(d: Idag, budget: int = CANONICAL_SEARCH_BUDGET) -> Idag:
    """A canonical representative of d's isomorphism class.

    Nodes are renamed "0".."N-1"; two idags are isomorphic iff their canonical
    forms are equal. Nodes start in cells of equal (label, interface edges)
    and are ordered by canon.canonical_order, whose search counts each tree
    node against the budget (SearchBudgetExceeded beyond).
    """
    _check_type(d, Idag)
    (labels, wires), _ = _labelling(d, budget)
    nodes = tuple((str(k), lbl) for k, lbl in enumerate(labels))
    return Idag(d.weights, d.n_in, d.n_out, nodes, wires)


# ---------------------------------------------------------------------------
# BOOL-mode quotients and predicates


def _require_bool(d: Idag, what: str) -> None:
    _check_type(d, Idag)
    if d.weights is not BOOL:
        raise ModeMismatch(f"{what} requires bool mode, got {d.weights!r}")


def transitive_closure(d: Idag) -> Idag:
    """Add an edge x -> y for every path from x to y through at least one
    internal node. BOOL mode only. In topological order, each node's wire
    becomes every source with a path to it; then each output's wire."""
    _require_bool(d, "transitive_closure")
    n_in, n, wires = d.n_in, len(d.nodes), d.wires
    reach: dict[int, set[int]] = {}

    def reaching(wire: dict[int, int]) -> set[int]:
        found = set(wire)
        for s in wire:
            if s >= n_in:
                found |= reach[s - n_in]
        return found

    for k in _topological_order(n_in, n, wires):
        reach[k] = reaching(wires[k])
    closed = [reach[k] for k in range(n)] + [reaching(wire) for wire in wires[n:]]
    return Idag(d.weights, n_in, d.n_out, d.nodes, tuple(dict.fromkeys(c, 1) for c in closed))


def prune_dangling(d: Idag) -> Idag:
    """Delete internal nodes with no in-edges or no out-edges, repeatedly,
    until none remain. BOOL mode only. What survives does not depend on
    deletion order: it is exactly the nodes on a path from an input to an
    output. A pass in topological order finds the nodes fed from an input,
    and a walk back from the outputs through fed nodes keeps those on such
    a path."""
    _require_bool(d, "prune_dangling")
    n_in, n, wires = d.n_in, len(d.nodes), d.wires
    fed = [False] * n
    for k in _topological_order(n_in, n, wires):
        fed[k] = any(s < n_in or fed[s - n_in] for s in wires[k])
    kept = [False] * n
    stack = [s - n_in for wire in wires[n:] for s in wire if s >= n_in]
    while stack:
        k = stack.pop()
        if fed[k] and not kept[k]:
            kept[k] = True
            stack += [s - n_in for s in wires[k] if s >= n_in]
    survivors = [k for k in range(n) if kept[k]]
    if len(survivors) == n:
        return d
    nodes = tuple(d.nodes[k] for k in survivors)
    return Idag(d.weights, n_in, d.n_out, nodes, _renumbered(d, survivors))


def is_forest(d: Idag) -> bool:
    """True when every input and every internal node has exactly one outgoing
    edge. BOOL mode only."""
    _require_bool(d, "is_forest")
    outdeg = [0] * (d.n_in + len(d.nodes))
    for wire in d.wires:
        for s in wire:
            outdeg[s] += 1
    return all(c == 1 for c in outdeg)
