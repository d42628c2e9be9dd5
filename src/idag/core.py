"""Interfaced dags (idags), their canonical forms and their BOOL-mode
quotients.

An idag is an acyclic graph sandwiched between a row of numbered inputs and a
row of numbered outputs. Edge sources are inputs or internal nodes, edge
targets are internal nodes or outputs, and every edge carries a nonzero weight
from the ambient weight system. Idags with matching interfaces compose like
matrices whose entries happen to remember the graph between the borders:
the algebra module builds them (make_idag) and composes them, sequentially
(concat) and in parallel (juxt).

Equality of Idag values is structural (same interfaces, same node sequence,
same weighted edges). Identity "up to renaming internal nodes" is what
is_isomorphic and canonical_form decide, by the search in canon, which they
import on first use.

An Idag stores its free image (see Idag): integer sources and one
{source: weight} wire per node and per output. Every algorithm here reads
the wires; In, Out and NodeRef name vertices only at the public edges
(algebra.make_idag, Idag.edges, Idag.weight).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Union

from .errors import BadEndpoint, ModeMismatch, WrongArgumentType, _check_type
from .record import Frozen
from .weights import BOOL

DEFAULT_LABEL = "•"

CANONICAL_SEARCH_BUDGET = 10**6

# The most wires, nodes or interface positions a width may ask for. Widths
# enter at make_idag, the algebra constructors, random_idag, parse,
# expand_symmetry and the expression walk, and each is checked there before
# anything is allocated.
MAX_WIDTH = 10**6


# Idag.edges builds In, Out and NodeRef on every read and keys its view by
# them, so each keeps its own constructor, == and hash: Record's generic
# ones take about twice as long. == and hash agree with Frozen's.


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
    """An interfaced dag. Build through algebra.make_idag or the constructors
    there; instances are immutable and assumed valid.

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
        """The label of the node with this id; BadEndpoint for an unknown
        id, and for one that is not a str."""
        pos = self._position()
        if not isinstance(node_id, str) or node_id not in pos:
            raise BadEndpoint(f"unknown node {node_id!r}")
        return self.nodes[pos[node_id]][1]

    @property
    def edges(self) -> Mapping[Edge, int]:
        ids = self.node_ids
        sources = [In(i) for i in range(self.n_in)] + [NodeRef(nid) for nid in ids]
        targets = [NodeRef(nid) for nid in ids] + [Out(j) for j in range(self.n_out)]
        return MappingProxyType(
            {(sources[s], t): w for t, wire in zip(targets, self.wires) for s, w in wire.items()}
        )

    def weight(self, src: Vertex, dst: Vertex) -> int:
        """Weight of the edge src -> dst, zero if absent, if an index is
        not an int (a bool is not one) or a node id not a str."""
        pos = self._position()
        if isinstance(src, In) and type(src.index) is int and 0 <= src.index < self.n_in:
            s = src.index
        elif isinstance(src, NodeRef) and isinstance(src.id, str) and src.id in pos:
            s = self.n_in + pos[src.id]
        else:
            return 0
        if isinstance(dst, NodeRef) and isinstance(dst.id, str) and dst.id in pos:
            t = pos[dst.id]
        elif isinstance(dst, Out) and type(dst.index) is int and 0 <= dst.index < self.n_out:
            t = len(self.nodes) + dst.index
        else:
            return 0
        return self.wires[t].get(s, 0)

    def __rshift__(self, other: "Idag") -> "Idag":
        """self >> other: feed self's outputs into other."""
        from .algebra import concat

        return concat(other, self)

    def __matmul__(self, other: "Idag") -> "Idag":
        from .algebra import juxt

        return juxt(self, other)

    def __repr__(self) -> str:
        return (
            f"Idag({self.weights!r}, {self.n_in}->{self.n_out}, "
            f"nodes={list(self.node_ids)!r}, {sum(map(len, self.wires))} edges)"
        )


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
    # an out-profile is filled in ascending target order, so only an
    # in-profile of two or more entries needs a sort
    keys = [
        (lbl, tuple(p if len(p) < 2 else sorted(p)), tuple(q))
        for (_, lbl), p, q in zip(d.nodes, in_prof, out_prof)
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
    node against the budget (SearchBudgetExceeded beyond). Raises
    WrongArgumentType unless d is an Idag and budget an int (a bool is not
    one).
    """
    _check_type(d, Idag)
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise WrongArgumentType(f"expected int, not {type(budget).__name__}")
    (labels, wires), _ = _labelling(d, budget)
    nodes = tuple((str(k), lbl) for k, lbl in enumerate(labels))
    return Idag(d.weights, d.n_in, d.n_out, nodes, wires)


# ---------------------------------------------------------------------------
# BOOL-mode quotients

# the names of the quotients, as the theory modes of equivalence and the
# CLI's --quotient option spell them
TRANSITIVE = "transitive"  # transitive_closure
NO_DANGLING = "nodangling"  # prune_dangling


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


