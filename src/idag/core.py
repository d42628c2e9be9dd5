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
is_isomorphic and canonical_form decide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    BadEndpoint,
    CycleDetected,
    DuplicateNodeId,
    InterfaceMismatch,
    ModeMismatch,
    NotBijective,
    SearchBudgetExceeded,
)
from .weights import BOOL, WeightSystem

DEFAULT_LABEL = "•"

CANONICAL_SEARCH_BUDGET = 10**6


@dataclass(frozen=True, slots=True)
class In:
    """Edge source: the idag's input with this index."""

    index: int


@dataclass(frozen=True, slots=True)
class Out:
    """Edge target: the idag's output with this index."""

    index: int


@dataclass(frozen=True, slots=True)
class NodeRef:
    """Edge endpoint: the internal node with this id."""

    id: str


Vertex = Union[In, Out, NodeRef]
Edge = tuple[Vertex, Vertex]


@dataclass(frozen=True)
class Idag:
    """An interfaced dag. Build through make_idag or the constructors below;
    instances are immutable and assumed valid.

    Attributes:
        weights: the ambient weight system (BOOL, NAT or INT).
        n_in: number of inputs.
        n_out: number of outputs.
        nodes: internal nodes as an (id, label) sequence; order is
            presentation only and carries no meaning.
        edges: mapping from (source, target) to nonzero weight.
    """

    weights: WeightSystem
    n_in: int
    n_out: int
    nodes: tuple[tuple[str, str], ...]
    edges: Mapping[Edge, int]

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(nid for nid, _ in self.nodes)

    def label_of(self, node_id: str) -> str:
        for nid, lbl in self.nodes:
            if nid == node_id:
                return lbl
        raise KeyError(node_id)

    def weight(self, src: Vertex, dst: Vertex) -> int:
        """Weight of the edge src -> dst, zero if absent."""
        return self.edges.get((src, dst), 0)

    def __rshift__(self, other: "Idag") -> "Idag":
        """self >> other: feed self's outputs into other."""
        return concat(other, self)

    def __matmul__(self, other: "Idag") -> "Idag":
        return juxt(self, other)

    def __repr__(self) -> str:
        return (
            f"Idag({self.weights!r}, {self.n_in}->{self.n_out}, "
            f"nodes={list(self.node_ids)!r}, {len(self.edges)} edges)"
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
        DuplicateNodeId, BadEndpoint, InvalidWeight (ZeroWeight /
        AntipodeWeight), CycleDetected.
    """
    _check_widths("interface width", n_in, n_out)
    node_seq: list[tuple[str, str]] = []
    for spec in nodes:
        if isinstance(spec, str):
            node_seq.append((spec, DEFAULT_LABEL))
        else:
            nid, lbl = spec
            if not isinstance(nid, str) or not isinstance(lbl, str):
                raise BadEndpoint(f"node ids and labels must be strings: {spec!r}")
            node_seq.append((nid, lbl))
    ids = [nid for nid, _ in node_seq]
    known = set(ids)
    if len(known) != len(ids):
        seen: set[str] = set()
        for nid in ids:
            if nid in seen:
                raise DuplicateNodeId(f"duplicate node id {nid!r}")
            seen.add(nid)

    if isinstance(edges, Mapping):
        items: Iterable[tuple[Vertex, Vertex, int]] = (
            (src, dst, w) for (src, dst), w in edges.items()
        )
    else:
        items = (e if len(e) == 3 else (e[0], e[1], 1) for e in edges)  # type: ignore[misc]

    edge_map: dict[Edge, int] = {}
    for src, dst, w in items:
        if isinstance(src, In):
            if not 0 <= src.index < n_in:
                raise BadEndpoint(f"input index {src.index} out of range 0..{n_in - 1}")
        elif isinstance(src, NodeRef):
            if src.id not in known:
                raise BadEndpoint(f"unknown source node {src.id!r}")
        else:
            raise BadEndpoint(f"edge source cannot be {src!r}")
        if isinstance(dst, Out):
            if not 0 <= dst.index < n_out:
                raise BadEndpoint(f"output index {dst.index} out of range 0..{n_out - 1}")
        elif isinstance(dst, NodeRef):
            if dst.id not in known:
                raise BadEndpoint(f"unknown target node {dst.id!r}")
        else:
            raise BadEndpoint(f"edge target cannot be {dst!r}")
        mode.check_edge_weight(w)
        if (src, dst) in edge_map:
            raise BadEndpoint(f"duplicate edge {src!r} -> {dst!r}")
        edge_map[(src, dst)] = w

    _check_acyclic(known, edge_map)
    return Idag(mode, n_in, n_out, tuple(node_seq), MappingProxyType(edge_map))


def _check_acyclic(ids: set[str], edges: Mapping[Edge, int]) -> None:
    succ: dict[str, list[str]] = {nid: [] for nid in ids}
    indeg = {nid: 0 for nid in ids}
    for src, dst in edges:
        if isinstance(src, NodeRef) and isinstance(dst, NodeRef):
            succ[src.id].append(dst.id)
            indeg[dst.id] += 1
    ready = [nid for nid, d in indeg.items() if d == 0]
    seen = 0
    while ready:
        nid = ready.pop()
        seen += 1
        for nxt in succ[nid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    if seen != len(ids):
        cyclic = sorted(nid for nid, d in indeg.items() if d > 0)
        raise CycleDetected(f"cycle through nodes {cyclic}")


def _check_widths(what: str, *widths: int) -> None:
    """Raise BadEndpoint unless every width is a non-negative int (a bool is
    not one, as in jsonio)."""
    for n in widths:
        if type(n) is not int:
            raise BadEndpoint(f"{what} {n!r} is not an int")
        if n < 0:
            raise BadEndpoint(f"negative {what} {n}")


def _is_permutation(perm: Sequence[int]) -> bool:
    """True when perm holds the ints 0..len(perm)-1 once each (a bool is not
    an int here)."""
    return all(type(p) is int for p in perm) and sorted(perm) == list(range(len(perm)))


def _attach(idag_like_edges: dict[Edge, int]) -> Mapping[Edge, int]:
    return MappingProxyType(idag_like_edges)


def identity(n: int, mode: WeightSystem = BOOL) -> Idag:
    """The (n, n)-idag wiring input i straight to output i."""
    _check_widths("width", n)
    return Idag(
        mode, n, n, (), _attach({(In(i), Out(i)): 1 for i in range(n)})
    )


def from_permutation(perm: Sequence[int], mode: WeightSystem = BOOL) -> Idag:
    """The node-free idag sending input i to output perm[i].

    Raises NotBijective if perm is not a permutation of 0..len(perm)-1.
    """
    n = len(perm)
    if not _is_permutation(perm):
        raise NotBijective(f"{list(perm)!r} is not a permutation of 0..{n - 1}")
    return Idag(
        mode, n, n, (), _attach({(In(i), Out(perm[i])): 1 for i in range(n)})
    )


def symmetry(n: int, m: int, mode: WeightSystem = BOOL) -> Idag:
    """The (n+m, m+n)-idag crossing the first n wires over the last m."""
    _check_widths("width", n, m)
    perm = [m + i for i in range(n)] + [j for j in range(m)]
    return from_permutation(perm, mode)


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

    Each source of first reaches second's nodes and outputs through the
    weighted sum (WeightSystem.weighted_sum) of the border rows it feeds; a
    sum that cancels to zero drops the edge. Node ids of first survive
    unchanged; clashing ids of second get primed.
    """
    if first.weights is not second.weights:
        raise ModeMismatch(f"{first.weights!r} vs {second.weights!r}")
    if first.n_out != second.n_in:
        raise InterfaceMismatch(
            f"cannot feed {first.n_out} outputs into {second.n_in} inputs"
        )
    ren = _freshen(set(first.node_ids), second.node_ids)
    nodes = first.nodes + tuple((ren[nid], lbl) for nid, lbl in second.nodes)

    edges: dict[Edge, int] = {}
    # first's sources keep their edges into first's nodes; edges into the
    # border are collected for routing through second.
    border: dict[Vertex, dict[int, int]] = {}
    for (src, dst), w in first.edges.items():
        if isinstance(dst, NodeRef):
            edges[(src, dst)] = w
        else:
            border.setdefault(src, {})[dst.index] = w
    # second's edges, relabelled; those leaving the border are its border
    # rows, indexed by border position.
    from_border: dict[int, dict[Vertex, int]] = {}
    for (src, dst), w in second.edges.items():
        dst2: Vertex = NodeRef(ren[dst.id]) if isinstance(dst, NodeRef) else dst
        if isinstance(src, In):
            from_border.setdefault(src.index, {})[dst2] = w
        else:
            edges[(NodeRef(ren[src.id]), dst2)] = w
    for src, outs in border.items():
        routes = [(from_border[j], w) for j, w in outs.items() if j in from_border]
        for dst2, w in first.weights.weighted_sum(routes).items():
            edges[(src, dst2)] = w
    return Idag(first.weights, first.n_in, second.n_out, nodes, _attach(edges))


def juxt(d1: Idag, d2: Idag) -> Idag:
    """Parallel composite: d1's interfaces first, then d2's shifted up."""
    if d1.weights is not d2.weights:
        raise ModeMismatch(f"{d1.weights!r} vs {d2.weights!r}")
    ren = _freshen(set(d1.node_ids), d2.node_ids)
    nodes = d1.nodes + tuple((ren[nid], lbl) for nid, lbl in d2.nodes)
    edges: dict[Edge, int] = dict(d1.edges)

    def shift(v: Vertex) -> Vertex:
        if isinstance(v, In):
            return In(v.index + d1.n_in)
        if isinstance(v, Out):
            return Out(v.index + d1.n_out)
        return NodeRef(ren[v.id])

    for (src, dst), w in d2.edges.items():
        edges[(shift(src), shift(dst))] = w
    return Idag(
        d1.weights, d1.n_in + d2.n_in, d1.n_out + d2.n_out, nodes, _attach(edges)
    )


def edge_sort_key(d: Idag) -> Callable[[Edge], tuple]:
    """Deterministic total order on d's edges: inputs, then nodes by sequence
    position, then outputs; used by serialization and rendering."""
    pos = {nid: k for k, nid in enumerate(d.node_ids)}

    def vkey(v: Vertex) -> tuple[int, int]:
        if isinstance(v, In):
            return (0, v.index)
        if isinstance(v, NodeRef):
            return (1, pos[v.id])
        return (2, v.index)

    def key(e: Edge) -> tuple:
        return (vkey(e[0]), vkey(e[1]))

    return key


# ---------------------------------------------------------------------------
# Isomorphism and canonical form


_Adjacency = list[list[tuple[int, int]]]


def _dense_ranks(structured: Sequence) -> list[int]:
    """Ranks of the values in sorted order: equal values share a rank."""
    rank = {c: k for k, c in enumerate(sorted(set(structured)))}
    return [rank[c] for c in structured]


def _refine(colors: list[int], preds: _Adjacency, succs: _Adjacency) -> list[int]:
    """Partition refinement (one-dimensional Weisfeiler-Leman): recolour every
    node by its color and its sorted weighted in- and out-neighbour colors
    until no cell splits. New colors are ranks of the sorted profiles, which
    lead with the old color, so cells split in place and the result does not
    depend on node numbering."""
    count = len(set(colors))
    while True:
        colors = _dense_ranks(
            [
                (
                    c,
                    tuple(sorted([(colors[j], w) for j, w in preds[i]])),
                    tuple(sorted([(colors[j], w) for j, w in succs[i]])),
                )
                for i, c in enumerate(colors)
            ]
        )
        new_count = len(set(colors))
        if new_count == count:
            return colors
        count = new_count


def _split_twins(colors: list[int], twin: list[int]) -> list[int]:
    """Split every cell made of one twin class into singletons, in node order.
    Twins have the same label, neighbours, weights and interface edges, so
    any order of them gives the same key, and the partition stays
    equitable."""
    cells: dict[int, list[int]] = {}
    for i, c in enumerate(colors):
        cells.setdefault(c, []).append(i)
    pure = [m for m in cells.values() if len(m) > 1 and len({twin[i] for i in m}) == 1]
    if not pure:
        return colors
    key = [(c, 0) for c in colors]
    for members in pure:
        for k, i in enumerate(members):
            key[i] = (colors[i], k)
    return _dense_ranks(key)


@dataclass
class _Frame:
    """A node of the search tree: its equitable coloring, the nodes
    individualized on the way to it, and the children of its target cell."""

    colors: list[int]
    path: tuple[int, ...]
    on_first_path: bool
    candidates: Iterator[int]
    tried: list[int] = field(default_factory=list)


def _search(
    colors: list[int],
    preds: _Adjacency,
    succs: _Adjacency,
    twin: list[int],
    steps: list[int],
    exhausted: str,
) -> tuple[tuple, list[int]]:
    """Canonical labelling of one connected tied part by
    individualization-refinement (McKay & Piperno, Practical graph
    isomorphism II, 2014).

    Each tree node individualizes one member of the first non-singleton
    cell and refines; leaves are discrete colorings, and the canonical one
    has the least sorted edge list. Two leaves with equal edge lists give an
    automorphism: its orbits prune the children of nodes on the first path,
    and a leaf equal to the first leaf abandons its branch back to where
    that branch left the first path. Children twin to a tried child are
    skipped everywhere. steps[0] counts down the tree nodes left.

    Returns the least edge list and the node order producing it.
    """
    n = len(colors)

    def equitable(cs: list[int]) -> list[int]:
        steps[0] -= 1
        if steps[0] < 0:
            raise SearchBudgetExceeded(exhausted)
        return _split_twins(_refine(cs, preds, succs), twin)

    def edge_list(cs: list[int]) -> tuple:
        return tuple(sorted([(cs[i], cs[j], w) for i in range(n) for j, w in succs[i]]))

    orbit = list(range(n))

    def find(x: int) -> int:
        while orbit[x] != x:
            orbit[x] = orbit[orbit[x]]
            x = orbit[x]
        return x

    def merge_automorphism(a: list[int], b: list[int]) -> None:
        # a and b are discrete colorings with equal edge lists: node i of a
        # and the node of b with the same color play the same part.
        at_color = [0] * n
        for j, c in enumerate(b):
            at_color[c] = j
        for i, c in enumerate(a):
            orbit[find(i)] = find(at_color[c])

    # Twin transpositions fix every other node, so twins share an orbit.
    first_of_twin: dict[int, int] = {}
    for i in range(n):
        orbit[i] = first_of_twin.setdefault(twin[i], i)

    def frame(cs: list[int], path: tuple[int, ...], on_first_path: bool) -> _Frame:
        size: dict[int, int] = {}
        for c in cs:
            size[c] = size.get(c, 0) + 1
        target = min(c for c, k in size.items() if k > 1)
        cell = [i for i in range(n) if cs[i] == target]
        return _Frame(cs, path, on_first_path, iter(cell))

    def next_child(f: _Frame) -> Optional[int]:
        for v in f.candidates:
            if any(twin[u] == twin[v] for u in f.tried):
                continue
            if f.on_first_path and find(v) in {find(u) for u in f.tried}:
                continue
            f.tried.append(v)
            return v
        return None

    root = equitable(colors)
    if len(set(root)) == n:
        return edge_list(root), sorted(range(n), key=root.__getitem__)
    first = best = None
    frames = [frame(root, (), True)]
    while frames:
        f = frames[-1]
        v = next_child(f)
        if v is None:
            frames.pop()
            continue
        cs = f.colors
        cv = cs[v]
        child = equitable([c + 1 if c > cv or (c == cv and i != v) else c for i, c in enumerate(cs)])
        path = f.path + (v,)
        if len(set(child)) < n:
            frames.append(frame(child, path, first is None))
            continue
        code = edge_list(child)
        if first is None:
            first = best = (code, child, path)
        elif code == first[0]:
            merge_automorphism(first[1], child)
            common = 0
            while path[common] == first[2][common]:
                common += 1
            del frames[common + 1 :]
        elif code == best[0]:
            merge_automorphism(best[1], child)
        elif code < best[0]:
            best = (code, child, path)
    return best[0], sorted(range(n), key=best[1].__getitem__)


def _break_ties(
    colors: list[int], preds: _Adjacency, succs: _Adjacency, budget: int
) -> list[int]:
    """A discrete coloring refining the equitable coloring `colors` that is
    canonical: isomorphic idags get the same key under it.

    Cells of twins are split in node order. What is still tied falls apart
    into connected parts; nodes outside them are fixed, and every member of
    a cell has the same edges to fixed nodes and to the interface, so each
    part is labelled on its own (by _search) and equal parts, which can be
    swapped, are ordered by their codes.
    """
    n = len(colors)
    twin = _dense_ranks(
        [(colors[i], tuple(sorted(preds[i])), tuple(sorted(succs[i]))) for i in range(n)]
    )
    colors = _split_twins(colors, twin)
    size: dict[int, int] = {}
    for c in colors:
        size[c] = size.get(c, 0) + 1
    tied = {i for i in range(n) if size[colors[i]] > 1}
    if not tied:
        return colors
    tied_sizes = sorted((k for k in size.values() if k > 1), reverse=True)
    exhausted = (
        f"canonical search exceeded its budget of {budget} tree nodes "
        f"(N = {n} nodes; cells tied after refinement: {tied_sizes})"
    )

    steps = [budget]
    parts: list[tuple[tuple, list[int]]] = []
    seen: set[int] = set()
    for start in sorted(tied):
        if start in seen:
            continue
        seen.add(start)
        members = [start]
        for i in members:
            for j, _ in preds[i] + succs[i]:
                if j in tied and j not in seen:
                    seen.add(j)
                    members.append(j)
        local = {i: k for k, i in enumerate(members)}
        code, order = _search(
            _dense_ranks([colors[i] for i in members]),
            [[(local[j], w) for j, w in preds[i] if j in local] for i in members],
            [[(local[j], w) for j, w in succs[i] if j in local] for i in members],
            [twin[i] for i in members],
            steps,
            exhausted,
        )
        parts.append(((tuple(colors[members[k]] for k in order), code), [members[k] for k in order]))
    parts.sort(key=lambda part: part[0])
    place = list(range(n))
    for k, i in enumerate(i for _, order in parts for i in order):
        place[i] = n + k
    return _dense_ranks([(colors[i], place[i]) for i in range(n)])


def _labelling(d: Idag, budget: int) -> tuple[tuple, list[str]]:
    """The canonical key of d, (labels, sorted edge triples), and the node
    order that produces it.

    Colors start from (label, exact weighted interface profiles) and are
    refined to an equitable partition; nodes are ordered by refined color.
    When colors tie, _break_ties orders the tied nodes canonically.
    """
    ids = d.node_ids
    index = {nid: i for i, nid in enumerate(ids)}
    preds: _Adjacency = [[] for _ in ids]
    succs: _Adjacency = [[] for _ in ids]
    in_prof: _Adjacency = [[] for _ in ids]
    out_prof: _Adjacency = [[] for _ in ids]
    for (src, dst), w in d.edges.items():
        if isinstance(src, NodeRef):
            i = index[src.id]
            if isinstance(dst, NodeRef):
                succs[i].append((index[dst.id], w))
                preds[index[dst.id]].append((i, w))
            else:
                out_prof[i].append((dst.index, w))
        elif isinstance(dst, NodeRef):
            in_prof[index[dst.id]].append((src.index, w))
    labels = [lbl for _, lbl in d.nodes]
    colors = _refine(
        _dense_ranks(
            [
                (labels[i], tuple(sorted(in_prof[i])), tuple(sorted(out_prof[i])))
                for i in range(len(ids))
            ]
        ),
        preds,
        succs,
    )
    if len(set(colors)) < len(ids):
        colors = _break_ties(colors, preds, succs, budget)
    order = sorted(range(len(ids)), key=colors.__getitem__)

    def vkey(v: Vertex) -> tuple[int, int]:
        if isinstance(v, In):
            return (0, v.index)
        if isinstance(v, NodeRef):
            return (1, colors[index[v.id]])
        return (2, v.index)

    key = (
        tuple(labels[i] for i in order),
        tuple(sorted((vkey(src), vkey(dst), w) for (src, dst), w in d.edges.items())),
    )
    return key, [ids[i] for i in order]


def is_isomorphic(d1: Idag, d2: Idag) -> Optional[dict[str, str]]:
    """A node bijection matching labels and all weighted edges pointwise, or
    None. Interfaces must match exactly (inputs and outputs are never
    permuted). Compares the canonical labellings of d1 and d2 and maps node
    to node by position; SearchBudgetExceeded as for canonical_form."""
    shape1 = (d1.weights.name, d1.n_in, d1.n_out, len(d1.nodes), len(d1.edges))
    shape2 = (d2.weights.name, d2.n_in, d2.n_out, len(d2.nodes), len(d2.edges))
    if shape1 != shape2:
        return None
    key1, order1 = _labelling(d1, CANONICAL_SEARCH_BUDGET)
    key2, order2 = _labelling(d2, CANONICAL_SEARCH_BUDGET)
    if key1 != key2:
        return None
    return dict(zip(order1, order2))


def canonical_form(d: Idag, budget: int = CANONICAL_SEARCH_BUDGET) -> Idag:
    """A canonical representative of d's isomorphism class.

    Nodes are renamed "0".."N-1"; two idags are isomorphic iff their canonical
    forms are equal. Nodes are ordered by partition-refinement color; where
    colors tie, twins are ordered freely, independent tied parts are
    labelled separately, and the rest is searched by
    individualization-refinement, counting each search-tree node against the
    budget (SearchBudgetExceeded beyond).
    """
    (labels, edge_triples), _ = _labelling(d, budget)
    nodes = tuple((str(k), lbl) for k, lbl in enumerate(labels))

    def unkey(vk: tuple[int, int]) -> Vertex:
        side, idx = vk
        if side == 0:
            return In(idx)
        if side == 1:
            return NodeRef(str(idx))
        return Out(idx)

    edges = {(unkey(sk), unkey(dk)): w for sk, dk, w in edge_triples}
    return Idag(d.weights, d.n_in, d.n_out, nodes, _attach(edges))


# ---------------------------------------------------------------------------
# BOOL-mode quotients and predicates


def _require_bool(d: Idag, what: str) -> None:
    if d.weights is not BOOL:
        raise ModeMismatch(f"{what} requires bool mode, got {d.weights!r}")


def transitive_closure(d: Idag) -> Idag:
    """Add an edge x -> y for every path from x to y through at least one
    internal node. BOOL mode only."""
    _require_bool(d, "transitive_closure")
    succ_nodes: dict[str, list[str]] = {nid: [] for nid in d.node_ids}
    out_edges: dict[str, list[Vertex]] = {nid: [] for nid in d.node_ids}
    into_nodes: dict[Vertex, list[str]] = {}
    for src, dst in d.edges:
        if isinstance(dst, NodeRef):
            into_nodes.setdefault(src, []).append(dst.id)
            if isinstance(src, NodeRef):
                succ_nodes[src.id].append(dst.id)
        if isinstance(src, NodeRef):
            out_edges[src.id].append(dst)

    reach: dict[str, set[str]] = {}
    for nid in d.node_ids:
        seen = {nid}
        frontier = [nid]
        while frontier:
            cur = frontier.pop()
            for nxt in succ_nodes[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        reach[nid] = seen

    edges: dict[Edge, int] = dict(d.edges)
    for src, firsts in into_nodes.items():
        targets: set[Vertex] = set()
        for first_hop in firsts:
            for mid in reach[first_hop]:
                targets.update(out_edges[mid])
        for dst in targets:
            edges[(src, dst)] = 1
    return Idag(d.weights, d.n_in, d.n_out, d.nodes, _attach(edges))


def prune_dangling(d: Idag) -> Idag:
    """Delete internal nodes with no in-edges or no out-edges, repeatedly,
    until none remain. BOOL mode only. The surviving set does not depend on
    deletion order, so one worklist finds it: degrees are counted once, and
    each deleted node takes one from its neighbours' degrees."""
    _require_bool(d, "prune_dangling")
    degree = {NodeRef(nid): [0, 0] for nid in d.node_ids}  # [in, out]
    # touches[u]: (v, side) per edge between nodes u and v, side naming the
    # degree of v that the edge counts in
    touches: dict[Vertex, list[tuple[Vertex, int]]] = {v: [] for v in degree}
    for src, dst in d.edges:
        for v, side, u in ((dst, 0, src), (src, 1, dst)):
            if v in degree:
                degree[v][side] += 1
                if u in degree:
                    touches[u].append((v, side))
    doomed = {v for v, (i, o) in degree.items() if not i or not o}
    work = list(doomed)
    while work:
        for v, side in touches[work.pop()]:
            degree[v][side] -= 1
            if not degree[v][side] and v not in doomed:
                doomed.add(v)
                work.append(v)
    nodes = tuple(node for node in d.nodes if NodeRef(node[0]) not in doomed)
    edges = {e: w for e, w in d.edges.items() if e[0] not in doomed and e[1] not in doomed}
    return Idag(d.weights, d.n_in, d.n_out, nodes, _attach(edges))


def is_forest(d: Idag) -> bool:
    """True when every input and every internal node has exactly one outgoing
    edge. BOOL mode only."""
    _require_bool(d, "is_forest")
    outdeg: dict[Vertex, int] = {In(i): 0 for i in range(d.n_in)}
    outdeg.update({NodeRef(nid): 0 for nid in d.node_ids})
    for src, _dst in d.edges:
        outdeg[src] += 1
    return all(c == 1 for c in outdeg.values())
