"""Building idags and composing them: the symmetric monoidal structure.

make_idag validates and builds an idag from node and edge specs. The
identities, permutations and symmetries are the node-free idags that route
wires, and two idags with matching interfaces compose sequentially (concat),
summing weight products over the shared interface as a matrix product does,
or in parallel (juxt), stacked. is_forest is a BOOL-mode predicate.

Nothing here runs when an expression is evaluated or an equality decided:
the free model builds its images as wires (models._walk), so this module is
loaded only by the code that builds or composes idags.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence, Union

from .core import (
    DEFAULT_LABEL,
    MAX_WIDTH,
    Edge,
    Idag,
    In,
    NodeRef,
    Out,
    Vertex,
    _require_bool,
    _topological_order,
)
from .errors import (
    BadEndpoint,
    CycleDetected,
    DuplicateNodeId,
    InterfaceMismatch,
    ModeMismatch,
    NotBijective,
    SizeLimitExceeded,
    ZeroWeight,
    _check_collection,
    _check_type,
    _int_text,
)
from .weights import BOOL, WeightSystem


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
        edges that are not iterable, nodes given as one str),
        SizeLimitExceeded (an interface wider than MAX_WIDTH),
        DuplicateNodeId, BadEndpoint (also for a node or edge spec of
        another shape, and for an In or Out index that is not an int: a
        bool is not one, as in jsonread), InvalidWeight (ZeroWeight /
        AntipodeWeight), CycleDetected.
    """
    _check_type(mode, WeightSystem)
    _check_collection(nodes, Iterable)
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
            if type(src.index) is not int:
                raise BadEndpoint(f"input index {src.index!r} is not an int")
            if not 0 <= src.index < n_in:
                raise BadEndpoint(f"input index {src.index} out of range 0..{n_in - 1}")
            s = src.index
        elif isinstance(src, NodeRef):
            if not isinstance(src.id, str) or src.id not in pos:
                raise BadEndpoint(f"unknown source node {src.id!r}")
            s = n_in + pos[src.id]
        else:
            raise BadEndpoint(f"edge source cannot be {src!r}")
        if isinstance(dst, Out):
            if type(dst.index) is not int:
                raise BadEndpoint(f"output index {dst.index!r} is not an int")
            if not 0 <= dst.index < n_out:
                raise BadEndpoint(f"output index {dst.index} out of range 0..{n_out - 1}")
            t = n_nodes + dst.index
        elif isinstance(dst, NodeRef):
            if not isinstance(dst.id, str) or dst.id not in pos:
                raise BadEndpoint(f"unknown target node {dst.id!r}")
            t = pos[dst.id]
        else:
            raise BadEndpoint(f"edge target cannot be {dst!r}")
        mode.check_value(w)
        if w == 0:
            raise ZeroWeight("zero weight: omit the edge instead")
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


def _check_widths(what: str, *widths: int) -> None:
    """Raise BadEndpoint unless every width is a non-negative int (a bool is
    not one, as in jsonread), and SizeLimitExceeded past MAX_WIDTH."""
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


def symmetry(n: int, m: int, mode: WeightSystem = BOOL) -> Idag:
    """The (n+m, m+n)-idag crossing the first n wires over the last m:
    input i goes to output m+i, input n+j to output j."""
    _check_widths("width", n, m)
    _check_widths("width", n + m)
    _check_type(mode, WeightSystem)
    wires = tuple({n + j: 1} for j in range(m)) + tuple({i: 1} for i in range(n))
    return Idag(mode, n + m, n + m, (), wires)


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
    j, so it becomes the weighted sum (WeightSystem._weighted_sum) of those
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
    weighted_sum = first.weights._weighted_sum

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


def is_forest(d: Idag) -> bool:
    """True when every input and every internal node has exactly one outgoing
    edge. BOOL mode only."""
    _require_bool(d, "is_forest")
    outdeg = [0] * (d.n_in + len(d.nodes))
    for wire in d.wires:
        for s in wire:
            outdeg[s] += 1
    return all(c == 1 for c in outdeg)
