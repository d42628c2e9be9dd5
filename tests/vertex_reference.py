"""Reference code: idag operations on the vertex-keyed representation, an
edge dict keyed by (In/NodeRef, NodeRef/Out) pairs, in which every algorithm
built its own integer index from that dict.

test_wires.py plays the library, which works on integer wires, against
these. The integer-level canonical search (canon.canonical_order) is
shared with the library; everything that converts vertices is kept here.
"""

from __future__ import annotations

import json
from typing import Optional

from idag.algebra import _freshen
from idag.canon import canonical_order
from idag.core import CANONICAL_SEARCH_BUDGET, DEFAULT_LABEL, In, NodeRef, Out
from idag.errors import InterfaceMismatch, ModeMismatch


class VIdag:
    """An idag as weights, interface widths, an (id, label) node tuple and a
    {(source, target): weight} edge dict."""

    __slots__ = ("weights", "n_in", "n_out", "nodes", "edges")

    def __init__(self, weights, n_in, n_out, nodes, edges):
        self.weights = weights
        self.n_in = n_in
        self.n_out = n_out
        self.nodes = tuple(nodes)
        self.edges = dict(edges)

    @classmethod
    def of(cls, d) -> "VIdag":
        return cls(d.weights, d.n_in, d.n_out, d.nodes, d.edges)

    @property
    def node_ids(self):
        return tuple(nid for nid, _ in self.nodes)


def read_image(mode, n_in: int, labels, wires) -> VIdag:
    """The free image that models._walk returns, as a vertex-keyed idag;
    node k gets the id str(k)."""
    nodes = tuple((str(k), lbl) for k, lbl in enumerate(labels))
    refs = [In(i) for i in range(n_in)] + [NodeRef(nid) for nid, _ in nodes]
    ends = refs[n_in:] + [Out(j) for j in range(len(wires) - len(nodes))]
    edges = {(refs[s], t): w for t, wire in zip(ends, wires) for s, w in wire.items()}
    return VIdag(mode, n_in, len(ends) - len(nodes), nodes, edges)


def concat(second: VIdag, first: VIdag) -> VIdag:
    if first.weights is not second.weights:
        raise ModeMismatch(f"{first.weights!r} vs {second.weights!r}")
    if first.n_out != second.n_in:
        raise InterfaceMismatch(f"cannot feed {first.n_out} outputs into {second.n_in} inputs")
    ren = _freshen(set(first.node_ids), second.node_ids)
    nodes = first.nodes + tuple((ren[nid], lbl) for nid, lbl in second.nodes)
    edges = {}
    border: dict = {}
    for (src, dst), w in first.edges.items():
        if isinstance(dst, NodeRef):
            edges[(src, dst)] = w
        else:
            border.setdefault(src, {})[dst.index] = w
    from_border: dict = {}
    for (src, dst), w in second.edges.items():
        dst2 = NodeRef(ren[dst.id]) if isinstance(dst, NodeRef) else dst
        if isinstance(src, In):
            from_border.setdefault(src.index, {})[dst2] = w
        else:
            edges[(NodeRef(ren[src.id]), dst2)] = w
    for src, outs in border.items():
        routes = [(from_border[j], w) for j, w in outs.items() if j in from_border]
        for dst2, w in first.weights._weighted_sum(routes).items():
            edges[(src, dst2)] = w
    return VIdag(first.weights, first.n_in, second.n_out, nodes, edges)


def juxt(d1: VIdag, d2: VIdag) -> VIdag:
    if d1.weights is not d2.weights:
        raise ModeMismatch(f"{d1.weights!r} vs {d2.weights!r}")
    ren = _freshen(set(d1.node_ids), d2.node_ids)
    nodes = d1.nodes + tuple((ren[nid], lbl) for nid, lbl in d2.nodes)
    edges = dict(d1.edges)

    def shift(v):
        if isinstance(v, In):
            return In(v.index + d1.n_in)
        if isinstance(v, Out):
            return Out(v.index + d1.n_out)
        return NodeRef(ren[v.id])

    for (src, dst), w in d2.edges.items():
        edges[(shift(src), shift(dst))] = w
    return VIdag(d1.weights, d1.n_in + d2.n_in, d1.n_out + d2.n_out, nodes, edges)


def labelling(d: VIdag, budget: int = CANONICAL_SEARCH_BUDGET) -> tuple[tuple, list[str]]:
    ids = d.node_ids
    index = {nid: i for i, nid in enumerate(ids)}
    preds = [[] for _ in ids]
    succs = [[] for _ in ids]
    in_prof = [[] for _ in ids]
    out_prof = [[] for _ in ids]
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
    order = canonical_order(
        [(labels[i], tuple(sorted(in_prof[i])), tuple(sorted(out_prof[i]))) for i in range(len(ids))],
        preds,
        succs,
        budget,
    )
    position = {i: k for k, i in enumerate(order)}

    def vkey(v):
        if isinstance(v, In):
            return (0, v.index)
        if isinstance(v, NodeRef):
            return (1, position[index[v.id]])
        return (2, v.index)

    key = (
        tuple(labels[i] for i in order),
        tuple(sorted((vkey(src), vkey(dst), w) for (src, dst), w in d.edges.items())),
    )
    return key, [ids[i] for i in order]


def canonical_form(d: VIdag) -> VIdag:
    (labels, edge_triples), _ = labelling(d)
    nodes = tuple((str(k), lbl) for k, lbl in enumerate(labels))

    def unkey(vk):
        side, idx = vk
        if side == 0:
            return In(idx)
        if side == 1:
            return NodeRef(str(idx))
        return Out(idx)

    edges = {(unkey(sk), unkey(dk)): w for sk, dk, w in edge_triples}
    return VIdag(d.weights, d.n_in, d.n_out, nodes, edges)


def is_isomorphic(d1: VIdag, d2: VIdag) -> Optional[dict[str, str]]:
    shape1 = (d1.weights.name, d1.n_in, d1.n_out, len(d1.nodes), len(d1.edges))
    shape2 = (d2.weights.name, d2.n_in, d2.n_out, len(d2.nodes), len(d2.edges))
    if shape1 != shape2:
        return None
    key1, order1 = labelling(d1)
    key2, order2 = labelling(d2)
    if key1 != key2:
        return None
    return dict(zip(order1, order2))


def transitive_closure(d: VIdag) -> VIdag:
    succ_nodes = {nid: [] for nid in d.node_ids}
    out_edges = {nid: [] for nid in d.node_ids}
    into_nodes: dict = {}
    for src, dst in d.edges:
        if isinstance(dst, NodeRef):
            into_nodes.setdefault(src, []).append(dst.id)
            if isinstance(src, NodeRef):
                succ_nodes[src.id].append(dst.id)
        if isinstance(src, NodeRef):
            out_edges[src.id].append(dst)
    reach = {}
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
    edges = dict(d.edges)
    for src, firsts in into_nodes.items():
        targets = set()
        for first_hop in firsts:
            for mid in reach[first_hop]:
                targets.update(out_edges[mid])
        for dst in targets:
            edges[(src, dst)] = 1
    return VIdag(d.weights, d.n_in, d.n_out, d.nodes, edges)


def prune_dangling(d: VIdag) -> VIdag:
    degree = {NodeRef(nid): [0, 0] for nid in d.node_ids}
    touches = {v: [] for v in degree}
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
    return VIdag(d.weights, d.n_in, d.n_out, nodes, edges)


def to_json(d: VIdag) -> str:
    """The canonical JSON text, edges sorted by vertex kind and position."""
    pos = {nid: k for k, nid in enumerate(d.node_ids)}

    def vkey(v):
        if isinstance(v, In):
            return (0, v.index)
        if isinstance(v, NodeRef):
            return (1, pos[v.id])
        return (2, v.index)

    def vert(v):
        if isinstance(v, In):
            return {"in": v.index}
        if isinstance(v, Out):
            return {"out": v.index}
        return {"node": v.id}

    nodes = [{"id": nid, **({"label": lbl} if lbl != DEFAULT_LABEL else {})} for nid, lbl in d.nodes]
    edges = []
    for src, dst in sorted(d.edges, key=lambda e: (vkey(e[0]), vkey(e[1]))):
        entry = {"src": vert(src), "dst": vert(dst)}
        if d.edges[(src, dst)] != 1:
            entry["w"] = d.edges[(src, dst)]
        edges.append(entry)
    obj = {"mode": d.weights.name, "inputs": d.n_in, "outputs": d.n_out, "nodes": nodes, "edges": edges}
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)
