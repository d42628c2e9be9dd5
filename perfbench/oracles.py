"""Reference answers that do not come from the code under test.

Every benchmark op is checked against one of these:

* matrix values: exact path sums over an idag, in Python ints;
* equality verdicts: pairs built by rewrites whose verdict is known;
* round trips: a colour-refinement signature of the result, compared with the
  signature of the input (on top of the canonical JSON bytes).

CLI calls are checked against the exit-code contract in workloads.py.

The only things read from the `idag` package here are the input data model
(`Idag` fields and the AST constructors), never an answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from idag.core import In, NodeRef, Out
from idag.terms import Anti, Delta, Eps, Eta, Id, Nabla, Node, Seq, Sym, Ten

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# Plain graphs


@dataclass(frozen=True)
class Graph:
    """An idag as plain data: vertices are ("in", i), ("node", id) or
    ("out", j); edges are (src, dst, weight) triples."""

    n_in: int
    n_out: int
    labels: dict
    edges: tuple


def _vertex(v) -> tuple:
    if isinstance(v, In):
        return ("in", v.index)
    if isinstance(v, Out):
        return ("out", v.index)
    if isinstance(v, NodeRef):
        return ("node", v.id)
    raise TypeError(f"not an idag vertex: {v!r}")


def graph_of_idag(d) -> Graph:
    edges = tuple((_vertex(s), _vertex(t), w) for (s, t), w in d.edges.items())
    return Graph(d.n_in, d.n_out, dict(d.nodes), edges)


def graph_of_json(obj: dict) -> Graph:
    """Read the documented JSON schema (already decoded by `json.loads`)."""

    def vert(v: dict) -> tuple:
        ((kind, val),) = v.items()
        return (kind, val)

    labels = {n["id"]: n.get("label", "•") for n in obj["nodes"]}
    edges = tuple((vert(e["src"]), vert(e["dst"]), e.get("w", 1)) for e in obj["edges"])
    return Graph(obj["inputs"], obj["outputs"], labels, edges)


def _topological(g: Graph) -> list:
    preds = {nid: 0 for nid in g.labels}
    succ: dict = {nid: [] for nid in g.labels}
    for s, t, _ in g.edges:
        if s[0] == "node" and t[0] == "node":
            preds[t[1]] += 1
            succ[s[1]].append(t[1])
    ready = sorted(nid for nid, k in preds.items() if k == 0)
    order = []
    while ready:
        nid = ready.pop()
        order.append(nid)
        for nxt in succ[nid]:
            preds[nxt] -= 1
            if preds[nxt] == 0:
                ready.append(nxt)
    if len(order) != len(g.labels):
        raise ValueError("graph has a cycle")
    return order


def path_sums(g: Graph, images: dict) -> list:
    """The exact n_in x n_out matrix of a NAT or INT matrix model: entry
    (i, j) sums, over all paths from input i to output j, the product of edge
    weights and of the image of every node label passed (labels without an
    image count 1)."""
    into: dict = {}
    for s, t, w in g.edges:
        into.setdefault(t, []).append((s, w))
    order = _topological(g)
    rows = []
    for i in range(g.n_in):
        value = {("in", i): 1}
        for nid in order:
            total = sum(value.get(s, 0) * w for s, w in into.get(("node", nid), ()))
            value[("node", nid)] = total * images.get(g.labels[nid], 1)
        row = [
            sum(value.get(s, 0) * w for s, w in into.get(("out", j), ()))
            for j in range(g.n_out)
        ]
        rows.append(row)
    return rows


def fits_int64(rows: list) -> bool:
    return all(INT64_MIN <= x <= INT64_MAX for row in rows for x in row)


def refinement_signature(g: Graph) -> tuple:
    """An isomorphism invariant by colour refinement (1-dimensional
    Weisfeiler-Leman): interface vertices keep their side and index, nodes
    start from their label, and each round recolours every vertex by its
    colour and the multisets of (colour, weight) of its in- and out-
    neighbours. The signature is the sorted multiset of colour signatures of
    every round, so it never depends on node ids. Isomorphic graphs get equal
    signatures; a changed label, weight, edge or interface changes it."""
    verts = [("in", i) for i in range(g.n_in)]
    verts += [("node", nid) for nid in g.labels]
    verts += [("out", j) for j in range(g.n_out)]
    preds: dict = {v: [] for v in verts}
    succs: dict = {v: [] for v in verts}
    for s, t, w in g.edges:
        succs[s].append((t, w))
        preds[t].append((s, w))
    colour = {v: (v[0], v[1]) if v[0] != "node" else ("node", g.labels[v[1]]) for v in verts}
    rounds = []
    n_colours = -1
    while True:
        sig = {
            v: (
                colour[v],
                tuple(sorted((colour[u], w) for u, w in preds[v])),
                tuple(sorted((colour[u], w) for u, w in succs[v])),
            )
            for v in verts
        }
        rank = {s: k for k, s in enumerate(sorted(set(sig.values())))}
        rounds.append(tuple(sorted(sig.values())))
        if len(rank) == n_colours:
            return (g.n_in, g.n_out, tuple(rounds))
        n_colours = len(rank)
        colour = {v: rank[sig[v]] for v in verts}


# ---------------------------------------------------------------------------
# Expressions with known verdicts


def arity(e) -> tuple:
    """(inputs, outputs) of a well-typed expression."""
    stack = [(e, False)]
    out: list = []
    while stack:
        node, ready = stack.pop()
        if isinstance(node, (Seq, Ten)):
            if not ready:
                stack.append((node, True))
                kids = (node.first, node.then) if isinstance(node, Seq) else (node.left, node.right)
                stack.extend((k, False) for k in reversed(kids))
                continue
            b = out.pop()
            a = out.pop()
            if isinstance(node, Seq):
                if a[1] != b[0]:
                    raise ValueError(f"ill-typed composite {a} ; {b}")
                out.append((a[0], b[1]))
            else:
                out.append((a[0] + b[0], a[1] + b[1]))
        elif isinstance(node, Id):
            out.append((node.n, node.n))
        elif isinstance(node, Sym):
            out.append((node.n + node.m, node.n + node.m))
        else:
            out.append({Eta: (0, 1), Nabla: (2, 1), Eps: (1, 0), Delta: (1, 2)}.get(type(node), (1, 1)))
    return out[0]


def tensor(parts: list):
    """Left-associated tensor of parts; id(0) when there are none."""
    if not parts:
        return Id(0)
    e = parts[0]
    for p in parts[1:]:
        e = Ten(e, p)
    return e


def sequence(parts: list):
    e = parts[0]
    for p in parts[1:]:
        e = Seq(e, p)
    return e


def closed_node(label: str = "•"):
    """eta ; node ; eps: one node attached to nothing."""
    return Seq(Seq(Eta(), Node(label)), Eps())


def _bracket(parts: list, rng: random.Random):
    """The tensor of parts under a random bracketing."""
    if len(parts) == 1:
        return parts[0]
    cut = rng.randint(1, len(parts) - 1)
    return Ten(_bracket(parts[:cut], rng), _bracket(parts[cut:], rng))


def _pad(left: int, middle, right: int):
    parts = ([Id(left)] if left else []) + [middle] + ([Id(right)] if right else [])
    return tensor(parts)


def rewrite_equal(factors: list, rng: random.Random, swaps: int = 3):
    """An expression equal to tensor(factors) in every symmetric monoidal
    theory, built without evaluating anything:

    * adjacent factors f: a -> b, g: c -> d are exchanged by naturality of
      the symmetry, f * g = sym(a, c) ; (g * f) ; sym(d, b), padded with
      identities to the full width;
    * the permuted tensor is bracketed at random;
    * a unit law (id(0) * e, id(n) ; e or e ; id(m)) wraps the result.
    """
    order = list(factors)
    shapes = [arity(f) for f in order]
    pre: list = []
    post: list = []
    for _ in range(swaps if len(order) > 1 else 0):
        i = rng.randrange(len(order) - 1)
        (a, b), (c, d) = shapes[i], shapes[i + 1]
        ins_before = sum(s[0] for s in shapes[:i])
        ins_after = sum(s[0] for s in shapes[i + 2 :])
        outs_before = sum(s[1] for s in shapes[:i])
        outs_after = sum(s[1] for s in shapes[i + 2 :])
        pre.append(_pad(ins_before, Sym(a, c), ins_after))
        post.insert(0, _pad(outs_before, Sym(d, b), outs_after))
        order[i], order[i + 1] = order[i + 1], order[i]
        shapes[i], shapes[i + 1] = shapes[i + 1], shapes[i]
    e = sequence(pre + [_bracket(order, rng)] + post)
    n, m = arity(e)
    unit = rng.randrange(3)
    if unit == 0:
        return Ten(Id(0), e)
    if unit == 1:
        return Seq(Id(n), e)
    return Seq(e, Id(m))


def anchor_variants(label: str, mode: str) -> tuple:
    """(equal, unequal) replacements for an anchor factor node[label], a node
    wired from one input to one output, so no quotient can delete it.

    Equal: in bool mode delta ; nabla = id(1), in int mode anti ; anti =
    id(1); nat has no such law and keeps the node as is. Unequal: in nat mode
    one extra copy (delta ; nabla doubles the in-weight), otherwise the label
    changes to one no factor uses.
    """
    node = Node(label)
    if mode == "bool":
        equal = Seq(Seq(Delta(), Nabla()), node)
    elif mode == "int":
        equal = Seq(Seq(Anti(), Anti()), node)
    else:
        equal = node
    unequal = Seq(Seq(Delta(), Nabla()), node) if mode == "nat" else Node("z")
    return equal, unequal
