"""Reference code: random_idag through make_idag and random_expression
through arity_of.

random_idag built two In/NodeRef/Out vertices for every candidate pair and
handed the hits to make_idag, which validated each edge again and ran a
cycle check; random_expression took each Seq's middle width from arity_of
over its first part. test_randgen.py plays idag.randgen against these on a
seeded grid: the idags, their wires' insertion orders, the printed
expressions, the random state after each draw and the errors must agree.
"""

from __future__ import annotations

import random
from collections.abc import Collection, Sequence

from idag.algebra import _check_widths, make_idag
from idag.core import DEFAULT_LABEL, Idag, In, NodeRef, Out, Vertex
from idag.errors import IdagError, _check_collection, _check_type
from idag.randgen import MAX_EXPRESSION_DEPTH, MAX_SEQ_WIDTH
from idag.terms import (
    Anti,
    Delta,
    Eps,
    Eta,
    Expression,
    Id,
    Nabla,
    Node,
    Seq,
    Sym,
    Ten,
    arity_of,
)
from idag.weights import BOOL, INT, NAT, WeightSystem


def _draw_weight(rng: random.Random, mode: WeightSystem) -> int:
    if mode is NAT:
        return rng.randint(1, 3)
    if mode is INT:
        return rng.choice([-3, -2, -1, 1, 2, 3])
    return 1


def _label_pool(labels: Collection) -> list:
    """The labels to draw from, in an order that does not depend on the
    hash seed: a Sequence's own, otherwise sorted by their text."""
    return list(labels) if isinstance(labels, Sequence) else sorted(labels, key=str)


def random_idag(
    rng: random.Random,
    n_in: int,
    n_out: int,
    n_nodes: int,
    edge_prob: float,
    mode: WeightSystem = BOOL,
    labels: Sequence[str] = (DEFAULT_LABEL,),
    id_prefix: str = "n",
) -> Idag:
    """A random idag, acyclic by construction: nodes are generated in a fixed
    order and node-to-node edges only point forward in it. Labels are drawn
    from a Sequence in its order and from any other collection in sorted
    order, so a set draws the same under every hash seed. Every admissible
    edge is included independently with probability edge_prob; nat/int
    weights are drawn uniformly from {1..3} / {-3..-1, 1..3}. Raises
    IdagError unless edge_prob is a number in [0, 1] and labels is not
    empty, BadEndpoint unless the widths and node count are non-negative
    ints, SizeLimitExceeded when one is past MAX_WIDTH, and
    WrongArgumentType unless rng is a random.Random and labels a collection
    other than a str."""
    _check_type(rng, random.Random)
    if not isinstance(edge_prob, (int, float)):
        raise IdagError(f"edge_prob {edge_prob!r} is not a number")
    if not 0 <= edge_prob <= 1:
        raise IdagError(f"edge_prob {edge_prob} outside [0, 1]")
    _check_collection(labels, Collection)
    if not labels:
        raise IdagError("no node labels to draw from")
    _check_widths("node count", n_nodes)
    _check_widths("interface width", n_in, n_out)
    pool = _label_pool(labels)
    node_ids = [f"{id_prefix}{k}" for k in range(n_nodes)]
    nodes = [(nid, rng.choice(pool)) for nid in node_ids]
    edges: list[tuple[Vertex, Vertex, int]] = []

    def maybe(src: Vertex, dst: Vertex) -> None:
        if rng.random() < edge_prob:
            edges.append((src, dst, _draw_weight(rng, mode)))

    for i in range(n_in):
        for k in range(n_nodes):
            maybe(In(i), NodeRef(node_ids[k]))
    for k in range(n_nodes):
        for l in range(k + 1, n_nodes):
            maybe(NodeRef(node_ids[k]), NodeRef(node_ids[l]))
    for i in range(n_in):
        for j in range(n_out):
            maybe(In(i), Out(j))
    for k in range(n_nodes):
        for j in range(n_out):
            maybe(NodeRef(node_ids[k]), Out(j))
    return make_idag(n_in, n_out, nodes, edges, mode)


def random_expression(
    rng: random.Random,
    max_depth: int = 4,
    allow_anti: bool = False,
    labels: Sequence[str] = (DEFAULT_LABEL, "x", "y"),
) -> Expression:
    """A random well-typed expression; every AST constructor can occur.
    Node labels are drawn as in random_idag.
    Raises IdagError when labels is empty, or when max_depth is not a
    non-negative int (a bool is not one) or exceeds
    MAX_EXPRESSION_DEPTH: generation recurses once per level, and
    WrongArgumentType unless rng is a random.Random and labels a collection
    other than a str."""
    _check_type(rng, random.Random)
    _check_collection(labels, Collection)
    if not labels:
        raise IdagError("no node labels to draw from")
    if type(max_depth) is not int or max_depth < 0:
        raise IdagError(f"max_depth {max_depth!r} is not a non-negative int")
    if max_depth > MAX_EXPRESSION_DEPTH:
        raise IdagError(f"max_depth {max_depth} exceeds {MAX_EXPRESSION_DEPTH}")
    pool = _label_pool(labels)

    def atom_row(width: int, depth: int) -> Expression:
        # a tensor of atoms consuming exactly `width` wires
        parts: list[Expression] = []
        remaining = width
        while remaining > 0:
            roll = rng.random()
            if remaining >= 2 and roll < 0.2:
                parts.append(Nabla())
                remaining -= 2
            elif roll < 0.35:
                parts.append(Delta())
                remaining -= 1
            elif roll < 0.5:
                parts.append(Node(rng.choice(pool)))
                remaining -= 1
            elif roll < 0.6:
                parts.append(Eps())
                remaining -= 1
            elif allow_anti and roll < 0.7:
                parts.append(Anti())
                remaining -= 1
            elif remaining >= 2 and roll < 0.8:
                a = rng.randint(1, remaining - 1)
                parts.append(Sym(a, rng.randint(1, remaining - a)))
                remaining -= parts[-1].n + parts[-1].m  # type: ignore[union-attr]
            else:
                parts.append(Id(rng.randint(1, remaining)))
                remaining -= parts[-1].n  # type: ignore[union-attr]
        if rng.random() < 0.15:
            parts.insert(rng.randrange(len(parts) + 1), Eta())
        if not parts:
            return Id(0)
        e = parts[0]
        for p in parts[1:]:
            e = Ten(e, p)
        return e

    def gen(width: int, depth: int) -> Expression:
        if depth <= 0:
            return atom_row(width, depth)
        roll = rng.random()
        if roll < 0.5:
            e1 = gen(width, depth - 1)
            mid = arity_of(e1)[1]
            if mid > MAX_SEQ_WIDTH:
                return e1
            return Seq(e1, gen(mid, depth - 1))
        if roll < 0.8 and width >= 1:
            a = rng.randint(0, width)
            return Ten(gen(a, depth - 1), gen(width - a, depth - 1))
        return atom_row(width, depth)

    return gen(rng.randint(0, 4), max_depth)
