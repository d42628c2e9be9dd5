"""Seeded random generation of idags, expressions and weight matrices.

Generation is deterministic for a fixed seed, whatever the hash seed:
candidates and labels are visited in a fixed order (see _label_pool) and
every random draw goes through the supplied random.Random.
random_idag writes an idag in the form core.Idag stores, one {source:
weight} wire per node and per output, without building vertex objects or
validating again what is valid by construction; its draws are those of the
make_idag route it replaced, one per candidate pair, so every seed gives the
same idag. random_expression carries each part's output width up from the
atoms instead of typing the part again.
Used by the CLI's random command, the selftest suites and the test corpus
builders.
"""

from __future__ import annotations

import random
from collections.abc import Collection, Sequence
from typing import TYPE_CHECKING

from .algebra import _check_widths
from .core import DEFAULT_LABEL, Idag
from .errors import BadEndpoint, IdagError, _check_collection, _check_type
from .terms import (
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
    _atom_arity,
)
from .weights import BOOL, INT, NAT, WeightSystem

if TYPE_CHECKING:
    from .matrices import MatrixMorphism


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
    IdagError unless edge_prob is a number in [0, 1] (a bool is not one)
    and labels is not empty, BadEndpoint unless the widths and node count
    are non-negative ints and every drawn label is a str, SizeLimitExceeded
    when one is past MAX_WIDTH, and WrongArgumentType unless rng is a
    random.Random, id_prefix a str, mode a WeightSystem and labels a
    collection other than a str."""
    _check_type(rng, random.Random)
    _check_type(id_prefix, str)
    if type(edge_prob) is bool or not isinstance(edge_prob, (int, float)):
        raise IdagError(f"edge_prob {edge_prob!r} is not a number")
    if not 0 <= edge_prob <= 1:
        raise IdagError(f"edge_prob {edge_prob} outside [0, 1]")
    _check_collection(labels, Collection)
    if not labels:
        raise IdagError("no node labels to draw from")
    _check_widths("node count", n_nodes)
    _check_widths("interface width", n_in, n_out)
    _check_type(mode, WeightSystem)
    pool = _label_pool(labels)
    nodes = tuple((f"{id_prefix}{k}", rng.choice(pool)) for k in range(n_nodes))
    for spec in nodes:
        if not isinstance(spec[1], str):
            raise BadEndpoint(f"node ids and labels must be strings: {spec!r}")
    # sources are numbered as Idag stores them: inputs, then nodes; targets
    # index wires: nodes, then outputs
    wires: list[dict[int, int]] = [{} for _ in range(n_nodes + n_out)]
    draw = rng.random

    def connect(sources: Sequence[int], targets: Sequence[int]) -> None:
        for s in sources:
            for t in targets:
                if draw() < edge_prob:
                    wires[t][s] = _draw_weight(rng, mode)

    outputs = range(n_nodes, n_nodes + n_out)
    connect(range(n_in), range(n_nodes))
    for k in range(n_nodes):
        connect((n_in + k,), range(k + 1, n_nodes))
    connect(range(n_in), outputs)
    connect(range(n_in, n_in + n_nodes), outputs)
    return Idag(mode, n_in, n_out, nodes, tuple(wires))


# the probability that an entry of random_matrix is nonzero
MATRIX_DENSITY = 0.6


def random_matrix(
    rng: random.Random, n: int, m: int, mode: WeightSystem, max_abs: int = 4
) -> MatrixMorphism:
    """A random n x m matrix: each entry is nonzero with probability
    MATRIX_DENSITY, of magnitude at most max_abs. Raises IdagError unless
    max_abs is a positive int, BadEndpoint or SizeLimitExceeded for a bad n
    or m, and WrongArgumentType unless rng is a random.Random."""
    _check_type(rng, random.Random)
    _check_widths("width", n, m)
    if type(max_abs) is not int or max_abs < 1:
        raise IdagError(f"max_abs {max_abs!r} is not a positive int")
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            if rng.random() >= MATRIX_DENSITY:
                row.append(0)
            elif mode is BOOL:
                row.append(1)
            elif mode is NAT:
                row.append(rng.randint(1, max_abs))
            else:
                mag = rng.randint(1, max_abs)
                row.append(mag if rng.random() < 0.5 else -mag)
        rows.append(row)
    from .matrices import matrix

    return matrix(rows, mode, n, m)


# random_expression's deepest max_depth, well under the recursion limit;
# expressions already reach thousands of atoms at this depth
MAX_EXPRESSION_DEPTH = 64
# the most wires random_expression passes from one part of a sequential
# composite to the next
MAX_SEQ_WIDTH = 6


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

    def atom_row(width: int) -> tuple[Expression, int]:
        # a tensor of atoms consuming exactly `width` wires, and its output
        # width, read off the arity table as arity_of reads it
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
            return Id(0), 0
        e = parts[0]
        for p in parts[1:]:
            e = Ten(e, p)
        return e, sum(_atom_arity(p)[1] for p in parts)

    def gen(width: int, depth: int) -> tuple[Expression, int]:
        # an expression with `width` inputs, and its output width
        if depth <= 0:
            return atom_row(width)
        roll = rng.random()
        if roll < 0.5:
            e1, mid = gen(width, depth - 1)
            if mid > MAX_SEQ_WIDTH:
                return e1, mid
            e2, out = gen(mid, depth - 1)
            return Seq(e1, e2), out
        if roll < 0.8 and width >= 1:
            a = rng.randint(0, width)
            (e1, out1), (e2, out2) = gen(a, depth - 1), gen(width - a, depth - 1)
            return Ten(e1, e2), out1 + out2
        return atom_row(width)

    return gen(rng.randint(0, 4), max_depth)[0]
