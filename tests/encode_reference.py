"""Reference code: encoding a weight matrix from its rows.

encode_relation once worked on the matrix itself: row sizes and column
counts from its rows, the copies listed source-major with their targets'
target-major slots, and each row of gadgets assembled by ten_all.
test_decomposition.py plays decompose, whose slices the library encodes
straight from wires, against this applied to every slice matrix: the two
expressions must agree term for term.
"""

from __future__ import annotations

from itertools import accumulate

from idag.builders import seq_all, ten_all
from idag.decomposition import _fan_in, _fan_out, _scale, permutation_expression
from idag.matrices import MatrixMorphism
from idag.terms import Expression, Id


def encode_relation(mat: MatrixMorphism) -> Expression:
    """Each input fans out to one copy per nonzero entry of its row
    (source-major: target index ascending), each copy is scaled by its
    entry, a routing permutation rearranges the copies to target-major
    order, and merges fan in per output. An identity matrix encodes as
    id(n)."""
    n, m = mat.n_in, mat.n_out
    rows = [{j: x for j, x in enumerate(row) if x} for row in mat.entries]
    r = [len(row) for row in rows]
    c = [0] * m
    for row in rows:
        for j in row:
            c[j] += 1
    next_slot = list(accumulate(c, initial=0))
    perm: list[int] = []
    weights: list[int] = []
    for row in rows:
        for j in sorted(row):
            weights.append(row[j])
            perm.append(next_slot[j])
            next_slot[j] += 1

    parts: list[Expression] = []
    if n > 0 and any(x != 1 for x in r):
        parts.append(ten_all([_fan_out(x) for x in r]))
    if any(w != 1 for w in weights):
        parts.append(ten_all([_scale(w) for w in weights]))
    if perm != list(range(len(perm))):
        parts.append(permutation_expression(perm))
    if m > 0 and any(x != 1 for x in c):
        parts.append(ten_all([_fan_in(x) for x in c]))
    if not parts:
        return Id(n)
    return seq_all(parts)
