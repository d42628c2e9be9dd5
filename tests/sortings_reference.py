"""Reference code: counting and sampling topological sortings on bit masks.

Each node's predecessors were an N-bit mask, and the counter memoised every
down-set of remaining nodes it met as an N-bit int, scanning its set bits
for the nodes with no remaining predecessor. test_decomposition.py plays
the library's placement engine, decomposition._Placement, against this:
counts, seeded samples and the random state after them must agree.
"""

from __future__ import annotations

import random

from idag.errors import SearchBudgetExceeded
from idag.sortings import MAX_DOWN_SETS


def _order_index(d):
    """d's node ids in sorted order, and the successors of each as positions
    in that order."""
    ids = sorted(d.node_ids)
    pos = d._position()
    rank = [0] * len(ids)  # node position -> place in ids
    for k, nid in enumerate(ids):
        rank[pos[nid]] = k
    succ = [[] for _ in ids]
    for p, wire in enumerate(d.wires[: len(ids)]):
        for s in wire:
            if s >= d.n_in:
                succ[rank[s - d.n_in]].append(rank[p])
    return ids, succ


def _extension_counter(succ):
    """The predecessor mask of each node, and a memoised count of the
    sortings of any down-closed set of remaining nodes, given as a mask."""
    below = [0] * len(succ)
    for k, after in enumerate(succ):
        for t in after:
            below[t] |= 1 << k
    memo = {0: 1}

    def count(remaining):
        stack = [remaining]
        while stack:
            if len(memo) + len(stack) > MAX_DOWN_SETS:
                raise SearchBudgetExceeded(
                    f"counting the topological sortings of {len(below)} nodes "
                    f"needs more than {MAX_DOWN_SETS} down-sets"
                )
            rem = stack[-1]
            if rem in memo:
                stack.pop()
                continue
            rests = []
            left = rem
            while left:
                low = left & -left
                if not below[low.bit_length() - 1] & rem:
                    rests.append(rem ^ low)
                left ^= low
            todo = [r for r in rests if r not in memo]
            if todo:
                stack.extend(todo)
            else:
                memo[rem] = sum(memo[r] for r in rests)
                stack.pop()
        return memo[remaining]

    return below, count


def count_topological_sortings(d) -> int:
    below, count = _extension_counter(_order_index(d)[1])
    return count((1 << len(below)) - 1)


def sample_topological_sorting(d, rng: random.Random) -> tuple[str, ...]:
    """One sorting drawn uniformly: per position, one draw below the count
    of the remaining nodes, spent on the ready nodes in id order."""
    ids, succ = _order_index(d)
    below, count = _extension_counter(succ)
    order = []
    remaining = (1 << len(ids)) - 1
    while remaining:
        r = rng.randrange(count(remaining))
        for k, nid in enumerate(ids):
            if not (remaining >> k) & 1 or below[k] & remaining:
                continue
            c = count(remaining ^ (1 << k))
            if r < c:
                order.append(nid)
                remaining ^= 1 << k
                break
            r -= c
    return tuple(order)
