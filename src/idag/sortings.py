"""Counting and uniform sampling of the topological sortings of an idag.

Both run on decomposition's placement state (_Placement), extended by
_Counter with a memo of counts keyed by the sorted ready list, which names
the set of unplaced nodes, so a chain's states hold one node each. Counting
and sampling are exact, and raise SearchBudgetExceeded beyond MAX_DOWN_SETS
states.
"""

from __future__ import annotations

import random
from itertools import accumulate, combinations

from .core import Idag
from .decomposition import TopSort, _Placement
from .errors import SearchBudgetExceeded, _check_type


# counting linear extensions is #P-complete, and the exact counter memoises
# every state (set of unplaced nodes) it meets; this caps them, so a wide
# idag raises instead of running for hours or exhausting memory
MAX_DOWN_SETS = 10**5


class _Counter(_Placement):
    """A placement state that counts the ways to finish it. The ready list
    names the set of unplaced nodes, so memo maps each ready list met to its
    count."""

    __slots__ = ("memo",)

    def __init__(self, d: Idag) -> None:
        super().__init__(d)
        self.memo = {(): 1}

    def children(self, key: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The ready list after placing each node of key, the ready list now."""
        succ, waiting = self.succ, self.waiting
        kids = list(combinations(key, len(key) - 1))[::-1]  # key less its i-th node, at i
        for i in [i for i, k in enumerate(key) if succ[k]]:
            freed = [t for t in succ[key[i]] if waiting[t] == 1]
            if freed:
                kids[i] = tuple(sorted(kids[i] + tuple(freed)))
        return kids

    def count(self) -> int:
        """The number of ways to finish the sorting from here, with every
        state reachable from here memoised. The stack holds states to count:
        ready list, parent's placed length (None once entered), node placed
        to enter, parent's entry and sum of its counted children. Raises
        SearchBudgetExceeded once memo and stack exceed MAX_DOWN_SETS."""
        memo, order = self.memo, self.order
        root, start = tuple(self.ready), len(order)
        stack = [[root, start, None, None, 0]]
        while stack:
            if len(memo) + len(stack) > MAX_DOWN_SETS:
                raise SearchBudgetExceeded(
                    f"counting the topological sortings of {len(self.ids)} nodes "
                    f"needs more than {MAX_DOWN_SETS} down-sets"
                )
            key, at, k, parent, total = entry = stack[-1]
            if at is None:  # entered, and its missing children are counted
                c = memo[key] = total
            elif (c := memo.get(key)) is None:  # enter it: place k on its parent
                while len(order) > at:
                    self.unplace()
                if k is not None:
                    self.place(k)
                kids = self.children(key)
                got = list(map(memo.get, kids))  # a count is positive: None if missing
                at = len(order)
                entry[1], entry[4] = None, sum(filter(None, got))
                stack += [[c, at, key[i], entry, 0] for i, c in enumerate(kids) if got[i] is None]
                continue
            del stack[-1]
            if parent:
                parent[4] += c
        while len(order) > start:
            self.unplace()
        return memo[root]


def count_topological_sortings(d: Idag) -> int:
    """The number of topological sortings of d, counted exactly.

    Raises SearchBudgetExceeded when d has more than MAX_DOWN_SETS down-sets
    (counting linear extensions is #P-complete)."""
    return _Counter(d).count()


def sample_topological_sorting(d: Idag, rng: random.Random) -> TopSort:
    """One topological sorting drawn uniformly: at each position, one draw r
    below the number of ways to finish, and the first ready node in id order
    at which the running sum of ways to finish exceeds r. Raises
    SearchBudgetExceeded where counting does, and WrongArgumentType unless
    rng is a random.Random."""
    state = _Counter(d)
    _check_type(rng, random.Random)
    while state.ready:
        r = rng.randrange(state.count())
        key = tuple(state.ready)
        ends = accumulate(map(state.memo.__getitem__, state.children(key)))
        state.place(next(k for k, end in zip(key, ends) if r < end))
    return state.sorting()
