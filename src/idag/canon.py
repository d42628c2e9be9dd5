"""Canonical labelling, behind is_isomorphic and canonical_form: core passes
an idag's node keys and weighted adjacency to canonical_order, importing
this module only when a canonical form is asked for. Worklist refinement
(_refine) splits the cells of equal key until the partition is equitable,
and one _Search breaks the ties that remain.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import SearchBudgetExceeded
from .record import Record

_Adjacency = list[list[tuple[int, int]]]


def _dense_ranks(structured: Sequence) -> list[int]:
    """Ranks of the values in sorted order: equal values share a rank."""
    rank = {c: k for k, c in enumerate(sorted(set(structured)))}
    return [rank[c] for c in structured]


class _Cells(Record):
    """An ordered partition of the nodes 0..n-1: order lists the nodes cell
    by cell and where[i] is node i's position in it; a node's color is the
    position at which its cell starts, size[p] is the size of the cell that
    starts at p (0 where none starts) and count is the number of cells."""

    __slots__ = ("colors", "order", "where", "size", "count")

    @classmethod
    def of(cls, keys: Sequence) -> _Cells:
        """The nodes with equal keys as cells, in key order."""
        n = len(keys)
        order = sorted(range(n), key=keys.__getitem__)
        colors, where, size = [0] * n, [0] * n, [0] * n
        start = 0
        for k, i in enumerate(order):
            if keys[i] != keys[order[start]]:
                start = k
            colors[i], where[i] = start, k
            size[start] += 1
        return cls(colors, order, where, size, n - size.count(0))

    def copy(self) -> _Cells:
        return _Cells(self.colors[:], self.order[:], self.where[:], self.size[:], self.count)

    def starts(self) -> list[int]:
        """The positions at which cells start, in order."""
        size, n = self.size, len(self.order)
        starts, p = [], 0
        while p < n:
            starts.append(p)
            p += size[p]
        return starts

    def individualize(self, v: int) -> None:
        """Make v a cell of its own at its cell's start; the rest of the
        cell starts one position later."""
        colors, order, where, size = self.colors, self.order, self.where, self.size
        p, q = colors[v], where[v]
        order[q], where[order[p]] = order[p], q
        order[p], where[v] = v, p
        for i in order[p + 1 : p + size[p]]:
            colors[i] = p + 1
        size[p + 1], size[p] = size[p] - 1, 1
        self.count += 1


def _refine(
    cells: _Cells,
    queue: list[int],
    preds: _Adjacency,
    succs: _Adjacency,
    trace: list,
    bound: Optional[list] = None,
) -> int:
    """Split cells until the partition is equitable (one-dimensional
    Weisfeiler-Leman by Hopcroft's worklist; Paige & Tarjan 1987).

    queue holds the starts of the cells to split against, and the partition
    must be equitable with respect to every other cell. A splitter splits
    each cell it touches in place into pieces of equal key, the sorted
    (direction, weight) pairs of a member's edges into the splitter; pieces
    follow key order, so untouched members keep the cell's start. Every
    piece of a queued cell is queued, and of any other cell every piece but
    the first largest: edges into it are those into the whole cell less
    those into the other pieces. Splitters leave the queue in the order
    they entered it and the cells a splitter touches split in position
    order, so the colors do not depend on node numbering. Refinement stops
    when the queue is empty or every cell is a singleton.

    Each split appends (splitter, cell, piece sizes) to trace. Returns 1,
    leaving the partition half refined, at the first entry that exceeds
    bound's entry at the same index; otherwise -1 if an entry fell below
    bound's (or bound is None) and 0 if trace stayed a prefix of bound.
    """
    colors, order, where, size = cells.colors, cells.order, cells.where, cells.size
    n = len(colors)
    queued = set(queue)
    sign = -1 if bound is None else 0
    head = 0
    while head < len(queue) and cells.count < n:
        s = queue[head]
        head += 1
        queued.discard(s)
        edges: dict[int, list[tuple[int, int]]] = {}
        for x in order[s : s + size[s]]:
            for j, w in preds[x]:
                if size[colors[j]] > 1:
                    edges.setdefault(j, []).append((1, w))
            for j, w in succs[x]:
                if size[colors[j]] > 1:
                    edges.setdefault(j, []).append((0, w))
        touched: dict[int, list[int]] = {}
        for j in edges:
            touched.setdefault(colors[j], []).append(j)
        for p in sorted(touched):
            members = touched[p]
            key = {j: tuple(sorted(edges[j])) for j in members}
            end = p + size[p]
            if len(members) == size[p] and len(set(key.values())) == 1:
                continue
            # swap the touched members to the end of the cell, then sort them
            for dest, j in enumerate(members, end - len(members)):
                here, other = where[j], order[dest]
                order[here], where[other] = other, here
                order[dest], where[j] = j, dest
            members.sort(key=key.__getitem__)
            tail = end - len(members)
            order[tail:end] = members
            pieces = [p] if tail > p else []
            for k, j in enumerate(members, tail):
                where[j] = k
                if k == tail or key[j] != key[members[k - tail - 1]]:
                    pieces.append(k)
                colors[j] = pieces[-1]
            for a, b in zip(pieces, pieces[1:] + [end]):
                size[a] = b - a
            cells.count += len(pieces) - 1
            entry = (s, p, tuple(size[a] for a in pieces))
            if sign == 0:
                k = len(trace)
                if k == len(bound) or entry > bound[k]:  # type: ignore[arg-type]
                    return 1
                if entry < bound[k]:  # type: ignore[index]
                    sign = -1
            trace.append(entry)
            if p in queued:
                fresh = pieces[1:]
            else:
                largest = max(pieces, key=size.__getitem__)
                fresh = [a for a in pieces if a != largest]
            queue.extend(fresh)
            queued.update(fresh)
    return sign


def _equitable(keys: Sequence, preds: _Adjacency, succs: _Adjacency) -> _Cells:
    """The coarsest equitable partition whose cells hold nodes of equal key.
    The worklist starts from the cells, in order, that hold a tied node or a
    neighbour of one: any other cell is a singleton with singleton
    neighbours, so as a splitter it would touch no cell."""
    cells = _Cells.of(keys)
    if cells.count < len(keys):
        colors, size = cells.colors, cells.size
        starts = set()
        for i, p in enumerate(colors):
            if size[p] > 1:
                starts.add(p)
                for j, _ in preds[i] + succs[i]:
                    starts.add(colors[j])
        _refine(cells, sorted(starts), preds, succs, [])
    return cells


def _split_twins(cells: _Cells, twin: list[int]) -> None:
    """Split every cell made of one twin class into singletons, in node order.
    Twins have the same label, neighbours, weights and interface edges, so
    any order of them gives the same key, and the partition stays
    equitable."""
    colors, order, where, size = cells.colors, cells.order, cells.where, cells.size
    for p in cells.starts():
        k = size[p]
        if k > 1 and len({twin[i] for i in order[p : p + k]}) == 1:
            members = sorted(order[p : p + k])
            order[p : p + k] = members
            for q, i in enumerate(members, p):
                colors[i] = where[i] = q
                size[q] = 1
            cells.count += k - 1


def canonical_order(keys: Sequence, preds: _Adjacency, succs: _Adjacency, budget: int) -> list[int]:
    """An order of the nodes 0..n-1, given each node's initial key and its
    weighted predecessors and successors, that lists corresponding nodes of
    isomorphic dags at the same positions: by the cells of the coarsest
    equitable partition of the keys, then as a _Search of at most budget
    tree nodes orders the tied ones (SearchBudgetExceeded beyond)."""
    cells = _equitable(keys, preds, succs)
    if cells.count == len(keys):
        return cells.order
    return _Search(cells, preds, succs, budget).order()


class _Search:
    """The search that orders the nodes an equitable partition leaves tied,
    by individualization-refinement (McKay & Piperno, Practical graph
    isomorphism II, 2014, sections 3-4). It holds the adjacency, the twin
    classes and the tree nodes used, which the budget bounds.

    Cells of twins are split in node order. What is still tied falls apart
    into connected parts; nodes outside them are fixed, and every member of
    a cell has the same edges to fixed nodes and to the interface, so each
    part is labelled on its own and equal parts, which can be swapped, are
    ordered by their codes.

    In a part, each tree node individualizes one member v of its first
    largest cell (as Traces does) and refines from v's cell alone. Leaves
    are discrete partitions, and the canonical one has the least (trace,
    sorted edge list), the trace being that of every refinement on its
    path; a child is abandoned at the first split at which its trace
    exceeds the best leaf's. Two leaves with equal edge lists give an
    automorphism: its orbits prune the children of tree nodes on the first
    path, and a leaf equal to the first leaf abandons its branch back to
    the deepest tree node on the first path. Children twin to a tried child
    are skipped everywhere.
    """

    def __init__(self, cells: _Cells, preds: _Adjacency, succs: _Adjacency, budget: int) -> None:
        colors = cells.colors
        self.cells, self.preds, self.succs = cells, preds, succs
        self.budget, self.tree_nodes = budget, 0
        self.twin = _dense_ranks(
            [(colors[i], tuple(sorted(preds[i])), tuple(sorted(succs[i]))) for i in range(len(colors))]
        )
        _split_twins(cells, self.twin)

    def order(self) -> list[int]:
        """The canonical node order: by cell, and within tied cells by part
        code and by the order each part's search found."""
        colors, size = self.cells.colors, self.cells.size
        n = len(colors)
        tied = {i for i in range(n) if size[colors[i]] > 1}
        if not tied:  # twins were all that tied
            return self.cells.order
        parts: list[tuple[tuple, list[int]]] = []
        for start in sorted(tied):
            if start in tied:  # not yet in a part
                tied.discard(start)
                members = [start]
                for i in members:
                    for j, _ in self.preds[i] + self.succs[i]:
                        if j in tied:
                            tied.discard(j)
                            members.append(j)
                parts.append(self._label(members))
        parts.sort(key=lambda part: part[0])
        rank = {i: k for k, i in enumerate(i for _, order in parts for i in order)}
        return sorted(range(n), key=lambda i: (colors[i], rank.get(i, 0)))

    def _count(self) -> None:
        """Count one tree node against the budget."""
        self.tree_nodes += 1
        if self.tree_nodes > self.budget:
            tied = sorted((k for k in self.cells.size if k > 1), reverse=True)
            raise SearchBudgetExceeded(
                f"canonical search exceeded its budget of {self.budget} tree nodes "
                f"(N = {len(self.cells.size)} nodes; cells tied after refinement: {tied})"
            )

    def _label(self, members: list[int]) -> tuple[tuple, list[int]]:
        """The code of the connected tied part members, its colors and least
        edge list, and the members in the order that gives it."""
        local = {i: k for k, i in enumerate(members)}
        preds = [[(local[j], w) for j, w in self.preds[i] if j in local] for i in members]
        succs = [[(local[j], w) for j, w in self.succs[i] if j in local] for i in members]
        twin = [self.twin[i] for i in members]
        colors = [self.cells.colors[i] for i in members]
        n = len(members)
        first_twin: dict[int, int] = {}  # twin swaps are automorphisms
        orbit = [first_twin.setdefault(t, i) for i, t in enumerate(twin)]

        def find(x: int) -> int:
            while orbit[x] != x:
                orbit[x] = orbit[orbit[x]]
                x = orbit[x]
            return x

        def edge_list(cs: list[int]) -> tuple:
            return tuple(sorted([(cs[i], cs[j], w) for i in range(n) for j, w in succs[i]]))

        self._count()
        cells = _Cells.of(colors)
        # leaves are (trace, edge list, partition), frames (partition,
        # trace, on the first path, children tried)
        first = best = None if cells.count < n else ([], edge_list(cells.colors), cells)
        frames = [(cells, [], True, [])] if best is None else []
        # whether the top frame's trace is below the best leaf's, so that its
        # children need no bound: such a frame goes straight down to a leaf
        below = True
        while frames:
            cells, trace, on_first_path, tried = frames[-1]
            p = max(cells.starts(), key=cells.size.__getitem__)
            twins = {twin[u] for u in tried}
            orbits = {find(u) for u in tried} if on_first_path else set()
            cell = sorted(cells.order[p : p + cells.size[p]])
            v = next((v for v in cell if twin[v] not in twins and find(v) not in orbits), None)
            if v is None:
                frames.pop()
                continue
            tried.append(v)
            self._count()
            child = cells.copy()
            child.individualize(v)
            trace = trace[:]
            sign = _refine(child, [child.colors[v]], preds, succs, trace, None if below else best[0])
            if sign > 0:
                continue
            _split_twins(child, twin)
            if child.count < n:
                below = sign < 0
                frames.append((child, trace, first is None, []))
                continue
            below = False
            code = edge_list(child.colors)
            like_first = first is not None and code == first[1]
            if like_first or best is not None and (trace, code) == best[:2]:
                # node i of the earlier leaf and the node at its position in
                # child play the same part
                for i, c in enumerate((first if like_first else best)[2].colors):
                    orbit[find(i)] = find(child.order[c])
                while like_first and not frames[-1][2]:
                    frames.pop()
            elif best is None or (trace, code) < best[:2]:
                best = (trace, code, child)
                if first is None:
                    first = best
        order = best[2].order
        return (tuple(colors[k] for k in order), best[1]), [members[k] for k in order]
