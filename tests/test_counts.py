"""Closed-form counts over whole families: topological sortings of posets
whose linear extensions have a formula, and path sums of grid dags.

- an antichain of n nodes has n! sortings, disjoint chains a multinomial;
- the 2 x n grid has the n-th Catalan number;
- the poset of a Young diagram has the hook-length number (Frame, Robinson
  & Thrall, Canad. J. Math. 6, 1954) of standard Young tableaux;
- the lattice from (0, 0) to (a, b) has C(a + b, a) monotone paths, which
  the matrix model sums exactly, also past 2^63.
"""

import math

import pytest

from idag.algebra import make_idag
from idag.core import In, NodeRef, Out
from idag.decomposition import decompose, default_sorting
from idag.layers import interpret
from idag.matrices import MatrixModel
from idag.models import evaluate
from idag.sortings import count_topological_sortings
from idag.weights import NAT


def _poset(cells, covers):
    """The idag with a node per cell and an edge per covering pair."""
    return make_idag(0, 0, [str(c) for c in cells], [(NodeRef(str(a)), NodeRef(str(b))) for a, b in covers])


def _chains(lengths):
    cells = [(k, i) for k, n in enumerate(lengths) for i in range(n)]
    return _poset(cells, [((k, i - 1), (k, i)) for k, i in cells if i])


def _young(shape):
    """The cells of a Young diagram, each below its right and lower
    neighbours."""
    cells = [(r, c) for r, n in enumerate(shape) for c in range(n)]
    covers = [((r, c), (r, c + 1)) for r, c in cells if c + 1 < shape[r]]
    covers += [((r, c), (r + 1, c)) for r, c in cells if r + 1 < len(shape) and c < shape[r + 1]]
    return _poset(cells, covers)


def _hook_length(shape):
    hooks = 1
    for r, n in enumerate(shape):
        for c in range(n):
            hooks *= n - c + sum(1 for below in shape[r + 1 :] if below > c)
    return math.factorial(sum(shape)) // hooks


@pytest.mark.parametrize("n", range(9))
def test_antichains_have_n_factorial_sortings(n):
    assert count_topological_sortings(_chains([1] * n)) == math.factorial(n)


@pytest.mark.parametrize("lengths", [(1, 1), (2, 3), (3, 3, 2), (4, 1, 1, 2), (6, 5)])
def test_disjoint_chains_have_multinomial_sortings(lengths):
    multinomial = math.factorial(sum(lengths))
    for n in lengths:
        multinomial //= math.factorial(n)
    assert count_topological_sortings(_chains(lengths)) == multinomial


@pytest.mark.parametrize("n", range(1, 9))
def test_two_row_grids_have_catalan_sortings(n):
    assert count_topological_sortings(_young((n, n))) == math.comb(2 * n, n) // (n + 1)


def test_young_diagrams_have_hook_length_sortings():
    assert count_topological_sortings(_young((7, 7))) == 429  # the 2 x 7 grid
    for shape, expected in (((4, 4, 4), 462), ((5, 5, 5, 5, 5), 701_149_020), ((3, 2, 1), 16), ((4, 2, 2, 1), 216)):
        assert _hook_length(shape) == expected
        assert count_topological_sortings(_young(shape)) == expected


def _grid(a, b):
    """The lattice from (0, 0) to (a, b), steps right and down, between one
    input and one output."""
    nodes = [f"{r}_{c}" for r in range(a + 1) for c in range(b + 1)]
    edges = [(In(0), NodeRef("0_0")), (NodeRef(f"{a}_{b}"), Out(0))]
    edges += [(NodeRef(f"{r}_{c}"), NodeRef(f"{r}_{c + 1}")) for r in range(a + 1) for c in range(b)]
    edges += [(NodeRef(f"{r}_{c}"), NodeRef(f"{r + 1}_{c}")) for r in range(a) for c in range(b + 1)]
    return make_idag(1, 1, nodes, edges, NAT)


# 34 x 34 has C(68, 34) = 28,453,041,475,240,576,740 paths, past 2^63
@pytest.mark.parametrize("a, b", [(0, 0), (1, 1), (2, 3), (5, 5), (10, 4), (34, 34)])
def test_grid_path_sums_are_binomials(a, b):
    d = _grid(a, b)
    sort = default_sorting(d)
    model = MatrixModel(NAT)
    for value in (interpret(d, sort, model), evaluate(decompose(d, sort), model)):
        assert value.entries == ((math.comb(a + b, a),),)
