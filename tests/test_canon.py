"""Whole-space and hard-family checks of canonical forms.

Every upper-triangular dag on n nodes, one label and no interface, is one
of the 2^(n(n-1)/2) edge sets on nodes 0..n-1 with edges i -> j for i < j.
Their canonical forms must take exactly A003087(n) values, the number of
unlabelled dags on n nodes (Robinson, "Counting unlabeled acyclic
digraphs", LNM 622, 1977): too few merges two classes, too many splits one.
n = 6 (5,984 classes, about 11 s) is marked slow and runs as its own CI step.
With edge weights 1 and 2 the classes are counted against the least edge
list over all relabellings instead.

Every BOOL idag on at most 3 nodes with at most one input and one output
(1,260 of them, upper-triangular as above) is its own free image: its
decomposition along each of its 3,186 topological sortings, and the
printed and parsed text of one, evaluate back to its canonical form.

CFI dags (Cai, Furer & Immerman, Combinatorica 12(4), 1992) are a standard
hard family for canonical labelling. Tree nodes used is the least budget
canonical_form accepts; the search must not use more than the values
recorded here.
"""

import itertools
import random

import pytest

from idag.algebra import make_idag
from idag.core import In, NodeRef, Out, canonical_form, sorted_edges
from idag.decomposition import decompose, topological_sortings
from idag.models import FreeIdagModel, evaluate
from idag.printer import print_expression
from idag.selftest import _scramble
from idag.terms import parse
from idag.weights import BOOL, NAT
from test_core import _crown, _projective_plane

A003087 = [1, 1, 2, 6, 31, 302, 5984]


def _dag_space(n, weights=(1,), mode=BOOL):
    """Every upper-triangular dag on nodes "0".."n-1" whose edge weights are
    drawn from weights."""
    ids = [str(k) for k in range(n)]
    pairs = [(NodeRef(ids[i]), NodeRef(ids[j])) for i, j in itertools.combinations(range(n), 2)]
    for ws in itertools.product((0, *weights), repeat=len(pairs)):
        yield make_idag(0, 0, ids, {e: w for e, w in zip(pairs, ws) if w}, mode)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_canonical_forms_count_the_unlabelled_dags(n):
    rng = random.Random(n)
    forms = set()
    for d in _dag_space(n):
        c = canonical_form(d)
        assert canonical_form(_scramble(rng, d, "s")) == c
        forms.add(tuple(sorted_edges(c)))
    assert len(forms) == A003087[n]


def test_weighted_canonical_forms_match_the_least_relabelling():
    # edge weights 1 and 2 on n <= 4 nodes: two dags share a canonical form
    # iff they share the least sorted edge list over all relabellings
    for n in range(5):
        rng = random.Random(n)
        pairs = set()
        for d in _dag_space(n, (1, 2), NAT):
            c = canonical_form(d)
            assert canonical_form(_scramble(rng, d, "s")) == c
            edges = sorted_edges(d)
            least = min(sorted((p[s], p[t], w) for s, t, w in edges) for p in itertools.permutations(range(n)))
            pairs.add((tuple(sorted_edges(c)), tuple(least)))
        assert len(pairs) == len({form for form, _ in pairs}) == len({least for _, least in pairs})


def _interfaced_space():
    """Every BOOL idag on nodes "0".."n-1", n <= 3, with one label, at most
    one input and one output, and edges i -> j between nodes only for i < j."""
    for n, n_in, n_out in itertools.product(range(4), (0, 1), (0, 1)):
        ids = [str(k) for k in range(n)]
        sources = [In(i) for i in range(n_in)] + [NodeRef(i) for i in ids]
        targets = [NodeRef(i) for i in ids] + [Out(j) for j in range(n_out)]
        pairs = [
            (s, t)
            for s in sources
            for t in targets
            if not (isinstance(s, NodeRef) and isinstance(t, NodeRef) and s.id >= t.id)
        ]
        for bits in itertools.product((False, True), repeat=len(pairs)):
            yield make_idag(n_in, n_out, ids, [p for p, b in zip(pairs, bits) if b])


def test_every_decomposition_of_a_small_idag_evaluates_back_to_it():
    free = FreeIdagModel(BOOL)
    dags = decompositions = 0
    for d in _interfaced_space():
        c = canonical_form(d)
        sortings = list(topological_sortings(d))
        for sorting in sortings:
            assert canonical_form(evaluate(decompose(d, sorting), free)) == c
        text = print_expression(decompose(d, sortings[0]))
        assert canonical_form(evaluate(parse(text), free)) == c
        dags += 1
        decompositions += len(sortings)
    assert (dags, decompositions) == (1260, 3186)


def _cubic_graph(rng, nv):
    """A connected simple 3-regular graph on nv (even) vertices as an edge
    list, from the configuration model with rejection."""
    while True:
        stubs = [v for v in range(nv) for _ in range(3)]
        rng.shuffle(stubs)
        edges = [tuple(sorted(stubs[k : k + 2])) for k in range(0, len(stubs), 2)]
        if any(a == b for a, b in edges) or len(set(edges)) < len(edges):
            continue
        reached = {0}
        for _ in range(nv):
            reached |= {b for a, b in edges if a in reached} | {a for a, b in edges if b in reached}
        if len(reached) == nv:
            return edges


def _cfi(nv, seed, twisted):
    """The CFI dag over a random cubic graph on nv vertices, N = 13 nv nodes
    of one label. Vertex v's gadget has a middle node per even subset S of
    its three edges, feeding end node a(v, e, 1) for e in S and a(v, e, 0)
    otherwise; a(u, e, i) and a(v, e, i) both feed edge node x(e, i). The
    twisted dag crosses the pair of the first edge, which makes it
    non-isomorphic to the untwisted one."""
    graph = _cubic_graph(random.Random(seed), nv)
    nodes, edges = [], []
    for v in range(nv):
        incident = [e for e, ends in enumerate(graph) if v in ends]
        nodes += [f"a{v}_{e}_{i}" for e in incident for i in (0, 1)]
        for bits in itertools.product((0, 1), repeat=3):
            if sum(bits) % 2 == 0:
                middle = f"m{v}_{''.join(map(str, bits))}"
                nodes.append(middle)
                edges += [(middle, f"a{v}_{e}_{i}") for e, i in zip(incident, bits)]
    for e, (u, v) in enumerate(graph):
        for i in (0, 1):
            nodes.append(f"x{e}_{i}")
            edges += [(f"a{u}_{e}_{i}", f"x{e}_{i}"), (f"a{v}_{e}_{1 - i if twisted and e == 0 else i}", f"x{e}_{i}")]
    return make_idag(0, 0, nodes, [(NodeRef(s), NodeRef(t)) for s, t in edges])


# the search tree nodes each dag used when these values were recorded, an
# upper bound (CFI: the same for the twisted and the untwisted dag)
CFI_TREE_NODES = {6: 89, 8: 348, 10: 237}
TREE_NODES = {
    **{f"crown{k}": (lambda k=k: _crown(k), nodes) for k, nodes in ((4, 10), (6, 21), (8, 36))},
    **{f"pg2_{q}": (lambda q=q: _projective_plane(q), nodes) for q, nodes in ((3, 21), (5, 21), (7, 23))},
}


@pytest.mark.parametrize("nv", sorted(CFI_TREE_NODES))
def test_cfi_pairs_stay_apart_and_shuffle_invariant(nv):
    rng = random.Random(nv)
    forms = []
    for twisted in (False, True):
        d = _cfi(nv, nv, twisted)
        assert len(d.nodes) == 13 * nv
        c = canonical_form(d, budget=CFI_TREE_NODES[nv])
        assert canonical_form(_scramble(rng, d, "s")) == c
        forms.append(c)
    assert forms[0] != forms[1]


@pytest.mark.parametrize("case", sorted(TREE_NODES))
def test_search_uses_no_more_tree_nodes(case):
    build, nodes = TREE_NODES[case]
    d = build()
    assert canonical_form(d, budget=nodes) == canonical_form(d)
