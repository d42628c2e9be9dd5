import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import refine_reference
from idag.algebra import concat, from_permutation, identity, is_forest, juxt, make_idag, symmetry
from idag.builders import ten_all
from idag.canon import _Cells, _dense_ranks, _equitable, _refine
from idag.core import (
    In,
    NodeRef,
    Out,
    _adjacency,
    _invariant,
    canonical_form,
    is_isomorphic,
    prune_dangling,
    transitive_closure,
)
from idag.errors import (
    BadEndpoint,
    CycleDetected,
    DuplicateNodeId,
    InterfaceMismatch,
    ModeMismatch,
    NotBijective,
    SearchBudgetExceeded,
    TypeMismatch,
    ZeroWeight,
)
from idag.models import FreeIdagModel, evaluate
from idag.randgen import random_expression, random_idag
from idag.selftest import _brute_force_iso, _scramble
from idag.terms import Eps, Eta, Node, Seq, arity_of
from idag.weights import BOOL, INT, NAT


# ---------------------------------------------------------------------------
# construction and validation


def test_empty_idag():
    d = make_idag(0, 0, [], {})
    assert d.n_in == 0 and d.n_out == 0 and not d.nodes and not d.edges


def test_default_label():
    d = make_idag(0, 0, ["p"], {})
    assert d.label_of("p") == "•"


def test_duplicate_node_id():
    with pytest.raises(DuplicateNodeId):
        make_idag(0, 0, ["p", "p"], {})


def test_two_cycle_rejected():
    with pytest.raises(CycleDetected):
        make_idag(0, 0, ["p", "q"], [(NodeRef("p"), NodeRef("q")), (NodeRef("q"), NodeRef("p"))])


def test_self_loop_rejected():
    with pytest.raises(CycleDetected):
        make_idag(0, 0, ["p"], [(NodeRef("p"), NodeRef("p"))])


def test_bad_endpoints():
    with pytest.raises(BadEndpoint):
        make_idag(1, 1, [], [(In(1), Out(0))])
    with pytest.raises(BadEndpoint):
        make_idag(1, 1, [], [(In(0), Out(1))])
    with pytest.raises(BadEndpoint):
        make_idag(1, 1, [], [(Out(0), In(0))])
    with pytest.raises(BadEndpoint):
        make_idag(1, 1, [], [(In(0), NodeRef("ghost"))])
    with pytest.raises(BadEndpoint):
        make_idag(-1, 0, [], {})
    # a node id that is not a str is unknown, even an unhashable one
    for nid in ([], 3):
        with pytest.raises(BadEndpoint, match="^unknown source node "):
            make_idag(1, 1, ["a"], [(NodeRef(nid), Out(0))])
        with pytest.raises(BadEndpoint, match="^unknown target node "):
            make_idag(1, 1, ["a"], [(In(0), NodeRef(nid))])


@pytest.mark.parametrize(
    "edge",
    [(In(0.0), NodeRef("a")), (In(True), NodeRef("a")), (NodeRef("a"), Out(True)), (NodeRef("a"), Out(1.0))],
    ids=["In(0.0)", "In(True)", "Out(True)", "Out(1.0)"],
)
def test_vertex_indices_must_be_ints(edge):
    # a float index used to be stored as a source JSON could not read back,
    # a bool read as 1, and a float output ended in a bare TypeError
    with pytest.raises(BadEndpoint, match="index .* is not an int$"):
        make_idag(2, 2, ["a"], [edge])


def test_weight_of_an_index_that_is_not_an_int_is_zero():
    d = make_idag(2, 2, [], [(In(1), Out(1))])
    assert d.weight(In(1), Out(1)) == 1
    for src, dst in ((In(True), Out(1)), (In(1), Out(True)), (In(1.0), Out(1)), (In("a"), Out(1)), (In(1), Out(None))):
        assert d.weight(src, dst) == 0


def test_zero_weight_rejected():
    with pytest.raises(ZeroWeight):
        make_idag(1, 1, [], {(In(0), Out(0)): 0})


def test_weight_lookup(dag23):
    assert dag23.weight(In(0), Out(1)) == 1
    assert dag23.weight(In(1), Out(0)) == 0


# ---------------------------------------------------------------------------
# wirings


def test_identity_shapes():
    assert identity(0).n_in == 0 and not identity(0).edges
    d = identity(3)
    assert dict(d.edges) == {(In(i), Out(i)): 1 for i in range(3)}


def test_from_permutation():
    assert from_permutation([0, 1]) == identity(2)
    swap = from_permutation([1, 0])
    assert dict(swap.edges) == {(In(0), Out(1)): 1, (In(1), Out(0)): 1}
    with pytest.raises(NotBijective):
        from_permutation([0, 0])


def test_permutation_functoriality():
    p = [2, 0, 1]
    q = [1, 2, 0]
    composed = concat(from_permutation(q), from_permutation(p))
    assert composed == from_permutation([q[p[i]] for i in range(3)])


def test_symmetry():
    assert symmetry(1, 1) == from_permutation([1, 0])
    assert symmetry(3, 0) == identity(3)
    assert symmetry(0, 3) == identity(3)
    for n, m in [(1, 2), (2, 2), (3, 1)]:
        assert concat(symmetry(m, n), symmetry(n, m)) == identity(n + m)


# ---------------------------------------------------------------------------
# concat


def test_concat_worked_example(dag23, dag31, composite21):
    comp = concat(dag31, dag23)
    assert (comp.n_in, comp.n_out) == (2, 1)
    assert set(comp.node_ids) == {"k", "l", "a", "b", "c", "d"}
    assert dict(comp.edges) == dict(composite21.edges)
    assert len(comp.edges) == 12


def test_concat_identity_laws(dag23):
    assert concat(identity(3), dag23) == dag23
    assert concat(dag23, identity(2)) == dag23


def test_concat_interface_mismatch(dag23):
    with pytest.raises((InterfaceMismatch, TypeMismatch)):
        concat(dag23, dag23)


def test_concat_mode_mismatch():
    a = make_idag(1, 1, [], [(In(0), Out(0))], BOOL)
    b = make_idag(1, 1, [], [(In(0), Out(0))], NAT)
    with pytest.raises(ModeMismatch):
        concat(b, a)


def test_concat_weight_product():
    a = make_idag(1, 1, [], {(In(0), Out(0)): 2}, NAT)
    b = make_idag(1, 1, [], {(In(0), Out(0)): 3}, NAT)
    assert dict(concat(b, a).edges) == {(In(0), Out(0)): 6}


def test_concat_weight_sum_saturates_in_bool():
    fan = make_idag(1, 2, [], [(In(0), Out(0)), (In(0), Out(1))], BOOL)
    merge = make_idag(2, 1, [], [(In(0), Out(0)), (In(1), Out(0))], BOOL)
    assert dict(concat(merge, fan).edges) == {(In(0), Out(0)): 1}
    fan_n = make_idag(1, 2, [], [(In(0), Out(0)), (In(0), Out(1))], NAT)
    merge_n = make_idag(2, 1, [], [(In(0), Out(0)), (In(1), Out(0))], NAT)
    assert dict(concat(merge_n, fan_n).edges) == {(In(0), Out(0)): 2}


def test_concat_cancellation_drops_edge():
    pos = make_idag(1, 2, [], [(In(0), Out(0)), (In(0), Out(1))], INT)
    diff = make_idag(2, 1, [], {(In(0), Out(0)): 1, (In(1), Out(0)): -1}, INT)
    assert not concat(diff, pos).edges


def test_concat_freshens_clashing_ids():
    a = make_idag(0, 0, ["p"], {})
    b = make_idag(0, 0, ["p"], {})
    comp = concat(b, a)
    assert set(comp.node_ids) == {"p", "p'"}


# ---------------------------------------------------------------------------
# juxt


def test_juxt_identities():
    assert juxt(identity(1), identity(1)) == identity(2)
    empty = make_idag(0, 0, [], {})
    d = make_idag(1, 1, ["p"], [(In(0), NodeRef("p")), (NodeRef("p"), Out(0))])
    assert juxt(d, empty) == d
    assert juxt(empty, d) == d


def test_juxt_eta_eps():
    eta = make_idag(0, 1, [], {})
    eps = make_idag(1, 0, [], {})
    side = juxt(eta, eps)
    assert (side.n_in, side.n_out) == (1, 1)
    assert not side.edges and not side.nodes


def test_juxt_shifts_interfaces(dag23):
    d = juxt(identity(1), dag23)
    assert d.weight(In(1), Out(2)) == 1  # dag23's In0 -> Out1, shifted by 1
    assert d.weight(In(0), Out(0)) == 1


# ---------------------------------------------------------------------------
# isomorphism and canonical forms


def test_iso_rename_witness():
    d = make_idag(1, 1, ["p", "q"], [(In(0), NodeRef("p")), (NodeRef("p"), NodeRef("q")), (NodeRef("q"), Out(0))])
    r = make_idag(1, 1, ["u", "v"], [(In(0), NodeRef("u")), (NodeRef("u"), NodeRef("v")), (NodeRef("v"), Out(0))])
    assert is_isomorphic(d, r) == {"p": "u", "q": "v"}


def test_iso_label_mismatch():
    d = make_idag(0, 0, [("p", "x")], {})
    r = make_idag(0, 0, [("p", "y")], {})
    assert is_isomorphic(d, r) is None


def test_iso_node_sequence_order_irrelevant(dag23):
    swapped = make_idag(2, 3, ["l", "k"], dict(dag23.edges))
    w = is_isomorphic(dag23, swapped)
    assert w == {"k": "k", "l": "l"}


def test_iso_interface_edges_fixed():
    a = make_idag(2, 2, [], [(In(0), Out(0))])
    b = make_idag(2, 2, [], [(In(1), Out(1))])
    assert is_isomorphic(a, b) is None
    assert canonical_form(a) != canonical_form(b)


def test_wire_plus_isolated_node_differs_from_path():
    through = make_idag(1, 1, ["p"], [(In(0), NodeRef("p")), (NodeRef("p"), Out(0))])
    bypass = make_idag(1, 1, ["p"], [(In(0), Out(0))])
    # exhaustive: the single candidate bijection p->p does not match edges
    assert is_isomorphic(through, bypass) is None
    assert canonical_form(through) != canonical_form(bypass)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([BOOL, NAT, INT]))
def test_the_invariant_survives_relabelling(seed, ws):
    rng = random.Random(seed)
    n_in, n_out, n = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 8)
    d = random_idag(rng, n_in, n_out, n, 0.4, ws, labels=("•", "x", "y"))
    assert _invariant(_scramble(rng, d, "s")) == _invariant(d)
    assert _invariant(canonical_form(d)) == _invariant(d)


def test_differing_invariants_are_never_isomorphic():
    one = make_idag(1, 1, [("p", "x")], [(In(0), NodeRef("p")), (NodeRef("p"), Out(0))], NAT)
    relabelled = make_idag(1, 1, [("p", "y")], [(In(0), NodeRef("p")), (NodeRef("p"), Out(0))], NAT)
    reweighted = make_idag(1, 1, [("p", "x")], [(In(0), NodeRef("p"), 2), (NodeRef("p"), Out(0))], NAT)
    for other in (relabelled, reweighted):
        assert _invariant(one) != _invariant(other)
        assert is_isomorphic(one, other) is None
        assert canonical_form(one) != canonical_form(other)


def test_canonical_rename_invariance(rng):
    for _ in range(25):
        d = random_idag(rng, rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 5), 0.5, BOOL, labels=("•", "x"))
        renamed = make_idag(
            d.n_in,
            d.n_out,
            [(f"z{nid}", lbl) for nid, lbl in d.nodes],
            {
                (
                    NodeRef(f"z{s.id}") if isinstance(s, NodeRef) else s,
                    NodeRef(f"z{t.id}") if isinstance(t, NodeRef) else t,
                ): w
                for (s, t), w in d.edges.items()
            },
        )
        assert canonical_form(renamed) == canonical_form(d)


def test_canonical_idempotent(rng):
    for _ in range(25):
        d = random_idag(rng, 2, 2, rng.randint(0, 5), 0.4, NAT)
        c = canonical_form(d)
        assert canonical_form(c) == c


def _crown(k, mode=BOOL, prefix=""):
    """a_i -> b_j for all i != j. Refinement leaves two cells of k nodes, no
    two nodes are twins and the graph is connected, so only the search can
    order it."""
    a = [f"{prefix}a{i}" for i in range(k)]
    b = [f"{prefix}b{i}" for i in range(k)]
    edges = [(NodeRef(a[i]), NodeRef(b[j])) for i in range(k) for j in range(k) if i != j]
    return make_idag(0, 0, a + b, edges, mode)


def _twin_blow_up(rng, d):
    """d with every node replaced by 1-3 twins wired like it."""
    copies = {nid: [f"{nid}_{k}" for k in range(rng.randint(1, 3))] for nid in d.node_ids}
    nodes = [(c, lbl) for nid, lbl in d.nodes for c in copies[nid]]

    def ends(v):
        return [NodeRef(c) for c in copies[v.id]] if isinstance(v, NodeRef) else [v]

    edges = {(s, t): w for (src, dst), w in d.edges.items() for s in ends(src) for t in ends(dst)}
    return make_idag(d.n_in, d.n_out, nodes, edges, d.weights)


def _assert_witness(d1, d2, witness):
    assert witness is not None and sorted(witness.values()) == sorted(d2.node_ids)

    def ren(v):
        return NodeRef(witness[v.id]) if isinstance(v, NodeRef) else v

    assert {(ren(s), ren(t)): w for (s, t), w in d1.edges.items()} == dict(d2.edges)
    labels1, labels2 = dict(d1.nodes), dict(d2.nodes)
    assert all(labels1[x] == labels2[y] for x, y in witness.items())


def test_canonical_search_budget():
    d = _crown(4)
    with pytest.raises(SearchBudgetExceeded) as exc:
        canonical_form(d, budget=3)
    assert "budget of 3 " in str(exc.value)
    assert "N = 8 " in str(exc.value) and "[4, 4]" in str(exc.value)
    shuffled = _scramble(random.Random(4), d, "s")
    assert canonical_form(shuffled) == canonical_form(d)
    _assert_witness(d, shuffled, is_isomorphic(d, shuffled))


def test_canonical_search_prunes_by_automorphisms():
    # the crown's automorphism group is S_8; the pruned tree has 36 nodes
    d = _crown(8)
    assert canonical_form(d, budget=72) == canonical_form(d)


def _regular_layers(rng, layers, width, degree, mode, prefix="v"):
    """Layers of `width` nodes, each node wired to `degree` distinct nodes of
    the next layer and fed by `degree` of the previous one. Refinement keeps
    each layer one cell, and most such dags have no symmetry at all."""
    nodes = [[f"{prefix}{l}_{i}" for i in range(width)] for l in range(layers)]
    edges = {}
    for l in range(layers - 1):
        used = set()
        for _ in range(degree):
            perm = list(range(width))
            rng.shuffle(perm)
            while any((i, perm[i]) in used for i in range(width)):
                rng.shuffle(perm)
            for i in range(width):
                used.add((i, perm[i]))
                edges[(NodeRef(nodes[l][i]), NodeRef(nodes[l + 1][perm[i]]))] = 1
    return make_idag(0, 0, [n for layer in nodes for n in layer], edges, mode)


def test_canonical_form_is_invariant_on_regular_dags(rng):
    for trial in range(12):
        layers, width, degree = rng.choice([(2, 6, 2), (3, 5, 2), (2, 8, 3), (4, 4, 2)])
        mode = (BOOL, NAT, INT)[trial % 3]
        # two independent parts that refinement cannot tell apart
        d = juxt(
            _regular_layers(rng, layers, width, degree, mode, "p"),
            _regular_layers(rng, layers, width, degree, mode, "q"),
        )
        c = canonical_form(d)
        for k in range(3):
            shuffled = _scramble(rng, d, f"s{k}_")
            assert canonical_form(shuffled) == c
            _assert_witness(d, shuffled, is_isomorphic(d, shuffled))


def _chain(n):
    """In(0) -> n0 -> ... -> n(n-1) -> Out(0)."""
    ids = [f"n{k}" for k in range(n)]
    verts = [In(0)] + [NodeRef(i) for i in ids] + [Out(0)]
    return make_idag(1, 1, ids, [(verts[k], verts[k + 1]) for k in range(n + 1)])


def _closed_nodes(k):
    """The NAT free image of k copies of eta ; node ; eps: k nodes attached
    to nothing."""
    return evaluate(ten_all([Seq(Seq(Eta(), Node("x")), Eps())] * k), FreeIdagModel(NAT))


def _projective_plane(q):
    """The incidence dag of PG(2, q), q prime: a node per point and per line
    (nonzero vectors of F_q^3 up to scaling), an edge point -> line when
    they are incident. Refinement leaves two cells of q^2 + q + 1 nodes."""

    def normal(v):
        inverse = pow(next(x for x in v if x), q - 2, q)
        return tuple(x * inverse % q for x in v)

    vectors = sorted({normal(v) for v in itertools.product(range(q), repeat=3) if any(v)})
    nodes = [f"p{i}" for i in range(len(vectors))] + [f"l{i}" for i in range(len(vectors))]
    edges = [
        (NodeRef(f"p{i}"), NodeRef(f"l{j}"))
        for i, p in enumerate(vectors)
        for j, line in enumerate(vectors)
        if sum(x * y for x, y in zip(p, line)) % q == 0
    ]
    return make_idag(0, 0, nodes, edges)


def _random_interfaced(seed):
    rng = random.Random(seed)
    mode = (BOOL, NAT, INT)[seed % 3]
    n_in, n_out, n = rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 40)
    return random_idag(rng, n_in, n_out, n, min(1.0, 4 / n), mode, labels=("x", "y"))


def _sparse(n):
    return random_idag(random.Random(n), 2, 2, n, 3.0 / n, NAT, labels=("a", "b"))


REFINEMENT_CASES = {
    **{f"random{seed}": (lambda seed=seed: _random_interfaced(seed)) for seed in range(30)},
    **{f"sparse{n}": (lambda n=n: _sparse(n)) for n in (200, 400, 800)},
    **{f"chain{n}": (lambda n=n: _chain(n)) for n in (1, 2, 50, 301)},
    **{f"closed{k}": (lambda k=k: _closed_nodes(k)) for k in (1, 5, 12)},
    **{f"crown{k}": (lambda k=k: _crown(k)) for k in (2, 3, 6)},
    "layered2x30": lambda: _regular_layers(random.Random(1), 2, 30, 3, BOOL),
    "layered3x20": lambda: _regular_layers(random.Random(2), 3, 20, 3, NAT),
    "layered4x10": lambda: _regular_layers(random.Random(3), 4, 10, 2, INT),
}


def _cell_set(colors):
    cells = {}
    for i, c in enumerate(colors):
        cells.setdefault(c, set()).add(i)
    return {frozenset(m) for m in cells.values()}


def _assert_ordered_partition(cells):
    n = len(cells.colors)
    assert sorted(cells.order) == list(range(n))
    assert all(cells.order[cells.where[i]] == i for i in range(n))
    starts = cells.starts()
    assert cells.count == len(starts) == sum(1 for k in cells.size if k)
    for p in starts:
        members = cells.order[p : p + cells.size[p]]
        assert members and all(cells.colors[i] == p for i in members)


@pytest.mark.parametrize("case", sorted(REFINEMENT_CASES))
def test_worklist_refinement_reaches_the_full_round_partition(case):
    keys, preds, succs = _adjacency(REFINEMENT_CASES[case]())
    reference = refine_reference.refine(_dense_ranks(keys), preds, succs)
    cells = _equitable(keys, preds, succs)
    _assert_ordered_partition(cells)
    assert _cell_set(cells.colors) == _cell_set(reference)
    if cells.count == len(keys):
        return
    # a search child: individualize a member of the first tied cell and
    # refine from its cell alone
    p = next(p for p in cells.starts() if cells.size[p] > 1)
    v = min(cells.order[p : p + cells.size[p]])
    child = cells.copy()
    child.individualize(v)
    assert _refine(child, [child.colors[v]], preds, succs, []) == -1
    _assert_ordered_partition(child)
    split = [-1 if i == v else c for i, c in enumerate(cells.colors)]
    assert _cell_set(child.colors) == _cell_set(refine_reference.refine(split, preds, succs))


def _interface_tensor(seed):
    """A tensor of open factors, each a random expression between two rows
    of node boxes, and closed ones, eta ; node ; eps, some repeated: most
    nodes are told apart by their label and interface edges alone."""
    rng = random.Random(seed)
    factors = []
    for _ in range(rng.randint(2, 16)):
        if factors and rng.random() < 0.3:
            factors.append(rng.choice(factors))
        elif rng.random() < 0.3:
            factors.append(Seq(Seq(Eta(), Node(rng.choice("ab"))), Eps()))
        else:
            e = random_expression(rng, max_depth=3, labels=("a", "b", "c"))
            a, b = arity_of(e)
            if a:
                e = Seq(ten_all([Node(rng.choice("abc")) for _ in range(a)]), e)
            if b:
                e = Seq(e, ten_all([Node(rng.choice("abc")) for _ in range(b)]))
            factors.append(e)
    return evaluate(ten_all(factors), FreeIdagModel((BOOL, NAT, INT)[seed % 3]))


TIED_START_CASES = {
    **REFINEMENT_CASES,
    **{f"tensor{seed}": (lambda seed=seed: _interface_tensor(seed)) for seed in range(40)},
}


@pytest.mark.parametrize("case", sorted(TIED_START_CASES))
def test_refinement_from_tied_cells_equals_refinement_from_every_cell(case):
    keys, preds, succs = _adjacency(TIED_START_CASES[case]())
    cells = _equitable(keys, preds, succs)
    every = _Cells.of(keys)
    _refine(every, every.starts(), preds, succs, [])
    _assert_ordered_partition(cells)
    from_tied, from_every = [(c.order, c.colors, c.size, c.count) for c in (cells, every)]
    assert from_tied == from_every


STRUCTURED_DAGS = {
    "chain5000": lambda: _chain(5000),
    "layered2x100": lambda: _regular_layers(random.Random(5), 2, 100, 3, BOOL),
    "layered4x50": lambda: _regular_layers(random.Random(6), 4, 50, 3, NAT),
    "pg2_3": lambda: _projective_plane(3),
    "pg2_5": lambda: _projective_plane(5),
}


@pytest.mark.parametrize("case", sorted(STRUCTURED_DAGS))
def test_canonical_form_is_invariant_and_idempotent_on_structured_dags(case):
    d = STRUCTURED_DAGS[case]()
    c = canonical_form(d)
    assert canonical_form(c) == c
    shuffled = _scramble(random.Random(case), d, "s")
    assert canonical_form(shuffled) == c
    _assert_witness(d, shuffled, is_isomorphic(d, shuffled))


@pytest.mark.parametrize("n", [400, 800])
def test_canonical_form_of_sparse_random_idags(n):
    rng = random.Random(n)
    d = random_idag(rng, 2, 2, n, 3.0 / n, NAT, labels=("a", "b"))
    start = time.process_time()
    c = canonical_form(d)
    assert time.process_time() - start < 1.0
    shuffled = _scramble(rng, d, "s")
    assert canonical_form(shuffled) == c
    _assert_witness(d, shuffled, is_isomorphic(d, shuffled))


def _symmetric_idag(rng):
    """A small idag with repeated components, twin sets or crowns."""
    mode = rng.choice((BOOL, NAT, INT))
    kind = rng.randrange(4)
    if kind == 0:
        part = random_idag(rng, rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 3), 0.5, mode, labels=("x", "y"))
        d = part
        for _ in range(rng.randint(1, 2)):
            d = juxt(d, part)
        return d
    if kind == 1:
        return _twin_blow_up(rng, random_idag(rng, rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 3), 0.5, mode, labels=("x", "y")))
    if kind == 2:
        d = _crown(rng.randint(2, 3), mode)
        return juxt(d, _crown(2, mode, "c")) if len(d.nodes) == 4 and rng.random() < 0.5 else d
    return random_idag(rng, rng.randint(0, 2), rng.randint(0, 2), rng.randint(2, 7), 0.4, mode, labels=("x",))


def test_canonical_labelling_matches_brute_force_on_symmetric_idags(rng):
    pool = [_symmetric_idag(rng) for _ in range(60)]
    pool = [d for d in pool if len(d.nodes) <= 7]
    pool += [_scramble(rng, d, "s") for d in pool[:30]]
    canon = [canonical_form(d) for d in pool]
    for a, b in itertools.combinations(range(len(pool)), 2):
        d1, d2 = pool[a], pool[b]
        oracle = _brute_force_iso(d1, d2)
        assert (canon[a] == canon[b]) == (oracle is not None)
        witness = is_isomorphic(d1, d2)
        assert (witness is not None) == (oracle is not None)
        if witness is not None:
            _assert_witness(d1, d2, witness)


# ---------------------------------------------------------------------------
# closure / prune / forest


def _reachability_oracle(d):
    # Floyd-Warshall restricted to internal intermediates
    verts = [In(i) for i in range(d.n_in)] + [NodeRef(n) for n in d.node_ids] + [Out(j) for j in range(d.n_out)]
    reach = {(u, v): (u, v) in d.edges for u in verts for v in verts}
    for k in (NodeRef(n) for n in d.node_ids):
        for u in verts:
            for v in verts:
                if reach[(u, k)] and reach[(k, v)]:
                    reach[(u, v)] = True
    return {e for e, r in reach.items() if r}


def test_closure_worked_example(dag31):
    tc = transitive_closure(dag31)
    added = set(tc.edges) - set(dag31.edges)
    assert added == {
        (In(0), NodeRef("d")),
        (In(0), Out(0)),
        (In(1), NodeRef("b")),
        (In(1), NodeRef("d")),
        (In(1), Out(0)),
        (In(2), NodeRef("b")),
        (In(2), NodeRef("d")),
        (In(2), Out(0)),
        (NodeRef("a"), Out(0)),
        (NodeRef("c"), Out(0)),
    }
    assert len(tc.edges) == 20
    assert set(tc.edges) == _reachability_oracle(dag31)


def test_closure_node_free_unchanged():
    d = make_idag(2, 2, [], [(In(0), Out(1)), (In(1), Out(0))])
    assert transitive_closure(d) == d


def test_closure_idempotent(rng):
    for _ in range(25):
        d = random_idag(rng, 2, 2, rng.randint(0, 6), 0.4, BOOL)
        tc = transitive_closure(d)
        assert transitive_closure(tc) == tc
        assert set(tc.edges) == _reachability_oracle(d)


def test_closure_respects_composition(rng):
    for _ in range(25):
        mid = rng.randint(0, 3)
        d1 = random_idag(rng, rng.randint(0, 3), mid, rng.randint(0, 4), 0.5, BOOL, id_prefix="a")
        d2 = random_idag(rng, mid, rng.randint(0, 3), rng.randint(0, 4), 0.5, BOOL, id_prefix="b")
        lhs = transitive_closure(concat(d2, d1))
        rhs = transitive_closure(concat(transitive_closure(d2), transitive_closure(d1)))
        assert lhs == rhs


def test_closure_requires_bool():
    d = make_idag(1, 1, [], {(In(0), Out(0)): 2}, NAT)
    with pytest.raises(ModeMismatch):
        transitive_closure(d)


def test_prune_examples():
    wire = make_idag(1, 1, ["p"], [(In(0), Out(0))])
    assert prune_dangling(wire) == make_idag(1, 1, [], [(In(0), Out(0))])

    chain = make_idag(1, 0, ["p", "q"], [(In(0), NodeRef("p")), (NodeRef("p"), NodeRef("q"))])
    assert prune_dangling(chain) == make_idag(1, 0, [], {})

    busy = make_idag(1, 1, ["p"], [(In(0), NodeRef("p")), (NodeRef("p"), Out(0))])
    assert prune_dangling(busy) == busy


def test_prune_dangling_of_a_long_chain_is_fast():
    # the chain never reaches the output, so it dangles from its far end one
    # node at a time: recounting every degree per round took about 8.4 s
    ids = [f"n{k}" for k in range(3000)]
    verts = [In(0)] + [NodeRef(i) for i in ids]
    d = make_idag(1, 1, ids, list(zip(verts, verts[1:])))
    t0 = time.perf_counter()
    pruned = prune_dangling(d)
    assert time.perf_counter() - t0 < 0.3
    assert pruned == make_idag(1, 1, [], {})


def test_prune_requires_bool():
    d = make_idag(0, 0, ["p"], {}, INT)
    with pytest.raises(ModeMismatch):
        prune_dangling(d)


def test_is_forest():
    assert is_forest(identity(4))
    assert is_forest(make_idag(0, 1, [], {}))  # unfed output is fine
    assert not is_forest(make_idag(1, 2, [], [(In(0), Out(0)), (In(0), Out(1))]))
    chain = make_idag(1, 1, ["p"], [(In(0), NodeRef("p")), (NodeRef("p"), Out(0))])
    assert is_forest(chain)
    assert not is_forest(make_idag(1, 0, ["p"], [(In(0), NodeRef("p"))]))


def test_forest_rejects_sample(dag23):
    assert not is_forest(dag23)


# ---------------------------------------------------------------------------
# algebraic laws on random idags


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_concat_associative_up_to_canonical(seed):
    rng = random.Random(seed)
    ws = (BOOL, NAT, INT)[seed % 3]
    a, b, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
    d = rng.randint(0, 3)
    d1 = random_idag(rng, a, b, rng.randint(0, 4), 0.5, ws, id_prefix="x")
    d2 = random_idag(rng, b, c, rng.randint(0, 4), 0.5, ws, id_prefix="y")
    d3 = random_idag(rng, c, d, rng.randint(0, 4), 0.5, ws, id_prefix="z")
    lhs = concat(d3, concat(d2, d1))
    rhs = concat(concat(d3, d2), d1)
    assert canonical_form(lhs) == canonical_form(rhs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_interchange(seed):
    rng = random.Random(seed)
    ws = (BOOL, NAT, INT)[seed % 3]
    n1, m1, k1 = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
    n2, m2, k2 = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
    a = random_idag(rng, m1, k1, rng.randint(0, 3), 0.5, ws, id_prefix="a")
    b = random_idag(rng, n1, m1, rng.randint(0, 3), 0.5, ws, id_prefix="b")
    c = random_idag(rng, m2, k2, rng.randint(0, 3), 0.5, ws, id_prefix="c")
    d = random_idag(rng, n2, m2, rng.randint(0, 3), 0.5, ws, id_prefix="d")
    lhs = juxt(concat(a, b), concat(c, d))
    rhs = concat(juxt(a, c), juxt(b, d))
    assert canonical_form(lhs) == canonical_form(rhs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_symmetry_naturality(seed):
    rng = random.Random(seed)
    ws = (BOOL, NAT, INT)[seed % 3]
    n, m = rng.randint(0, 3), rng.randint(0, 3)
    n2, m2 = rng.randint(0, 3), rng.randint(0, 3)
    d = random_idag(rng, n, m, rng.randint(0, 3), 0.5, ws, id_prefix="d")
    d2 = random_idag(rng, n2, m2, rng.randint(0, 3), 0.5, ws, id_prefix="e")
    lhs = concat(symmetry(m, m2, ws), juxt(d, d2))
    rhs = concat(juxt(d2, d), symmetry(n, n2, ws))
    assert canonical_form(lhs) == canonical_form(rhs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_composites_always_validate(seed):
    # make_idag re-validation never fires on composites of valid idags
    rng = random.Random(seed)
    ws = (BOOL, NAT, INT)[seed % 3]
    mid = rng.randint(0, 4)
    d1 = random_idag(rng, rng.randint(0, 4), mid, rng.randint(0, 5), 0.6, ws, id_prefix="p")
    d2 = random_idag(rng, mid, rng.randint(0, 4), rng.randint(0, 5), 0.6, ws, id_prefix="q")
    comp = concat(d2, d1)
    make_idag(comp.n_in, comp.n_out, comp.nodes, dict(comp.edges), ws)
    side = juxt(d1, d2)
    make_idag(side.n_in, side.n_out, side.nodes, dict(side.edges), ws)


def test_iso_matches_brute_force_oracle(rng):
    from idag.selftest import _brute_force_iso

    pool = [
        random_idag(rng, rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 4), 0.5, BOOL, labels=("•", "x"))
        for _ in range(30)
    ]
    for d1, d2 in itertools.combinations(pool, 2):
        assert (is_isomorphic(d1, d2) is not None) == (_brute_force_iso(d1, d2) is not None)
        assert (canonical_form(d1) == canonical_form(d2)) == (_brute_force_iso(d1, d2) is not None)


def test_interface_profiles_are_sorted_by_wire():
    # _adjacency sorts only in-profiles of two or more entries; out-profiles
    # come out in wire order, which is target order
    rng = random.Random(20261020)
    for k in range(200):
        d = random_idag(rng, rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 10), rng.random(),
                        (BOOL, NAT, INT)[k % 3], labels=("a", "b"))
        # the same idag with each wire's sources in a random order
        edges = [(s, t, w) for (s, t), w in d.edges.items()]
        rng.shuffle(edges)
        d = make_idag(d.n_in, d.n_out, d.nodes, edges, d.weights)
        n_in, n = d.n_in, len(d.nodes)
        ins = [sorted((s, w) for s, w in d.wires[i].items() if s < n_in) for i in range(n)]
        outs = [sorted((t - n, w) for t in range(n, n + d.n_out) for s, w in d.wires[t].items()
                       if s == n_in + i) for i in range(n)]
        keys, _, _ = _adjacency(d)
        assert keys == [(lbl, tuple(p), tuple(q)) for (_, lbl), p, q in zip(d.nodes, ins, outs)]
