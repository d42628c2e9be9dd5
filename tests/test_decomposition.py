import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import idag.decomposition as decomposition
from idag.algebra import identity, make_idag
from idag.builders import seq_all
from idag.core import Idag, In, NodeRef, Out, canonical_form, is_isomorphic
from idag.decomposition import (
    decompose,
    default_sorting,
    is_topological_sorting,
    permutation_expression,
    topological_sortings,
)
from idag.errors import (
    AntipodeWeight,
    IndexOutOfRange,
    InterfaceMismatch,
    InvalidWeight,
    ModeMismatch,
    NotAdjacentTransposition,
    NotATopologicalSorting,
    NotBijective,
    SearchBudgetExceeded,
)
from idag.layers import encode_relation, interpret, layer, transposition_identities
from idag.loops import LoopsModel
from idag.matrices import MatrixModel, matrix, matrix_identity
from idag.models import FreeIdagModel, evaluate
from idag.printer import print_expression
from idag.randgen import random_idag
from idag.sortings import MAX_DOWN_SETS, count_topological_sortings, sample_topological_sorting
from idag.terms import Delta, Id, Nabla, Node, Seq, Sym, Ten, atoms
from idag.weights import BOOL, INT, NAT

import encode_reference
import sortings_reference
from helpers import Forwarding


def _sortings_by_filter(d):
    # independent oracle: filter all node permutations by the edge constraints
    out = []
    ids = sorted(d.node_ids)
    from idag.core import NodeRef

    for perm in itertools.permutations(ids):
        pos = {n: i for i, n in enumerate(perm)}
        if all(
            pos[s.id] < pos[t.id]
            for (s, t) in d.edges
            if isinstance(s, NodeRef) and isinstance(t, NodeRef)
        ):
            out.append(tuple(perm))
    return out


def _chain(weights, mode):
    """input -> n1 -> ... -> output, one edge per weight."""
    ids = [f"n{k}" for k in range(1, len(weights))]
    verts = [In(0)] + [NodeRef(i) for i in ids] + [Out(0)]
    return make_idag(1, 1, ids, [(verts[k], verts[k + 1], w) for k, w in enumerate(weights)], mode)


def test_five_sortings(dag31):
    got = list(topological_sortings(dag31))
    assert got == [
        ("a", "b", "c", "d"),
        ("a", "c", "b", "d"),
        ("a", "c", "d", "b"),
        ("c", "a", "b", "d"),
        ("c", "a", "d", "b"),
    ]
    assert sorted(got) == sorted(_sortings_by_filter(dag31))
    assert count_topological_sortings(dag31) == 5
    assert default_sorting(dag31) == ("a", "b", "c", "d")


def test_node_free_has_one_empty_sorting():
    d = make_idag(2, 2, [], [(In(0), Out(1))])
    assert list(topological_sortings(d)) == [()]
    assert count_topological_sortings(d) == 1


def test_chain_has_one_sorting():
    from idag.core import NodeRef

    d = make_idag(0, 0, ["p", "q", "r"], [(NodeRef("p"), NodeRef("q")), (NodeRef("q"), NodeRef("r"))])
    assert list(topological_sortings(d)) == [("p", "q", "r")]


def test_default_sorting_of_a_long_chain():
    d = _chain([1] * 1201, BOOL)
    assert default_sorting(d) == tuple(f"n{k}" for k in range(1, 1201))


def test_default_sorting_of_a_long_descending_chain_is_fast():
    # ids descend along the chain, so the one ready node is always the last
    # in id order: a rescan of every node at every position took about 1.4 s
    n = 5000
    ids = [f"n{k:04d}" for k in range(n - 1, -1, -1)]
    verts = [In(0)] + [NodeRef(i) for i in ids] + [Out(0)]
    d = make_idag(1, 1, ids, list(zip(verts, verts[1:])))
    t0 = time.perf_counter()
    order = default_sorting(d)
    assert time.perf_counter() - t0 < 0.3
    assert order == tuple(ids)


def test_default_sorting_of_a_long_chain_takes_linear_memory():
    # a predecessor bit mask per node took N^2/16 bytes on a chain, 156 MB here
    n = 50_000
    d = _chain([1] * (n + 1), BOOL)
    tracemalloc.start()
    try:
        order = default_sorting(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order == tuple(f"n{k}" for k in range(1, n + 1))
    assert peak < 50 * 2**20


def test_counting_and_sampling_a_long_chain(rng):
    # predecessor bit masks and down-sets kept as N-bit ints made counting
    # quadratic: 2.3 s and a 1.2 MB peak for a chain of 2,400 nodes
    n = 10_000
    d = _chain([1] * (n + 1), BOOL)
    order = tuple(f"n{k}" for k in range(1, n + 1))
    runs = [(count_topological_sortings, 1), (lambda d: sample_topological_sorting(d, rng), order)]
    for run, want in runs:
        t0 = time.perf_counter()
        assert run(d) == want
        assert time.perf_counter() - t0 < 1.0
        tracemalloc.start()
        try:
            assert run(d) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def test_counting_is_bounded():
    # an antichain has 2^N down-sets; counting its sortings must raise, not
    # run for hours or exhaust memory
    d = make_idag(0, 0, [f"n{k}" for k in range(60)], [])
    for run in (count_topological_sortings, lambda d: sample_topological_sorting(d, random.Random(0))):
        t0 = time.perf_counter()
        with pytest.raises(SearchBudgetExceeded, match=f"60 nodes .* {MAX_DOWN_SETS} down-sets"):
            run(d)
        assert time.perf_counter() - t0 < 2.0


def test_counting_matches_enumeration(rng):
    for _ in range(30):
        d = random_idag(rng, rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 6), 0.4, BOOL)
        sortings = list(topological_sortings(d))
        assert count_topological_sortings(d) == len(sortings)
        assert len(set(sortings)) == len(sortings)
        assert all(is_topological_sorting(d, s) for s in sortings)
        assert sortings == _sortings_by_filter(d)


def test_counting_and_sampling_match_the_bit_mask_reference():
    # the draws of criterion 03 and selftest rest on these: each sample
    # spends one rng.randrange per position, in the same order
    rng = random.Random(19)
    for case in range(300):
        ws = (BOOL, NAT, INT)[case % 3]
        d = random_idag(rng, rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 12), rng.random() * 0.5, ws)
        assert count_topological_sortings(d) == sortings_reference.count_topological_sortings(d)
        seed = rng.getrandbits(32)
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert sample_topological_sorting(d, ours) == sortings_reference.sample_topological_sorting(d, ref)
        assert ours.getstate() == ref.getstate()


def test_the_sorting_routines_return_tuples_of_ids(dag31, rng):
    for s in (default_sorting(dag31), sample_topological_sorting(dag31, rng), *topological_sortings(dag31)):
        assert type(s) is tuple and all(type(nid) is str for nid in s)


def test_sampling_is_valid_and_covers(dag31, rng):
    seen = set()
    for _ in range(400):
        s = sample_topological_sorting(dag31, rng)
        assert is_topological_sorting(dag31, s)
        seen.add(s)
    assert len(seen) == 5


def test_is_topological_sorting_negatives(dag31):
    assert not is_topological_sorting(dag31, ("b", "a", "c", "d"))
    assert not is_topological_sorting(dag31, ("a", "b", "c"))
    assert not is_topological_sorting(dag31, ("a", "b", "c", "z"))
    with pytest.raises(NotATopologicalSorting):
        decompose(dag31, ("b", "a", "c", "d"))


@pytest.mark.parametrize("form", [list, tuple, iter], ids=["list", "tuple", "generator"])
def test_any_iterable_of_ids_is_a_sorting(dag31, form):
    a, b = ("a", "b", "c", "d"), ("a", "c", "b", "d")
    model = MatrixModel(NAT, {"a": 2, "b": 3})
    assert default_sorting(dag31) == a
    assert is_topological_sorting(dag31, form(a))
    assert decompose(dag31, form(a)) == decompose(dag31, a)
    assert layer(dag31, form(a), 2) == layer(dag31, a, 2)
    assert interpret(dag31, form(a), model) == interpret(dag31, a, model)
    assert transposition_identities(dag31, form(a), form(b), 1).all_ok
    with pytest.raises(NotATopologicalSorting, match=r"\['b', 'a', 'c', 'd'\] does not sort"):
        decompose(dag31, form(("b", "a", "c", "d")))


@pytest.mark.parametrize("sort", [["a", "b", "c", 1], [None] * 4, [["x"]] * 4], ids=["int", "None", "list"])
def test_sortings_of_ids_that_are_not_strings_are_refused(dag31, sort):
    assert not is_topological_sorting(dag31, sort)
    assert not is_topological_sorting(dag31, tuple(sort))
    runs = [
        lambda: decompose(dag31, sort),
        lambda: layer(dag31, sort, 0),
        lambda: interpret(dag31, sort, MatrixModel(NAT)),
        lambda: interpret(dag31, sort, Forwarding(MatrixModel(NAT))),
        lambda: transposition_identities(dag31, sort, sort, 0),
        lambda: transposition_identities(dag31, default_sorting(dag31), sort, 0),
    ]
    for run in runs:
        with pytest.raises(NotATopologicalSorting):
            run()


@pytest.mark.parametrize("sort", [None, 5, "abcd"], ids=["None", "int", "str"])
def test_sortings_that_are_not_iterables_of_ids_are_refused(dag31, sort):
    # "abcd" lists dag31's node ids as characters: a str is one id, not a sorting
    assert not is_topological_sorting(dag31, sort)
    runs = [
        lambda: decompose(dag31, sort),
        lambda: layer(dag31, sort, 0),
        lambda: interpret(dag31, sort, MatrixModel(NAT)),
        lambda: interpret(dag31, sort, Forwarding(MatrixModel(NAT))),
        lambda: transposition_identities(dag31, sort, sort, 0),
    ]
    for run in runs:
        with pytest.raises(NotATopologicalSorting):
            run()


def test_each_call_renumbers_the_wires_once(dag31, monkeypatch):
    calls = []
    renumbered = decomposition._renumbered

    def counting(d, order):
        calls.append(order)
        return renumbered(d, order)

    monkeypatch.setattr(decomposition, "_renumbered", counting)
    s = default_sorting(dag31)
    runs = [
        lambda: decompose(dag31, s),
        lambda: interpret(dag31, s, MatrixModel(NAT)),
        lambda: interpret(dag31, s, FreeIdagModel(BOOL)),
        lambda: layer(dag31, s, 2),
    ]
    for run in runs:
        calls.clear()
        run()
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# layers


EXPECTED_LAYERS = [
    ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)),
    ((1, 0, 0, 0, 1), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 1)),
    (
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 1),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0),
    ),
    (
        (1, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 1),
        (0, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 0, 1, 1),
    ),
    ((0,), (0,), (0,), (0,), (1,), (0,), (1,)),
]


def test_layer_matrices(dag31):
    s = default_sorting(dag31)
    for k, want in enumerate(EXPECTED_LAYERS):
        assert layer(dag31, s, k).entries == want


def test_layer_bounds(dag31):
    s = default_sorting(dag31)
    with pytest.raises(IndexOutOfRange):
        layer(dag31, s, 5)
    with pytest.raises(IndexOutOfRange):
        layer(dag31, s, -1)
    with pytest.raises(NotATopologicalSorting):
        layer(dag31, ("b", "a", "c", "d"), 0)


def test_layers_multiply_to_the_relation(dag31):
    # with node images = identity, the plain layer product is the
    # interface reachability relation (BOOL arithmetic saturates)
    s = default_sorting(dag31)
    acc = layer(dag31, s, 0)
    for k in range(1, 5):
        acc = acc.then(layer(dag31, s, k))
    assert acc.entries == ((1,), (1,), (1,))


# ---------------------------------------------------------------------------
# encode_relation


def test_encode_identity():
    assert encode_relation(matrix_identity(3, NAT)) == Id(3)
    assert encode_relation(matrix_identity(0, BOOL)) == Id(0)


def test_encode_single_merge():
    assert encode_relation(matrix([[1], [1]], NAT)) == Nabla()


def test_encode_doubling():
    e = encode_relation(matrix([[2]], NAT))
    assert e == Seq(Delta(), Nabla())
    assert evaluate(e, MatrixModel(NAT)).entries == ((2,),)


def test_encode_discard_and_feed():
    # zero row -> eps; zero column -> eta
    e = encode_relation(matrix([[0], [1]], NAT))
    assert evaluate(e, MatrixModel(NAT)).entries == ((0,), (1,))
    e = encode_relation(matrix([[0, 1]], NAT))
    assert evaluate(e, MatrixModel(NAT)).entries == ((0, 1),)


def test_encode_negative_entries():
    m = matrix([[-2, 1]], INT)
    e = encode_relation(m)
    assert evaluate(e, MatrixModel(INT)) == m


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from((4, 1000, 10**20)))
def test_encode_inverts_through_eval(seed, max_abs):
    from idag.randgen import random_matrix

    rng = random.Random(seed)
    ws = (BOOL, NAT, INT)[seed % 3]
    m = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6), ws, max_abs)
    assert evaluate(encode_relation(m), MatrixModel(ws)) == m


def test_permutation_expression_routes_every_permutation():
    for n in range(6):
        for perm in itertools.permutations(range(n)):
            e = permutation_expression(perm)
            assert evaluate(e, LoopsModel()).perm == perm
            # one crossing at most per maximal run of consecutive targets
            runs = sum(1 for s in range(n) if s == 0 or perm[s] != perm[s - 1] + 1)
            assert sum(isinstance(a, Sym) for a in atoms(e)) <= runs
    assert permutation_expression([1, 0]) == Sym(1, 1)
    with pytest.raises(NotBijective):
        permutation_expression([0, 0])


def test_encode_a_heavy_entry_in_linear_time():
    # matrix evaluation of the encoding is linear in the copies as well
    w = 20_000
    mat = matrix([[1, 0, w], [0, 1, 0]], NAT)
    t0 = time.perf_counter()
    e = encode_relation(mat)
    assert time.perf_counter() - t0 < 2.0
    assert evaluate(e, MatrixModel(NAT)) == mat
    assert time.perf_counter() - t0 < 2.0
    assert sum(isinstance(a, Sym) for a in atoms(e)) == 1


# ---------------------------------------------------------------------------
# decompose / interpret


def test_decompose_node_free_is_relation_encoding():
    d = make_idag(2, 2, [], {(In(0), Out(1)): 1, (In(1), Out(0)): 1})
    e = decompose(d, ())
    assert e == encode_relation(matrix([[0, 1], [1, 0]], BOOL))


def test_decompose_round_trip(dag31):
    s = default_sorting(dag31)
    e = decompose(dag31, s)
    back = evaluate(e, FreeIdagModel(BOOL))
    assert canonical_form(back) == canonical_form(dag31)


def test_decompose_other_sorting_same_value(dag31):
    a = decompose(dag31, ("a", "b", "c", "d"))
    b = decompose(dag31, ("a", "c", "b", "d"))
    assert a != b
    assert print_expression(a) != print_expression(b)
    free = FreeIdagModel(BOOL)
    assert canonical_form(evaluate(a, free)) == canonical_form(evaluate(b, free))


def _decompose_by_slice_matrices(d, s):
    # the reference: the matrix-based encoder on every slice matrix
    labels = dict(d.nodes)
    parts = [encode_reference.encode_relation(layer(d, s, 0))]
    for k, nid in enumerate(s):
        box = Node(labels[nid])
        if d.n_in + k > 0:
            box = Ten(Id(d.n_in + k), box)
        parts += [box, encode_reference.encode_relation(layer(d, s, k + 1))]
    return seq_all(parts)


def _heavier(d, rng):
    """d with about half its weights redrawn from 2..2^70, of either sign
    in int mode."""
    signs = (1, -1) if d.weights is INT else (1,)
    wires = tuple(
        {
            src: w if rng.random() < 0.5 else rng.choice(signs) * rng.choice((2**70, rng.randint(2, 2**70)))
            for src, w in wire.items()
        }
        for wire in d.wires
    )
    return Idag(d.weights, d.n_in, d.n_out, d.nodes, wires)


def test_decompose_matches_the_slice_matrices(rng):
    # node and output slices share the call's pads and weight gadgets:
    # weights past 2^63 on both, and sources that feed several outputs
    seen = set()
    for k in range(240):
        ws = (BOOL, NAT, INT)[k % 3]
        n = rng.randint(0, 10)
        d = random_idag(rng, rng.randint(0, 3), rng.randint(0, 4), n, rng.choice((0.15, 0.4, 0.8)), ws)
        if ws is not BOOL and k % 2:
            d = _heavier(d, rng)
        s = sample_topological_sorting(d, rng)
        got, want = decompose(d, s), _decompose_by_slice_matrices(d, s)
        assert got == want
        assert print_expression(got) == print_expression(want)
        fed = {dst.id for _, dst in d.edges if isinstance(dst, NodeRef)}
        if any(w < 0 for w in d.edges.values()):
            seen.add("negative")
        if set(d.node_ids) - fed:
            seen.add("unfed node")
        if 0 in (d.n_in, d.n_out):
            seen.add("width 0")
        for into, wires in (("nodes", d.wires[:n]), ("outputs", d.wires[n:])):
            if any(abs(w) > 2**63 for wire in wires for w in wire.values()):
                seen.add("heavy into " + into)
        feeds = [src for wire in d.wires[n:] for src in wire]
        if len(feeds) > len(set(feeds)):
            seen.add("source feeds two outputs")
    assert seen == {
        "negative",
        "unfed node",
        "width 0",
        "heavy into nodes",
        "heavy into outputs",
        "source feeds two outputs",
    }


def _wide_idag(rng, ws, n=64):
    """n nodes, each fed by up to 8 of the inputs and earlier nodes, and up
    to 8 sources per output, with weights of 1 and above (NAT) or of either
    sign (INT)."""
    n_in, n_out = rng.randint(0, 3), rng.randint(1, 3)
    signs = (1, -1) if ws is INT else (1,)
    wires = []
    for k in range(n + n_out):
        live = n_in + min(k, n)
        sources = rng.sample(range(live), min(live, rng.randint(0, 8)))
        wires.append({s: rng.choice(signs) * rng.choice((1, 1, 2, 3, 2**40 + 1)) for s in sources})
    nodes = tuple((f"v{k}", rng.choice("ab")) for k in range(n))
    return Idag(ws, n_in, n_out, nodes, tuple(wires))


def test_decompose_matches_the_slice_matrices_at_the_benchmark_widths(rng):
    # N = 64 with in-degree up to 8, as the matrix benchmark draws: scale
    # rows, and crossings past up to 65 wires that one call shares. These
    # are too wide to count their sortings, so each is sliced along its
    # node order or its default sorting
    for k in range(4):
        ws = (NAT, INT)[k % 2]
        d = _wide_idag(rng, ws)
        assert any(w != 1 for wire in d.wires[:64] for w in wire.values())
        model = MatrixModel(ws, {"a": 2, "b": -1 if ws is INT else 3})
        s = d.node_ids if k < 2 else default_sorting(d)
        got, want = decompose(d, s), _decompose_by_slice_matrices(d, s)
        assert got == want
        assert print_expression(got) == print_expression(want)
        assert evaluate(got, model) == interpret(d, s, model)


@pytest.mark.parametrize(
    "w",
    [s * k for k in range(1, 10) for s in (1, -1)]
    + [s * 2**k for k in (5, 63, 64) for s in (1, -1)]
    + [3**40, 10**20, -(10**20)],
)
def test_weights_take_log_atoms_and_keep_their_value(w):
    ws = INT if w < 0 else NAT
    assert sum(1 for _ in atoms(decomposition._scale(w))) <= 8 * abs(w).bit_length()
    e = encode_relation(matrix([[w, -1]], INT))
    assert evaluate(e, MatrixModel(INT)).entries == ((w, -1),)
    # w on an edge into the outputs, on an inner edge whose node slice keeps
    # two live wires, and on edges next to weight-1 edges on both sides
    a = NodeRef("a")
    fed = {(In(0), a): 1, (In(1), a): w, (a, Out(1)): w, (In(0), Out(0)): w}
    for d in (_chain([w], ws), _chain([1, w, 1], ws), make_idag(2, 2, ["a"], fed, ws)):
        s = default_sorting(d)
        e = decompose(d, s)
        assert e == _decompose_by_slice_matrices(d, s)
        assert evaluate(e, MatrixModel(ws)) == interpret(d, s, MatrixModel(ws))
        assert canonical_form(evaluate(e, FreeIdagModel(ws))) == canonical_form(d)
    assert evaluate(e, MatrixModel(ws)).entries == ((w, w), (0, w * w))


def test_decomposition_is_linear_in_size(rng):
    for k in range(30):
        ws = (BOOL, NAT, INT)[k % 3]
        n = rng.randint(0, 48)
        d = random_idag(rng, rng.randint(0, 4), rng.randint(0, 4), n, min(1.0, 3 / (n / 2 + 2)), ws)
        e = decompose(d, sample_topological_sorting(d, rng) if n < 12 else default_sorting(d))
        parts = list(atoms(e))
        assert sum(isinstance(a, Sym) for a in parts) <= len(d.edges)
        assert len(parts) <= 16 * (n + len(d.edges) + d.n_in + d.n_out)


def test_decompose_and_evaluate_400_nodes():
    rng = random.Random(400)
    d = random_idag(rng, 3, 3, 400, 3 / (399 / 2 + 3), NAT, labels=("x", "y"))
    t0 = time.perf_counter()
    back = evaluate(decompose(d, default_sorting(d)), FreeIdagModel(NAT))
    assert is_isomorphic(back, d) is not None
    assert time.perf_counter() - t0 < 20.0


def test_interpret_identity():
    for model in (FreeIdagModel(NAT), MatrixModel(NAT)):
        got = interpret(identity(3), (), model)
        assert model.equal(got, model.identity(3))


def test_interpret_matches_eval_of_decompose(rng):
    for _ in range(25):
        ws = (BOOL, NAT, INT)[rng.randint(0, 2)]
        d = random_idag(rng, rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 6), 0.4, ws, labels=("•", "x"))
        s = sample_topological_sorting(d, rng)
        e = decompose(d, s)
        for model in (FreeIdagModel(ws), MatrixModel(ws, {"x": 2 if ws is not BOOL else 0})):
            assert model.equal(interpret(d, s, model), evaluate(e, model))


def test_interpret_path_sums_match_the_fold(rng):
    # FreeIdagModel and MatrixModel read d's wires as a free image (the matrix
    # model by one path-sum pass); a wrapped model takes the slice-by-slice
    # fold, which stays the reference. Labels: "x" has an int image, "y" a
    # matrix image, "z" the zero image, "•" none
    seen = set()
    for k in range(150):
        ws = (BOOL, NAT, INT)[k % 3]
        lo, hi = {BOOL: (0, 1), NAT: (0, 3), INT: (-3, 3)}[ws]
        images = {"x": rng.randint(lo, hi), "y": matrix([[rng.randint(lo, hi)]], ws), "z": 0}
        model = MatrixModel(ws, images)
        labels = ("•", "x", "y", "z")
        d = random_idag(
            rng, rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 9), rng.choice((0.2, 0.5)), ws, labels
        )
        s = sample_topological_sorting(d, rng)
        got = interpret(d, s, model)
        assert got == interpret(d, s, Forwarding(model))
        assert (got.n_in, got.n_out) == (d.n_in, d.n_out)
        free = FreeIdagModel(ws)
        image = interpret(d, s, free)
        assert canonical_form(image) == canonical_form(interpret(d, s, Forwarding(free)))
        assert canonical_form(image) == canonical_form(d)
        if any(w < 0 for w in d.edges.values()):
            seen.add("negative")
        seen.update(lbl for _, lbl in d.nodes)
    assert seen == {"negative", "•", "x", "y", "z"}


def test_interpret_path_sums_and_fold_raise_alike():
    node = make_idag(1, 1, [("p", "x")], [(In(0), NodeRef("p")), (NodeRef("p"), Out(0))], NAT)
    negative = _chain([1, -2], INT)
    p = NodeRef("p")
    out_of_order = make_idag(2, 1, ["p"], [(In(1), p, -3), (In(0), p, -2), (p, Out(0))], INT)
    assert list(out_of_order.wires[0].items()) == [(1, -3), (0, -2)]  # not in source order
    cases = [
        (node, MatrixModel(NAT, {"x": matrix([[2]], INT)}), ModeMismatch),
        (node, MatrixModel(NAT, {"x": matrix([[1, 1]], NAT)}), InterfaceMismatch),
        (node, MatrixModel(NAT, {"x": -1}), InvalidWeight),
        (node, MatrixModel(BOOL, {"x": 2}), InvalidWeight),
        # d's weights must be entries of the model's weight system
        (negative, MatrixModel(NAT), InvalidWeight),
        (_chain([2, 1], NAT), MatrixModel(BOOL), InvalidWeight),
        (_chain([1, 2], NAT), MatrixModel(BOOL), InvalidWeight),
        # several bad weights: the first one the slices meet is reported
        (_chain([-2, -3], INT), MatrixModel(NAT), InvalidWeight),
        (make_idag(2, 2, [], {(In(1), Out(0)): -3, (In(0), Out(1)): -2}, INT), MatrixModel(NAT), InvalidWeight),
        # the free model checks d's weights as edge weights of its own mode
        (negative, FreeIdagModel(NAT), AntipodeWeight),
        (_chain([2, 1], NAT), FreeIdagModel(BOOL), InvalidWeight),
        (_chain([1, 2], NAT), FreeIdagModel(BOOL), InvalidWeight),
        (_chain([-2, -3], INT), FreeIdagModel(NAT), AntipodeWeight),
        (make_idag(2, 2, [], {(In(1), Out(0)): -3, (In(0), Out(1)): -2}, INT), FreeIdagModel(BOOL), AntipodeWeight),
        # a node's bad in-weights are met by row, not in the order of its wire
        (out_of_order, MatrixModel(NAT), InvalidWeight),
        (out_of_order, FreeIdagModel(NAT), AntipodeWeight),
    ]
    for d, model, error in cases:
        s = default_sorting(d)
        raised = []
        for route in (model, Forwarding(model)):
            with pytest.raises(error) as info:
                interpret(d, s, route)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]


def test_two_bad_entries_are_named_column_first():
    # entry (0, 1) is -2 and entry (1, 0) is -3: by column, then by row,
    # -3 comes first, in both relations and in native and fold interpret
    mat = matrix([[0, -2], [-3, 0]], INT)
    with pytest.raises(AntipodeWeight, match="^negative entry -3 "):
        MatrixModel(NAT).relation(mat)
    with pytest.raises(AntipodeWeight, match="^negative weight -3 "):
        FreeIdagModel(NAT).relation(mat)
    d = make_idag(2, 2, [], {(In(1), Out(0)): -3, (In(0), Out(1)): -2}, INT)
    for model in (MatrixModel(NAT), FreeIdagModel(NAT)):
        for route in (model, Forwarding(model)):
            with pytest.raises(AntipodeWeight, match=" -3 "):
                interpret(d, default_sorting(d), route)


def test_free_interpret_of_800_nodes():
    rng = random.Random(800)
    d = random_idag(rng, 3, 3, 800, 3 / (799 / 2 + 3), NAT, labels=("x", "y"))
    s = default_sorting(d)
    t0 = time.perf_counter()
    got = interpret(d, s, FreeIdagModel(NAT))
    assert time.perf_counter() - t0 < 1.0
    assert is_isomorphic(got, d) is not None


def test_interpret_is_exact_below_int64():
    want = (-3) ** 41
    assert want < -(2**63)
    d = _chain([-3] * 41, INT)
    assert interpret(d, default_sorting(d), MatrixModel(INT)).entries == ((want,),)


def test_huge_weight_decomposes_exactly():
    d = _chain([10**20, 1], NAT)
    s = default_sorting(d)
    assert interpret(d, s, MatrixModel(NAT)).entries == ((10**20,),)
    e = decompose(d, s)
    assert evaluate(e, MatrixModel(NAT)).entries == ((10**20,),)
    assert canonical_form(evaluate(e, FreeIdagModel(NAT))) == canonical_form(d)


def test_interpret_worked_example_all_sortings(dag31):
    mm = MatrixModel(NAT)
    values = {interpret(dag31, s, mm).entries for s in topological_sortings(dag31)}
    assert values == {((3,), (2,), (3,))}


# ---------------------------------------------------------------------------
# transpositions


def test_transposition_worked_example(dag31):
    rep = transposition_identities(dag31, ("a", "b", "c", "d"), ("a", "c", "b", "d"), 1)
    assert rep.all_ok
    assert rep.position == 1
    assert rep.prefix_layers_equal
    assert rep.swapped_pair_composite_equal
    assert rep.swap_threads_middle_layers
    assert rep.swap_absorbed_by_final_layer
    assert rep.node_box_slides_past_next_layer


def test_transposition_rejects_equal_sortings(dag31):
    s = default_sorting(dag31)
    with pytest.raises(NotAdjacentTransposition):
        transposition_identities(dag31, s, s, 1)


def test_transposition_rejects_bad_index(dag31):
    a = ("a", "b", "c", "d")
    b = ("a", "c", "b", "d")
    with pytest.raises(IndexOutOfRange):
        transposition_identities(dag31, a, b, 3)
    with pytest.raises(NotAdjacentTransposition):
        transposition_identities(dag31, a, b, 2)


def test_transposition_rejects_non_sorting(dag31):
    a = ("a", "b", "c", "d")
    bad = ("b", "a", "c", "d")
    with pytest.raises(NotATopologicalSorting):
        transposition_identities(dag31, bad, a, 0)
