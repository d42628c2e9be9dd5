import random

import pytest
from hypothesis import given, settings, strategies as st

from idag.algebra import identity, make_idag, symmetry
from idag.builders import seq_all
from idag.core import MAX_WIDTH, In, NodeRef, Out, is_isomorphic, transitive_closure
from idag.decomposition import decompose
from idag.errors import (
    BadEndpoint,
    IdagError,
    InterfaceMismatch,
    InvalidWeight,
    ModeMismatch,
    SizeLimitExceeded,
    UnsupportedGenerator,
    WrongArgumentType,
    ZeroWeight,
)
from idag.loops import LoopsModel, LoopsMorphism, loops_eval
from idag.matrices import MatrixModel, MatrixMorphism, matrix, matrix_identity, matrix_permutation
from idag.models import FreeIdagModel, Model, evaluate
from idag.layers import encode_relation, interpret
from idag.randgen import random_expression, random_matrix
from idag.sortings import sample_topological_sorting
from idag.terms import Anti, Delta, Eps, Eta, Id, Nabla, Node, Seq, Sym, Ten, arity_of, parse
from idag.weights import BOOL, INT, NAT

import fold_reference


# ---------------------------------------------------------------------------
# generator images in the free model


def test_free_images():
    free = FreeIdagModel(BOOL)
    assert evaluate(Eta(), free) == make_idag(0, 1, [], {})
    assert evaluate(Nabla(), free) == make_idag(2, 1, [], [(In(0), Out(0)), (In(1), Out(0))])
    assert evaluate(Eps(), free) == make_idag(1, 0, [], {})
    assert evaluate(Delta(), free) == make_idag(1, 2, [], [(In(0), Out(0)), (In(0), Out(1))])
    node = evaluate(Node("x"), FreeIdagModel(NAT))
    assert node == make_idag(1, 1, [("0", "x")], [(In(0), NodeRef("0")), (NodeRef("0"), Out(0))], NAT)
    anti = evaluate(Anti(), FreeIdagModel(INT))
    assert dict(anti.edges) == {(In(0), Out(0)): -1}
    with pytest.raises(UnsupportedGenerator):
        evaluate(Anti(), FreeIdagModel(NAT))
    # a generator's value is its image, whichever method is asked
    for gen, ws in ((Node("x"), NAT), (Anti(), INT), (Delta(), BOOL)):
        assert FreeIdagModel(ws).generator(gen) == evaluate(gen, FreeIdagModel(ws))


# ---------------------------------------------------------------------------
# matrix model


def test_matrix_examples():
    assert evaluate(parse("delta ; nabla"), MatrixModel(NAT)).entries == ((2,),)
    assert evaluate(parse("nabla ; delta"), MatrixModel(NAT)).entries == ((1, 1), (1, 1))
    assert evaluate(parse("delta ; nabla"), MatrixModel(BOOL)).entries == ((1,),)
    hopf = parse("delta ; (anti * id(1)) ; nabla")
    assert evaluate(hopf, MatrixModel(INT)).entries == ((0,),)
    assert evaluate(hopf, MatrixModel(INT)) == evaluate(parse("eps ; eta"), MatrixModel(INT))
    assert hash(evaluate(hopf, MatrixModel(INT))) == hash(evaluate(parse("eps ; eta"), MatrixModel(INT)))
    # each generator's image, pinned by literal: the walk and the fold both
    # read it from the generator table
    for ws in (BOOL, NAT, INT):
        model = MatrixModel(ws)
        eta, eps = model.generator(Eta()), model.generator(Eps())
        assert (eta.n_in, eta.n_out, eta.entries) == (0, 1, ())
        assert (eps.n_in, eps.n_out, eps.entries) == (1, 0, ((),))
        assert model.generator(Nabla()).entries == ((1,), (1,))
        assert model.generator(Delta()).entries == ((1, 1),)
        if ws is INT:
            assert model.generator(Anti()).entries == ((-1,),)
        else:
            with pytest.raises(UnsupportedGenerator):
                model.generator(Anti())


def test_matrix_is_exact_beyond_int64():
    e = seq_all([Seq(Delta(), Nabla())] * 64)
    assert evaluate(e, MatrixModel(NAT)).entries == ((2**64,),)
    assert evaluate(e, FreeIdagModel(NAT)).weight(In(0), Out(0)) == 2**64


def test_matrix_constructors():
    m = matrix([[1, 2], [0, 3]], NAT)
    assert m.n_in == 2 and m.n_out == 2
    assert matrix_identity(3, INT).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert matrix_permutation([1, 0], BOOL).entries == ((0, 1), (1, 0))
    assert matrix([], NAT, n=0, m=2).n_out == 2


def _dense_product(a, b, m, ws):
    """The row-major product of dense matrices a (n x k) and b (k x m)."""
    prod = [[sum(x * row[j] for x, row in zip(a_row, b)) for j in range(m)] for a_row in a]
    return [[min(x, 1) for x in row] for row in prod] if ws is BOOL else prod


def test_then_and_tensor_agree_with_dense_products():
    # columns store the matrix; the dense rows are the reference, with
    # entries past 2^63 in NAT and INT
    rng = random.Random(26)
    for case in range(90):
        ws = (BOOL, NAT, INT)[case % 3]
        n, k, m = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        f = random_matrix(rng, n, k, ws, (4, 2**70)[case % 2])
        g = random_matrix(rng, k, m, ws, (4, 2**70)[case % 2])
        a, b = f.entries, g.entries
        assert [list(row) for row in f.then(g).entries] == _dense_product(a, b, m, ws)
        blocks = [list(row) + [0] * m for row in a] + [[0] * k + list(row) for row in b]
        assert [list(row) for row in f.tensor(g).entries] == blocks
        for mat in (f, g, f.then(g), f.tensor(g)):
            rebuilt = matrix(mat.entries, ws, mat.n_in, mat.n_out)
            assert rebuilt == mat and hash(rebuilt) == hash(mat)


def test_matrix_rejects_ragged_rows():
    with pytest.raises(InvalidWeight):
        matrix([[1, 2], [3]], NAT)


def test_matrix_then_errors():
    a = matrix([[1]], NAT)
    b = matrix([[1], [1]], NAT)
    with pytest.raises(InterfaceMismatch):
        a.then(b)
    with pytest.raises(ModeMismatch):
        a.then(matrix([[1]], INT))


def test_matrix_bool_clip():
    fan = matrix([[1, 1]], BOOL)
    merge = matrix([[1], [1]], BOOL)
    assert fan.then(merge).entries == ((1,),)


def test_matrix_json_shape():
    obj = matrix([[1, 2]], NAT).to_json_obj()
    assert obj == {"mode": "nat", "inputs": 1, "outputs": 2, "entries": [[1, 2]]}


def test_matrix_lambda_images():
    mm = MatrixModel(NAT, {"x": 3})
    assert evaluate(Node("x"), mm).entries == ((3,),)
    assert evaluate(Node("unlisted"), mm).entries == ((1,),)
    mm2 = MatrixModel(INT, {"x": -2})
    assert evaluate(Seq(Node("x"), Node("x")), mm2).entries == ((4,),)
    # an image is an int: a 1 x 1 matrix is not one
    with pytest.raises(InvalidWeight):
        evaluate(Node("x"), MatrixModel(INT, {"x": matrix([[-2]], INT)}))


def test_matrix_rejects_anti_without_negatives():
    with pytest.raises(UnsupportedGenerator):
        evaluate(Anti(), MatrixModel(NAT))
    with pytest.raises(UnsupportedGenerator):
        evaluate(Anti(), MatrixModel(BOOL))


# ---------------------------------------------------------------------------
# loops model


def test_loops_examples():
    assert loops_eval(parse("node[x] ; node[y]")) == LoopsMorphism((0,), (("y", "x"),))
    assert loops_eval(parse("sym(1,1)")) == LoopsMorphism((1, 0), ((), ()))
    assert loops_eval(parse("(node[x] * id(1)) ; sym(1,1)")) == LoopsMorphism(
        (1, 0), (("x",), ())
    )
    assert loops_eval(Id(3)) == LoopsMorphism((0, 1, 2), ((), (), ()))


def test_loops_rejects_structural_generators():
    # alone, and in composites whose free image in INT is not a wiring
    for e in (Eta(), Nabla(), Eps(), Delta(), Anti(), parse("delta ; nabla"), parse("nabla ; delta")):
        with pytest.raises(UnsupportedGenerator, match="^loops model interprets only wires, crossings and node boxes$"):
            evaluate(e, LoopsModel())


def test_loops_composition_formula():
    a = parse("(node[x] * id(1)) ; sym(1,1)")
    b = parse("node[u] * node[v]")
    assert loops_eval(a) == LoopsMorphism((1, 0), (("x",), ()))
    assert loops_eval(b) == LoopsMorphism((0, 1), (("u",), ("v",)))
    c = loops_eval(Seq(a, b))
    assert c.perm == (1, 0)
    # wire 0 passes through a (word x, lands on 1), then picks up b's word at 1
    assert c.words == (("v", "x"), ("u",))


def test_loops_model_reads_composites_whose_image_is_a_wiring():
    wirings = {
        "delta ; (eps * id(1))": LoopsMorphism((0,), ((),)),
        "anti ; anti": LoopsMorphism((0,), ((),)),
        "eta ; eps": LoopsMorphism((), ()),
        "delta ; (id(1) * eps) ; node[x]": LoopsMorphism((0,), (("x",),)),
        "(delta ; (eps * node[y])) * id(1) ; sym(1,1)": LoopsMorphism((1, 0), (("y",), ())),
    }
    for text, want in wirings.items():
        assert loops_eval(parse(text)) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_loops_model_reads_chain_idags_on_both_routes(seed):
    # an idag of disjoint chains, wired to its outputs by a random
    # permutation: its decomposition copies each wire a node reads and
    # discards the copy, yet its value is a wiring
    rng = random.Random(seed)
    n = rng.randint(0, 5)
    targets = list(range(n))
    rng.shuffle(targets)
    nodes, edges = [], []
    for i, target in enumerate(targets):
        at = In(i)
        for k in range(rng.randint(0, 3)):
            nid = f"{i}.{k}"
            nodes.append((nid, rng.choice(("x", "y"))))
            edges.append((at, NodeRef(nid)))
            at = NodeRef(nid)
        edges.append((at, Out(target)))
    d = make_idag(n, n, nodes, edges, rng.choice((BOOL, NAT, INT)))
    s = sample_topological_sorting(d, rng)
    got = interpret(d, s, LoopsModel())
    assert evaluate(decompose(d, s), LoopsModel()) == got
    assert (got.perm, got.words) == _free_path_reading(d)


def _free_path_reading(d):
    """Recover (perm, words) from a free-model value of a node/sym expression:
    follow each input's unique path, collecting labels."""
    succ = {}
    for (src, dst), _ in d.edges.items():
        assert src not in succ
        succ[src] = dst
    perm = [None] * d.n_in
    words = []
    for i in range(d.n_in):
        v = succ[In(i)]
        picked = []
        while isinstance(v, NodeRef):
            picked.append(d.label_of(v.id))
            v = succ[v]
        perm[i] = v.index
        words.append(tuple(reversed(picked)))
    return tuple(perm), tuple(words)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_loops_agrees_with_free_model(seed):
    rng = random.Random(seed)
    width = rng.randint(0, 4)
    rows = [_consume_row(rng, width, True) for _ in range(rng.randint(1, 4))]
    e = seq_all(rows)
    got = loops_eval(e)
    d = evaluate(e, FreeIdagModel(BOOL))
    perm, words = _free_path_reading(d)
    assert got.perm == perm
    assert got.words == words


# ---------------------------------------------------------------------------
# PROP laws, uniformly over models


from helpers import Forwarding, Recording, consume_row as _consume_row  # noqa: E402


def _models_for(seed):
    ws = (BOOL, NAT, INT)[seed % 3]
    return [
        FreeIdagModel(ws),
        MatrixModel(ws, {"x": 2 if ws is not BOOL else 0, "y": 3 if ws is not BOOL else 1}),
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_model_composition_laws(seed):
    rng = random.Random(seed)
    e1 = _consume_row(rng, rng.randint(0, 4), False)
    n1, m1 = arity_of(e1)
    e2 = _consume_row(rng, m1, False)
    _, m2 = arity_of(e2)
    e3 = _consume_row(rng, m2, False)
    for model in _models_for(seed):
        lhs = evaluate(Seq(Seq(e1, e2), e3), model)
        rhs = evaluate(Seq(e1, Seq(e2, e3)), model)
        assert model.equal(lhs, rhs)
        assert model.equal(evaluate(Seq(e1, Id(m1)), model), evaluate(e1, model))
        assert model.equal(evaluate(Seq(Id(n1), e1), model), evaluate(e1, model))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_model_interchange_and_symmetry(seed):
    rng = random.Random(seed)
    e1 = _consume_row(rng, rng.randint(0, 3), False)
    n1, m1 = arity_of(e1)
    f1 = _consume_row(rng, m1, False)
    e2 = _consume_row(rng, rng.randint(0, 3), False)
    n2, m2 = arity_of(e2)
    f2 = _consume_row(rng, m2, False)
    for model in _models_for(seed):
        lhs = evaluate(Seq(Ten(e1, e2), Ten(f1, f2)), model)
        rhs = evaluate(Ten(Seq(e1, f1), Seq(e2, f2)), model)
        assert model.equal(lhs, rhs)
        nat_l = evaluate(Seq(Ten(e1, e2), Sym(m1, m2)), model)
        nat_r = evaluate(Seq(Sym(n1, n2), Ten(e2, e1)), model)
        assert model.equal(nat_l, nat_r)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_free_evaluation_matches_the_fold(seed):
    # evaluate() runs FreeIdagModel on a wire list, and a wrapped model gets
    # that image slice by slice; the compose/tensor fold over e is the
    # reference
    rng = random.Random(seed)
    ws = (BOOL, NAT, INT)[seed % 3]
    e = random_expression(rng, max_depth=rng.randint(1, 5), allow_anti=ws is INT)
    free = FreeIdagModel(ws)
    fast = evaluate(e, free)
    assert (fast.n_in, fast.n_out) == arity_of(e)
    assert is_isomorphic(fast, evaluate(e, Forwarding(free))) is not None
    assert is_isomorphic(fast, fold_reference.evaluate(e, free)) is not None


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_matrix_evaluation_matches_the_fold(seed):
    # MatrixModel runs on a wire list as well; the fold is the reference.
    # "x" and "y" have images, the default label none
    rng = random.Random(seed)
    ws = (BOOL, NAT, INT)[seed % 3]
    e = random_expression(rng, max_depth=rng.randint(1, 5), allow_anti=ws is INT)
    lo, hi = {BOOL: (0, 1), NAT: (0, 3), INT: (-3, 3)}[ws]
    model = MatrixModel(ws, {"x": rng.randint(lo, hi), "y": rng.randint(lo, hi)})
    fast = evaluate(e, model)
    assert (fast.n_in, fast.n_out) == arity_of(e)
    assert fast == evaluate(e, Forwarding(model))
    assert fast == fold_reference.evaluate(e, model)


def test_matrix_walk_and_fold_raise_alike():
    from idag.errors import TypeMismatch

    hopf = parse("delta ; (anti * id(1)) ; nabla")
    boxed = parse("delta ; (id(1) * node[x]) ; nabla")
    cases = [
        (Seq(Nabla(), Nabla()), MatrixModel(NAT), TypeMismatch),
        (hopf, MatrixModel(NAT), UnsupportedGenerator),
        (hopf, MatrixModel(BOOL), UnsupportedGenerator),
        (boxed, MatrixModel(NAT, {"x": matrix([[2]], NAT)}), InvalidWeight),
        (boxed, MatrixModel(NAT, {"x": -1}), InvalidWeight),
    ]
    routes = (evaluate, lambda e, model: evaluate(e, Forwarding(model)), fold_reference.evaluate)
    for e, model, error in cases:
        for run in routes:
            with pytest.raises(error):
                run(e, model)


# ---------------------------------------------------------------------------
# one route: a model outside the native ones gets the free image by slices


_ROUTED = [
    "delta ; (node[x] * node[y]) ; sym(1,1) ; nabla ; node[z]",
    "(node[x] * id(2)) ; (id(1) * sym(1,1)) ; (nabla * node[y]) ; sym(1,1)",
    "eta * id(1) ; (node[x] * delta) ; (id(1) * eps * node[y])",
    "id(0)",
    "sym(2,1) ; id(3)",
]


def test_a_wrapping_model_is_asked_only_for_slices_and_node_boxes():
    rng = random.Random(35)
    exprs = [parse(text) for text in _ROUTED]
    exprs += [random_expression(rng, max_depth=4, labels=("x", "y")) for _ in range(20)]
    for ws in (BOOL, NAT, INT):
        for e in exprs:
            image = evaluate(e, FreeIdagModel(ws))
            # the slices, a pad beside each node box with a wire left of
            # it, and the weights probe, the relation of the 0 x 0 matrix
            pads = sum(1 for k in range(len(image.nodes)) if image.n_in + k > 0)
            for model in (FreeIdagModel(ws), MatrixModel(ws, {"x": 0, "y": 1})):
                recording = Recording(model)
                got = evaluate(e, recording)
                names = [name for name, _ in recording.calls]
                boxes = [args[0] for name, args in recording.calls if name == "generator"]
                assert boxes == [Node(label) for _, label in image.nodes]
                assert names.count("relation") == len(image.nodes) + 1 + pads + 1
                if type(model) is FreeIdagModel:
                    assert is_isomorphic(got, evaluate(e, model)) is not None
                else:
                    assert got == evaluate(e, model)


def test_a_models_weights_are_those_of_its_relation():
    assert Forwarding(MatrixModel(INT)).weights is INT
    assert Forwarding(FreeIdagModel(NAT)).weights is NAT
    assert Forwarding(MatrixModel(BOOL)).weights is BOOL
    assert LoopsModel().weights is INT and MatrixModel(BOOL).weights is BOOL
    # a loops morphism names no weight system
    with pytest.raises(WrongArgumentType, match="^Forwarding names no weight system"):
        Forwarding(LoopsModel()).weights
    with pytest.raises(WrongArgumentType, match="^Forwarding names no weight system"):
        evaluate(Node("x"), Forwarding(LoopsModel()))


def test_a_model_that_defines_nothing_raises_an_idag_error():
    d = make_idag(1, 1, [("p", "x")], [(In(0), NodeRef("p")), (NodeRef("p"), Out(0))])
    calls = [
        ("relation", lambda: evaluate(parse("id(1)"), Model())),
        ("relation", lambda: interpret(d, ["p"], Model())),
        ("relation", lambda: Model().weights),
        ("generator", lambda: Model().generator(Node("x"))),
        ("compose", lambda: Model().compose(1, 2)),
        ("tensor", lambda: Model().tensor(1, 2)),
        ("equal", lambda: Model().equal(1, 2)),
    ]
    for method, call in calls:
        with pytest.raises(UnsupportedGenerator, match=f"^Model does not define {method}$"):
            call()


def test_a_matrix_model_keeps_its_own_images():
    images = {"x": 2}
    model = MatrixModel(NAT, images)
    images["x"] = 5
    assert evaluate(Node("x"), model).entries == ((2,),)
    assert model == MatrixModel(NAT, {"x": 2})


# ---------------------------------------------------------------------------
# wiring enters every model through relation: id and sym are permutation
# matrices


def test_a_model_is_five_methods_and_its_weights():
    public = {name for name in dir(Model) if not name.startswith("_")}
    assert public == {"generator", "compose", "tensor", "relation", "equal", "weights"}
    for cls in (FreeIdagModel, MatrixModel, LoopsModel):
        assert not hasattr(cls, "identity") and not hasattr(cls, "symmetry")


class _Asked(Recording):
    """A Recording that also logs the public name of every attribute read."""

    def __init__(self, inner):
        super().__init__(inner)
        self.asked = set()

    def __getattribute__(self, name):
        if not name.startswith("_") and name not in ("inner", "calls", "asked"):
            object.__getattribute__(self, "asked").add(name)
        return object.__getattribute__(self, name)


def test_a_wrapping_model_is_asked_only_for_the_five_methods_and_weights():
    rng = random.Random(36)
    exprs = [parse(text) for text in _ROUTED] + [parse("sym(1,1) ; node[x] * node[y]")]
    exprs += [random_expression(rng, max_depth=4, labels=("x", "y")) for _ in range(10)]
    allowed = {"weights", "generator", "compose", "tensor", "relation"}
    for model in (FreeIdagModel(NAT), MatrixModel(INT, {"x": 2}), LoopsModel()):
        for e in exprs:
            image = evaluate(e, FreeIdagModel(INT))
            for run in (lambda m: evaluate(e, m), lambda m: interpret(image, image.node_ids, m)):
                asked = _Asked(model)
                try:
                    run(asked)
                except IdagError:
                    pass  # the loops model names no weight system, nor images
                assert asked.asked <= allowed
                assert {name for name, _ in asked.calls} <= allowed


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_a_model_without_wiring_evaluates_wide_ids_and_syms(seed):
    # e padded by wide ids and crossed over them on both sides
    rng = random.Random(seed)
    ws = (BOOL, NAT, INT)[seed % 3]
    e = random_expression(rng, max_depth=rng.randint(1, 4), allow_anti=ws is INT, labels=("x", "y"))
    n, m = arity_of(e)
    k, j = rng.randint(0, 6), rng.randint(0, 6)
    wide = Seq(Seq(Sym(k + n, j), Ten(Id(k), Ten(e, Id(j)))), Sym(k, m + j))
    lo, hi = {BOOL: (0, 1), NAT: (0, 3), INT: (-3, 3)}[ws]
    model = MatrixModel(ws, {"x": rng.randint(lo, hi), "y": rng.randint(lo, hi)})
    for x in (e, wide):
        assert evaluate(x, Forwarding(model)) == evaluate(x, model)
        assert fold_reference.evaluate(x, model) == evaluate(x, model)


def test_each_models_wiring_is_its_own_construction():
    for n in range(5):
        ident = matrix_identity(n, BOOL)
        assert LoopsModel().relation(ident) == LoopsMorphism(tuple(range(n)), ((),) * n)
        for ws in (BOOL, NAT, INT):
            assert FreeIdagModel(ws).relation(ident) == identity(n, ws)
            assert MatrixModel(ws).relation(ident) == matrix_identity(n, ws)
        for m in range(5):
            perm = [m + i for i in range(n)] + list(range(m))  # wire i to m+i
            cross = matrix_permutation(perm, BOOL)
            assert LoopsModel().relation(cross) == LoopsMorphism(tuple(perm), ((),) * (n + m))
            for ws in (BOOL, NAT, INT):
                assert FreeIdagModel(ws).relation(cross) == symmetry(n, m, ws)
                assert MatrixModel(ws).relation(cross) == matrix_permutation(perm, ws)


def _raised(call):
    try:
        call()
    except IdagError as exc:
        return type(exc), str(exc)
    raise AssertionError("no error")


_BAD_WIDTHS = (-1, True, None, 1.5, MAX_WIDTH + 1)


_MODELS = [FreeIdagModel(), MatrixModel(INT), LoopsModel(), Forwarding(MatrixModel())]


@pytest.mark.parametrize("model", _MODELS, ids=lambda m: type(m).__name__)
def test_wiring_widths_are_checked_before_they_are_summed(model):
    # a matrix's widths raise the algebra constructors' own errors, class
    # and message, before any row is read
    for bad in _BAD_WIDTHS:
        want = _raised(lambda: identity(bad))
        assert _raised(lambda: model.relation(MatrixMorphism(BOOL, bad, ({0: 1},)))) == want
    past = (SizeLimitExceeded, f"width {MAX_WIDTH + 1} exceeds the bound {MAX_WIDTH}")
    assert _raised(lambda: model.relation(MatrixMorphism(BOOL, 0, ({},) * (MAX_WIDTH + 1)))) == past


_MALFORMED = [
    # a row outside 0..n_in-1, or not an int
    (MatrixMorphism(BOOL, 1, ({5: 1},)), BadEndpoint, "^column 0 has a row that is not an int in range\\(1\\)$"),
    (MatrixMorphism(BOOL, 2, ({0: 1}, {-1: 1})), BadEndpoint, "^column 1 has a row "),
    (MatrixMorphism(BOOL, 2, ({True: 1},)), BadEndpoint, "^column 0 has a row "),
    (MatrixMorphism(BOOL, 2, ({"0": 1},)), BadEndpoint, "^column 0 has a row "),
    # an explicit zero, which an absent entry already denotes
    (MatrixMorphism(NAT, 1, ({0: 0},)), ZeroWeight, "^zero weight: omit the edge instead$"),
    (MatrixMorphism(INT, 2, ({0: 1, 1: 0},)), ZeroWeight, "^zero weight"),
    # an entry that is not an int, hashable or not
    (MatrixMorphism(INT, 1, ({0: [1]},)), InvalidWeight, " \\[1\\] is not an integer$"),
    (MatrixMorphism(INT, 1, ({0: 1.0},)), InvalidWeight, " 1.0 is not an integer$"),
]


@pytest.mark.parametrize("model", _MODELS, ids=lambda m: type(m).__name__)
def test_relation_rejects_malformed_matrices(model):
    for mat, error, message in _MALFORMED:
        with pytest.raises(error, match=message):
            model.relation(mat)


def test_encode_relation_rejects_malformed_matrices():
    for mat, error, message in _MALFORMED:
        with pytest.raises(error, match=message):
            encode_relation(mat)


def test_an_explicit_zero_is_refused_not_misjudged():
    # ({0: 0},) and ({},) have the same entries, ((0,),); a relation that
    # kept the zero would make model.equal call the two unequal
    model = MatrixModel(NAT)
    assert MatrixMorphism(NAT, 1, ({0: 0},)).entries == MatrixMorphism(NAT, 1, ({},)).entries
    with pytest.raises(ZeroWeight):
        model.relation(MatrixMorphism(NAT, 1, ({0: 0},)))
    assert model.equal(model.relation(MatrixMorphism(NAT, 1, ({},))), matrix([[0]], NAT))


def test_symmetry_checks_its_widths_then_their_sum_then_its_mode():
    assert _raised(lambda: symmetry(-1, 1, None))[0] is BadEndpoint
    assert _raised(lambda: symmetry(MAX_WIDTH, 1, None))[0] is SizeLimitExceeded
    assert _raised(lambda: symmetry(1, 1, None))[0] is WrongArgumentType


# ---------------------------------------------------------------------------
# bridge: BOOL matrix = interface reachability of the free value


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_bool_matrix_is_reachability(seed):
    rng = random.Random(seed)
    e = _consume_row(rng, rng.randint(0, 4), False)
    e = Seq(e, _consume_row(rng, arity_of(e)[1], False))
    mat = evaluate(e, MatrixModel(BOOL))
    d = evaluate(e, FreeIdagModel(BOOL))
    tc = transitive_closure(d)
    for i in range(d.n_in):
        for j in range(d.n_out):
            assert mat.entries[i][j] == tc.weight(In(i), Out(j))


# ---------------------------------------------------------------------------
# deliberate break: a wrong merge image must fail the axiom suite


def test_mutant_images_fail_axioms(monkeypatch):
    import idag.selftest as selftest
    import idag.terms as terms

    # a merge that drops its second input; every arity stays the same
    monkeypatch.setitem(terms._GENERATORS, Nabla, ("nabla", 2, (((0, 1),),)))
    assert arity_of(Nabla()) == (2, 1)
    res = selftest.suite_axioms()
    assert res.failures

    lines = []
    monkeypatch.setattr(selftest, "REDUCED", selftest.REDUCED[:1])
    assert selftest.run_selftest(seed=0, out=lines.append) is False
    assert any("axioms" in ln and "FAIL" in ln for ln in lines)


def test_free_evaluation_drops_cancelled_edges():
    hopf = parse("delta ; (anti * id(1)) ; nabla")
    assert dict(evaluate(hopf, FreeIdagModel(INT)).edges) == {}
    twice = parse("delta ; (node[x] * id(1)) ; (id(1) * anti) ; nabla")
    d = evaluate(Seq(twice, hopf), FreeIdagModel(INT))
    assert len(d.nodes) == 1 and len(d.edges) == 1


def test_generator_table_serves_parser_printer_and_models():
    from idag.printer import print_expression
    from idag.terms import _GENERATORS

    assert set(_GENERATORS) == {Eta, Nabla, Eps, Delta, Anti}
    for cls, (keyword, _, _) in _GENERATORS.items():
        assert type(parse(keyword)) is cls
        assert print_expression(cls()) == keyword
        for ws in (BOOL, NAT, INT):
            if cls is Anti and ws is not INT:
                continue
            img = evaluate(cls(), FreeIdagModel(ws))
            mat = MatrixModel(ws).generator(cls())
            assert arity_of(cls()) == (img.n_in, img.n_out) == (mat.n_in, mat.n_out)


def test_evaluate_type_checks_first():
    from idag.errors import TypeMismatch

    with pytest.raises(TypeMismatch):
        evaluate(Seq(Nabla(), Nabla()), MatrixModel(NAT))
