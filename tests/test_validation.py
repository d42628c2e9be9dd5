"""Public constructors reject values they cannot represent with an IdagError,
never a TypeError or a malformed value: widths and indices must be ints (a
bool is not one), permutation entries too, and node labels strings."""

import inspect
import itertools
import random
import re

import pytest

import idag
from idag.algebra import concat, from_permutation, identity, juxt, make_idag, symmetry
from idag.builders import map_atoms, seq_all, ten_all
from idag.core import (
    In,
    NodeRef,
    Out,
    canonical_form,
    is_isomorphic,
    prune_dangling,
    transitive_closure,
)
from idag.decomposition import decompose, default_sorting, permutation_expression
from idag.dot import idag_to_dot
from idag.equivalence import TRANSITIVE, TheoryMode, equal_mod_theory, normalize
from idag.errors import (
    BadEndpoint,
    IdagError,
    IndexOutOfRange,
    ModeMismatch,
    NotBijective,
    SchemaError,
    UnsupportedGenerator,
    WrongArgumentType,
)
from idag.jsonio import idag_to_json
from idag.jsonread import idag_from_json
from idag.layers import encode_relation, interpret, layer, transposition_identities
from idag.loops import LoopsModel, LoopsMorphism
from idag.matrices import MatrixModel, matrix, matrix_identity, matrix_permutation
from idag.models import FreeIdagModel, evaluate
from idag.randgen import random_expression, random_idag, random_matrix
from idag.sortings import count_topological_sortings, sample_topological_sorting
from idag.terms import Id, Node, Seq, Ten, arity_of, parse, validate_for_mode
from idag.weights import BOOL, INT, NAT


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_idag(1.5, 1, [], []),
        lambda: make_idag(True, 1, [], []),
        lambda: make_idag(1, 1.0, [], []),
        lambda: identity(1.5),
        lambda: identity(True),
        lambda: symmetry(1.5, 1),
        lambda: symmetry(1, False),
        lambda: symmetry(None, 1),
        lambda: random_idag(random.Random(1), 1, 1, 1.5, 0.5),
        lambda: random_idag(random.Random(1), 1.5, 1, 2, 0.5),
        lambda: matrix_identity(-1, NAT),
        lambda: matrix_identity(1.5, NAT),
    ],
)
def test_widths_must_be_non_negative_ints(build):
    with pytest.raises(BadEndpoint):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_idag(1, 1, [], [(In(0), Out(0), 2, "x")], NAT),
        lambda: make_idag(1, 1, [], [(In(0),)]),
        lambda: make_idag(1, 1, [], [In(0)]),
        lambda: make_idag(1, 1, [], {In(0): 1}),
        lambda: make_idag(1, 1, [None], []),
        lambda: make_idag(1, 1, [("a", "x", "y")], []),
    ],
    ids=["4-tuple edge", "1-tuple edge", "bare vertex edge", "key not a pair", "None node", "3-tuple node"],
)
def test_malformed_node_and_edge_specs_are_refused(build):
    with pytest.raises(BadEndpoint):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: from_permutation([True, 0]),
        lambda: from_permutation([0.0, 1]),
        lambda: from_permutation(["a", 0]),
        lambda: matrix_permutation([True, 0], NAT),
        lambda: matrix_permutation([1, 0.0], NAT),
        lambda: permutation_expression([1.0, 0]),
        lambda: permutation_expression([True, 0]),
    ],
)
def test_permutation_entries_must_be_ints(build):
    with pytest.raises(NotBijective):
        build()


@pytest.mark.parametrize("label", [5, None, b"x", ("x",), ["x"], Id(1)])
def test_node_labels_must_be_strings(label):
    # a node checks its label where it is built, so no walk meets a bad one
    with pytest.raises(UnsupportedGenerator, match=rf"^node label {re.escape(repr(label))} is not a string$"):
        Node(label)


@pytest.mark.parametrize("model", [FreeIdagModel(), MatrixModel(), LoopsModel()], ids=lambda m: type(m).__name__)
def test_model_generators_reject_labels_that_are_not_strings(model):
    with pytest.raises(UnsupportedGenerator, match="^node label 5 is not a string$"):
        model.generator(Node(5))


def _two_free_nodes():
    return make_idag(1, 1, ["a", "b"], [(In(0), NodeRef("a")), (NodeRef("b"), Out(0))])


@pytest.mark.parametrize(
    "run",
    [
        lambda d: layer(d, ["a", "b"], 0.5),
        lambda d: layer(d, ["a", "b"], True),
        lambda d: transposition_identities(d, ["a", "b"], ["b", "a"], 0.0),
        lambda d: transposition_identities(d, ["a", "b"], ["b", "a"], False),
    ],
)
def test_slice_and_swap_indices_must_be_ints(run):
    with pytest.raises(IndexOutOfRange):
        run(_two_free_nodes())


@pytest.mark.parametrize(
    "build",
    [
        lambda: TheoryMode("x"),
        lambda: TheoryMode(None),
        lambda: TheoryMode(BOOL, 3),
        lambda: TheoryMode(BOOL, TRANSITIVE),
        lambda: TheoryMode(BOOL, [TRANSITIVE]),
        lambda: TheoryMode(BOOL, frozenset({1})),
        lambda: TheoryMode(BOOL, frozenset(), 5),
        lambda: TheoryMode(BOOL, frozenset(), "a"),
        lambda: TheoryMode(BOOL, frozenset(), frozenset({"a", 5})),
        lambda: normalize(Node("a"), TheoryMode(BOOL, frozenset(), 5)),
        lambda: normalize(Node("a"), "bogus"),
        lambda: normalize(Node("a"), None),
        lambda: equal_mod_theory(Node("a"), Node("a"), 3),
    ],
)
def test_mode_arguments_must_be_modes(build):
    with pytest.raises(ModeMismatch, match="needs a WeightSystem|must be a set of str"):
        build()


def test_a_mode_keeps_its_sets_frozen():
    quotients, labels = {TRANSITIVE}, {"a"}
    mode = TheoryMode(BOOL, quotients, labels)
    quotients.add("sideways")
    labels.add("b")
    assert mode == TheoryMode(BOOL, frozenset({TRANSITIVE}), frozenset({"a"}))
    assert type(mode.quotients) is frozenset and type(mode.labels) is frozenset


@pytest.mark.parametrize(
    "call",
    [
        lambda: decompose(3, []),
        lambda: default_sorting(None),
        lambda: count_topological_sortings("x"),
        lambda: interpret(identity(1), default_sorting(identity(1)), None),
        lambda: evaluate(Id(1), 3),
        lambda: canonical_form(None),
        lambda: concat(identity(1), 3),
        lambda: juxt(identity(1), None),
        lambda: is_isomorphic(identity(1), 3),
        lambda: transitive_closure(3),
        lambda: prune_dangling("x"),
        lambda: idag_to_json(3),
        lambda: idag_to_dot(3),
        lambda: encode_relation(None),
        lambda: random_expression(3),
        lambda: random_idag(3, 1, 1, 2, 0.5, BOOL),
        lambda: random_matrix(3, 2, 2, NAT),
        lambda: permutation_expression(None),
        # a weight system is checked where it enters
        lambda: make_idag(1, 1, [], [], None),
        lambda: identity(2, None),
        lambda: from_permutation([0], None),
        lambda: matrix([[1]], None),
        lambda: matrix_identity(2, None),
        lambda: matrix_permutation([0], None),
        lambda: FreeIdagModel(None),
        lambda: MatrixModel(None),
        lambda: random_matrix(random.Random(1), 1, 1, None),
        lambda: symmetry(1, 1, None),
        lambda: validate_for_mode(Id(1), None),
        # and so is every other argument
        lambda: parse(None),
        lambda: from_permutation(None),
        lambda: matrix(None, NAT),
        lambda: matrix([3], NAT),
        lambda: matrix_permutation(None, NAT),
        lambda: seq_all(3),
        lambda: ten_all(3),
        lambda: map_atoms(Id(1), None),
        lambda: make_idag(1, 1, 3, []),
        lambda: make_idag(1, 1, [], None),
        lambda: MatrixModel(NAT, 3),
        lambda: sample_topological_sorting(_two_free_nodes(), None),
        # and so is every argument of a model's or a morphism's methods
        lambda: MatrixModel().relation(None),
        lambda: MatrixModel().compose(3, 4),
        lambda: MatrixModel().tensor(3, 4),
        lambda: MatrixModel().equal(matrix([[1]], NAT), 3),
        lambda: LoopsModel().relation(3),
        lambda: LoopsModel().equal(3, 4),
        lambda: LoopsModel().equal(LoopsMorphism((0,), ((),)), None),
        lambda: FreeIdagModel().compose(3, 4),
        lambda: FreeIdagModel().relation("x"),
        lambda: matrix([[1]], NAT).then(3),
        lambda: matrix([[1]], NAT).tensor(None),
        lambda: FreeIdagModel().tensor(3, 4),
        lambda: FreeIdagModel().equal(identity(1), 3),
    ],
)
def test_idag_and_model_arguments_must_be_idags_and_models(call):
    # a TypeError too, so callers that catch one still do
    kinds = (
        "Idag|Model|MatrixMorphism|LoopsMorphism|Random|Sequence|WeightSystem|str|Callable|Iterable"
        "|Mapping"
    )
    pattern = rf"expected ({kinds}), not (int|NoneType|str)"
    with pytest.raises(WrongArgumentType, match=pattern) as info:
        call()
    assert isinstance(info.value, TypeError)


def test_json_text_of_the_wrong_type_is_a_schema_error():
    with pytest.raises(SchemaError, match="must be str, bytes or bytearray, not int"):
        idag_from_json(3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_idag(1, 1, "ab", []),
        lambda: random_idag(random.Random(1), 1, 1, 3, 0.5, labels="xy"),
        lambda: random_expression(random.Random(1), 2, labels="pq"),
        lambda: validate_for_mode(parse("node[x]"), BOOL, "x"),
    ],
    ids=["make_idag nodes", "random_idag labels", "random_expression labels", "validate_for_mode labels"],
)
def test_a_str_is_not_a_collection_of_ids_or_labels(call):
    # "ab" would otherwise be read as the ids or labels "a" and "b"
    with pytest.raises(WrongArgumentType, match="^expected (Iterable|Collection) other than str, not str$"):
        call()


@pytest.mark.parametrize("labels", [5, 1.5, True])
def test_validate_for_mode_takes_a_collection_of_labels(labels):
    for e in (Id(1), parse("node[x] ; delta ; nabla")):
        with pytest.raises(WrongArgumentType, match=rf"^expected Collection, not {type(labels).__name__}$"):
            validate_for_mode(e, BOOL, labels)
    validate_for_mode(parse("node[x] ; delta ; nabla"), BOOL, ["x"])


def _crown():
    # a_i -> b_j for i != j: symmetric enough that canonical_form searches
    ids = [f"{side}{i}" for side in "ab" for i in range(3)]
    edges = [(NodeRef(f"a{i}"), NodeRef(f"b{j}")) for i in range(3) for j in range(3) if i != j]
    return make_idag(0, 0, ids, edges)


@pytest.mark.parametrize("budget", ["x", None, 1.5, True, TheoryMode(NAT)])
def test_canonical_form_takes_an_int_budget(budget):
    # checked where it enters, whether or not a search runs
    for d in (_crown(), identity(1)):
        with pytest.raises(WrongArgumentType, match=rf"^expected int, not {type(budget).__name__}$"):
            canonical_form(d, budget)
    assert canonical_form(_crown(), 10**3) == canonical_form(_crown())


@pytest.mark.parametrize("e", [3, "x", None, Seq(Id(1), "x"), Ten(Node("a"), 1.5)])
def test_validate_for_mode_rejects_what_is_not_an_atom(e):
    # as arity_of does, rather than passing it on in silence
    with pytest.raises(UnsupportedGenerator, match="unknown atom"):
        validate_for_mode(e, BOOL)
    with pytest.raises(UnsupportedGenerator, match="unknown atom"):
        arity_of(e)


def test_an_empty_chain_is_out_of_range():
    with pytest.raises(IndexOutOfRange, match="seq_all of no parts"):
        seq_all([])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: seq_all("ab"), "unknown atom 'a'"),
        (lambda: seq_all([Id(1), None]), "unknown atom None"),
        (lambda: ten_all(["x"]), "unknown atom 'x'"),
        (lambda: ten_all([Node("a"), 3, Id(1)]), "unknown atom 3"),
        (lambda: ten_all([Id(2), Id(-1)]), r"id\(-1\)"),
        (lambda: ten_all([Id(True)]), r"id\(True\)"),
    ],
)
def test_chains_are_built_of_expressions(build, message):
    # a part that is not an expression, or an id arity_of rejects, is
    # rejected where the chain is built, as arity_of would reject it
    with pytest.raises(UnsupportedGenerator, match=message):
        build()


_ONE_NODE = make_idag(1, 1, [("p", "x")], [(In(0), NodeRef("p")), (NodeRef("p"), Out(0))], NAT)
# the wrong-typed values the fuzz below draws arguments from
_POOL = (
    None,
    3,
    "x",
    1.5,
    True,
    [],
    _ONE_NODE,
    parse("delta ; nabla"),
    TheoryMode(NAT),
    _crown(),
    parse("node[x] ; delta ; nabla"),
)


def test_public_callables_raise_only_idag_errors_on_wrong_types():
    # every function and class in idag.__all__ but the Vertex alias and the
    # exception classes, at each arity its signature admits: every tuple of
    # pool values for one or two arguments, else 81 seeded draws; a
    # generator it returns is started, as topological_sortings runs lazily
    rng = random.Random(26)
    calls = 0
    for name in idag.__all__:
        f = getattr(idag, name)
        if name == "Vertex" or not callable(f) or (isinstance(f, type) and issubclass(f, BaseException)):
            continue
        params = inspect.signature(f).parameters.values()
        required = sum(p.default is p.empty for p in params)
        for k in range(required, len(params) + 1):
            if k <= 2:
                tuples = itertools.product(_POOL, repeat=k)
            else:
                tuples = [tuple(rng.choice(_POOL) for _ in range(k)) for _ in range(81)]
            for args in tuples:
                calls += 1
                try:
                    result = f(*args)
                    if inspect.isgenerator(result):
                        next(result, None)
                except IdagError:
                    pass
                except Exception as exc:
                    raise AssertionError(f"{name}{args!r} raised {exc!r}") from exc
    assert calls > 4000


def test_model_and_morphism_methods_raise_only_idag_errors_on_wrong_types():
    # every public method of each model and morphism class, of an idag, the
    # weight systems, a theory mode and an equality report, at each arity
    # its signature admits, on every tuple of pool values, vertices with
    # ids and indices of the wrong type, and morphisms of both kinds, which
    # meet each other's methods too
    morphisms = (matrix([[1, 2]], NAT), matrix([[-1]], INT), LoopsMorphism((1, 0), (("x",), ())))
    pool = _POOL + morphisms + (NodeRef([]), NodeRef(3), In([]))
    report = equal_mod_theory(parse("delta ; nabla"), parse("id(1)"), NAT)
    instances = (
        FreeIdagModel(NAT),
        MatrixModel(NAT),
        MatrixModel(INT, {"x": -2}),
        LoopsModel(),
        *morphisms,
        _ONE_NODE,
        BOOL,
        NAT,
        INT,
        TheoryMode(NAT),
        report,
    )
    calls = 0
    for obj in instances:
        for name, method in inspect.getmembers(obj, inspect.ismethod):
            if name.startswith("_"):
                continue
            params = inspect.signature(method).parameters.values()
            required = sum(p.default is p.empty for p in params)
            for k in range(required, len(params) + 1):
                for args in itertools.product(pool, repeat=k):
                    calls += 1
                    try:
                        getattr(obj, name)(*args)
                    except IdagError:
                        pass
                    except Exception as exc:
                        raise AssertionError(f"{type(obj).__name__}.{name}{args!r} raised {exc!r}") from exc
    assert calls > 1000
