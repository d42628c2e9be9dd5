"""Public constructors reject values they cannot represent with an IdagError,
never a TypeError or a malformed value: widths and indices must be ints (a
bool is not one), permutation entries too, and node labels strings."""

import random

import pytest

from idag.core import (
    In,
    NodeRef,
    Out,
    canonical_form,
    concat,
    from_permutation,
    identity,
    is_isomorphic,
    juxt,
    make_idag,
    prune_dangling,
    symmetry,
    transitive_closure,
)
from idag.decomposition import (
    count_topological_sortings,
    decompose,
    default_sorting,
    encode_relation,
    interpret,
    layer,
    permutation_expression,
    transposition_identities,
)
from idag.equivalence import TRANSITIVE, TheoryMode, equal_mod_theory, normalize
from idag.errors import (
    BadEndpoint,
    IndexOutOfRange,
    ModeMismatch,
    NotBijective,
    SchemaError,
    UnsupportedGenerator,
    WrongArgumentType,
)
from idag.jsonio import idag_from_json, idag_to_json
from idag.models import (
    FreeIdagModel,
    LoopsModel,
    MatrixModel,
    evaluate,
    matrix_identity,
    matrix_permutation,
)
from idag.dot import idag_to_dot
from idag.randgen import random_expression, random_idag, random_matrix
from idag.terms import Id, Node, Seq, Ten, arity_of, print_expression, validate_for_mode
from idag.weights import BOOL, NAT


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


@pytest.mark.parametrize("label", [5, None, b"x", ("x",), ["x"]])
def test_node_labels_must_be_strings(label):
    for e in (Node(label), Ten(Id(1), Seq(Node("x"), Node(label)))):
        with pytest.raises(UnsupportedGenerator):
            arity_of(e)
        with pytest.raises(UnsupportedGenerator):
            print_expression(e)
        for model in (FreeIdagModel(), MatrixModel()):
            with pytest.raises(UnsupportedGenerator):
                evaluate(e, model)
        # a closed label set is checked first, and a list label does not hash
        with pytest.raises(UnsupportedGenerator, match="is not a string$"):
            normalize(e, TheoryMode(NAT, frozenset(), frozenset({"x"})))


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
    ],
)
def test_idag_and_model_arguments_must_be_idags_and_models(call):
    # a TypeError too, so callers that catch one still do
    pattern = r"expected (Idag|Model|MatrixMorphism|Random|Sequence), not (int|NoneType|str)"
    with pytest.raises(WrongArgumentType, match=pattern) as info:
        call()
    assert isinstance(info.value, TypeError)


def test_json_text_of_the_wrong_type_is_a_schema_error():
    with pytest.raises(SchemaError, match="must be str, bytes or bytearray, not int"):
        idag_from_json(3)


@pytest.mark.parametrize("e", [3, "x", None, Seq(Id(1), "x"), Ten(Node("a"), 1.5)])
def test_validate_for_mode_rejects_what_is_not_an_atom(e):
    # as arity_of does, rather than passing it on in silence
    with pytest.raises(UnsupportedGenerator, match="unknown atom"):
        validate_for_mode(e, BOOL)
    with pytest.raises(UnsupportedGenerator, match="unknown atom"):
        arity_of(e)
