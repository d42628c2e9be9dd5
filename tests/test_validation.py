"""Public constructors reject values they cannot represent with an IdagError,
never a TypeError or a malformed value: widths and indices must be ints (a
bool is not one), permutation entries too, and node labels strings."""

import random

import pytest

from idag.core import In, NodeRef, Out, from_permutation, identity, make_idag, symmetry
from idag.decomposition import layer, permutation_expression, transposition_identities
from idag.equivalence import TheoryMode, normalize
from idag.errors import BadEndpoint, IndexOutOfRange, NotBijective, UnsupportedGenerator
from idag.models import (
    FreeIdagModel,
    LoopsModel,
    MatrixModel,
    evaluate,
    matrix_identity,
    matrix_permutation,
)
from idag.randgen import random_idag
from idag.terms import Id, Node, Seq, Ten, arity_of, print_expression
from idag.weights import NAT


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
