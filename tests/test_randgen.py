import random

import pytest

from idag.algebra import make_idag
from idag.errors import BadEndpoint, IdagError
from idag.models import FreeIdagModel, evaluate
from idag.randgen import random_expression, random_idag, random_matrix
from idag.terms import arity_of
from idag.weights import BOOL, INT, NAT


def test_determinism():
    a = random_idag(random.Random(5), 2, 2, 4, 0.5, INT, labels=("x", "y"))
    b = random_idag(random.Random(5), 2, 2, 4, 0.5, INT, labels=("x", "y"))
    assert a == b


@pytest.mark.parametrize("shape", [(2, 2, -3), (-1, 2, 3), (2, -1, 3)])
def test_negative_sizes_raise(shape):
    with pytest.raises(BadEndpoint):
        random_idag(random.Random(1), *shape, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda rng: random_idag(rng, 0, 0, 3, 0.5, labels=()),
        lambda rng: random_idag(rng, 0, 0, 3, "x"),
        lambda rng: random_idag(rng, 0, 0, 3, 1.5),
        lambda rng: random_idag(rng, 0, 0, 3, float("nan")),
        lambda rng: random_expression(rng, labels=()),
        lambda rng: random_matrix(rng, 2, 2, NAT, max_abs=0),
        lambda rng: random_matrix(rng, 2, 2, NAT, max_abs=2.5),
        lambda rng: random_matrix(rng, 2, 2, NAT, density="x"),
        lambda rng: random_matrix(rng, "2", 2, NAT),
        lambda rng: random_expression(rng, max_depth="x"),
        lambda rng: random_expression(rng, max_depth=True),
        lambda rng: random_expression(rng, max_depth=-1),
        lambda rng: random_expression(rng, max_depth=10**6),
        lambda rng: random_expression(rng, max_width="x"),
        lambda rng: random_expression(rng, max_width=False),
        lambda rng: random_expression(rng, max_width=-1),
    ],
    ids=[
        "idag-no-labels",
        "idag-prob-str",
        "idag-prob-above-1",
        "idag-prob-nan",
        "expression-no-labels",
        "matrix-max-abs-0",
        "matrix-max-abs-float",
        "matrix-density-str",
        "matrix-width-str",
        "expression-depth-str",
        "expression-depth-bool",
        "expression-depth-negative",
        "expression-depth-too-deep",
        "expression-width-str",
        "expression-width-bool",
        "expression-width-negative",
    ],
)
def test_bad_arguments_raise_idag_error(call):
    # each of these used to escape as IndexError, ValueError or TypeError
    with pytest.raises(IdagError):
        call(random.Random(1))


def test_edge_prob_zero_gives_isolated_nodes():
    d = random_idag(random.Random(1), 3, 2, 4, 0.0, BOOL)
    assert not d.edges
    assert len(d.nodes) == 4


def test_edge_prob_one_connects_everything():
    d = random_idag(random.Random(1), 2, 2, 3, 1.0, BOOL)
    # every In x Node, Node x Node (ordered), In x Out, Node x Out pair
    assert len(d.edges) == 2 * 3 + 3 + 2 * 2 + 3 * 2


def test_thousand_samples_validate():
    rng = random.Random(99)
    for k in range(1000):
        ws = (BOOL, NAT, INT)[k % 3]
        d = random_idag(rng, rng.randint(0, 4), rng.randint(0, 4), 6, 0.4, ws, labels=("•", "x"))
        make_idag(d.n_in, d.n_out, d.nodes, dict(d.edges), ws)


def test_weight_ranges():
    rng = random.Random(3)
    for _ in range(50):
        d_nat = random_idag(rng, 2, 2, 3, 0.8, NAT)
        assert all(1 <= w <= 3 for w in d_nat.edges.values())
        d_int = random_idag(rng, 2, 2, 3, 0.8, INT)
        assert all(1 <= abs(w) <= 3 for w in d_int.edges.values())
        d_bool = random_idag(rng, 2, 2, 3, 0.8, BOOL)
        assert all(w == 1 for w in d_bool.edges.values())


def test_random_expressions_well_typed():
    rng = random.Random(7)
    for _ in range(300):
        e = random_expression(rng, max_depth=8, allow_anti=True)
        arity_of(e)


def test_random_expressions_evaluable():
    rng = random.Random(8)
    for _ in range(100):
        e = random_expression(rng, allow_anti=False)
        evaluate(e, FreeIdagModel(BOOL))


def test_random_matrix_shapes():
    rng = random.Random(9)
    m = random_matrix(rng, 3, 4, INT)
    assert m.n_in == 3 and m.n_out == 4
    assert all(abs(v) <= 4 for row in m.entries for v in row)
    z = random_matrix(rng, 0, 3, NAT)
    assert z.entries == ()
