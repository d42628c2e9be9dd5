import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import idag
from idag.algebra import make_idag
from idag.errors import BadEndpoint, IdagError, UnsupportedGenerator
from idag.models import FreeIdagModel, evaluate
from idag.printer import print_expression
from idag.randgen import MATRIX_DENSITY, MAX_SEQ_WIDTH, random_expression, random_idag, random_matrix
from idag.terms import arity_of, fold
from idag.weights import BOOL, INT, NAT


def test_determinism():
    a = random_idag(random.Random(5), 2, 2, 4, 0.5, INT, labels=("x", "y"))
    b = random_idag(random.Random(5), 2, 2, 4, 0.5, INT, labels=("x", "y"))
    assert a == b


_DRAWS = (
    "import random\n"
    "from idag.printer import print_expression\n"
    "from idag.randgen import random_expression, random_idag\n"
    "labels = {'c', 'a', 'b'}\n"
    "d = random_idag(random.Random(1), 1, 1, 6, 0.5, labels=labels)\n"
    "print([lbl for _, lbl in d.nodes])\n"
    "print(print_expression(random_expression(random.Random(3), max_depth=6, labels=labels)))\n"
)


def _draws(labels) -> str:
    d = random_idag(random.Random(1), 1, 1, 6, 0.5, labels=labels)
    e = random_expression(random.Random(3), max_depth=6, labels=labels)
    return f"{[lbl for _, lbl in d.nodes]}\n{print_expression(e)}\n"


def test_label_draws_of_a_set_do_not_depend_on_the_hash_seed():
    # a set was once drawn from in its iteration order, which the hash seed
    # sets; it now draws as its sorted tuple does
    src = str(Path(idag.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        r = subprocess.run(
            [sys.executable, "-c", _DRAWS],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout == _draws(("a", "b", "c")), seed


@pytest.mark.parametrize("labels", [frozenset("bca"), dict.fromkeys("cab"), dict.fromkeys("cab").keys()])
def test_a_collection_that_is_not_a_sequence_draws_sorted(labels):
    assert _draws(labels) == _draws(("a", "b", "c"))


def test_a_sequence_of_labels_draws_in_its_own_order():
    a = random_idag(random.Random(1), 1, 1, 6, 0.5, labels=("c", "b", "a"))
    b = random_idag(random.Random(1), 1, 1, 6, 0.5, labels=["c", "b", "a"])
    assert a == b
    assert a != random_idag(random.Random(1), 1, 1, 6, 0.5, labels=("a", "b", "c"))


@pytest.mark.parametrize("labels", [{"a", 1}, {1, 2}, {None, "b"}])
def test_labels_that_are_not_all_str_keep_their_errors(labels):
    # not a TypeError from sorting them
    with pytest.raises(BadEndpoint):
        random_idag(random.Random(1), 0, 0, 20, 0.5, labels=labels)
    with pytest.raises(UnsupportedGenerator):
        for seed in range(20):
            random_expression(random.Random(seed), max_depth=6, labels=labels)


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
        lambda rng: random_matrix(rng, "2", 2, NAT),
        lambda rng: random_expression(rng, max_depth="x"),
        lambda rng: random_expression(rng, max_depth=True),
        lambda rng: random_expression(rng, max_depth=-1),
        lambda rng: random_expression(rng, max_depth=10**6),
    ],
    ids=[
        "idag-no-labels",
        "idag-prob-str",
        "idag-prob-above-1",
        "idag-prob-nan",
        "expression-no-labels",
        "matrix-max-abs-0",
        "matrix-max-abs-float",
        "matrix-width-str",
        "expression-depth-str",
        "expression-depth-bool",
        "expression-depth-negative",
        "expression-depth-too-deep",
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


def test_random_expression_composes_through_at_most_max_seq_width():
    rng = random.Random(4)
    widths = []
    for _ in range(300):
        e = random_expression(rng, max_depth=rng.randint(1, 6))
        seq = lambda node, _a, _b: widths.append(arity_of(node.first)[1])
        fold(e, lambda a: None, seq, lambda *_: None)
    assert max(widths) == MAX_SEQ_WIDTH


def test_random_matrix_entries_are_nonzero_at_matrix_density():
    rng = random.Random(8)
    matrices = [random_matrix(rng, 6, 6, (BOOL, NAT, INT)[k % 3]) for k in range(60)]
    entries = [v for m in matrices for row in m.entries for v in row]
    assert abs(sum(v != 0 for v in entries) / len(entries) - MATRIX_DENSITY) < 0.03


def test_random_matrix_shapes():
    rng = random.Random(9)
    m = random_matrix(rng, 3, 4, INT)
    assert m.n_in == 3 and m.n_out == 4
    assert all(abs(v) <= 4 for row in m.entries for v in row)
    z = random_matrix(rng, 0, 3, NAT)
    assert z.entries == ()
