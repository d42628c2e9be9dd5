import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import idag
import randgen_reference
from idag import randgen
from idag.algebra import make_idag
from idag.core import Idag
from idag.errors import BadEndpoint, IdagError, UnsupportedGenerator, WrongArgumentType
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


_NOT_ALL_STR = [{"a", 1}, {1, 2}, {None, "b"}]


@pytest.mark.parametrize("labels", _NOT_ALL_STR)
def test_labels_that_are_not_all_str_keep_their_errors(labels):
    # not a TypeError from sorting them
    with pytest.raises(BadEndpoint):
        random_idag(random.Random(1), 0, 0, 20, 0.5, labels=labels)
    with pytest.raises(UnsupportedGenerator):
        for seed in range(20):
            random_expression(random.Random(seed), max_depth=6, labels=labels)


_NEGATIVE_SIZES = [(2, 2, -3), (-1, 2, 3), (2, -1, 3)]


@pytest.mark.parametrize("shape", _NEGATIVE_SIZES)
def test_negative_sizes_raise(shape):
    with pytest.raises(BadEndpoint):
        random_idag(random.Random(1), *shape, 0.5)


# (generator, arguments after rng, keyword arguments)
_BAD_ARGUMENTS = {
    "idag-no-labels": ("random_idag", (0, 0, 3, 0.5), {"labels": ()}),
    "idag-prob-str": ("random_idag", (0, 0, 3, "x"), {}),
    "idag-prob-above-1": ("random_idag", (0, 0, 3, 1.5), {}),
    "idag-prob-nan": ("random_idag", (0, 0, 3, float("nan")), {}),
    "idag-prob-bool": ("random_idag", (0, 0, 3, True), {}),
    "idag-mode-str": ("random_idag", (0, 0, 3, 0.5, "nat"), {}),
    "idag-prefix-none": ("random_idag", (0, 0, 3, 0.5), {"id_prefix": None}),
    "expression-no-labels": ("random_expression", (), {"labels": ()}),
    "matrix-max-abs-0": ("random_matrix", (2, 2, NAT), {"max_abs": 0}),
    "matrix-max-abs-float": ("random_matrix", (2, 2, NAT), {"max_abs": 2.5}),
    "matrix-width-str": ("random_matrix", ("2", 2, NAT), {}),
    "expression-depth-str": ("random_expression", (), {"max_depth": "x"}),
    "expression-depth-bool": ("random_expression", (), {"max_depth": True}),
    "expression-depth-negative": ("random_expression", (), {"max_depth": -1}),
    "expression-depth-too-deep": ("random_expression", (), {"max_depth": 10**6}),
}
# the reference copy took these: True as edge_prob 1, None as prefix "None"
_TIGHTENED = {"idag-prob-bool", "idag-prefix-none"}


@pytest.mark.parametrize("case", list(_BAD_ARGUMENTS))
def test_bad_arguments_raise_idag_error(case):
    # each of these used to escape as IndexError, ValueError or TypeError,
    # or, for the tightened ones, to draw
    name, args, kwargs = _BAD_ARGUMENTS[case]
    with pytest.raises(IdagError):
        getattr(randgen, name)(random.Random(1), *args, **kwargs)


def test_a_bool_edge_prob_and_a_prefix_that_is_not_a_str_are_refused():
    with pytest.raises(IdagError, match="edge_prob True is not a number"):
        random_idag(random.Random(1), 0, 0, 3, True)
    with pytest.raises(WrongArgumentType, match="expected str, not NoneType"):
        random_idag(random.Random(1), 0, 0, 3, 0.5, id_prefix=None)


def _outcome(generate, seed, args, kwargs):
    """What generate(Random(seed), *args, **kwargs) gives: its idag with each
    wire's items in order, or its printed expression, and the random state
    after; or the class and message of the IdagError it raises."""
    rng = random.Random(seed)
    try:
        drawn = generate(rng, *args, **kwargs)
    except IdagError as exc:
        return type(exc), str(exc)
    if isinstance(drawn, Idag):
        return drawn, [list(w.items()) for w in drawn.wires], rng.getstate()
    return print_expression(drawn), rng.getstate()


def _assert_draws_as_the_reference(name, seed, *args, **kwargs):
    ours = _outcome(getattr(randgen, name), seed, args, kwargs)
    assert ours == _outcome(getattr(randgen_reference, name), seed, args, kwargs), (name, seed, args, kwargs)


@pytest.mark.parametrize("mode", [BOOL, NAT, INT], ids=repr)
def test_random_idag_draws_as_its_reference_copy(mode):
    label_sets = (("b", "a"), ["a", "c", "b"], {"c", "a", "b"})
    grid = itertools.product(range(4), range(4), (0, 1, 2, 17, 64), (0, 0.3, 1), label_sets)
    for seed, (n_in, n_out, n_nodes, p, labels) in enumerate(grid):
        _assert_draws_as_the_reference("random_idag", seed, n_in, n_out, n_nodes, p, mode, labels)


def test_a_large_random_idag_draws_as_its_reference_copy():
    _assert_draws_as_the_reference("random_idag", 11, 2, 3, 2048, 0.02, NAT, ("a", "b"))


def test_random_expression_draws_as_its_reference_copy():
    for seed in range(300):
        labels = (("x", "y"), ["y", "x", "z"], {"z", "x"})[seed % 3]
        _assert_draws_as_the_reference("random_expression", seed, seed % 9, seed % 2 == 0, labels)


def test_bad_arguments_raise_as_in_the_reference_copy():
    for case, (name, args, kwargs) in _BAD_ARGUMENTS.items():
        if name != "random_matrix" and case not in _TIGHTENED:
            _assert_draws_as_the_reference(name, 1, *args, **kwargs)
    for shape in _NEGATIVE_SIZES:
        _assert_draws_as_the_reference("random_idag", 1, *shape, 0.5)
    for labels in _NOT_ALL_STR:
        _assert_draws_as_the_reference("random_idag", 1, 0, 0, 20, 0.5, labels=labels)
        for seed in range(20):
            _assert_draws_as_the_reference("random_expression", seed, max_depth=6, labels=labels)


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
