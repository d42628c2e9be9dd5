"""Every width is checked against core.MAX_WIDTH where it enters, before
anything is allocated for it, so a huge width raises SizeLimitExceeded (and
the CLI exits 2) instead of running out of memory."""

import json
import random
import sys

import pytest

from idag.core import MAX_WIDTH, from_permutation, identity, make_idag, symmetry
from idag.errors import BadEndpoint, ExprSyntaxError, SizeLimitExceeded, TypeMismatch
from idag.equivalence import equal_mod_theory, normalize
from idag.jsonio import idag_from_obj
from helpers import Forwarding, run_capped
from idag.models import FreeIdagModel, LoopsModel, MatrixModel, evaluate, matrix_identity
from idag.randgen import random_idag
from idag.terms import Eps, Id, Seq, Sym, arity_of, parse, print_expression
from idag.weights import BOOL, NAT

HUGE = 10**11
_HUGE_IDAG = {"mode": "bool", "inputs": HUGE, "outputs": HUGE, "nodes": [], "edges": []}


def _raises_bound(f, *args):
    with pytest.raises(SizeLimitExceeded) as info:
        f(*args)
    assert info.value.bound == MAX_WIDTH and info.value.size > MAX_WIDTH
    assert str(MAX_WIDTH) in str(info.value) and str(info.value.size) in str(info.value)


def test_every_entry_point_checks_the_bound():
    # one past the bound, so that a missing check costs memory, not all of it
    over = MAX_WIDTH + 1
    rng = random.Random(0)
    _raises_bound(identity, over)
    _raises_bound(symmetry, MAX_WIDTH, 1)
    _raises_bound(from_permutation, range(over))
    _raises_bound(matrix_identity, over, NAT)
    _raises_bound(make_idag, over, 0, [], [])
    _raises_bound(idag_from_obj, dict(_HUGE_IDAG, inputs=1, outputs=over))
    _raises_bound(random_idag, rng, over, 1, 1, 0.5)
    _raises_bound(random_idag, rng, 1, 1, over, 0.5)
    _raises_bound(parse, f"id({HUGE})")
    _raises_bound(parse, f"sym({MAX_WIDTH},1)")
    for e in (Id(over), Seq(Sym(MAX_WIDTH, 1), Sym(1, MAX_WIDTH))):
        _raises_bound(evaluate, e, FreeIdagModel(BOOL))
        _raises_bound(evaluate, e, MatrixModel(NAT))
        _raises_bound(evaluate, e, LoopsModel())
        _raises_bound(evaluate, e, Forwarding(MatrixModel(NAT)))
        _raises_bound(normalize, e, BOOL)
        _raises_bound(equal_mod_theory, e, e, BOOL)
    # widths at the bound pass, and the older checks come first
    assert identity(MAX_WIDTH).n_in == MAX_WIDTH
    assert parse(f"id({MAX_WIDTH})") == Id(MAX_WIDTH)
    with pytest.raises(BadEndpoint):
        identity(-HUGE)


def test_width_tokens_too_long_to_read():
    # int() reads at most 4,300 digits, and an error message must print each
    # width it names, so a longer token is past the bound without being read,
    # after any syntax error; shorter ones are read, and typing comes first
    nines = "9" * 5000
    with pytest.raises(SizeLimitExceeded, match="^width of 5000 digits exceeds the bound"):
        parse(f"id({nines}) ; sym(1,{nines})")
    with pytest.raises(ExprSyntaxError):
        parse(f"id({nines}) ;;")
    with pytest.raises(TypeMismatch):
        parse(f"id({nines[:4000]}) * id(1) ; eps")
    assert parse(f"id({'0' * 5000}7)") == Id(7)


def test_the_first_width_too_long_to_read_is_named():
    with pytest.raises(SizeLimitExceeded, match="^width of 4500 digits exceeds the bound"):
        parse(f"id({'9' * 4500}) ; sym(1,{'9' * 5000})")
    with pytest.raises(SizeLimitExceeded, match="^width of 5000 digits exceeds the bound"):
        parse(f"sym(1,{'9' * 5000}) * id({'9' * 4500})")


@pytest.fixture
def digit_limit():
    """Python's default limit of 4,300 digits on int-to-str conversion."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any length")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


# widths built through the API are not read from text, so nothing bounds
# their digits; an error message or printed text names one by its length


def test_a_type_mismatch_names_a_width_too_long_to_write(digit_limit):
    with pytest.raises(TypeMismatch, match="upstream coarity <5001 digits>, downstream arity 1$"):
        arity_of(Seq(Id(10**5000), Eps()))


def test_the_walk_names_an_input_count_too_long_to_write(digit_limit):
    with pytest.raises(SizeLimitExceeded, match="^input count <5001 digits> exceeds the bound"):
        evaluate(Id(10**5000), FreeIdagModel())


def test_printing_a_width_too_long_to_write(digit_limit):
    with pytest.raises(SizeLimitExceeded, match="^width <5001 digits> exceeds the bound"):
        print_expression(Id(10**5000))
    with pytest.raises(BadEndpoint, match="^negative width -<5001 digits>$"):
        identity(-(10**5000))
    # every width str() writes is still printed, past the bound too
    assert print_expression(Sym(1, 10**4000)) == f"sym(1,{10**4000})"


def test_typing_errors_come_before_the_bound():
    # arity_of rejected this before the walk allocated wires, and the walk
    # must too: its input spine counts 10^11 + 1 wires
    code = (
        "from idag import *\n"
        f"e = Seq(Sym({HUGE}, 1), Eps())\n"
        "for f in (lambda: evaluate(e, FreeIdagModel()), lambda: normalize(e, BOOL),\n"
        f"          lambda: equal_mod_theory(e, e, BOOL), lambda: parse('id({HUGE}) ; eps')):\n"
        "    try:\n"
        "        f()\n"
        "    except TypeMismatch:\n"
        "        print('TypeMismatch')\n"
    )
    r = run_capped(["-c", code])
    assert (r.returncode, r.stdout.split()) == (0, ["TypeMismatch"] * 4), r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["eq", f"id({HUGE})", f"id({HUGE})"],
        ["eq", f"sym({HUGE},1)", f"sym({HUGE},1)"],
        ["normalize", f"id({HUGE})"],
        ["random", str(HUGE), "1", "1", "0.5"],
        ["random", "1", "1", "100000000", "0.5"],
        ["decompose", "-"],
        ["dot", "-"],
        ["closure", "-"],
        ["prune", "-"],
    ],
    ids=lambda args: " ".join(args)[:24],
)
def test_huge_widths_exit_2_under_a_memory_limit(args):
    r = run_capped(["-m", "idag", *args], json.dumps(_HUGE_IDAG))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert f"exceeds the bound {MAX_WIDTH}" in r.stderr
