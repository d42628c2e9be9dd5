import random

import pytest

from idag.algebra import make_idag
from idag.core import In, Out
from idag.errors import AntipodeWeight, InvalidWeight, ZeroWeight
from idag.weights import BOOL, BY_NAME, INT, NAT


def test_names():
    assert BY_NAME == {"bool": BOOL, "nat": NAT, "int": INT}
    assert repr(BOOL) == "BOOL"


def row(a):
    """a as a one-key row; rows hold nonzero values only."""
    return {0: a} if a else {}


def add(ws, a, b):
    """a + b in ws, as _weighted_sum computes it (zero is an absent key)."""
    return ws._weighted_sum([(row(a), 1), (row(b), 1)]).get(0, 0)


def mul(ws, a, b):
    """a * b in ws, as _weighted_sum computes it."""
    return ws._weighted_sum([(row(a), b)]).get(0, 0)


def test_bool_saturates():
    assert add(BOOL, 1, 1) == 1
    assert add(BOOL, 0, 1) == 1
    assert mul(BOOL, 1, 1) == 1
    assert mul(BOOL, 0, 1) == 0


def test_nat_int_arithmetic():
    assert add(NAT, 2, 3) == 5
    assert mul(NAT, 2, 3) == 6
    assert add(INT, 2, -3) == -1
    assert mul(INT, -2, -3) == 6


def test_weighted_sum_drops_zero_sums():
    # an INT sum that cancels leaves no key, the others keep theirs
    assert INT._weighted_sum([({0: 2, 1: 1}, 1), ({0: 1}, -2)]) == {1: 1}
    # a zero-weight term leaves no key, in BOOL too
    for ws in (BOOL, NAT, INT):
        assert ws._weighted_sum([({0: 1, 3: 1}, 0)]) == {}
        assert ws._weighted_sum([({0: 1}, 0), ({2: 1}, 1)]) == {2: 1}
    assert BOOL._weighted_sum([]) == {}


def test_bool_sum_is_the_general_sum_set_to_1():
    # BOOL rows hold only 1s and BOOL weights are 0 or 1: the union of the
    # rows of weight 1 is the entrywise sum with every nonzero sum set to 1
    rng = random.Random(20261020)
    for _ in range(2000):
        terms = [
            (dict.fromkeys(rng.sample(range(10), rng.randint(0, 6)), 1), rng.randint(0, 1))
            for _ in range(rng.randint(0, 5))
        ]
        sums: dict = {}
        for r, w in terms:
            for k, v in r.items():
                sums[k] = sums.get(k, 0) + v * w
        want = {k: 1 for k, v in sums.items() if v}
        got = BOOL._weighted_sum(terms)
        assert got == want == dict.fromkeys(NAT._weighted_sum(terms), 1)
        # first-seen key order, as the general sum gives with no zero weight
        assert list(got) == list(dict.fromkeys(k for r, w in terms if w for k in r))


def test_weighted_sum_single_unit_term_returns_its_row():
    r = {4: 2, 1: -1}
    assert INT._weighted_sum([(r, 1)]) is r


def test_antipode_flag():
    assert not BOOL.antipode_enabled
    assert not NAT.antipode_enabled
    assert INT.antipode_enabled


def test_edge_weight_validation():
    # check_value is the one check of a weight; zero is a weight, which an
    # edge refuses because zero means "no edge"
    for ws in (BOOL, NAT, INT):
        ws.check_value(0)
        with pytest.raises(ZeroWeight, match="^zero weight: omit the edge instead$"):
            make_idag(1, 1, [], {(In(0), Out(0)): 0}, ws)
    with pytest.raises(InvalidWeight, match="^bool mode admits only weights 0 and 1, got 2$"):
        BOOL.check_value(2)
    with pytest.raises(AntipodeWeight, match="^negative weight -1 requires int mode$"):
        NAT.check_value(-1)
    with pytest.raises(AntipodeWeight):
        BOOL.check_value(-1)
    INT.check_value(-1)
    NAT.check_value(3)
    with pytest.raises(InvalidWeight, match="^weight True is not an integer$"):
        # bool is an int subtype; reject it anyway
        NAT.check_value(True)
    with pytest.raises(InvalidWeight, match="^weight 1.5 is not an integer$"):
        make_idag(1, 1, [], {(In(0), Out(0)): 1.5}, INT)


def test_semiring_laws_spot():
    for ws in (BOOL, NAT, INT):
        vals = [0, 1] if ws is BOOL else [0, 1, 2, 3]
        for a in vals:
            assert add(ws, a, 0) == a
            assert mul(ws, a, 1) == a
            assert mul(ws, a, 0) == 0
            for b in vals:
                assert add(ws, a, b) == add(ws, b, a)
                assert mul(ws, a, b) == mul(ws, b, a)
                for c in vals:
                    assert mul(ws, a, add(ws, b, c)) == add(
                        ws, mul(ws, a, b), mul(ws, a, c)
                    )
