"""Weight systems: the commutative semirings idag edges are weighted in.

Three systems are supported. BOOL is {0, 1} with saturating addition
(1 + 1 = 1), NAT is the natural numbers, INT is the integers. Only INT has
additive inverses, so only INT enables the antipode generator. Edges store
nonzero weights; zero means "no edge", which is why a sum that cancels to
zero must drop the entry entirely.

WeightSystem._weighted_sum is the only code that adds or multiplies
weights; algebra.concat, the matrix product and the models' wire walk all
call it. It is private: it reads rows it trusts and checks no argument,
since it runs once per merge. It sums exact Python ints; in BOOL, whose
weights are 0 or 1, it takes the union of the rows of weight 1, which is
saturating addition because BOOL weights are never negative.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import AntipodeWeight, InvalidWeight
from .record import Frozen


class WeightSystem(Frozen):
    """One of the three edge-weight semirings, as a value object.

    Use the module singletons BOOL, NAT, INT; identity of these objects is
    what mode checks compare, so they pickle and copy as themselves.
    check_value is the one test of whether a number is a weight of the
    system: edges, matrix entries and node images all pass through it.
    """

    __slots__ = ("name",)

    def __reduce__(self):
        return self.name.upper() if BY_NAME.get(self.name) is self else super().__reduce__()

    def _weighted_sum(self, terms: Sequence[tuple[Mapping, int]]) -> dict:
        """The sum of w times row over the (row, w) terms, as {key: nonzero
        value}: a key whose sum is zero is left out, and in BOOL every other
        sum is 1. Rows hold nonzero values only. A single term of weight 1
        returns its row itself, so treat the result as read-only. In BOOL,
        where rows hold only 1s and weights are 0 or 1, the sum is the
        union of the rows of weight 1."""
        if len(terms) == 1 and terms[0][1] == 1:
            return terms[0][0]  # type: ignore[return-value]
        acc: dict = {}
        if self is BOOL:
            for row, w in terms:
                if w:
                    acc.update(row)
            return acc
        for row, w in terms:
            if w == 1 and not acc:
                acc.update(row)
                continue
            get = acc.get
            for k, v in row.items():
                acc[k] = get(k, 0) + v * w
        if 0 in acc.values():
            acc = {k: v for k, v in acc.items() if v}
        return acc

    @property
    def antipode_enabled(self) -> bool:
        return self.name == "int"

    def check_value(self, w: int) -> None:
        """Validate w as a weight of this system, zero included: an edge
        refuses zero itself, as zero means "no edge"."""
        if not isinstance(w, int) or isinstance(w, bool):
            raise InvalidWeight(f"weight {w!r} is not an integer")
        if w < 0 and not self.antipode_enabled:
            raise AntipodeWeight(f"negative weight {w} requires int mode")
        if self.name == "bool" and w not in (0, 1):
            raise InvalidWeight(f"bool mode admits only weights 0 and 1, got {w}")

    def __repr__(self) -> str:
        return self.name.upper()


BOOL = WeightSystem("bool")
NAT = WeightSystem("nat")
INT = WeightSystem("int")

BY_NAME: dict[str, WeightSystem] = {"bool": BOOL, "nat": NAT, "int": INT}
