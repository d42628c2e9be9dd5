"""Deciding expression equality modulo the equational theory.

The free model makes this mechanical: evaluate both expressions to idags,
apply whatever quotients the theory mode activates (transitive closure,
dangling-node pruning; BOOL only), and compare canonical forms. Equality holds
modulo the theory iff the normal forms coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import Idag, canonical_form, prune_dangling, transitive_closure
from .errors import ArityMismatch, ModeMismatch
from .jsonio import idag_to_obj
from .models import FreeIdagModel, evaluate
from .terms import Expression, arity_of, validate_for_mode
from .weights import BOOL, WeightSystem

TRANSITIVE = "transitive"
NO_DANGLING = "nodangling"

_KNOWN_QUOTIENTS = frozenset({TRANSITIVE, NO_DANGLING})


@dataclass(frozen=True)
class TheoryMode:
    """A weight system plus the optional quotients layered on top of the
    equational theory, and an optional closed label set."""

    weights: WeightSystem = BOOL
    quotients: frozenset[str] = frozenset()
    labels: Optional[frozenset[str]] = None

    def __post_init__(self):
        unknown = set(self.quotients) - _KNOWN_QUOTIENTS
        if unknown:
            raise ModeMismatch(f"unknown quotients {sorted(unknown)}")
        if self.quotients and self.weights is not BOOL:
            raise ModeMismatch(
                f"quotients require bool mode, got {self.weights!r}"
            )

    @property
    def antipode_enabled(self) -> bool:
        return self.weights.antipode_enabled


ModeLike = Union[TheoryMode, WeightSystem]


def _as_mode(mode: ModeLike) -> TheoryMode:
    if isinstance(mode, TheoryMode):
        return mode
    return TheoryMode(weights=mode)


def _apply_quotients(d: Idag, mode: TheoryMode) -> Idag:
    # Pruning leaves exactly the nodes on an input-to-output path, and the
    # closure only adds edges between existing vertices, so it leaves no node
    # dangling; both are idempotent, so one prune and then one closure reach
    # the fixed point.
    if NO_DANGLING in mode.quotients:
        d = prune_dangling(d)
    if TRANSITIVE in mode.quotients:
        d = transitive_closure(d)
    return d


def normalize(e: Expression, mode: ModeLike) -> Idag:
    """The canonical normal form of e under the theory the mode selects."""
    tm = _as_mode(mode)
    validate_for_mode(e, tm.weights, tm.labels)
    value = evaluate(e, FreeIdagModel(tm.weights))
    return canonical_form(_apply_quotients(value, tm))


@dataclass(frozen=True)
class EqReport:
    """Outcome of an equality query, with both normal forms and, when equal,
    the node correspondence between them."""

    equal: bool
    normal_form_left: Idag
    normal_form_right: Idag
    witness: Optional[dict[str, str]] = None

    def to_json_obj(self) -> dict:
        return {
            "equal": self.equal,
            "lhs": idag_to_obj(self.normal_form_left),
            "rhs": idag_to_obj(self.normal_form_right),
        }


def equal_mod_theory(e1: Expression, e2: Expression, mode: ModeLike) -> EqReport:
    """Decide e1 = e2 modulo the mode's equational theory.

    Raises ArityMismatch when the two expressions do not even share an
    interface; that is an error, not inequality.
    """
    a1 = arity_of(e1)
    a2 = arity_of(e2)
    if a1 != a2:
        raise ArityMismatch(f"interfaces differ: {a1} vs {a2}")
    nf1 = normalize(e1, mode)
    nf2 = normalize(e2, mode)
    equal = nf1 == nf2
    witness = {nid: nid for nid in nf1.node_ids} if equal else None
    return EqReport(equal, nf1, nf2, witness)
