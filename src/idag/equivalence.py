"""Deciding expression equality modulo the equational theory.

The free model makes this mechanical: evaluate both expressions to idags,
apply whatever quotients the theory mode activates (transitive closure,
dangling-node pruning; BOOL only), and compare canonical forms. Equality holds
modulo the theory iff the normal forms coincide.
"""

from __future__ import annotations

from typing import Optional, Union

from .core import Idag, canonical_form, prune_dangling, transitive_closure
from .errors import ArityMismatch, ModeMismatch
from .jsonio import idag_to_obj
from .models import FreeIdagModel, _walk
from .record import Frozen
from .terms import Expression, arity_of, validate_for_mode
from .weights import BOOL, WeightSystem

TRANSITIVE = "transitive"
NO_DANGLING = "nodangling"

_KNOWN_QUOTIENTS = frozenset({TRANSITIVE, NO_DANGLING})


class TheoryMode(Frozen):
    """A weight system plus the optional quotients layered on top of the
    equational theory, and an optional closed label set."""

    __slots__ = ("weights", "quotients", "labels")

    def __init__(
        self,
        weights: WeightSystem = BOOL,
        quotients: frozenset[str] = frozenset(),
        labels: Optional[frozenset[str]] = None,
    ) -> None:
        unknown = set(quotients) - _KNOWN_QUOTIENTS
        if unknown:
            raise ModeMismatch(f"unknown quotients {sorted(unknown)}")
        if quotients and weights is not BOOL:
            raise ModeMismatch(f"quotients require bool mode, got {weights!r}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "quotients", quotients)
        object.__setattr__(self, "labels", labels)

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
    return _normal_form(e, _as_mode(mode))


def _normal_form(e: Expression, tm: TheoryMode, n_in: Optional[int] = None) -> Idag:
    """normalize, given e's input count when arity_of has already checked
    e. The walk rejects anti outside int mode at the same atom, with the
    same error, as validate_for_mode, so that pass runs only where its
    errors must come first (before arity_of's) or a label set is closed."""
    if n_in is None or tm.labels is not None:
        validate_for_mode(e, tm.weights, tm.labels)
    if n_in is None:
        n_in, _ = arity_of(e)
    value = FreeIdagModel(tm.weights)._read_image(n_in, *_walk(e, n_in, tm.weights))
    return canonical_form(_apply_quotients(value, tm))


class EqReport(Frozen):
    """Outcome of an equality query, with both normal forms and, when equal,
    the node correspondence between them."""

    __slots__ = ("equal", "normal_form_left", "normal_form_right", "witness")

    def __init__(
        self,
        equal: bool,
        normal_form_left: Idag,
        normal_form_right: Idag,
        witness: Optional[dict[str, str]] = None,
    ) -> None:
        object.__setattr__(self, "equal", equal)
        object.__setattr__(self, "normal_form_left", normal_form_left)
        object.__setattr__(self, "normal_form_right", normal_form_right)
        object.__setattr__(self, "witness", witness)

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
    tm = _as_mode(mode)
    nf1 = _normal_form(e1, tm, a1[0])
    nf2 = _normal_form(e2, tm, a1[0])
    equal = nf1 == nf2
    witness = {nid: nid for nid in nf1.node_ids} if equal else None
    return EqReport(equal, nf1, nf2, witness)
