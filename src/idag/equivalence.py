"""Deciding expression equality modulo the equational theory.

The free model makes this mechanical: evaluate both expressions to idags,
apply whatever quotients the theory mode activates (transitive closure,
dangling-node pruning; BOOL only), and compare canonical forms. Equality holds
modulo the theory iff the normal forms coincide. An isomorphism invariant
(core._invariant) that differs already proves inequality, so then no
canonical labelling runs until a normal form is read.

Each expression is walked once: the walk that builds its free image also
type-checks it (see models._walk). Only when that walk fails are the
separate checks run (validate_for_mode, arity_of, the interface
comparison), in the order that decides which error is raised.
"""

from __future__ import annotations

from typing import Optional, Union

from .core import (
    NO_DANGLING,
    TRANSITIVE,
    Idag,
    _invariant,
    canonical_form,
    prune_dangling,
    transitive_closure,
)
from .errors import ArityMismatch, ModeMismatch
from .jsonio import idag_to_obj
from .models import FreeIdagModel, _typed_walk
from .record import Frozen
from .terms import Expression, arity_of, validate_for_mode
from .weights import BOOL, WeightSystem

_KNOWN_QUOTIENTS = frozenset({TRANSITIVE, NO_DANGLING})


def _names(x: object, what: str) -> frozenset[str]:
    """x as a frozenset; ModeMismatch unless x is a set of str."""
    if not isinstance(x, (set, frozenset)):
        raise ModeMismatch(f"{what} must be a set of str, got {type(x).__name__}")
    for s in x:
        if not isinstance(s, str):
            raise ModeMismatch(f"{what} must be a set of str, got a {type(s).__name__} in it")
    return frozenset(x)


class TheoryMode(Frozen):
    """A weight system plus the optional quotients layered on top of the
    equational theory, and an optional closed label set; ModeMismatch
    unless each is of its kind. The sets are kept as frozensets."""

    __slots__ = ("weights", "quotients", "labels")

    def __init__(
        self,
        weights: WeightSystem = BOOL,
        quotients: frozenset[str] = frozenset(),
        labels: Optional[frozenset[str]] = None,
    ) -> None:
        if not isinstance(weights, WeightSystem):
            raise ModeMismatch(f"a mode needs a WeightSystem, got {type(weights).__name__}")
        quotients = _names(quotients, "quotients")
        unknown = quotients - _KNOWN_QUOTIENTS
        if unknown:
            raise ModeMismatch(f"unknown quotients {sorted(unknown)}")
        if quotients and weights is not BOOL:
            raise ModeMismatch(f"quotients require bool mode, got {weights!r}")
        super().__init__(weights, quotients, None if labels is None else _names(labels, "labels"))

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
    try:
        d = _image(e, tm)
    except Exception:
        # the mode's errors come before the typing or walk error _image raised
        validate_for_mode(e, tm.weights, tm.labels)
        raise
    return _normal_form(d, tm)


def _image(e: Expression, tm: TheoryMode) -> Idag:
    """e's free image, from the walk that type-checks e and rejects anti
    outside int mode; a closed label set is checked before it."""
    if tm.labels is not None:
        validate_for_mode(e, tm.weights, tm.labels)
    return FreeIdagModel(tm.weights)._read_image(*_typed_walk(e, tm.weights))


def _normal_form(d: Idag, tm: TheoryMode) -> Idag:
    return canonical_form(_apply_quotients(d, tm))


def _same_interfaces(a1: tuple[int, int], a2: tuple[int, int]) -> None:
    if a1 != a2:
        raise ArityMismatch(f"interfaces differ: {a1} vs {a2}")


class EqReport(Frozen):
    """Outcome of an equality query: the verdict and both normal forms.
    The forms are canonical, so the verdict is equal exactly when they are
    the same idag, node ids included.

    equal_mod_theory may leave the normal forms of an unequal pair to be
    computed: such a report holds the two quotiented images, and each form
    is canonical_form of its image, computed the first time it is read
    (raising what canonical_form raises) and kept. Fields, ==, repr,
    pickling and to_json_obj read the forms, so they are those of the
    report built with the forms given."""

    __slots__ = ("equal", "normal_form_left", "normal_form_right", "_images")
    __hash__ = None  # type: ignore[assignment]  # its forms are idags

    @classmethod
    def _unequal(cls, image_left: Idag, image_right: Idag) -> "EqReport":
        """The report of an unequal pair whose forms are not yet computed."""
        report = cls.__new__(cls)
        object.__setattr__(report, "equal", False)
        object.__setattr__(report, "_images", (image_left, image_right))
        return report

    def __getattr__(self, name: str) -> Idag:
        # reached only for a slot not yet set: a form left to be computed
        # (or _images itself, on a report built with its forms)
        if name == "normal_form_left" or name == "normal_form_right":
            form = canonical_form(self._images[name == "normal_form_right"])
            object.__setattr__(self, name, form)
            return form
        raise AttributeError(name)

    def to_json_obj(self) -> dict:
        return {
            "equal": self.equal,
            "lhs": idag_to_obj(self.normal_form_left),
            "rhs": idag_to_obj(self.normal_form_right),
        }


def equal_mod_theory(e1: Expression, e2: Expression, mode: ModeLike) -> EqReport:
    """Decide e1 = e2 modulo the mode's equational theory: they are equal
    exactly when their normal forms are the same idag.

    Raises ArityMismatch when the two expressions do not even share an
    interface; that is an error, not inequality. Typing errors in either
    expression come before it.

    When the quotiented images differ in an isomorphism invariant (node
    count, sorted labels, sorted edge weights), the verdict is unequal and
    no canonical labelling runs: the report computes each normal form when
    it is first read, so SearchBudgetExceeded, if the search runs out, is
    raised there and not here. Otherwise both forms are computed here.
    """
    tm = _as_mode(mode)
    try:
        d1, d2 = _image(e1, tm), _image(e2, tm)
    except Exception:
        # as when both were type-checked first and then normalized in turn
        _same_interfaces(arity_of(e1), arity_of(e2))
        _normal_form(_image(e1, tm), tm)
        raise
    _same_interfaces((d1.n_in, d1.n_out), (d2.n_in, d2.n_out))
    q1, q2 = _apply_quotients(d1, tm), _apply_quotients(d2, tm)
    if _invariant(q1) != _invariant(q2):
        return EqReport._unequal(q1, q2)
    nf1, nf2 = canonical_form(q1), canonical_form(q2)
    return EqReport(nf1 == nf2, nf1, nf2)
