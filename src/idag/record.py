"""Plain field classes: the base of the package's value objects.

A subclass names its fields in __slots__, in constructor order, and writes
its own __init__; the fields of a class are the slots of its bases, then
its own. Record gives it equality (same class and equal fields), a
Name(field=value, ...) repr, and pickling and copying through the
constructor; it is unhashable. Frozen adds the hash of the field tuple and
refuses assignment, so its __init__ sets fields with object.__setattr__.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name for klass in reversed(cls.__mro__) for name in vars(klass).get("__slots__", ())
        )

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()  # type: ignore[attr-defined]
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._astuple()


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
