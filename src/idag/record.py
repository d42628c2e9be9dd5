"""Plain field classes: the base of the package's value objects.

A subclass names its fields in __slots__; the fields of a class are the
slots of its bases, then its own. A slot whose name starts with an
underscore is a cache, not a field. Record builds a value from its fields
in that order, given positionally or by name (WrongArgumentType for one
missing, given twice, unknown or too many), and sets them through the
slots' descriptors; a subclass writes its own __init__ only to check its
arguments, and ends it in super().__init__(...). Record gives equality
(same class and equal fields), a Name(field=value, ...) repr, and pickling
and copying through the constructor; it is unhashable. Frozen adds the
hash of the field tuple and refuses assignment; the descriptors' setters
do not assign, so the constructor sets fields all the same.
"""

from .errors import WrongArgumentType


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__slots__", ())
            if not name.startswith("_")
        )
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values, **named) -> None:
        if named or len(values) != len(self._setters):
            values = self._bind(values, named)
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    @classmethod
    def _bind(cls, values: tuple, named: dict) -> tuple:
        """The field tuple of values and then named."""
        fields = cls._fields
        if len(values) > len(fields):
            raise WrongArgumentType(f"{cls.__qualname__} takes {len(fields)} fields, got {len(values)}")
        given = dict(zip(fields, values))
        for name, value in named.items():
            if name not in fields:
                raise WrongArgumentType(f"{cls.__qualname__} has no field {name!r}")
            if name in given:
                raise WrongArgumentType(f"{cls.__qualname__} got field {name!r} twice")
            given[name] = value
        missing = [name for name in fields if name not in given]
        if missing:
            raise WrongArgumentType(f"{cls.__qualname__} is missing fields {missing}")
        return tuple(given[name] for name in fields)

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
