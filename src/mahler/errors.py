"""Exception types shared across the package, one per CLI exit class, and
the immutable bases of the value and record classes and their field builder."""

from types import MappingProxyType


class InvalidInput(ValueError):
    """Arguments violate a documented precondition (exit code 2)."""


class PrecisionExhausted(ArithmeticError):
    """A p-adic result would be known mod p^0 or worse (exit code 3)."""


class SearchBoundExhausted(RuntimeError):
    """A guaranteed-to-terminate search ran past its user bound (exit code 4)."""


class ToleranceNotMet(RuntimeError):
    """A numerical comparison missed its stated tolerance (exit code 5)."""


class Frozen:
    """Base of every value class, and its protocol over the `__slots__`
    fields: they refuse assignment and deletion, so a public constructor
    checks them and sets them by `_set`, which sets every field of every
    value, a dict as a read-only map; copies, unpickled and derived values
    come from `_from_fields`.  Two values of one class are equal when their fields
    are; values are unhashable; a value prints as `Name(field=<repr>, ...)`.
    A class may override `__eq__`, `__repr__` or `_fields`, as `Measure`
    does to read its `mahler` property, which builds a family member's
    coefficients on first read: copies and pickles see the built tuple."""

    __slots__ = ()

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set(self, *fields):
        """Set every field, in `__slots__` order, a dict as a read-only map,
        by the slots' own setters, which `__setattr__` does not reach (a
        check of the count costs less than a strict `zip`)."""
        setters = self._setters
        if len(fields) != len(setters):
            raise ValueError(f"{type(self).__name__} has {len(setters)} fields, not {len(fields)}")
        for setter, field in zip(setters, fields):
            setter(self, MappingProxyType(field) if type(field) is dict else field)

    @classmethod
    def _from_fields(cls, *fields):
        """The value with these fields, unchecked: a copy, an unpickled
        value, or one derived from checked values."""
        value = object.__new__(cls)
        value._set(*fields)
        return value

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __reduce__(self):  # a read-only map travels as a dict, which pickles
        return type(self)._from_fields, tuple(
            dict(f) if type(f) is MappingProxyType else f for f in self._fields())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Record(Frozen):
    """A parameter record: a Frozen value that hashes by its fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())
