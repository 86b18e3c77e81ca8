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
    checks and sets them through `object.__setattr__`, mostly by `_set`, and
    copies, unpickled and derived values come from `_from_fields` (or from
    `PadicScalar._make`, which keeps a zero's `INF`); two values
    of one class are equal when their fields are; values are unhashable; a
    value prints as `Name(field=<repr>, ...)`.  A class may override
    `__eq__` or `__repr__`, and may fill a field on its first read, as a
    `Measure` avatar family member fills `mahler`: every reader, `_fields()`
    and so copies and pickles among them, then sees the filled value."""

    __slots__ = ()

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _set(self, *fields):
        """Set every field, in `__slots__` order.  `PadicScalar._make` (the
        avatar path's inner loops) calls `object.__setattr__` per field: half the cost."""
        for name, field in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, field)

    @classmethod
    def _from_fields(cls, *fields):
        """The value with these fields, unchecked, a dict as a read-only map:
        a copy, an unpickled value, or one derived from checked values."""
        value = object.__new__(cls)
        value._set(*[MappingProxyType(f) if type(f) is dict else f for f in fields])
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
