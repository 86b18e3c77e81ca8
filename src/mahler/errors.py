"""Exception types shared across the package, one per CLI exit class, and
the immutable base of the value classes."""


class InvalidInput(ValueError):
    """Arguments violate a documented precondition (exit code 2)."""


class PrecisionExhausted(ArithmeticError):
    """A p-adic result would be known mod p^0 or worse (exit code 3)."""


class SearchBoundExhausted(RuntimeError):
    """A guaranteed-to-terminate search ran past its user bound (exit code 4)."""


class ToleranceNotMet(RuntimeError):
    """A numerical comparison missed its stated tolerance (exit code 5)."""


class Frozen:
    """Base of every value class: its fields refuse assignment and deletion.
    A constructor sets them through `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__
