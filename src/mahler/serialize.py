"""JSON encoding of the exact data types.

Exact numbers travel as decimal strings ("123", "-4/7"); p-adic scalars as
{"p", "val", "unit", "prec"} with "inf" for infinite fields.  Floats appear
only in archimedean results and are rendered with 17 significant digits.
A decoder imports the module of the class it builds when it runs, so that
loading this module loads no compute module but `padic`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInput
from .padic import INF, PadicScalar, TruncatedSeries, exact


def _fields(obj, keys=(), arrays=()) -> dict:
    """obj, checked to be a JSON object with the fields `keys` and arrays `arrays`."""
    if not isinstance(obj, dict):
        raise InvalidInput(f"expected a JSON object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise InvalidInput(f"missing field {key!r}")
    for key in arrays:
        if not isinstance(obj.get(key), list):
            raise InvalidInput(f"field {key!r} must be a JSON array")
    return obj


def _rows(obj, key: str, n: int, keys=()) -> list:
    """The array field `key` of the JSON object obj with the fields `keys`,
    checked to hold arrays of n entries."""
    rows = _fields(obj, keys, (key,))[key]
    if not all(isinstance(row, list) and len(row) == n for row in rows):
        raise InvalidInput(f"each entry of {key!r} must be a JSON array of {n}")
    return rows


def _int(value) -> int:
    """An integer field: an integral JSON number or a decimal string, as int()
    reads it; any other JSON value, a boolean or 4.5 among them, is invalid."""
    if type(value) in (int, str) or type(value) is float and value.is_integer():
        return int(value)
    raise InvalidInput(f"expected an integer, got {value!r}")


def _decimal(n: int) -> str:
    """str(n) at any length: Python refuses str() of an int past 4300 digits,
    so an int of 14000 bits or more is written 4000 digits at a time."""
    if n.bit_length() < 14000:  # fewer than 4215 digits
        return str(n)
    base, digits, chunks = 10 ** 4000, abs(n), []
    while digits:
        digits, low = divmod(digits, base)
        chunks.append(f"{low:04000d}")
    return "-" * (n < 0) + "".join(reversed(chunks)).lstrip("0")


def encode_exact(q) -> str:
    q = Fraction(q)
    den = "" if q.denominator == 1 else f"/{_decimal(q.denominator)}"
    return _decimal(q.numerator) + den


def decode_exact(s):
    if type(s) is int:
        return s
    if isinstance(s, str):
        try:
            return exact(s)
        except ZeroDivisionError:
            raise InvalidInput(f"{s!r} has a zero denominator") from None
    raise InvalidInput(f"expected an exact number, got {s!r}")


def encode_padic(x: PadicScalar) -> dict:
    return {
        "p": x.prime,
        "val": "inf" if x.valuation is INF else x.valuation,
        "unit": _decimal(x.unit),
        "prec": "inf" if x.precision is INF else x.precision,
    }


def decode_padic(obj: dict) -> PadicScalar:
    _fields(obj, ("p", "val", "unit", "prec"))
    val = INF if obj["val"] == "inf" else _int(obj["val"])
    prec = INF if obj["prec"] == "inf" else _int(obj["prec"])
    return PadicScalar(_int(obj["p"]), val, _int(obj["unit"]), prec)


def encode_scalar(x):
    if isinstance(x, PadicScalar):
        return encode_padic(x)
    return encode_exact(x)


def decode_scalar(obj):
    if isinstance(obj, dict):
        return decode_padic(obj)
    return decode_exact(obj)


def encode_series(ts: TruncatedSeries) -> dict:
    out = {"domain": ts.domain, "order": ts.order,
           "coeffs": [encode_scalar(c) for c in ts.coeffs]}
    if ts.prime is not None:
        out["p"] = ts.prime
    return out


def decode_series(obj: dict) -> TruncatedSeries:
    _fields(obj, arrays=("coeffs",))
    coeffs = [decode_scalar(c) for c in obj["coeffs"]]
    return TruncatedSeries(coeffs, obj.get("p"))


def encode_measure(mu: Measure) -> dict:
    return {"p": mu.prime, "order": mu.order, "finite": mu.finite,
            "mahler": [encode_scalar(a) for a in mu.mahler]}


def decode_measure(obj: dict) -> Measure:
    from .measure import Measure
    _fields(obj, ("p", "finite"), ("mahler",))
    if type(obj["finite"]) is not bool:
        raise InvalidInput("field 'finite' must be true or false")
    mu = Measure(_int(obj["p"]), [decode_scalar(a) for a in obj["mahler"]],
                 finite=obj["finite"])
    if "order" in obj and _int(obj["order"]) != mu.order:
        raise InvalidInput(f"field 'order' is {obj['order']}, but 'mahler' has {mu.order} entries")
    return mu


def decode_measure_pairs(obj: dict) -> list:
    """{"pairs": [[mu, nu], ...]} as a list of (Measure, Measure)."""
    return [(decode_measure(a), decode_measure(b)) for a, b in _rows(obj, "pairs", 2)]


def encode_qexpansion(f: QExpansion) -> dict:
    return {"k": f.weight, "N": f.level,
            "eps": [encode_exact(v) for v in f.eps.values],
            "coeffs": [encode_scalar(c) for c in f.coeffs]}


def decode_qexpansion(obj: dict) -> QExpansion:
    from .modform import DirichletCharacter, QExpansion
    _fields(obj, ("k", "N"), ("eps", "coeffs"))
    eps = DirichletCharacter(len(obj["eps"]), [decode_exact(v) for v in obj["eps"]])
    return QExpansion(_int(obj["k"]), _int(obj["N"]), eps,
                      [decode_scalar(c) for c in obj["coeffs"]])


def encode_nearly_holomorphic(f: NearlyHolomorphic) -> dict:
    cells = sorted([n, j, encode_exact(c)] for (n, j), c in f.cells.items())
    return {"k": f.weight, "trunc": f.trunc, "cells": cells}


def decode_nearly_holomorphic(obj: dict) -> NearlyHolomorphic:
    from .modform import NearlyHolomorphic
    rows = _rows(obj, "cells", 3, ("k", "trunc"))
    cells = {(_int(n), _int(j)): decode_exact(c) for n, j, c in rows}
    return NearlyHolomorphic(_int(obj["k"]), _int(obj["trunc"]), cells)


def encode_algebraic(v: AlgebraicValue) -> dict:
    return {"d": v.d, "m": v.m,
            "coeffs": [[encode_exact(a), encode_exact(b)] for a, b in v.coeffs]}


def decode_algebraic(obj: dict) -> AlgebraicValue:
    from .heckechar import AlgebraicValue
    rows = _rows(obj, "coeffs", 2, ("d", "m"))
    coeffs = [(decode_exact(a), decode_exact(b)) for a, b in rows]
    return AlgebraicValue(_int(obj["d"]), _int(obj["m"]), coeffs)


def format_float(x: float) -> str:
    return "%.17g" % x


def encode_complex(z: complex) -> dict:
    return {"re": format_float(z.real), "im": format_float(z.imag)}
