"""JSON encoding of the exact data types.

Exact numbers travel as decimal strings ("123", "-4/7"); p-adic scalars as
{"p", "val", "unit", "prec"} with "inf" for infinite fields.  Floats appear
only in archimedean results and are rendered with 17 significant digits.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInput
from .heckechar import AlgebraicValue
from .measure import Measure
from .modform import DirichletCharacter, NearlyHolomorphic, QExpansion
from .padic import INF, PadicScalar, TruncatedSeries, exact


def encode_exact(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def decode_exact(s):
    if isinstance(s, int):
        return s
    if isinstance(s, str):
        return exact(s)
    raise InvalidInput(f"expected an exact number, got {s!r}")


def encode_padic(x: PadicScalar) -> dict:
    return {
        "p": x.prime,
        "val": "inf" if x.valuation is INF else x.valuation,
        "unit": str(x.unit),
        "prec": "inf" if x.precision is INF else x.precision,
    }


def decode_padic(obj: dict) -> PadicScalar:
    val = INF if obj["val"] == "inf" else int(obj["val"])
    prec = INF if obj["prec"] == "inf" else int(obj["prec"])
    return PadicScalar(int(obj["p"]), val, int(obj["unit"]), prec)


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
    coeffs = [decode_scalar(c) for c in obj["coeffs"]]
    return TruncatedSeries(coeffs, obj.get("p"))


def encode_measure(mu: Measure) -> dict:
    return {"p": mu.prime, "order": mu.order, "finite": mu.finite,
            "mahler": [encode_scalar(a) for a in mu.mahler]}


def decode_measure(obj: dict) -> Measure:
    return Measure(int(obj["p"]), [decode_scalar(a) for a in obj["mahler"]],
                   finite=bool(obj["finite"]))


def encode_qexpansion(f: QExpansion) -> dict:
    return {"k": f.weight, "N": f.level,
            "eps": [encode_exact(v) for v in f.eps.values],
            "coeffs": [encode_scalar(c) for c in f.coeffs]}


def decode_qexpansion(obj: dict) -> QExpansion:
    eps = DirichletCharacter(len(obj["eps"]), [decode_exact(v) for v in obj["eps"]])
    return QExpansion(int(obj["k"]), int(obj["N"]), eps,
                      [decode_scalar(c) for c in obj["coeffs"]])


def encode_nearly_holomorphic(f: NearlyHolomorphic) -> dict:
    cells = sorted([n, j, encode_exact(c)] for (n, j), c in f.cells.items())
    return {"k": f.weight, "trunc": f.trunc, "cells": cells}


def decode_nearly_holomorphic(obj: dict) -> NearlyHolomorphic:
    cells = {(int(n), int(j)): decode_exact(c) for n, j, c in obj["cells"]}
    return NearlyHolomorphic(int(obj["k"]), int(obj["trunc"]), cells)


def encode_algebraic(v: AlgebraicValue) -> dict:
    return {"d": v.d, "m": v.m,
            "coeffs": [[encode_exact(a), encode_exact(b)] for a, b in v.coeffs]}


def decode_algebraic(obj: dict) -> AlgebraicValue:
    return AlgebraicValue(int(obj["d"]), int(obj["m"]),
                          [(decode_exact(a), decode_exact(b))
                           for a, b in obj["coeffs"]])


def format_float(x: float) -> str:
    return "%.17g" % x


def encode_complex(z: complex) -> dict:
    return {"re": format_float(z.real), "im": format_float(z.imag)}
