"""Which functions of mahler the traced run wraps, and the per-layer metrics
it reports from them.  Layer names are module names, as in BENCHMARK.json."""

from __future__ import annotations

import argparse

# (module, attribute, layer, keep every span).  Spans of the hot leaf calls
# are only counted and timed; see tracing.py.
FUNCTIONS = [
    ("padic", "stirling_first_signed", "padic.stirling", False),
    ("padic", "stirling_second", "padic.stirling", False),
    ("padic", "binomial_series", "padic.binomial_series", True),
    ("measure", "moments", "measure.moments", True),
    ("measure", "mahler_from_moments", "measure.from_moments", True),
    ("measure", "plus_basis", "measure.plus_basis", True),
    ("measure", "from_plus_basis", "measure.plus_basis", True),
    ("measure", "restrict_to_units", "measure.restrict", True),
    ("measure", "cell_mass", "measure.cell_mass", True),
    ("measure", "integrate_step", "measure.integrate", True),
    ("measure", "mult_pushforward", "measure.pushforward", True),
    ("measure", "pairing_measure", "measure.pairing_measure", True),
    ("modform", "delta_qexpansion", "modform.delta", True),
    ("modform", "eisenstein_qexpansion", "modform.eisenstein", True),
    ("modform", "u_operator", "modform.operators", True),
    ("modform", "v_operator", "modform.operators", True),
    ("modform", "hecke_operator", "modform.operators", True),
    ("modform", "p_deplete", "modform.operators", True),
    ("modform", "theta_operator", "modform.operators", True),
    ("modform", "interpolation_euler_factor", "modform.operators", True),
    ("modform", "maass_raise", "modform.maass", True),
    ("heckechar", "class_group", "heckechar.class_group", True),
    ("heckechar", "characters", "heckechar.characters", True),
    ("heckechar", "pairing", "heckechar.pairing", True),
    ("heckechar", "twisted_pairing", "heckechar.pairing", True),
    ("heckechar", "smallest_admissible_prime", "heckechar.embed", True),
    ("heckechar", "admissible_embedding", "heckechar.embed", True),
    ("heckechar", "padic_avatar", "heckechar.embed", True),
    ("heckechar", "avatar_measure_family", "heckechar.avatar_family", True),
    ("archimedean", "quadrature_report", "archimedean.quadrature", True),
    ("archimedean", "local_integral_quadrature", "archimedean.quadrature", True),
    ("quaternion", "hashimoto_search", "quaternion.search", True),
    ("cli", "main", "cli.main", True),
    ("cli", "build_parser", "cli.parse", True),
] + [("serialize", name, "serialize.decode", True)
     for name in ("decode_exact", "decode_padic", "decode_scalar", "decode_series",
                  "decode_measure", "decode_qexpansion", "decode_nearly_holomorphic",
                  "decode_algebraic")] \
  + [("serialize", name, "serialize.encode", True)
     for name in ("encode_exact", "encode_padic", "encode_scalar", "encode_series",
                  "encode_measure", "encode_qexpansion", "encode_nearly_holomorphic",
                  "encode_algebraic", "format_float", "encode_complex")]

# (module, class, method, layer, keep)
METHODS = [("padic", "PadicScalar", name, "padic.scalar", False)
           for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                        "__rmul__", "scale", "inverse")] \
    + [("heckechar", "PadicEmbedding", "embed", "heckechar.embed", True)]

# (module, class, method, layer): counted only
COUNTED = [("heckechar", "AlgebraicValue", "__mul__", "heckechar.algebraic_mul"),
           ("heckechar", "AlgebraicValue", "inverse", "heckechar.algebraic_inverse")]

MODULES = ("padic", "measure", "modform", "heckechar", "archimedean", "quaternion",
           "serialize", "cli")

# layers reported as self time (in `unit`) plus a call count
TIMED = [
    ("cli.main", "ms"), ("cli.parse", "ms"), ("serialize.decode", "ms"),
    ("serialize.encode", "ms"),
    ("padic.stirling", "s"), ("padic.binomial_series", "s"), ("padic.scalar", "s"),
    ("measure.moments", "s"), ("measure.from_moments", "s"), ("measure.plus_basis", "s"),
    ("measure.restrict", "s"), ("measure.cell_mass", "s"), ("measure.integrate", "s"),
    ("measure.pushforward", "s"), ("measure.pairing_measure", "s"),
    ("modform.delta", "s"), ("modform.eisenstein", "s"), ("modform.operators", "s"),
    ("modform.maass", "s"),
    ("heckechar.class_group", "s"), ("heckechar.characters", "s"),
    ("heckechar.pairing", "s"), ("heckechar.embed", "s"), ("heckechar.avatar_family", "s"),
    ("archimedean.quadrature", "s"), ("quaternion.search", "s"),
]


def calls_name(layer: str) -> str:
    return "padic.scalar_ops" if layer == "padic.scalar" else f"{layer}_calls"


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = [("import.mahler_ms", "ms"), ("import.sympy_ms", "ms"), ("import.numpy_ms", "ms")]
    for layer, unit in TIMED:
        out.append((f"{layer}_{unit}", unit))
        out.append((calls_name(layer), "count"))
    out += [("measure.refused_s", "s"), ("measure.restrict_useful_ratio", "ratio"),
            ("heckechar.algebraic_mul_calls", "count"),
            ("heckechar.algebraic_inverse_calls", "count"),
            ("trace.outside_s", "s"), ("trace.overhead_ratio", "ratio")]
    return out


def install(tracer):
    import importlib
    mods = {name: importlib.import_module(f"mahler.{name}") for name in MODULES}
    package = importlib.import_module("mahler")
    functions = [(mods[m], attr, layer, keep) for m, attr, layer, keep in FUNCTIONS]
    methods = [(getattr(mods[m], cls), attr, layer, keep)
               for m, cls, attr, layer, keep in METHODS]
    methods.append((argparse.ArgumentParser, "parse_args", "cli.parse", True))
    counted = [(getattr(mods[m], cls), attr, layer) for m, cls, attr, layer in COUNTED]
    tracer.install(list(mods.values()) + [package], functions, methods, counted)


def layer_metrics(tracer, cycles: int, imports: dict, traced_s: float,
                  untraced_s: float) -> dict:
    """Per-cycle totals of every per-layer metric."""
    out = {"import.mahler_ms": (imports["mahler"], "ms"),
           "import.sympy_ms": (imports["sympy"], "ms"),
           "import.numpy_ms": (imports["numpy"], "ms")}
    for layer, unit in TIMED:
        scale = 1000.0 if unit == "ms" else 1.0
        out[f"{layer}_{unit}"] = (tracer.self_time[layer] * scale / cycles, unit)
        out[calls_name(layer)] = (tracer.calls[layer] / cycles, "count")
    # share of the time in restrict_to_units spent on calls that returned a result
    useful = tracer.restrict_useful_time / tracer.restrict_time if tracer.restrict_time else 1.0
    out["measure.refused_s"] = (tracer.refused_time / cycles, "s")
    out["measure.restrict_useful_ratio"] = (useful, "ratio")
    out["heckechar.algebraic_mul_calls"] = (tracer.calls["heckechar.algebraic_mul"] / cycles,
                                            "count")
    out["heckechar.algebraic_inverse_calls"] = (
        tracer.calls["heckechar.algebraic_inverse"] / cycles, "count")
    out["trace.outside_s"] = ((traced_s - tracer.top_level_time) / cycles, "s")
    out["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    return out
