"""Measures on Z_p by Mahler coefficients, with the number-theoretic
superstructure: Hecke-type operators on q-expansions, class-group characters
and their p-adic avatars, archimedean local-factor verification, and
quaternion-algebra utilities.

The names below and their modules are exported lazily (PEP 562):
`from mahler import X` and `mahler.X` import X's module on first use, so
`import mahler` loads no compute module."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "archimedean": ("LocalFactorParams", "PiPolynomial", "delta_coeff",
                    "delta_diagonal_sum", "delta_diagonal_target", "gamma_coeff",
                    "local_factor_closed_form", "local_integral_quadrature",
                    "quadrature_report"),
    "errors": ("InvalidInput", "PrecisionExhausted", "SearchBoundExhausted",
               "ToleranceNotMet"),
    "heckechar": ("AlgebraicValue", "IdealClassGroup", "PadicEmbedding", "QuadOrder",
                  "WeightFunction", "avatar_measure_family", "canonical_weight_character",
                  "characters", "class_group", "padic_avatar", "pairing",
                  "twisted_pairing"),
    "measure": ("Measure", "cell_mass", "dirac", "integrate_step", "mahler_from_moments",
                "moments", "mult_pushforward", "pairing_measure", "restrict_to_units"),
    "modform": ("DirichletCharacter", "NearlyHolomorphic", "QExpansion",
                "delta_qexpansion", "eisenstein_qexpansion", "hecke_operator",
                "interpolation_euler_factor", "maass_raise", "p_deplete",
                "theta_operator", "u_operator", "v_operator"),
    "padic": ("PadicScalar", "TruncatedSeries", "binomial_series",
              "factorial_valuation", "stirling_first_signed",
              "stirling_second"),
    "quaternion": ("HashimotoData", "MatrixEmbedding", "QuaternionAlgebra",
                   "embedding_conductor", "hashimoto_search", "hilbert_symbol",
                   "ramified_set", "skolem_noether_complement"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_MODULE_OF))
