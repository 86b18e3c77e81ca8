"""The package API: every name `mahler` exported when it imported each
module eagerly is still there, as the same object as its module's
attribute, and is listed by dir()."""

import importlib
import sys

import pytest

import mahler

EXPORTED = {
    "archimedean": ["LocalFactorParams", "PiPolynomial", "delta_coeff",
                    "delta_diagonal_sum", "delta_diagonal_target", "gamma_coeff",
                    "local_factor_closed_form", "local_integral_quadrature",
                    "quadrature_report"],
    "errors": ["InvalidInput", "PrecisionExhausted", "SearchBoundExhausted",
               "ToleranceNotMet"],
    "heckechar": ["AlgebraicValue", "IdealClassGroup", "PadicEmbedding", "QuadOrder",
                  "WeightFunction", "avatar_measure_family", "canonical_weight_character",
                  "characters", "class_group", "padic_avatar", "pairing",
                  "twisted_pairing"],
    "measure": ["Measure", "cell_mass", "dirac", "integrate_step", "mahler_from_moments",
                "moments", "mult_pushforward", "pairing_measure", "restrict_to_units"],
    "modform": ["DirichletCharacter", "NearlyHolomorphic", "QExpansion",
                "delta_qexpansion", "eisenstein_qexpansion", "hecke_operator",
                "interpolation_euler_factor", "maass_raise", "p_deplete",
                "theta_operator", "u_operator", "v_operator"],
    "padic": ["PadicScalar", "TruncatedSeries", "binomial_series",
              "factorial_valuation", "stirling_first_signed",
              "stirling_second"],
    "quaternion": ["HashimotoData", "MatrixEmbedding", "QuaternionAlgebra",
                   "embedding_conductor", "hashimoto_search", "hilbert_symbol",
                   "ramified_set", "skolem_noether_complement"],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES)
def test_exported_name(module, name):
    namespace = {}
    exec(f"from mahler import {name}", namespace)
    owner = importlib.import_module(f"mahler.{module}")
    assert namespace[name] is getattr(owner, name) is getattr(mahler, name)
    assert name in dir(mahler)


@pytest.mark.parametrize("module", list(EXPORTED))
def test_submodule(module):
    namespace = {}
    exec(f"from mahler import {module}", namespace)
    assert namespace[module] is sys.modules[f"mahler.{module}"] is getattr(mahler, module)
    assert module in dir(mahler)


def test_module_getattr_imports_a_submodule():
    # `from mahler import measure` reaches the hook only before the module
    # is imported; called directly, it returns the module
    for module in EXPORTED:
        assert mahler.__getattr__(module) is importlib.import_module(f"mahler.{module}")


def test_version_and_unknown_name():
    assert mahler.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        mahler.no_such_name
    with pytest.raises(ImportError):
        exec("from mahler import no_such_name", {})
