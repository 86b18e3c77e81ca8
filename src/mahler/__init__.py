"""Measures on Z_p by Mahler coefficients, with the number-theoretic
superstructure: Hecke-type operators on q-expansions, class-group characters
and their p-adic avatars, archimedean local-factor verification, and
quaternion-algebra utilities."""

from .archimedean import (LocalFactorParams, PiPolynomial, delta_coeff,
                          delta_diagonal_sum, delta_diagonal_target,
                          gamma_coeff, local_factor_closed_form,
                          local_integral_quadrature, quadrature_report)
from .errors import (InvalidInput, PrecisionExhausted, SearchBoundExhausted,
                     ToleranceNotMet)
from .heckechar import (AlgebraicValue, IdealClassGroup, PadicEmbedding,
                        QuadOrder, WeightFunction, avatar_measure_family,
                        canonical_weight_character, characters, class_group,
                        padic_avatar, pairing, twisted_pairing)
from .measure import (Measure, cell_mass, dirac, integrate_step,
                      mahler_from_moments, moments, mult_pushforward,
                      pairing_measure, restrict_to_units)
from .modform import (DirichletCharacter, NearlyHolomorphic, QExpansion,
                      delta_qexpansion, eisenstein_qexpansion, hecke_operator,
                      interpolation_euler_factor, maass_raise, p_deplete,
                      theta_operator, u_operator, v_operator)
from .padic import (PadicScalar, TruncatedSeries, binomial_series,
                    factorial_valuation, scalar_arith, stirling_first_signed,
                    stirling_second)
from .quaternion import (HashimotoData, MatrixEmbedding, QuaternionAlgebra,
                         embedding_conductor, hashimoto_search, hilbert_symbol,
                         ramified_set, skolem_noether_complement)

__version__ = "0.1.0"
