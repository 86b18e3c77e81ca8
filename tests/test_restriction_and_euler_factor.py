"""The paper's restriction step and Euler factor, each against another
module: restricting the measure Σ τ(n)·δ_n to Z_p^× is p-depletion of Δ,
and the Euler factor times a partial sum of τ(p^j)·X^j telescopes by the
Hecke recursion of Δ's coefficients."""

from fractions import Fraction

import pytest

from mahler.measure import cell_mass, from_plus_basis, moments, restrict_to_units
from mahler.modform import delta_qexpansion, interpolation_euler_factor, p_deplete, theta_operator

PRIMES = (3, 5, 7, 11)
N = 60
DELTA = delta_qexpansion(3 ** 7)  # τ(p^(J+1)) for the largest J below, at p = 3
TAU = [DELTA.coefficient(n) for n in range(N + 1)]


@pytest.mark.parametrize("p", PRIMES)
def test_restriction_to_the_units_is_p_depletion(p):
    # the (1+T)^n coefficients τ(n) give µ = Σ_{n <= N} τ(n)·δ_n, whose
    # restriction has the r-th moment Σ_{p ∤ n} τ(n)·n^r: the sum of the
    # coefficients of θ^r of the p-depleted Δ, up to q^N
    mu = from_plus_basis(TAU, p, True)
    restricted = restrict_to_units(mu)
    depleted = p_deplete(DELTA, p)
    for r in range(8):
        theta = theta_operator(depleted, r)
        assert moments(restricted, r) == sum(theta.coefficient(n) for n in range(N + 1))
    for a in range(p):
        assert cell_mass(mu, a, 1) == sum(TAU[a::p])


@pytest.mark.parametrize("p", PRIMES)
def test_euler_factor_times_the_partial_sum_telescopes(p):
    # E = 1 - τ(p)·X + p^11·X^2 at X = χ·p^(-12), the local factor of
    # L(Δ ⊗ χ, s) at s = 2κ = 12; τ(p^(j+1)) = τ(p)·τ(p^j) - p^11·τ(p^(j-1))
    # leaves of E·S_J only its first and last terms
    J = 0
    while p ** (J + 3) <= 11 ** 4:
        J += 1
    tau = [DELTA.coefficient(p ** j) for j in range(J + 2)]
    for chi in (1, -1, Fraction(2, 3)):
        X = Fraction(chi) / p ** 12
        E = interpolation_euler_factor(tau[1], 1, chi, 6, p)
        S = sum(t * X ** j for j, t in enumerate(tau[:J + 1]))
        assert E * S == 1 - tau[J + 1] * X ** (J + 1) + p ** 11 * tau[J] * X ** (J + 2)
