"""The paper's restriction step and Euler factor, each against another
module: restricting the measure Σ τ(n)·δ_n to Z_p^× is p-depletion of Δ,
and the Euler factor times a partial sum of τ(p^j)·X^j telescopes by the
Hecke recursion of Δ's coefficients."""

import random
from fractions import Fraction

import pytest

from mahler.errors import PrecisionExhausted
from mahler.measure import (Measure, cell_mass, cell_tail_valuation, from_plus_basis,
                            integrate_step, moments, restrict_to_units)
from mahler.padic import INF, PadicScalar
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


def agrees(x, value, target) -> bool:
    """x, a PadicScalar or an exact number, is stated to at least p^target
    and equals the exact value mod the power of p that it states."""
    if not isinstance(x, PadicScalar):
        return x == value
    if x.precision is INF:
        return x.is_zero and value == 0
    return x.precision >= target and (x.lift() - value) % x.prime ** x.precision == 0


@pytest.mark.parametrize("p, K", [(3, 40), (5, 60), (7, 50), (11, 60)])
def test_truncated_readings_against_the_exact_route(p, K):
    # µ_N's Mahler coefficients known mod p^K and cut at order K: at every
    # target up to its tail bound, restriction, cell masses and step
    # integrals agree with stage A's exact values mod their stated
    # precision, and one above the bound each refuses; p^K lies beyond
    # every bound, so only the target caps the readings
    mu = from_plus_basis(TAU, p, True)
    truncated = Measure(p, [PadicScalar.from_int(a, p, K) for a in mu.mahler[:K]], False)
    restricted = restrict_to_units(mu).mahler
    bound = (K - 1) // (p - 1) - 1
    for target in range(1, bound + 1):
        out = restrict_to_units(truncated, target).mahler
        assert len(out) == K - (target + 1) * (p - 1)
        assert all(agrees(x, e, target) for x, e in zip(out, restricted))
    with pytest.raises(PrecisionExhausted):
        restrict_to_units(truncated, bound + 1)
    rng = random.Random(p)
    for nu in (1, 2):
        q = p ** nu
        masses = [sum(TAU[a::q]) for a in range(q)]
        phi = [rng.randrange(-5, 6) for _ in range(q)]
        step = sum(f * m for f, m in zip(phi, masses))
        bound = cell_tail_valuation(K, nu, p)
        for target in range(1, bound + 1):
            assert all(agrees(cell_mass(truncated, a, nu, target), masses[a], target)
                       for a in range(q))
            assert agrees(integrate_step(truncated, phi, target), step, target)
        for call in (lambda: cell_mass(truncated, 1, nu, bound + 1),
                     lambda: integrate_step(truncated, phi, bound + 1)):
            with pytest.raises(PrecisionExhausted):
                call()
