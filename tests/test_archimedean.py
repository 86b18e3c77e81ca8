import cmath
import math
import random
from fractions import Fraction
from math import comb

import pytest

from mahler.archimedean import (LocalFactorParams, PiPolynomial, delta_coeff,
                                delta_diagonal_sum, delta_diagonal_target,
                                double_factorial, gamma_coeff, local_factor_closed_form,
                                local_integral_quadrature, quadrature_report)
from mahler.cli import main
from mahler.errors import InvalidInput, ToleranceNotMet
from paper_oracles import (apply_raising_operator, closed_form_pi_polynomial,
                           gaussian_basis_value, raising_operator_check,
                           raising_operator_finite_difference)

# ---------------------------------------------------------------------------
# Gaussian-moment oracle.  The Fourier transform of (|z|^2)^l e^(-2pi|z|^2)
# under the norm-form pairing (kernel e^(4 pi i x.y), self-dual measure 2 dy)
# is computed from exact Gaussian derivatives: P_0 = 1,
# P_{n+1} = P_n' - 4 pi x P_n, and
#   Int y^(2m) e^(-2pi y^2) e^(4pi i x y) dy
#     = (-1)^m (4pi)^(-2m) (1/sqrt2) P_{2m}(x) e^(-2pi x^2).
# The oracle equals (-1)^l times the stated coefficient formula: the stated
# convention is the one the diagonal identity and the closed form require,
# and the relationship below pins the sign difference exactly.
# ---------------------------------------------------------------------------


def gaussian_derivative_polys(n_max):
    polys = [{0: PiPolynomial.term(1)}]
    for _ in range(n_max):
        prev = polys[-1]
        nxt = {}
        for k, c in prev.items():
            if k >= 1:
                nxt[k - 1] = nxt.get(k - 1, PiPolynomial()) + c * k
            nxt[k + 1] = nxt.get(k + 1, PiPolynomial()) + c * PiPolynomial.term(-4, 1)
        polys.append({k: v for k, v in nxt.items() if not v.is_zero()})
    return polys


def fourier_coeff_oracle(l, alpha, beta):
    polys = gaussian_derivative_polys(2 * l)
    total = PiPolynomial()
    for m in range(l + 1):
        p1 = polys[2 * m].get(2 * alpha)
        p2 = polys[2 * (l - m)].get(2 * beta)
        if p1 is None or p2 is None:
            continue
        scale = PiPolynomial.term(Fraction((-1) ** l * comb(l, m), 4 ** (2 * l)),
                                  -2 * l)
        total = total + scale * p1 * p2
    return total


class TestGammaDelta:
    def test_gamma_trivial(self):
        assert gamma_coeff(0, 0, 0) == PiPolynomial.term(1)

    def test_gamma_l1_hand_expansion(self):
        # j-sum with k = l - j: two terms, each contributing 1
        assert gamma_coeff(1, 0, 0) == PiPolynomial.term(Fraction(-2, 4), -1)

    def test_gamma_against_gaussian_oracle(self):
        for l in range(6):
            for alpha in range(l + 1):
                for beta in range(l + 1 - alpha):
                    oracle = fourier_coeff_oracle(l, alpha, beta)
                    stated = gamma_coeff(l, alpha, beta) * Fraction((-1) ** l)
                    assert oracle == stated, (l, alpha, beta)

    def test_delta_trivial(self):
        assert delta_coeff(0, 0, 0) == PiPolynomial.term(1)

    def test_diagonal_identity_r_le_20(self):
        for r in range(21):
            assert delta_diagonal_sum(r) == delta_diagonal_target(r)

    def test_underlying_integer_identity_r2(self):
        # sum_a C(2,a)(2a-1)!!(4-2a-1)!! = 3 + 2 + 3 = 8 = 2^2 2!
        values = [comb(2, a) * _dfac(2 * a - 1) * _dfac(3 - 2 * a)
                  for a in range(3)]
        assert values == [3, 2, 3] and sum(values) == 8

    def test_index_guard(self):
        with pytest.raises(InvalidInput):
            gamma_coeff(1, 1, 1)

    def test_double_factorial_against_a_loop(self):
        for n in range(-1, 302, 2):
            assert double_factorial(n) == _dfac(n)
        for n in (*range(-8, 302, 2), -3, -5, -101):
            with pytest.raises(InvalidInput, match="^double factorial used only for odd n >= -1$"):
                double_factorial(n)

    @pytest.mark.parametrize("build", [delta_diagonal_sum, delta_diagonal_target])
    def test_negative_r_refused(self, build):
        assert build(0) == PiPolynomial.term(1)
        with pytest.raises(InvalidInput, match="^need r >= 0$"):
            build(-1)


def _dfac(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class TestRaisingRecurrence:
    def test_single_step_from_origin(self):
        state = apply_raising_operator({(0, 3): PiPolynomial.term(1)})
        assert state == {(0, 4): PiPolynomial.term(-4, 1),
                         (1, 4): PiPolynomial.term(16, 2)}

    def test_l_squared_term_absent_at_zero(self):
        state = apply_raising_operator({(0, 1): 1})
        assert all(l >= 0 for (l, m) in state)

    def test_top_term_after_r_steps(self):
        # leading coefficient (4 pi)^(2r) on the (r, kappa + r) basis vector
        for r in (1, 2, 3, 4):
            state = {(0, 2): PiPolynomial.term(1)}
            for _ in range(r):
                state = apply_raising_operator(state)
            assert state[(r, 2 + r)] == PiPolynomial.term(16 ** r, 2 * r)

    def test_finite_difference_agreement(self):
        rng = random.Random(99)
        points = [(complex(rng.uniform(0.25, 0.8), rng.uniform(0.25, 0.8)),
                   complex(rng.uniform(0.25, 0.8), rng.uniform(0.25, 0.8)))
                  for _ in range(10)]
        for (l, m) in [(0, 1), (1, 1), (2, 1), (1, 2)]:
            assert raising_operator_check(l, m, points) < 1e-6

    def test_richardson_order(self):
        rng = random.Random(100)
        points = [(complex(rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)),
                   complex(rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)))
                  for _ in range(6)]
        coarse = raising_operator_check(1, 1, points, step=4e-3)
        fine = raising_operator_check(1, 1, points, step=2e-3)
        assert math.log2(coarse / fine) > 3.5

    def test_pure_gaussian_case_pointwise(self):
        z1, z2 = complex(0.4, 0.2), complex(0.5, -0.3)
        lhs = raising_operator_finite_difference(0, 2, z1, z2)
        pi = math.pi
        expected = -4 * pi * gaussian_basis_value(0, 3, z1, z2) \
            + 16 * pi * pi * gaussian_basis_value(1, 3, z1, z2)
        assert abs(lhs - expected) / abs(expected) < 1e-7

    def test_degenerate_step(self):
        with pytest.raises(InvalidInput):
            raising_operator_finite_difference(0, 1, 0.5 + 0j, 0.5 + 0j, step=0)


class TestLocalIntegral:
    def test_base_case_closed_form(self):
        params = LocalFactorParams(kappa=1, r=0, l=0)
        expected = 4 / (4 * math.pi) ** 3
        assert abs(local_factor_closed_form(params) - expected) < 1e-18
        assert abs(local_integral_quadrature(params) - expected) < 1e-12

    def test_closed_form_matches_exact_pi_polynomial(self):
        for kappa in (1, 2, 3):
            for r in (0, 1, 2):
                params = LocalFactorParams(kappa=kappa, r=r, l=r)
                exact = closed_form_pi_polynomial(kappa, r).evaluate()
                assert abs(local_factor_closed_form(params) - exact) \
                    <= 1e-12 * abs(exact)

    @pytest.mark.parametrize("kappa", [1, 2])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_quadrature_agrees(self, kappa, r):
        report = quadrature_report(LocalFactorParams(kappa=kappa, r=r, l=r))
        assert report["rel_error"] < 1e-6
        assert report["self_consistency"] < 1e-9

    def test_vanishing_below_diagonal(self):
        for r in range(1, 4):
            scale = abs(local_factor_closed_form(LocalFactorParams(1, r, r)))
            for l in range(r):
                q = local_integral_quadrature(LocalFactorParams(1, r, l))
                assert abs(q) < 1e-8 * scale

    def test_phase_covariance(self):
        kappa, r = 1, 1
        zeta = cmath.exp(2j * math.pi / 6)
        base = local_integral_quadrature(LocalFactorParams(kappa, r, r))
        twisted = local_integral_quadrature(
            LocalFactorParams(kappa, r, r, zeta_u=zeta))
        assert abs(twisted - zeta ** (2 * (kappa + r)) * base) < 1e-12 * abs(base)

    def test_nu_abs_scaling(self):
        base = local_integral_quadrature(LocalFactorParams(1, 0, 0))
        scaled = local_integral_quadrature(LocalFactorParams(1, 0, 0, nu_u_abs=4.0))
        assert abs(scaled - base / 2) < 1e-12 * abs(base)

    def test_angular_oracle_exactness(self):
        # trapezoid rule is exact on the trigonometric monomials appearing in
        # the integrand: compare one nonzero and one zero frequency directly
        n = 64
        import numpy as np
        theta = 2 * math.pi * np.arange(n) / n
        for freq in (0, 2, 5):
            approx = complex(np.sum(np.exp(1j * freq * theta))) * (2 * math.pi / n)
            expected = 2 * math.pi if freq == 0 else 0.0
            assert abs(approx - expected) < 1e-12

    def test_overflow_fails_the_tolerance(self):
        # the r = 200 weights are Fractions past the float range; the other
        # overflows meet numpy's RuntimeWarning first here (see test_cli.py)
        params = LocalFactorParams(kappa=1, r=200, l=200)
        with pytest.raises(ToleranceNotMet, match="^a value left the float range: "):
            quadrature_report(params, 4, 4)

    def test_non_finite_rule_fails_the_tolerance(self):
        # 94 nodes, and the 188 of the refined quadrature give NaN weights
        params = LocalFactorParams(kappa=1, r=1, l=1)
        assert math.isfinite(quadrature_report(params, 93)["self_consistency"])
        with pytest.raises(ToleranceNotMet, match="^a quadrature is not a finite number$"):
            quadrature_report(params, 94)

    def test_parameter_validation(self):
        with pytest.raises(InvalidInput):
            LocalFactorParams(kappa=0, r=0, l=0)
        with pytest.raises(InvalidInput):
            LocalFactorParams(kappa=1, r=1, l=2)
        with pytest.raises(InvalidInput):
            LocalFactorParams(kappa=1, r=0, l=0, s=-1.0)
        with pytest.raises(InvalidInput):
            LocalFactorParams(kappa=1, r=0, l=0, nu_u_abs=0.0)


class TestPiPolynomial:
    def test_arithmetic(self):
        a = PiPolynomial.term(Fraction(1, 2), -1)
        b = PiPolynomial.term(3, 2)
        assert (a * b) == PiPolynomial.term(Fraction(3, 2), 1)
        assert (a + a) == PiPolynomial.term(1, -1)
        assert (a - a).is_zero()

    def test_int_operands(self):
        a = PiPolynomial.term(Fraction(1, 2), -1)
        assert a + 1 == 1 + a == PiPolynomial({-1: Fraction(1, 2), 0: 1})
        assert a - 1 == PiPolynomial({-1: Fraction(1, 2), 0: -1})
        assert (a + 1) - a == 1 and PiPolynomial.term(3) == 3
        assert PiPolynomial() == 0 and a != 0

    def test_repr(self):
        assert repr(PiPolynomial()) == "0"
        v = PiPolynomial({3: Fraction(1, 7), 0: Fraction(-3, 4), -2: 5})
        assert repr(v) == "5*pi^-2 + -3/4 + 1/7*pi^3"

    def test_evaluate(self):
        v = PiPolynomial({2: 1, 0: -1})
        assert abs(v.evaluate() - (math.pi ** 2 - 1)) < 1e-15

    def test_immutable(self):
        v = PiPolynomial({2: 1})
        for name, value in (("terms", {}), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(v, name, value)
        assert v == PiPolynomial.term(1, 2)


class TestRefusalMessages:
    """Refusals that no other in-process test reaches, each with its message
    and the exit code of the command that reaches it."""

    @pytest.mark.parametrize("nodes_a, nodes_theta", [(1, 256), (64, 3)])
    def test_insufficient_node_counts(self, nodes_a, nodes_theta, capsys):
        with pytest.raises(InvalidInput, match="^insufficient node counts$"):
            local_integral_quadrature(LocalFactorParams(1, 1, 1), nodes_a, nodes_theta)
        assert main(["arch", "local-factor", "--kappa", "1", "--r", "1", "--l", "1",
                     "--nodes-a", str(nodes_a), "--nodes-theta", str(nodes_theta)]) == 2
        assert capsys.readouterr() == ("", "error: insufficient node counts\n")
