import random
from fractions import Fraction

import pytest

from mahler.errors import InvalidInput
from mahler.modform import (DirichletCharacter, NearlyHolomorphic, QExpansion,
                            _kronecker_square, delta_qexpansion,
                            eisenstein_qexpansion, hecke_operator,
                            interpolation_euler_factor, maass_raise, p_deplete,
                            theta_operator, u_operator, v_operator)
from mahler.padic import INF, PadicScalar
from paper_oracles import nearly_holomorphic

# Independent oracle for the cusp-form coefficients: expand
# q * prod (1 - q^n)^24 directly, term by term, with no pentagonal shortcut.
def eta24_bruteforce(trunc):
    coeffs = [1] + [0] * (trunc - 1)
    for n in range(1, trunc):
        for _ in range(24):
            # multiply by (1 - q^n)
            nxt = coeffs[:]
            for i in range(trunc - n):
                nxt[i + n] -= coeffs[i]
            coeffs = nxt
    return [0] + coeffs


def schoolbook_mul(a, b, trunc):
    """Oracle for `_kronecker_square`: the truncated product term by term."""
    out = [0] * (trunc + 1)
    for i, x in enumerate(a[:trunc + 1]):
        for j, y in enumerate(b[:trunc + 1 - i]):
            out[i + j] += x * y
    return out


def delta_schoolbook(trunc):
    """Oracle for `delta_qexpansion`: Euler's pentagonal series for
    prod (1 - q^n), raised to the 24th power by schoolbook products."""
    m = trunc - 1
    euler = [0] * (m + 1)
    for k in range(-m - 1, m + 2):
        idx = k * (3 * k - 1) // 2
        if idx <= m:
            euler[idx] += (-1) ** (k % 2)
    p2 = schoolbook_mul(euler, euler, m)
    p4 = schoolbook_mul(p2, p2, m)
    p8 = schoolbook_mul(p4, p4, m)
    p16 = schoolbook_mul(p8, p8, m)
    return [0] + schoolbook_mul(p16, p8, m)


DELTA_50 = delta_qexpansion(50)
TAU = {n: DELTA_50.coefficient(n) for n in range(1, 51)}


class TestGenerators:
    def test_delta_against_bruteforce(self):
        assert list(delta_qexpansion(30).coeffs) == eta24_bruteforce(30)

    def test_delta_against_schoolbook(self):
        want = delta_schoolbook(300)
        for trunc in range(1, 301):
            assert list(delta_qexpansion(trunc).coeffs) == want[:trunc + 1]
        assert list(delta_qexpansion(1000).coeffs) == delta_schoolbook(1000)

    def test_tau_at_truncation_4000(self):
        f = delta_qexpansion(4000)
        assert f.trunc == 4000
        assert list(f.coeffs[:11]) == [0, 1, -24, 252, -1472, 4830, -6048, -16744,
                                       84480, -113643, -115920]

    def test_frozen_tau_values(self):
        assert TAU[1] == 1
        assert TAU[2] == -24
        assert TAU[3] == 252
        assert TAU[4] == -1472
        assert TAU[11] == 534612

    def test_eisenstein_small_weights(self):
        e4 = eisenstein_qexpansion(4, 6)
        assert [e4.coefficient(n) for n in range(4)] == [1, 240, 2160, 6720]
        e6 = eisenstein_qexpansion(6, 4)
        assert [e6.coefficient(n) for n in range(3)] == [1, -504, -16632]

    def test_bad_weight(self):
        with pytest.raises(InvalidInput):
            eisenstein_qexpansion(3, 5)

    def test_negative_truncation_refused(self):
        assert eisenstein_qexpansion(4, 0).coeffs == (1,)
        with pytest.raises(InvalidInput, match="^truncation must be >= 0$"):
            eisenstein_qexpansion(4, -1)


class TestKroneckerSquare:
    CASES = [
        ([3, -1, 4], 7),  # signed, truncation above the degree of the square
        ([0, 0, 5, 0, -2], 9),  # zeros inside and at both ends
        ([0, 0, 0], 3),  # all zero
        ([0], 0),
        ([-7], 0),  # length 1
        ([-7], 2),
        ([10 ** 40, -(10 ** 39), 3, -(2 ** 130), 1, 2 ** 64 - 1], 12),  # big
        ([1, -2, 3, -4, 5, -6], 2),  # below the length
        ([1, -2, 3, -4, 5, -6], 5),
    ]

    @pytest.mark.parametrize("a, trunc", CASES)
    def test_against_schoolbook(self, a, trunc):
        assert _kronecker_square(a, trunc) == schoolbook_mul(a, a, trunc)

    def test_random(self):
        rng = random.Random(5)
        for _ in range(200):
            bits = rng.choice((1, 8, 63, 200))
            a = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(rng.randrange(1, 30))]
            trunc = rng.randrange(0, 70)
            assert _kronecker_square(a, trunc) == schoolbook_mul(a, a, trunc)


class TestUVOperators:
    def test_u_on_delta(self):
        f = delta_qexpansion(23)
        assert u_operator(f, 11).coefficient(1) == 534612

    def test_u_on_constant(self):
        f = QExpansion(4, 1, DirichletCharacter.trivial(), [7, 0, 0])
        assert u_operator(f, 2).coefficient(0) == 7

    def test_v_substitution(self):
        f = QExpansion(2, 1, DirichletCharacter.trivial(), [0, 1, 1])
        v = v_operator(f, 2)
        assert list(v.coeffs) == [0, 0, 1, 0, 1]

    def test_uv_identity(self):
        f = delta_qexpansion(40)
        for p in (2, 3, 5):
            assert list(u_operator(v_operator(f, p), p).coeffs) == list(f.coeffs)

    def test_vu_keeps_p_divisible(self):
        f = delta_qexpansion(36)
        p = 3
        vu = v_operator(u_operator(f, p), p)
        for n in range(vu.trunc + 1):
            expected = f.coefficient(n) if n % p == 0 else 0
            assert vu.coefficient(n) == expected

    def test_u_needs_enough_terms(self):
        f = QExpansion(2, 1, DirichletCharacter.trivial(), [1, 1])
        with pytest.raises(InvalidInput):
            u_operator(f, 5)

    def test_v_needs_a_prime(self):
        with pytest.raises(InvalidInput, match="^4 is not prime$"):
            v_operator(delta_qexpansion(5), 4)


class TestHeckeOperator:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_delta_is_eigenform(self, p):
        f = delta_qexpansion(50 * p + 1)
        tf = hecke_operator(f, p)
        for n in range(1, 51):
            assert tf.coefficient(n) == TAU[p] * f.coefficient(n)

    def test_hecke_recursion_p2(self):
        assert TAU[4] == TAU[2] ** 2 - 2 ** 11

    def test_constant_eigenvalue(self):
        f = QExpansion(4, 1, DirichletCharacter.trivial(), [1] + [0] * 10)
        tf = hecke_operator(f, 3)
        assert tf.coefficient(0) == 1 + 3 ** 3

    def test_level_dividing_prime_drops_v(self):
        eps = DirichletCharacter.trivial(3)
        f = QExpansion(2, 3, eps, [0, 1, 1, 1, 1, 1, 1])
        tf = hecke_operator(f, 3)
        assert list(tf.coeffs) == [f.coefficient(3 * n) for n in range(3)]

    def test_nonpositive_weight_stays_exact(self):
        # p^(k-1) with k <= 0 is a rational, never a float
        f = QExpansion(0, 1, DirichletCharacter.trivial(), list(range(1, 8)))
        tf = hecke_operator(f, 3)
        assert tf.coefficient(0) == Fraction(4, 3)
        assert all(type(c) in (int, Fraction) for c in tf.coeffs)


def typed(x):
    if isinstance(x, PadicScalar):
        return (PadicScalar, x.valuation, x.unit, x.precision)
    return (type(x), x)


class TestDirectHecke:
    """hecke_operator computes b_n = a_{np} + eps(p) p^(k-1) a_{n/p} directly;
    it must agree, value and type, with U_p + eps(p) p^(k-1) V_p."""

    @staticmethod
    def via_v(f, p):
        scalar = Fraction(f.eps(p)) * Fraction(p) ** (f.weight - 1)
        return u_operator(f, p) + v_operator(f, p).scale(scalar)

    @staticmethod
    def coefficient(rng, kind, p):
        if kind == "int":
            return rng.randint(-10 ** 6, 10 ** 6)
        if kind == "fraction":
            return Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        choice = rng.randrange(4)
        if choice == 0:
            return PadicScalar.zero(p)
        if choice == 1:
            return PadicScalar.zero(p, rng.randint(1, 6))
        return PadicScalar.from_int(rng.randint(1, 10 ** 4), p, rng.randint(1, 8))

    @pytest.mark.parametrize("kind", ["int", "fraction", "padic", "mixed"])
    @pytest.mark.parametrize("weight", [12, 2, 1, 0, -3])
    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_matches_u_plus_v(self, kind, weight, p):
        rng = random.Random(f"{kind}:{weight}:{p}")
        kinds = ["int", "fraction", "padic"] if kind == "mixed" else [kind]
        coeffs = [self.coefficient(rng, rng.choice(kinds), 5) for _ in range(60)]
        eps = DirichletCharacter.trivial()
        f = QExpansion(weight, 1, eps, coeffs)
        got, want = hecke_operator(f, p), self.via_v(f, p)
        assert [typed(c) for c in got.coeffs] == [typed(c) for c in want.coeffs]

    def test_quadratic_nebentypus(self):
        eps = DirichletCharacter(4, (0, 1, 0, -1))
        f = QExpansion(3, 4, eps, list(range(-20, 21)))
        for p in (3, 7):
            assert [typed(c) for c in hecke_operator(f, p).coeffs] == \
                [typed(c) for c in self.via_v(f, p).coeffs]


class TestDepletion:
    def test_delta_depleted_at_11(self):
        f = delta_qexpansion(45)
        dep = p_deplete(f, 11)
        for n in (11, 22, 33):
            assert dep.coefficient(n) == 0
        for n in (1, 2, 10, 12, 40):
            assert dep.coefficient(n) == TAU[n]

    def test_idempotent(self):
        f = delta_qexpansion(30)
        once = p_deplete(f, 3)
        assert p_deplete(once, 3) == once

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_eigenform_identity(self, p):
        # (1-VU)f = f - a_p Vf + eps(p) p^(k-1) V^2 f for a T_p eigenform
        f = delta_qexpansion(50 * p + 1)
        lhs = p_deplete(f, p)
        rhs = f - v_operator(f, p).scale(TAU[p]) \
            + v_operator(v_operator(f, p), p).scale(2 ** 11 if p == 2 else p ** 11)
        for n in range(51):
            assert lhs.coefficient(n) == rhs.coefficient(n)

    def test_commutes_with_theta(self):
        f = delta_qexpansion(25)
        a = theta_operator(p_deplete(f, 5), 2)
        b = p_deplete(theta_operator(f, 2), 5)
        assert a == b


class TestTheta:
    def test_on_delta(self):
        f = delta_qexpansion(10)
        t = theta_operator(f)
        assert [t.coefficient(n) for n in (1, 2, 3)] == [1, 2 * -24, 3 * 252]

    def test_kills_constants(self):
        f = QExpansion(4, 1, DirichletCharacter.trivial(), [5, 0, 0])
        assert all(c == 0 for c in theta_operator(f).coeffs)

    def test_iterates(self):
        f = delta_qexpansion(8)
        assert theta_operator(f, 3).coefficient(2) == 8 * TAU[2]


class TestEulerFactor:
    def test_delta_at_11(self):
        value = interpolation_euler_factor(TAU[11], 1, 1, 6, 11)
        assert value == 1 - Fraction(534612, 11 ** 12) + Fraction(1, 11 ** 13)

    def test_ap_zero(self):
        assert interpolation_euler_factor(0, 1, 3, 2, 5) == \
            1 + Fraction(9, 5 ** 5)

    def test_eps_zero(self):
        assert interpolation_euler_factor(7, 0, 2, 1, 3) == \
            1 - Fraction(14, 9)


class TestMaass:
    def test_holomorphic_single_band(self):
        f = QExpansion(4, 1, DirichletCharacter.trivial(), [1, 5, 7])
        up = maass_raise(nearly_holomorphic(f))
        assert up.weight == 6
        assert up.cells == {(0, 1): -4, (1, 0): 5, (1, 1): -20,
                            (2, 0): 14, (2, 1): -28}

    def test_constant_maps_to_minus_kx(self):
        one = NearlyHolomorphic(10, 4, {(0, 0): 1})
        up = maass_raise(one)
        assert up.cells == {(0, 1): -10}

    def test_immutable(self):
        one = NearlyHolomorphic(10, 4, {(0, 0): 1})
        for name, value in (("cells", {}), ("weight", 12), ("trunc", 5)):
            with pytest.raises(AttributeError):
                setattr(one, name, value)
        assert (one.weight, one.trunc, one.cells) == (10, 4, {(0, 0): 1})

    def test_cells_past_the_truncation_are_dropped(self):
        f = NearlyHolomorphic(10, 4, {(4, 0): 1, (5, 0): 2, (9, 3): 7})
        assert f.cells == {(4, 0): 1}

    def test_leibniz_rule(self):
        rng = random.Random(17)
        for _ in range(10):
            f = NearlyHolomorphic(4, 6, {(n, 0): rng.randrange(-5, 6)
                                         for n in range(5)})
            g = NearlyHolomorphic(6, 6, {(n, 0): rng.randrange(-5, 6)
                                         for n in range(5)})
            lhs = maass_raise(f * g)
            rhs = maass_raise(f) * g + f * maass_raise(g)
            assert lhs == rhs

    def test_weight_steps_by_two(self):
        f = NearlyHolomorphic(8, 5, {(1, 0): 1})
        assert maass_raise(f, 3).weight == 14

    def test_negative_iteration_count_refused(self):
        # refused as theta_operator refuses it
        f = NearlyHolomorphic(8, 5, {(1, 0): 1})
        assert maass_raise(f, 0) == f
        with pytest.raises(InvalidInput, match="^iteration count must be >= 0$"):
            maass_raise(f, -2)


class TestMeasureBridge:
    def test_restriction_equals_depleted_coefficient_stream(self):
        # A finite Mahler sequence rewritten in the (1+T)^m basis is a
        # q-expansion-like coefficient stream: restricting the measure to the
        # units is exactly p-depletion of that stream, and moments of the
        # restriction match power-weighted coefficient sums.  Exact.
        from mahler.measure import Measure, moments, plus_basis, restrict_to_units
        rng = random.Random(31)
        for p in (3, 5, 7):
            for _ in range(10):
                mahler = [rng.randrange(-9, 10) for _ in range(rng.randrange(2, 9))]
                mu = Measure(p, mahler, finite=True)
                stream = QExpansion(2, 1, DirichletCharacter.trivial(),
                                    plus_basis(mu))
                depleted = p_deplete(stream, p)
                for r in range(7):
                    lhs = moments(restrict_to_units(mu), r)
                    rhs = sum(theta_operator(depleted, r).coeffs)
                    assert lhs == rhs


class TestDirichletCharacter:
    def test_trivial(self):
        chi = DirichletCharacter.trivial(6)
        assert [chi(n) for n in range(6)] == [0, 1, 0, 0, 0, 1]

    def test_quadratic_mod_4(self):
        chi = DirichletCharacter(4, [0, 1, 0, -1])
        assert chi(7) == -1 and chi(9) == 1

    def test_non_multiplicative_rejected(self):
        with pytest.raises(InvalidInput):
            DirichletCharacter(5, [0, 1, 2, 3, 4])

    def test_immutable(self):
        chi = DirichletCharacter(4, [0, 1, 0, -1])
        for name, value in (("values", (0, 1, 0, 1)), ("modulus", 8), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(chi, name, value)
        assert chi.values == (0, 1, 0, -1) and chi.modulus == 4

    def test_qexpansion_immutable(self):
        f = QExpansion(4, 1, DirichletCharacter.trivial(), [1, 5, 7])
        for name, value in (("coeffs", (0,)), ("weight", 6), ("level", 2),
                            ("eps", DirichletCharacter.trivial(2))):
            with pytest.raises(AttributeError):
                setattr(f, name, value)
        assert (f.weight, f.level, f.coeffs) == (4, 1, (1, 5, 7))

    def test_modulus_divides_level(self):
        with pytest.raises(InvalidInput):
            QExpansion(2, 5, DirichletCharacter.trivial(3), [1, 1])


class TestRefusalMessages:
    """Refusals that no other in-process test reaches, each with its message."""

    def test_character_table_length(self):
        with pytest.raises(InvalidInput, match="value table must have length equal to the modulus"):
            DirichletCharacter(3, [0, 1])

    def test_qexpansion_level_and_coefficients(self):
        eps = DirichletCharacter.trivial()
        with pytest.raises(InvalidInput, match="level must be >= 1"):
            QExpansion(12, 0, eps, [0, 1])
        with pytest.raises(InvalidInput, match="empty coefficient list"):
            QExpansion(12, 1, eps, [])

    def test_coefficient_beyond_truncation(self):
        f = delta_qexpansion(5)
        assert f.coefficient(5) == 4830
        for n in (6, -1):
            with pytest.raises(InvalidInput, match=f"coefficient {n} beyond truncation 5"):
                f.coefficient(n)

    def test_sum_of_different_forms(self):
        with pytest.raises(InvalidInput, match="weight/level/nebentypus mismatch"):
            delta_qexpansion(5) + eisenstein_qexpansion(4, 5)

    def test_negative_theta_iterations(self):
        with pytest.raises(InvalidInput, match="iteration count must be >= 0"):
            theta_operator(delta_qexpansion(5), -1)

    def test_nearly_holomorphic_sum_of_different_weights(self):
        with pytest.raises(InvalidInput, match="weight mismatch"):
            NearlyHolomorphic(2, 3, {(1, 0): 1}) + NearlyHolomorphic(4, 3, {(1, 0): 1})

    def test_delta_truncation_below_one(self):
        with pytest.raises(InvalidInput, match="truncation must be >= 1"):
            delta_qexpansion(0)
