import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from mahler.errors import InvalidInput, PrecisionExhausted
from mahler.heckechar import (AlgebraicValue, PadicEmbedding, QuadOrder,
                              WeightFunction,
                              admissible_embedding, fundamental_decomposition,
                              avatar_measure_family,
                              canonical_weight_character, characters,
                              class_group, compose_forms, padic_avatar,
                              pairing, reduce_form, smallest_admissible_prime,
                              twisted_pairing)
from mahler.arith import cyclotomic_coeffs, isprime
from mahler.padic import PadicScalar
from mahler.serialize import encode_algebraic
from mahler.measure import (cell_mass, moments, mult_pushforward, pairing_measure,
                            restrict_to_units)
from paper_oracles import is_trivial, sqrt_d, weight_value_on_principal

ALL_DISCS_200 = [D for D in range(-3, -201, -1) if D % 4 in (0, 1)]


CHARACTER_TABLES = json.loads(
    (Path(__file__).parent / "character_tables.json").read_text())


def verify_group_axioms(G):
    """Oracle: identity, inverses and associativity of the composition
    table, O(h^3)."""
    h, e = G.h, G.identity_index
    for i in range(h):
        assert G.mul(e, i) == i and G.mul(i, G.inverse[i]) == e
    for i in range(h):
        for j in range(h):
            ij = G.mul(i, j)
            for k in range(h):
                assert G.mul(ij, k) == G.mul(i, G.mul(j, k))


class TestClassGroups:
    def test_h_minus_23(self):
        G = class_group(-23)
        assert G.h == 3
        assert set(G.forms) == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}

    def test_h_minus_4(self):
        assert class_group(-4).h == 1

    def test_h_minus_47_cyclic(self):
        G = class_group(-47)
        assert G.h == 5
        orders = {G.element_order(i) for i in range(G.h)}
        assert orders == {1, 5}

    def test_invalid_discriminant(self):
        with pytest.raises(InvalidInput):
            class_group(-5)
        with pytest.raises(InvalidInput):
            class_group(7)

    def test_axioms_all_small_discriminants(self):
        # the constructor checks closure; every group with |D| <= 500 (so
        # every D the suite builds below -39999, including -263, -215 and
        # -407) is checked for identity, inverses and associativity here
        for D in range(-3, -501, -1):
            if D % 4 in (0, 1):
                G = class_group(D)
                assert G.h >= 1
                assert G.forms[G.identity_index] == (1, D % 2, ((D % 2) - D) // 4)
                verify_group_axioms(G)

    def test_immutable(self):
        G = class_group(-23)
        with pytest.raises(AttributeError):
            G.table = ()
        with pytest.raises(AttributeError):
            G.discriminant = -47
        assert G.discriminant == -23 and G.h == 3

    def test_order_immutable(self):
        order = QuadOrder(-4, 3)
        for name, value in (("d_K", -3), ("c", 1)):
            with pytest.raises(AttributeError):
                setattr(order, name, value)
        assert (order.d_K, order.c) == (-4, 3)

    def test_axioms_large_discriminant(self):
        G = class_group(-39999)
        assert G.h == 96
        verify_group_axioms(G)

    def test_commutative(self):
        for D in (-23, -47, -84, -120):
            G = class_group(D)
            for i in range(G.h):
                for j in range(G.h):
                    assert G.mul(i, j) == G.mul(j, i)

    def test_composition_preserves_discriminant(self):
        rng = random.Random(23)
        for D in (-23, -56, -71, -95):
            G = class_group(D)
            for _ in range(10):
                i, j = rng.randrange(G.h), rng.randrange(G.h)
                a, b, c = compose_forms(G.forms[i], G.forms[j], D)
                assert b * b - 4 * a * c == D

    def test_reduction_is_stable(self):
        assert reduce_form((12, 23, 34), 23 * 23 - 4 * 12 * 34) is not None
        assert reduce_form((1, 1, 6), -23) == (1, 1, 6)

    def test_class_number_against_dirichlet_formula(self):
        # analytic oracle: h = w/(2|D|) * |sum_{k<|D|} chi_D(k) k| for
        # fundamental D, with chi_D the Kronecker symbol
        for D in ALL_DISCS_200:
            if fundamental_decomposition(D)[0] != 1:
                continue
            w = 6 if D == -3 else 4 if D == -4 else 2
            total = sum(_kronecker(D, k) * k for k in range(1, -D))
            h_analytic = Fraction(w * abs(total), 2 * (-D))
            assert h_analytic.denominator == 1
            assert class_group(D).h == h_analytic

    def test_ambiguous_classes_match_genus_theory(self):
        # elements of order <= 2 number 2^(t-1), t = #prime divisors of D
        from sympy import factorint
        for D in (-23, -47, -84, -120, -143, -195):
            G = class_group(D)
            two_torsion = sum(1 for i in range(G.h)
                              if G.mul(i, i) == G.identity_index)
            t = len(factorint(-D))
            assert two_torsion == 2 ** (t - 1)


def _kronecker(a, n):
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    result = sign
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


class TestCharacters:
    def test_count_and_trivial(self):
        for D in (-23, -47, -84):
            G = class_group(D)
            chars = characters(G)
            assert len(chars) == G.h
            assert sum(1 for c in chars if is_trivial(c)) == 1

    def test_closed_under_product(self):
        G = class_group(-84)  # h = 4, (2,2) group
        chars = characters(G)
        tables = {tuple(repr(v) for v in c.values) for c in chars}
        for c1 in chars:
            for c2 in chars:
                assert tuple(repr(v) for v in (c1 * c2).values) in tables

    def test_conjugate_pair_for_cyclic_3(self):
        G = class_group(-23)
        chars = characters(G)
        nontrivial = [c for c in chars if not is_trivial(c)]
        assert len(nontrivial) == 2
        assert nontrivial[0].values[1] == nontrivial[1].values[2]

    def test_weight_function_immutable(self):
        chi = characters(class_group(-23))[1]
        with pytest.raises(AttributeError):
            chi.values = ()
        with pytest.raises(AttributeError):
            chi.weight = (2, 0)
        assert chi.weight == (0, 0) and len(chi.values) == 3

    def test_homomorphism_property(self):
        rng = random.Random(29)
        for D in (-23, -47, -71, -84, -120):
            G = class_group(D)
            for chi in characters(G):
                for _ in range(8):
                    i, j = rng.randrange(G.h), rng.randrange(G.h)
                    assert chi.values[G.mul(i, j)] == chi.values[i] * chi.values[j]

    @pytest.mark.parametrize("discs", [[-39999], ALL_DISCS_200])
    def test_values_are_shared_roots_in_table_order(self, discs):
        """Each value is the root of unity its one group-ring term names, one
        object per exponent, and the characters come in ascending order of
        their exponent tables."""
        for D in discs:
            G = class_group(D)
            d, m = G.order_data.d_K, G.exponent
            fresh = [AlgebraicValue.root_of_unity(e, d, m) for e in range(m)]
            shared, tables = {}, []
            for chi in characters(G):
                table = []
                for value in chi.values:
                    (e, term), = value.terms.items()
                    assert term == (1, 0) and value == fresh[e]
                    assert shared.setdefault(e, value) is value
                    table.append(e)
                tables.append(tuple(table))
            assert tables == sorted(set(tables)) and len(tables) == G.h

    @pytest.mark.parametrize("D", [-407, -420, -3299, -3896])
    def test_exponent_tables_golden(self, D):
        """The exponent of each character value, recorded before the
        characters were built in one pass per generator."""
        golden = CHARACTER_TABLES[str(D)]
        G = class_group(D)
        tables = [[next(iter(value.terms)) for value in chi.values]
                  for chi in characters(G)]
        assert (G.h, G.exponent, tables) == (golden["h"], golden["m"], golden["tables"])

    def test_orthogonality_up_to_200(self):
        for D in ALL_DISCS_200:
            G = class_group(D)
            chars = characters(G)
            for i, c1 in enumerate(chars):
                for j, c2 in enumerate(chars):
                    value = pairing(c1, c2)
                    if is_trivial(c1 * c2):
                        assert value == 1 and type(value.as_rational()) is int
                    else:
                        assert value.is_zero()


class TestPairing:
    def test_weight_mismatch_is_zero(self):
        order = QuadOrder(-7)
        w = canonical_weight_character(order, (2, 0))
        triv = canonical_weight_character(order, (0, 0))
        assert pairing(w, triv).is_zero()

    def test_twisted_reduces_to_plain(self):
        G = class_group(-23)
        chars = characters(G)
        triv = next(c for c in chars if is_trivial(c))
        for c1 in chars:
            for c2 in chars:
                assert twisted_pairing(c1, c2, triv) == pairing(c1, c2)

    def test_twisted_orthogonality(self):
        for D in (-23, -47, -56):
            chars = characters(class_group(D))
            for c1 in chars:
                for c2 in chars:
                    for psi in chars:
                        value = twisted_pairing(c1, c2, psi)
                        if is_trivial(c1 * c2 * psi):
                            assert value == 1
                        else:
                            assert value.is_zero()

    @staticmethod
    def product_sum(phi1, phi2):
        """Oracle: (1/h) Σ_s φ1(I_s) φ2(I_s) as h group-ring products."""
        d = phi1.group.order_data.d_K
        total = AlgebraicValue.from_rational(0, d, 1)
        for a, b in zip(phi1.values, phi2.values):
            total = total + a * b
        return total.scale(Fraction(1, phi1.group.h))

    @staticmethod
    def same(x, y):
        """Equal as stored and as printed: d, m, terms, repr, encoding."""
        return (x.d, x.m, x.terms, repr(x), encode_algebraic(x)) == \
            (y.d, y.m, y.terms, repr(y), encode_algebraic(y))

    @staticmethod
    def normal(x):
        """Every coefficient, stored and canonical, in `padic.exact` normal
        form: an int when integral (so every integral character pairing has
        int coefficients), else a Fraction."""
        pairs = list(x.terms.values()) + list(x.coeffs)
        return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
                   for pair in pairs for c in pair)

    CHARACTER_DISCS = [D for D in range(-3, -61, -1) if D % 4 in (0, 1)] + [-263, -215, -407]

    def test_characters_against_products(self):
        for D in self.CHARACTER_DISCS:
            G = class_group(D)
            chars = characters(G)
            psi = chars[D % G.h]
            for c1 in chars:
                for c2 in chars:
                    value = pairing(c1, c2)
                    assert self.same(value, self.product_sum(c1, c2))
                    assert self.normal(value)
            c1 = chars[-1]
            for c2 in chars:
                value = twisted_pairing(c1, c2, psi)
                assert self.same(value, self.product_sum(c1, psi * c2))
                assert self.normal(value)

    def test_non_unit_coefficient_against_products(self):
        # 2·χ is not a root of unity with coefficient 1
        for D in (-23, -47, -84, -263):
            G = class_group(D)
            chars = characters(G)
            doubled = WeightFunction(G, (0, 0), [v.scale(2) for v in chars[1].values])
            for c in chars:
                assert self.same(pairing(doubled, c), self.product_sum(doubled, c))
                assert self.same(pairing(c, doubled), self.product_sum(c, doubled))
                assert self.same(twisted_pairing(c, chars[-1], doubled),
                                 self.product_sum(c, doubled * chars[-1]))
                assert pairing(doubled, c) == pairing(chars[1], c).scale(2)

    @staticmethod
    def random_value(rng, d, layers):
        """A value with a few terms, sqrt(d) parts and Fraction or int
        coefficients, in a random layer m."""
        m = rng.choice(layers)
        def coefficient():
            return rng.choice([rng.randint(-4, 4),
                               Fraction(rng.randint(-9, 9), rng.randint(1, 6))])
        terms = {rng.randrange(m): (coefficient(), coefficient())
                 for _ in range(rng.randint(1, 3))}
        return AlgebraicValue._from_terms(d, m, terms)

    def test_general_values_against_products(self):
        rng = random.Random(7)
        for D, layers in ((-23, (1, 2, 3, 6)), (-47, (1, 5, 10)), (-84, (1, 2, 4)),
                          (-263, (1, 13, 26))):
            G = class_group(D)
            d = G.order_data.d_K
            chars = characters(G)
            for _ in range(6):
                phis = [WeightFunction(G, w, [self.random_value(rng, d, layers)
                                              for _ in range(G.h)])
                        for w in ((3, -1), (-3, 1), (0, 0))]
                phi1, phi2, psi = phis
                # a value that is not an AlgebraicValue is coerced
                phi3 = WeightFunction(G, (0, 0), [Fraction(1, 3)] + list(psi.values[1:]))
                for a, b in ((phi1, phi2), (psi, phi3), (phi3, chars[-1]), (chars[1], psi)):
                    value = pairing(a, b)
                    assert self.same(value, self.product_sum(a, b))
                    assert self.normal(value)
                for a, b, t in ((phi1, phi2, psi), (phi1, phi2, chars[-1]),
                                (psi, chars[1], phi3), (phi3, psi, psi)):
                    value = twisted_pairing(a, b, t)
                    assert self.same(value, self.product_sum(a, t * b))
                    assert self.normal(value)
                assert pairing(phi1, psi).is_zero()  # the weights do not cancel
                assert twisted_pairing(phi1, psi, chars[1]).is_zero()

    def test_mixed_quadratic_fields_refused(self):
        G = class_group(-23)
        chars = characters(G)
        foreign = WeightFunction(G, (0, 0), [AlgebraicValue.root_of_unity(1, -7, 3)]
                                 + list(chars[1].values[1:]))
        for call in (lambda: pairing(foreign, chars[1]),
                     lambda: pairing(chars[1], foreign),
                     lambda: twisted_pairing(chars[1], chars[2], foreign),
                     lambda: twisted_pairing(foreign, chars[2], chars[1]),
                     lambda: self.product_sum(foreign, chars[1])):
            with pytest.raises(InvalidInput, match="mixed quadratic fields"):
                call()

    def test_check_order(self):
        G, H = class_group(-23), class_group(-47)
        chi, eta = characters(G)[1], characters(H)[1]
        weighted = WeightFunction(G, (2, 0), chi.values)
        with pytest.raises(InvalidInput, match="group mismatch"):
            pairing(chi, eta)
        with pytest.raises(InvalidInput, match="twists must have weight"):
            twisted_pairing(chi, eta, weighted)
        for args in ((chi, eta, chi), (chi, chi, eta), (eta, chi, chi)):
            with pytest.raises(InvalidInput, match="group mismatch"):
                twisted_pairing(*args)

    def test_padic_coefficient_refused(self):
        x = PadicScalar.from_int(3, 7, 4)
        one = AlgebraicValue.from_rational(1, -7)
        for call in (lambda: AlgebraicValue(-7, 1, [(x, 0)]),
                     lambda: AlgebraicValue(-7, 3, [(1, 0), (0, x)]),
                     lambda: AlgebraicValue.from_rational(x, -7),
                     lambda: one.scale(x), lambda: one * x, lambda: one + x):
            with pytest.raises(TypeError):
                call()
        G = class_group(-23)
        chi = characters(G)[1]
        padic = WeightFunction(G, (0, 0), [x] * G.h)
        for call in (lambda: pairing(padic, chi), lambda: self.product_sum(padic, chi)):
            with pytest.raises(TypeError):
                call()

    def test_column_orthogonality_sum(self):
        G = class_group(-23)
        chars = characters(G)
        triv = next(c for c in chars if is_trivial(c))
        total = Fraction(0)
        for psi in chars:
            val = twisted_pairing(triv, triv, psi).as_rational()
            total += val
        assert total == 1  # only psi = 1 survives


class TestCanonicalWeightCharacter:
    def test_square_of_norm_two_generator(self):
        lam = AlgebraicValue.quadratic(Fraction(1, 2), Fraction(1, 2), -7)
        value = weight_value_on_principal(lam, (2, 0))
        assert value == AlgebraicValue.quadratic(Fraction(-3, 2), Fraction(1, 2), -7)

    def test_trivial_weight(self):
        lam = AlgebraicValue.quadratic(3, 1, -7)
        assert weight_value_on_principal(lam, (0, 0)) == 1

    def test_norm_character(self):
        lam = AlgebraicValue.quadratic(Fraction(1, 2), Fraction(1, 2), -7)
        assert weight_value_on_principal(lam, (1, 1)) == 2  # N((1+sqrt(-7))/2)

    def test_multiplicativity(self):
        a = AlgebraicValue.quadratic(2, 1, -7)
        b = AlgebraicValue.quadratic(Fraction(1, 2), Fraction(3, 2), -7)
        w = (4, 2)
        assert weight_value_on_principal(a * b, w) == \
            weight_value_on_principal(a, w) * weight_value_on_principal(b, w)

    def test_unit_invariance_even_weight(self):
        lam = AlgebraicValue.quadratic(1, 2, -7)
        assert weight_value_on_principal(-lam, (2, 0)) == \
            weight_value_on_principal(lam, (2, 0))

    def test_odd_weight_rejected(self):
        with pytest.raises(InvalidInput):
            canonical_weight_character(QuadOrder(-7), (1, 0))

    def test_extra_units_rejected(self):
        with pytest.raises(InvalidInput):
            canonical_weight_character(QuadOrder(-4), (2, 0))

    def test_class_number_one_required(self):
        with pytest.raises(InvalidInput):
            canonical_weight_character(QuadOrder(-23), (2, 0))


class TestAlgebraicValue:
    def test_tower_arithmetic(self):
        z = AlgebraicValue.root_of_unity(1, -7, 3)
        assert (z ** 3) == 1
        assert not (z ** 2).is_zero()
        assert z * z ** 2 == 1

    def test_inverse(self):
        v = AlgebraicValue.quadratic(2, 3, -7) * AlgebraicValue.root_of_unity(1, -7, 5)
        assert v * v.inverse() == 1
        rng = random.Random(11)
        for m in (1, 2, 3, 4, 5, 6, 8, 12, 13):
            for d in (-7, -23, 5):
                for _ in range(3):
                    deg = len(AlgebraicValue.from_rational(0, d, m).coeffs)
                    v = AlgebraicValue(d, m, [
                        (Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                        for _ in range(deg)])
                    if not v.is_zero():
                        assert v * v.inverse() == 1

    def test_one_term_inverse_matches_general_path(self):
        # Adding Phi_m(z) as group-ring terms leaves the value unchanged mod
        # Phi_m but gives it several terms, so its inverse takes the norm path.
        rng = random.Random(12)
        for m in (2, 3, 4, 5, 6, 8, 12, 13, 48):
            phi = cyclotomic_coeffs(m)
            for d in (-7, -23, 5, -39999):
                for _ in range(4):
                    k = rng.randrange(m)
                    term = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                    if term == (0, 0):
                        continue
                    one = AlgebraicValue._from_terms(d, m, {k: term})
                    padded = one + AlgebraicValue._from_terms(
                        d, m, {j: (Fraction(c), Fraction(0)) for j, c in enumerate(phi)})
                    assert len(one.terms) == 1 and len(padded.terms) > 1
                    assert padded == one
                    assert one.inverse() == padded.inverse()
                    assert one * one.inverse() == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(InvalidInput):
            AlgebraicValue.from_rational(0, -7, 5).inverse()

    def test_zero_divisor_refused(self):
        # 2 zeta_3 + 1 = sqrt(-3): (2z + 1)^2 + 3 vanishes mod Phi_3
        with pytest.raises(InvalidInput):
            AlgebraicValue(-3, 3, [(1, -1), (2, 0)]).inverse()

    def test_canonical_form(self):
        for m in range(1, 31):
            phi = sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)
            for e in range(m):
                r = AlgebraicValue.root_of_unity(e, -7, m)
                assert len(r.coeffs) == phi
                assert AlgebraicValue(-7, m, r.coeffs) == r
        # zeta_6^5 = 1 - zeta_6
        assert AlgebraicValue.root_of_unity(5, -7, 6).coeffs == ((1, 0), (-1, 0))

    def test_promotion_consistency(self):
        z3 = AlgebraicValue.root_of_unity(1, -7, 3)
        z6 = AlgebraicValue.root_of_unity(2, -7, 6)
        assert z3 == z6

    def test_tower_refused(self):
        # a layer below 1, a square d, or a layer that is not a multiple
        z3 = AlgebraicValue.root_of_unity(1, -7, 3)
        for bad in (lambda: z3.promote(0), lambda: z3.promote(-3), lambda: z3.promote(4),
                    lambda: AlgebraicValue.root_of_unity(1, -7, 0),
                    lambda: AlgebraicValue.root_of_unity(1, -7, -2),
                    lambda: AlgebraicValue.root_of_unity(1, 9, 3),
                    lambda: AlgebraicValue.root_of_unity(1, 0, 3),
                    lambda: AlgebraicValue(-7, 0, []),
                    lambda: AlgebraicValue(4, 1, [(1, 0)])):
            with pytest.raises(InvalidInput):
                bad()

    def test_exact_normal_form(self):
        v = AlgebraicValue(-7, 3, [(Fraction(4, 2), 1.5), (True, Fraction(0))])
        assert v.terms == {0: (2, Fraction(3, 2)), 1: (1, 0)}
        assert [type(c) for c in v.terms[0] + v.terms[1]] == [int, Fraction, int, int]
        half = AlgebraicValue.quadratic(Fraction(1, 2), 0, -7)
        assert type((half + half).as_rational()) is int
        assert type((half * 4).terms[0][0]) is int
        assert (half + half) == 1 and half == Fraction(1, 2) and half != 1
        assert sqrt_d(-7).as_rational() is None

    def test_immutable(self):
        v = AlgebraicValue.root_of_unity(1, -7, 3)
        for name, value in (("terms", {}), ("m", 6), ("d", -3)):
            with pytest.raises(AttributeError):
                setattr(v, name, value)
        assert v.terms == {1: (1, 0)} and (v.d, v.m) == (-7, 3)

    def test_conjugation(self):
        v = AlgebraicValue.quadratic(2, 3, -7)
        assert v + v.conjugate() == 4
        assert v * v.conjugate() == 4 - 9 * (-7)


class TestAvatars:
    def test_hand_embedding(self):
        emb = PadicEmbedding(11, 6, -7, 1, sqrt_residue=2)
        lam = AlgebraicValue.quadratic(Fraction(1, 2), Fraction(1, 2), -7)
        x = emb.embed(weight_value_on_principal(lam, (2, 0)))
        assert x.residue(1) == 5

    def test_trivial_character_all_ones(self):
        G = class_group(-23)
        emb = admissible_embedding(G, smallest_admissible_prime(G), 8)
        triv = next(c for c in characters(G) if is_trivial(c))
        assert all(x == 1 for x in padic_avatar(triv, emb))

    def test_multiplicative(self):
        G = class_group(-47)
        p = smallest_admissible_prime(G)
        emb = admissible_embedding(G, p, 8)
        chars = characters(G)
        for c1 in chars[:3]:
            for c2 in chars[:3]:
                a1 = padic_avatar(c1, emb)
                a2 = padic_avatar(c2, emb)
                a12 = padic_avatar(c1 * c2, emb)
                assert all(x == y * z for x, y, z in zip(a12, a1, a2))

    def test_injective_on_characters(self):
        for D in (-23, -47, -84):
            G = class_group(D)
            p = smallest_admissible_prime(G)
            emb = admissible_embedding(G, p, 6)
            seen = []
            for chi in characters(G):
                key = tuple(x.residue(1) for x in padic_avatar(chi, emb))
                assert key not in seen
                seen.append(key)

    def test_split_requirement(self):
        # 11 is inert in Q(sqrt(-23)): avatar of a sqrt-carrying value fails
        emb = PadicEmbedding(11, 4, -23, 1) if pow(-23 % 11, 5, 11) == 1 else None
        if emb is None:
            with pytest.raises(InvalidInput):
                PadicEmbedding(11, 4, -23, 1).embed(sqrt_d(-23))

    def test_p_not_one_mod_m(self):
        with pytest.raises(InvalidInput):
            PadicEmbedding(7, 4, -7, 5)


class TestEmbeddingResidues:
    @staticmethod
    def scan(p, d, m):
        """Oracle: the least square root of d and the least primitive m-th
        root of unity in [1, p), by trying every residue."""
        sqrt = next((r for r in range(1, p) if (r * r - d) % p == 0), None)
        zeta = next(t for t in range(1, p) if pow(t, m, p) == 1 and
                    all(pow(t, k, p) != 1 for k in range(1, m)))
        return sqrt, zeta

    def test_immutable(self):
        emb = PadicEmbedding(7, 5, -3, 3)
        for name, value in (("prime", 13), ("precision", 2), ("d", -7), ("m", 1),
                            ("sqrt_lift", "inert"), ("zeta_lift", None)):
            with pytest.raises(AttributeError):
                setattr(emb, name, value)
        assert (emb.prime, emb.precision, emb.d, emb.m) == (7, 5, -3, 3)
        assert pow(emb.zeta_lift, 3, 7 ** 5) == 1 and emb.zeta_lift % 7 != 1
        assert (emb.sqrt_lift ** 2 + 3) % 7 ** 5 == 0

    def test_value_equality_and_repr(self):
        emb = PadicEmbedding(7, 8, -3, 3)
        assert emb == PadicEmbedding(7, 8, -3, 3)
        assert emb != PadicEmbedding(7, 9, -3, 3)
        assert emb != PadicEmbedding(7, 8, -3, 3, zeta_residue=4)
        assert emb != PadicEmbedding(7, 8, -3, 3, sqrt_residue=5)
        assert emb != PadicEmbedding(13, 8, -3, 3)
        assert emb != "PadicEmbedding"
        assert repr(emb) == (f"PadicEmbedding(prime=7, precision=8, d=-3, m=3, "
                             f"sqrt_lift={emb.sqrt_lift}, zeta_lift={emb.zeta_lift})")
        assert repr(PadicEmbedding(7, 3, 14)) == (
            "PadicEmbedding(prime=7, precision=3, d=14, m=1, "
            "sqrt_lift='ramified', zeta_lift=None)")
        with pytest.raises(TypeError):
            hash(emb)

    def test_residues_match_scan(self):
        for D in (-23, -47, -84, -87, -104, -263, -407):
            G = class_group(D)
            m, d = G.exponent, G.order_data.d_K
            for p in range(3, 2000, 2):
                if not isprime(p) or (p - 1) % m:
                    continue
                emb = admissible_embedding(G, p, 1)
                sqrt, zeta = self.scan(p, d, m)
                assert emb.zeta_lift == (zeta if m > 1 else None)
                if d % p == 0:
                    assert emb.sqrt_lift == "ramified"
                elif sqrt is None:
                    assert emb.sqrt_lift == "inert"
                else:
                    assert emb.sqrt_lift == sqrt
                    other = p - sqrt
                    assert admissible_embedding(G, p, 1, sqrt_residue=other).sqrt_lift == other
                    bad = next(r for r in range(1, p) if (r * r - d) % p)
                    with pytest.raises(InvalidInput):
                        admissible_embedding(G, p, 1, sqrt_residue=bad)
                if m > 2:
                    other = pow(zeta, m - 1, p)
                    assert admissible_embedding(G, p, 1, zeta_residue=other).zeta_lift == other
                    with pytest.raises(InvalidInput):
                        admissible_embedding(G, p, 1, zeta_residue=1)

    def test_large_prime(self):
        # p > 10^12, p = 1 mod 3 and -23 a square mod p: both residues are chosen
        G = class_group(-23)
        p = next(q for q in range(10 ** 12 + 3, 10 ** 12 + 10 ** 5, 6)
                 if isprime(q) and pow(-23 % q, (q - 1) // 2, q) == 1)
        start = time.perf_counter()
        emb = admissible_embedding(G, p, 4)
        chi = characters(G)[1]
        avatar = padic_avatar(chi, emb)
        assert time.perf_counter() - start < 1.0
        assert (emb.sqrt_lift ** 2 + 23) % p ** 4 == 0
        assert (emb.zeta_lift ** 3 - 1) % p ** 4 == 0 and emb.zeta_lift % p != 1
        assert all((x * x * x - 1).valuation >= 4 for x in avatar)


class TestAvatarMeasureFamily:
    def _setup(self, D=-23, prec=10, order=16):
        G = class_group(D)
        p = smallest_admissible_prime(G)
        emb = admissible_embedding(G, p, prec)
        return G, p, emb

    def test_trivial_chi_gives_dirac_one(self):
        G, p, emb = self._setup()
        chars = characters(G)
        triv = next(c for c in chars if is_trivial(c))
        fam = avatar_measure_family(triv, triv, emb, order=8)
        for mu in fam:
            for r in range(5):
                assert moments(mu, r) == 1

    def test_moments_are_avatar_values(self):
        G, p, emb = self._setup()
        chars = characters(G)
        chi0, chi = chars[1], chars[2]
        fam = avatar_measure_family(chi0, chi, emb, order=12)
        a0 = padic_avatar(chi0, emb)
        a = padic_avatar(chi, emb)
        for s, mu in enumerate(fam):
            for r in range(11):
                assert moments(mu, r) == a0[s] * a[s] ** r

    def test_supported_on_units(self):
        G, p, emb = self._setup(order=20)
        chars = characters(G)
        fam = avatar_measure_family(chars[1], chars[2], emb, order=20)
        prec_target = 2
        for mu in fam:
            res = restrict_to_units(mu, precision=prec_target)
            for n in range(res.order):
                assert res.mahler[n] == mu.mahler[n]

    def test_pairing_compatibility(self):
        # the p-adic pairing of the measure families equals the avatar of the
        # exact algebraic pairing, including scalar multiples
        G, p, emb = self._setup()
        chars = characters(G)
        chi0, chi = chars[1], chars[2]
        chi0i, chii = chi0.inverse(), chi.inverse()
        lam1, lam2 = Fraction(3), Fraction(5, 2)
        fam1 = [mu.scale(lam1) for mu in avatar_measure_family(chi0, chi, emb, 14)]
        fam2 = [mu.scale(lam2) for mu in avatar_measure_family(chi0i, chii, emb, 14)]
        mu = pairing_measure(list(zip(fam1, fam2)), 10)
        for r in range(11):
            alg = pairing(chi0 * chi ** r, chi0i * chii ** r)
            expected = emb.embed(alg).scale(lam1 * lam2)
            assert moments(mu, r) == expected


class TestAvatarFamilyErrors:
    def test_non_unit_avatar_rejected(self):
        G = class_group(-23)
        p = smallest_admissible_prime(G)
        emb = admissible_embedding(G, p, 6)
        chars = characters(G)
        triv = next(c for c in chars if is_trivial(c))
        d = G.order_data.d_K
        bad = WeightFunction(G, (0, 0),
                             [AlgebraicValue.from_rational(p, d)] * G.h)
        with pytest.raises(InvalidInput):
            avatar_measure_family(triv, bad, emb, order=6)

    def test_group_mismatch_rejected(self):
        G1, G2 = class_group(-23), class_group(-47)
        c1 = characters(G1)[0]
        c2 = characters(G2)[0]
        p = smallest_admissible_prime(G1)
        emb = admissible_embedding(G1, p, 6)
        with pytest.raises(InvalidInput):
            avatar_measure_family(c1, c2, emb, order=6)


class TestEmbedAgainstOperators:
    """`PadicEmbedding.embed`, summed on integers mod p^prec, against the sum
    of its terms in PadicScalar arithmetic, on random values for p in
    {3, 5, 7}: int and Fraction coefficients, p-adic denominators, a_k that
    vanish mod p^prec, sqrt(d) parts, split, inert and ramified d: the same
    value, valuation and stated precision, or the same exception type."""

    @staticmethod
    def termwise(emb, value):
        if value.m != emb.m:
            if emb.m % value.m:
                raise InvalidInput("larger layer")
            value = value.promote(emb.m)
        p, prec = emb.prime, emb.precision
        has_sqrt = any(b for _, b in value.coeffs)
        if has_sqrt and (value.d != emb.d or emb.sqrt_lift in ("ramified", "inert")):
            raise InvalidInput("no square root of d")
        total = PadicScalar.zero(p, prec)
        for k, (a, b) in value.terms.items():
            term = PadicScalar.from_rational(a, p, prec)
            if b and has_sqrt:
                term = term + PadicScalar.from_int(emb.sqrt_lift, p, prec).scale(b)
            zeta = pow(emb.zeta_lift or 1, k, p ** prec)
            total = total + term * PadicScalar.from_int(zeta, p, prec)
        return total

    @staticmethod
    def outcome(fn, *args):
        try:
            x = fn(*args)
        except (InvalidInput, PrecisionExhausted) as exc:
            return type(exc)
        return (type(x), x.prime, x.valuation, x.unit, x.precision)

    @staticmethod
    def coefficient(rng, p, prec):
        choice = rng.randrange(6)
        if choice == 0:
            return 0
        if choice == 1:
            return rng.randint(-10 ** 4, 10 ** 4)
        if choice == 2:  # valuation at or above the precision
            return rng.choice([-1, 1]) * p ** rng.randint(prec, prec + 3)
        if choice == 3:
            return rng.choice([-1, 1]) * p ** rng.randint(0, prec)
        return Fraction(rng.randint(-99, 99), rng.choice([2, 4, 11, p, p * p, 13 * p]))

    def test_random_values(self):
        rng = random.Random("embed")
        checked = 0
        for _ in range(600):
            p = rng.choice((3, 5, 7))
            m = rng.choice([k for k in range(1, p) if (p - 1) % k == 0])
            d = rng.choice([dd for dd in (-1, -2, -3, -5, -6, -7, -11, 2, 3, 5, 7, 10)
                            if math.isqrt(abs(dd)) ** 2 != dd])
            prec = rng.randint(1, 6)
            emb = PadicEmbedding(p, prec, d, m)
            layer = rng.choice([k for k in range(1, m + 1) if m % k == 0] + [2 * m])
            size = len(cyclotomic_coeffs(layer)) - 1
            value = AlgebraicValue(rng.choice([d, d, d, -19]), layer, [
                (self.coefficient(rng, p, prec),
                 self.coefficient(rng, p, prec) if rng.randrange(2) else 0)
                for _ in range(rng.randint(0, size))])
            got = self.outcome(emb.embed, value)
            assert got == self.outcome(self.termwise, emb, value)
            checked += got is not PrecisionExhausted and got is not InvalidInput
        assert checked > 200


class TestAvatarPathScalarOperations:
    """A guard on the integer-residue paths: at D = -407 (h = 16, p = 17,
    family order 48) the avatar families, their pairing measure, a restriction,
    a refused restriction and a cell mass call a PadicScalar operator only to
    divide each of the pairing measure's 9 Mahler coefficients by n! (`*` by
    1/n!, which calls `scale`): 18 calls, where arithmetic per coefficient
    makes thousands, so a fallback to it fails here.  A pushforward, the
    pairing measure of one pair, makes the same 18."""

    OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__", "__truediv__", "__pow__", "scale", "inverse")
    BOUND = 18

    @staticmethod
    def families():
        G = class_group(-407)
        chars = characters(G)
        p = smallest_admissible_prime(G)
        emb = admissible_embedding(G, p, 12)
        return G, p, (avatar_measure_family(chars[3], chars[5], emb, 48),
                      avatar_measure_family(chars[3].inverse(), chars[7], emb, 48))

    def count_operators(self, monkeypatch):
        """The list each PadicScalar operator call appends its name to."""
        calls = []

        def counting(name):
            method = getattr(PadicScalar, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return wrapper
        for name in self.OPERATORS:
            monkeypatch.setattr(PadicScalar, name, counting(name))
        return calls

    def test_operator_calls(self, monkeypatch):
        calls = self.count_operators(monkeypatch)
        G, p, (fam1, fam2) = self.families()
        paired = pairing_measure(list(zip(fam1, fam2)), 8)
        restricted = restrict_to_units(fam1[0], 1)
        with pytest.raises(PrecisionExhausted):
            restrict_to_units(fam1[1], 2)
        mass = cell_mass(fam1[0], 4, 1, 2)
        monkeypatch.undo()
        assert len(calls) <= self.BOUND, sorted(set(calls))
        # the results are the avatars' measures, not empty work
        assert (G.h, p, paired.order, restricted.order) == (16, 17, 9, 16)
        assert mass.precision == 2 and all(mu.order == 48 for mu in fam1 + fam2)

    def test_pushforward_operator_calls(self, monkeypatch):
        # the 9 moment products stay on integers: no `*` per moment pair
        _, _, (fam1, fam2) = self.families()
        calls = self.count_operators(monkeypatch)
        pushed = mult_pushforward(fam1[0], fam2[0], 8)
        monkeypatch.undo()
        assert len(calls) <= self.BOUND, sorted(set(calls))
        assert pushed.order == 9 and not pushed.finite
        assert all(isinstance(a, PadicScalar) for a in pushed.mahler)


class TestAdmissiblePrimes:
    def test_avatar_pairing_equals_algebraic_up_to_100(self):
        for D in [d for d in range(-3, -101, -1) if d % 4 in (0, 1)]:
            G = class_group(D)
            p = smallest_admissible_prime(G)
            emb = admissible_embedding(G, p, 6)
            chars = characters(G)
            avatars = [padic_avatar(c, emb) for c in chars]
            for i, c1 in enumerate(chars):
                for j, c2 in enumerate(chars):
                    lhs = avatars[i][0].scale(0)  # zero at full precision
                    total = None
                    for s in range(G.h):
                        term = avatars[i][s] * avatars[j][s]
                        total = term if total is None else total + term
                    padic_pair = total.scale(Fraction(1, G.h))
                    alg = pairing(c1, c2)
                    assert padic_pair == emb.embed(alg)
