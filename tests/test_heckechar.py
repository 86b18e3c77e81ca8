import copy
import json
import math
import pickle
import random
import re
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from mahler import heckechar, measure
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
from mahler.padic import INF, PadicScalar, exact
from mahler.serialize import encode_algebraic
from mahler.measure import (Measure, cell_mass, cell_tail_valuation, dirac, integrate_step,
                            moments, mult_pushforward, pairing_measure, restrict_to_units)
from paper_oracles import (composition_table, family_cases, family_outcome, is_trivial,
                           sqrt_d, weight_value_on_principal)
from test_immutability import unfilled

ALL_DISCS_200 = [D for D in range(-3, -201, -1) if D % 4 in (0, 1)]


CHARACTER_TABLES = json.loads(
    (Path(__file__).parent / "character_tables.json").read_text())


def verify_group_axioms(G):
    """Oracle: identity, inverses and associativity of the composition
    table, O(h^3).  The inverse of the reduced form (a, b, c) is (a, -b, c),
    itself reduced unless b = a or a = c, where it is equivalent to (a, b, c)."""
    h, e = G.h, G.identity_index
    index = {f: i for i, f in enumerate(G.forms)}
    for i, (a, b, c) in enumerate(G.forms):
        inverse = i if b == a or a == c else index[(a, -b, c)]
        assert G.mul(e, i) == i and G.mul(i, inverse) == e
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

    def test_composition_guard(self, monkeypatch):
        """A composition that leaves the reduced forms is refused as a broken
        invariant, not taken as a class."""
        monkeypatch.setattr(heckechar, "compose_forms", lambda f1, f2, D: (1, 0, -D))
        with pytest.raises(AssertionError, match="^composition left the reduced set$"):
            class_group(-23)

    def test_h_minus_47_cyclic(self):
        G = class_group(-47)
        assert G.h == 5
        orders = {G.element_order(i) for i in range(G.h)}
        assert orders == {1, 5}

    def test_invalid_discriminant(self):
        # refused by fundamental_decomposition, before any form is enumerated
        for D in (0, 1, 5, 7, -1, -2, -5, -6):
            with pytest.raises(InvalidInput, match=f"^{D} is not a negative discriminant$"):
                class_group(D)

    def test_every_discriminant_is_a_square_times_a_fundamental_one(self):
        # c^2 d_K = D, with d_K squarefree and 1 mod 4, or 4 m with m
        # squarefree and 2 or 3 mod 4; an odd c with 4 d_K never occurs
        def squarefree(n):
            return all(n % (q * q) for q in range(2, math.isqrt(abs(n)) + 1))
        for D in range(-20000, -2):
            if D % 4 not in (0, 1):
                continue
            c, d_K = fundamental_decomposition(D)
            assert c * c * d_K == D
            assert squarefree(d_K) if d_K % 4 == 1 else \
                d_K % 4 == 0 and d_K // 4 % 4 in (2, 3) and squarefree(d_K // 4)
            assert QuadOrder(d_K) == QuadOrder.from_discriminant(d_K)

    def test_congruence_modulo_a_divisor_of_a(self):
        # a = 0 mod m: every x solves a x = b mod m when m | b, so x0 = 0 mod 1
        for m in (1, 2, 3, 12, 97):
            for a in (0, m, 2 * m):
                for b in (0, m, -m, 5 * m):
                    assert heckechar._solve_congruence(a, b, m) == (0, 1)
            if m > 1:
                with pytest.raises(InvalidInput, match="^congruence has no solution$"):
                    heckechar._solve_congruence(2 * m, 1, m)

    def test_axioms_all_small_discriminants(self):
        # the constructor checks closure; every group with |D| <= 500 (so
        # every D the suite builds below -39999, including -263, -215 and
        # -407) is checked for identity, inverses and associativity here,
        # and its table against one composition per pair of classes
        for D in range(-3, -501, -1):
            if D % 4 in (0, 1):
                G = class_group(D)
                assert G.h >= 1 and G.table == composition_table(D)
                assert G.forms[G.identity_index] == (1, D % 2, ((D % 2) - D) // 4)
                assert G.identity_index == 0 and list(G.forms) == sorted(G.forms)
                verify_group_axioms(G)

    def test_forms_come_sorted(self):
        # the principal form (1, D mod 2, ·) first, with no sort after enumeration
        forms = heckechar._enumerate_reduced_forms(-4000031)
        assert forms == sorted(forms) and forms[0] == (1, 1, 1000008)

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

    def test_table_against_pairwise_composition_at_h_800(self):
        # the table built from one composed row per generator is the table
        # of h(h+1)/2 compositions (every |D| <= 500 is compared above)
        assert class_group(-1999999).table == composition_table(-1999999)

    def test_one_composed_row_per_generator(self, monkeypatch):
        # h = 96 = 48 * 2: two rows of 96 compositions, where a composition
        # per unordered pair makes 4656
        calls = []

        def counting(*args):
            calls.append(args)
            return compose_forms(*args)
        monkeypatch.setattr(heckechar, "compose_forms", counting)
        G = class_group(-39999)
        assert [k for _, k, _ in G.chain] == [48, 2]
        assert len(calls) == G.h * len(G.chain) == 192

    def test_exponent_is_read_not_computed(self, monkeypatch):
        # the exponent is set once, in the constructor, from the table
        G = class_group(-39999)
        assert G.exponent == math.lcm(*(G.element_order(i) for i in range(G.h))) == 48
        calls = []

        def counting(name, fn):
            def counted(*args):
                calls.append(name)
                return fn(*args)
            return counted
        monkeypatch.setattr(heckechar.IdealClassGroup, "mul",
                            counting("mul", heckechar.IdealClassGroup.mul))
        monkeypatch.setattr(heckechar, "_element_order",
                            counting("walk", heckechar._element_order))
        assert [G.exponent for _ in range(3)] == [48] * 3
        assert calls == []
        monkeypatch.undo()
        assert G == class_group(-39999) != class_group(-39995)
        assert copy.copy(G) == G == pickle.loads(pickle.dumps(G))
        assert pickle.loads(pickle.dumps(G)).exponent == 48

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

    @pytest.mark.parametrize("field, corrupt", [
        ("exponent", lambda m: 2),  # 3, the generator's order, does not divide 2
        ("chain", lambda chain: ((chain[0][0], 2, chain[0][2]),)),  # 2 does not divide 3
    ])
    def test_extension_guard(self, field, corrupt):
        """A class group whose chain and exponent disagree breaks the
        extension step's arithmetic, which refuses it."""
        G = class_group(-23)
        fields = dict(zip(type(G).__slots__, G._fields()))
        fields[field] = corrupt(fields[field])
        broken = type(G)._from_fields(*fields.values())
        with pytest.raises(AssertionError, match="^character extension arithmetic broke$"):
            characters(broken)

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
    def product_sum(phi1, *phis):
        """Oracle: (1/h) Σ_s φ1(I_s) φ2(I_s)... as h group-ring products,
        each taken left to right."""
        d = phi1.group.order_data.d_K
        total = AlgebraicValue.from_rational(0, d, 1)
        for first, *rest in zip(phi1.values, *(phi.values for phi in phis)):
            for b in rest:
                first = first * b
            total = total + first
        return total.scale(Fraction(1, phi1.group.h))

    @staticmethod
    def same(x, y):
        """Equal as stored and as printed: d, m, terms in stored order, repr,
        encoding."""
        return (x.d, x.m, list(x.terms.items()), repr(x), encode_algebraic(x)) == \
            (y.d, y.m, list(y.terms.items()), repr(y), encode_algebraic(y))

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
                    # the terms of Σ (φ1 φ2) ψ, in the order that sum meets
                    # them; Σ φ1 (ψ φ2) has the same terms, in another order
                    assert self.same(value, self.product_sum(a, b, t))
                    assert value.terms == self.product_sum(a, t * b).terms
                    assert self.normal(value)
                assert pairing(phi1, psi).is_zero()  # the weights do not cancel
                assert twisted_pairing(phi1, psi, chars[1]).is_zero()

    @staticmethod
    def embedded(value, d):
        """The complex image of an int, a Fraction or an AlgebraicValue's
        canonical coefficients under z -> e^(2 pi i/m), sqrt(d) -> i sqrt(|d|)."""
        if not isinstance(value, AlgebraicValue):
            return complex(value)
        zeta = complex(math.cos(2 * math.pi / value.m), math.sin(2 * math.pi / value.m))
        root = 1j * math.sqrt(-d)
        return sum((float(a) + float(b) * root) * zeta ** j
                   for j, (a, b) in enumerate(value.coeffs))

    def test_weight_functions_against_the_complex_embedding(self):
        """Pairings and twisted pairings of weight functions that are not
        characters, against (1/h) Σ_s Π φ(I_s) taken in complex numbers."""
        rng = random.Random(21)
        for D in (-23, -47, -56, -84, -263, -407):
            G = class_group(D)
            d, m, h = G.order_data.d_K, G.exponent, G.h
            chars = characters(G)
            low = m // min(q for q in range(2, m + 1) if m % q == 0)
            w = (rng.randint(1, 3), rng.randint(-3, 3))
            phis = [
                WeightFunction(G, (0, 0), [v.scale(Fraction(rng.randint(1, 9), rng.randint(1, 5)))
                                           for v in chars[rng.randrange(h)].values]),
                WeightFunction(G, (0, 0), [rng.randint(-3, 3)] * h),
                WeightFunction(G, (0, 0), [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                           for _ in range(h)]),
                WeightFunction(G, (0, 0), [AlgebraicValue.root_of_unity(rng.randrange(low), d, low)
                                           for _ in range(h)]),
                WeightFunction(G, w, [self.random_value(rng, d, (1, low, m)) for _ in range(h)]),
                WeightFunction(G, (-w[0], -w[1]),
                               [self.random_value(rng, d, (1, low, m)) for _ in range(h)]),
                chars[-1],
            ]
            assert all(phi.exponents is None for phi in phis[:-1])
            for i, a in enumerate(phis):
                for b in phis[i + 1:]:
                    cancel = (a.weight[0] + b.weight[0], a.weight[1] + b.weight[1]) == (0, 0)
                    for twist in ((), (phis[rng.randrange(len(phis))],)):
                        if twist and twist[0].weight != (0, 0):
                            continue
                        value = twisted_pairing(a, b, *twist) if twist else pairing(a, b)
                        products = [math.prod(self.embedded(v, d) for v in vs)
                                    for vs in zip(a.values, b.values, *(t.values for t in twist))]
                        want = sum(products) / h if cancel else 0
                        size = 1 + sum(map(abs, products)) / h
                        assert abs(self.embedded(value, d) - want) <= 1e-9 * size

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

    @staticmethod
    def class_count(*phis):
        """Oracle: the stored terms of a character sum, (n_k/h, 0) for the
        number n_k of classes whose exponents add to k mod m, keyed in the
        order a walk over the classes first meets k."""
        G = phis[0].group
        counts = {}
        for values in zip(*(phi.values for phi in phis)):
            k = sum(next(iter(v.terms)) for v in values) % G.exponent
            counts[k] = counts.get(k, 0) + 1
        return [(k, (exact(Fraction(n, G.h)), 0)) for k, n in counts.items()]

    @staticmethod
    def stored(x):
        """The stored terms with the type of each coefficient."""
        return [(k, (a, b), type(a), type(b)) for k, (a, b) in x.terms.items()]

    @staticmethod
    def packed(monkeypatch):
        """A list of the layers m whose byte table the packed count reads from now on."""
        calls = []
        table = heckechar._residue_table

        def counted(m):
            calls.append(m)
            return table(m)
        monkeypatch.setattr(heckechar, "_residue_table", counted)
        return calls

    @pytest.mark.parametrize("D, m, packs", [
        (-4679, 91, (True, False)),    # 2·90 = 180, 3·90 = 270
        (-8399, 134, (False, False)),  # 2·133 = 266
        (-6767, 86, (True, True)),     # 3·85 = 255
        (-5279, 87, (True, False)),    # 3·86 = 258
        (-13295, 128, (True, False)),  # 2·127 = 254
        (-9551, 129, (False, False)),  # 2·128 = 256
    ])
    def test_wide_layers(self, monkeypatch, D, m, packs):
        """At h = m, the count of a plain and of a twisted pairing packs
        exactly when its f factors' exponents add below 256, f·(m - 1) < 256.
        On either side of that bound a seeded sample equals the group-ring
        sum, in stored order and coefficient type, and seeded rows equal the
        class count oracle."""
        G = class_group(D)
        chars = characters(G)
        assert (G.h, G.exponent) == (m, m)
        rng = random.Random(D)
        for _ in range(3):
            a, b, psi = (chars[rng.randrange(m)] for _ in range(3))
            plain, twisted = pairing(a, b), twisted_pairing(a, b, psi)
            assert self.same(plain, self.product_sum(a, b)) and self.normal(plain)
            assert self.same(twisted, self.product_sum(a, b, psi)) and self.normal(twisted)
        for a in rng.sample(chars, 2):
            psi = chars[rng.randrange(m)]
            for b in chars:
                calls = self.packed(monkeypatch)
                plain = pairing(a, b)
                packed_plain = calls == [m]
                twisted = twisted_pairing(a, b, psi)
                assert (packed_plain, calls == [m] * (1 + packed_plain)) == packs
                monkeypatch.undo()
                assert self.stored(plain) == [(k, t, type(t[0]), int)
                                              for k, t in self.class_count(a, b)]
                assert self.stored(twisted) == [(k, t, type(t[0]), int)
                                                for k, t in self.class_count(a, b, psi)]

    MEMO_DISCS = [D for D in range(-3, -101, -1) if D % 4 in (0, 1)]

    def test_memoised_sums_against_products_cold_and_warm(self):
        """Every pairing and a seeded twisted pairing per pair of characters
        of each |D| <= 100 equals the group-ring sum: built afresh with the
        memo cleared before each sum, then read warm, where asking again
        returns the memoised value itself."""
        count_value = heckechar._count_value
        for warm in (False, True):
            for D in self.MEMO_DISCS:
                chars = characters(class_group(D))
                rng = random.Random(D)
                for a in chars:
                    for b in chars:
                        psi = chars[rng.randrange(len(chars))]
                        for factors in ((a, b), (a, b, psi)):
                            if not warm:
                                count_value.cache_clear()
                            value = pairing(*factors) if len(factors) == 2 \
                                else twisted_pairing(*factors)
                            assert self.same(value, self.product_sum(*factors))
                            if warm:
                                again = pairing(*factors) if len(factors) == 2 \
                                    else twisted_pairing(*factors)
                                assert again is value

    def test_memo_keys_carry_the_field(self):
        """D = -15, -20, -24 and -35 all have h = m = 2 and equal exponent
        rows, so only d tells their sums apart: each gets its own field."""
        heckechar._count_value.cache_clear()
        rows = set()
        for D in (-15, -20, -24, -35):
            G = class_group(D)
            assert (G.h, G.exponent) == (2, 2)
            chars = characters(G)
            rows.add(tuple(chi.exponents for chi in chars))
            for a in chars:
                for b in chars:
                    for value, want in ((pairing(a, b), self.product_sum(a, b)),
                                        (twisted_pairing(a, b, b), self.product_sum(a, b, b))):
                        assert value.d == G.order_data.d_K == D
                        assert self.same(value, want)
        assert len(rows) == 1

    def test_memo_stays_bounded(self):
        """The pairings of one character with all 134 characters at D = -8399
        (a wide layer, keyed on tuples) meet 134 keys, more than the memo
        keeps; it stays at its finite bound and every value stays right."""
        count_value = heckechar._count_value
        maxsize = count_value.cache_info().maxsize
        assert type(maxsize) is int and 0 < maxsize < 134
        count_value.cache_clear()
        chars = characters(class_group(-8399))
        a = chars[1]
        values = [pairing(a, b) for b in chars]
        assert count_value.cache_info().currsize == maxsize
        for b, value in zip(chars[:3] + chars[-3:], values[:3] + values[-3:]):
            assert self.stored(value) == [(k, t, type(t[0]), int)
                                          for k, t in self.class_count(a, b)]

    def test_memoised_values_refuse_assignment(self):
        chars = characters(class_group(-23))
        value = pairing(chars[1], chars[2])
        assert pairing(chars[1], chars[2]) is value
        for field in AlgebraicValue.__slots__:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(value, field, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(value, field)
        k = next(iter(value.terms))
        with pytest.raises(TypeError):
            value.terms[k] = (1, 0)
        with pytest.raises(TypeError):
            del value.terms[k]
        assert self.same(value, self.product_sum(chars[1], chars[2]))

    @pytest.mark.parametrize("D", [-23, -263, -4679])
    def test_counts_that_are_not_uniform(self, D):
        """A weight function of roots of unity whose exponent row is no
        homomorphism: its sums meet their exponents unevenly, and each key
        gets its own count."""
        G = class_group(D)
        d, m, h = G.order_data.d_K, G.exponent, G.h
        chars = characters(G)
        rng = random.Random(D)
        roots = [AlgebraicValue.root_of_unity(e, d, m) for e in range(m)]
        rows = [[0, 0, 1]] if h == 3 else [[rng.randrange(m) for _ in range(h)] for _ in range(2)]
        phis = [WeightFunction(G, (0, 0), [roots[e] for e in row]) for row in rows]
        uneven = 0
        for phi in phis:
            assert phi.exponents is not None
            for factors in ((phi, chars[0]), (chars[-1], phi), (phi, phi),
                            (phi, chars[1], chars[-1]), (phi, phi, phi)):
                value = pairing(*factors) if len(factors) == 2 else twisted_pairing(*factors)
                assert self.same(value, self.product_sum(*factors)) and self.normal(value)
                assert self.stored(value) == [(k, t, type(t[0]), int)
                                              for k, t in self.class_count(*factors)]
                uneven += len(set(value.terms.values())) > 1
        assert uneven >= 3

    @pytest.mark.parametrize("D", [-3, -4, -23, -84, -4679, -8399])
    def test_trivial_products_are_one_term(self, D):
        """A trivial product meets one key, 0, in every class: the term
        (1, 0), its coefficients ints."""
        chars = characters(class_group(D))
        rng = random.Random(D)
        for a in rng.sample(chars, min(len(chars), 4)):
            b = chars[rng.randrange(len(chars))]
            for value in (pairing(a, a.inverse()), twisted_pairing(a, b, (a * b).inverse())):
                assert self.stored(value) == [(0, (1, 0), int, int)]

    def test_column_orthogonality_sum(self):
        G = class_group(-23)
        chars = characters(G)
        triv = next(c for c in chars if is_trivial(c))
        total = Fraction(0)
        for psi in chars:
            val = twisted_pairing(triv, triv, psi).as_rational()
            total += val
        assert total == 1  # only psi = 1 survives

    @staticmethod
    def convolutions(monkeypatch):
        """A list that counts the `_convolve` calls made from now on."""
        calls = []
        convolve = heckechar._convolve

        def counted(*args):
            calls.append(1)
            return convolve(*args)
        monkeypatch.setattr(heckechar, "_convolve", counted)
        return calls

    def test_character_sums_are_counted(self, monkeypatch):
        """Characters, their products, powers and inverses carry exponent rows,
        so their plain and twisted sums make no group-ring product."""
        for D in (-23, -84, -263, -407):
            G = class_group(D)
            chars = characters(G)
            derived = [chars[1] * chars[-1], chars[-1] ** 3, chars[1] ** -2,
                       chars[-1].inverse()]
            calls = self.convolutions(monkeypatch)
            for a in chars + derived:
                assert a.exponents is not None
                for b in derived:
                    assert self.same(pairing(a, b), pairing(b, a))
                    twisted_pairing(a, b, chars[-1])
                    twisted_pairing(chars[1], a, b)
            assert calls == []
            monkeypatch.undo()
            for a in derived:
                for b in chars[:3]:
                    assert self.same(pairing(a, b), self.product_sum(a, b))
                    assert self.same(twisted_pairing(a, b, chars[-1]),
                                     self.product_sum(a, chars[-1] * b))

    def test_counted_sums_are_built_in_normal_form(self, monkeypatch):
        """The counting path builds its terms already in `exact` normal form,
        so it calls `exact` on none of them."""
        for D in (-23, -84, -407):
            chars = characters(class_group(D))
            calls = []

            def counted(q):
                calls.append(q)
                return exact(q)
            monkeypatch.setattr(heckechar, "exact", counted)
            sums = [(pairing(a, b), twisted_pairing(a, b, chars[-1]))
                    for a in chars[:4] for b in chars]
            assert calls == []
            monkeypatch.undo()
            assert all(self.normal(x) for pair in sums for x in pair)
            a, b = chars[1], chars[-1]
            assert self.same(pairing(a, b), self.product_sum(a, b))
            assert self.same(twisted_pairing(a, b, b), self.product_sum(a, b * b))

    def test_other_weight_functions_take_the_group_ring_path(self, monkeypatch):
        for D in (-23, -84):
            G = class_group(D)
            chars = characters(G)
            doubled = WeightFunction(G, (0, 0), [v.scale(2) for v in chars[1].values])
            coerced = WeightFunction(G, (0, 0), [Fraction(1, 3)] + list(chars[1].values[1:]))
            for phi in (doubled, coerced):
                assert phi.exponents is None
                calls = self.convolutions(monkeypatch)
                pairing(phi, chars[-1])
                twisted_pairing(chars[1], chars[-1], phi)
                assert len(calls) >= 2 * G.h
                monkeypatch.undo()
            # a foreign field carries no row and meets `_align`'s refusal
            # before any product is formed
            foreign = WeightFunction(G, (0, 0), [AlgebraicValue.root_of_unity(e, -7, G.exponent)
                                                 for e in range(G.h)])
            assert foreign.exponents is None
            calls = self.convolutions(monkeypatch)
            with pytest.raises(InvalidInput, match="mixed quadratic fields"):
                pairing(chars[1], foreign)
            assert calls == []
            monkeypatch.undo()

    def test_powers_of_other_weight_functions_are_taken_per_value(self):
        G = class_group(-47)
        chars = characters(G)
        doubled = WeightFunction(G, (0, 0), [v.scale(2) for v in chars[1].values])
        weighted = WeightFunction(G, (2, -1), chars[1].values)
        for phi in (doubled, weighted):
            for n in (2, -1, -3):
                power = phi ** n
                assert power.exponents is None
                assert power.weight == (n * phi.weight[0], n * phi.weight[1])
                for v, w in zip(phi.values, power.values):
                    assert w * v ** -n == 1
            assert phi.inverse() == phi ** -1
        # halving the doubled values again gives a character, which gets its row back
        halved = WeightFunction(G, (0, 0), [v.scale(Fraction(1, 2)) for v in chars[1].values])
        assert (doubled * halved ** -1).exponents is None
        assert doubled * halved == chars[1] ** 2 and (doubled * halved).exponents is not None

    def test_products_and_powers_take_the_shared_roots(self):
        for D in (-23, -84, -407):
            G = class_group(D)
            chars = characters(G)
            shared = {next(iter(v.terms)): v for chi in chars for v in chi.values}
            assert len(shared) == G.exponent
            for phi in (chars[1] * chars[-1], chars[-1] ** 5, chars[1] ** -1,
                        chars[-1].inverse()):
                for value in phi.values:
                    assert value is shared[next(iter(value.terms))]

    def test_rows_of_products_and_powers(self):
        for D in (-23, -84, -407):
            G = class_group(D)
            chars = characters(G)
            m = G.exponent
            rows = [memoryview(chi.exponents).cast("H").tolist() for chi in chars]
            for chi, row in zip(chars, rows):
                assert row == [next(iter(v.terms)) for v in chi.values]
                assert memoryview((chi ** 3).exponents).cast("H").tolist() \
                    == [3 * e % m for e in row]
                assert memoryview(chi.inverse().exponents).cast("H").tolist() \
                    == [-e % m for e in row]
                assert memoryview((chi * chars[-1]).exponents).cast("H").tolist() \
                    == [(e + f) % m for e, f in zip(row, rows[-1])]

    def test_values_in_a_smaller_layer_keep_their_layer(self):
        """A weight-(0, 0) function of roots in a proper divisor layer of
        G.exponent carries no row, and its pairings keep that layer."""
        for D in (-23, -84, -263, -407):
            G = class_group(D)
            d, m = G.order_data.d_K, G.exponent
            chars = characters(G)
            ones = WeightFunction(G, (0, 0), [AlgebraicValue.from_rational(1, d, 1)] * G.h)
            assert ones.exponents is None
            q = next(q for q in range(2, m + 1) if m % q == 0)  # a proper divisor m/q
            low = WeightFunction(G, (0, 0), [AlgebraicValue.root_of_unity(e, d, m // q)
                                             for e in range(G.h)])
            assert low.exponents is None
            for phi in (ones, low):
                assert self.same(pairing(phi, phi), self.product_sum(phi, phi))
                for chi in chars:
                    assert self.same(pairing(phi, chi), self.product_sum(phi, chi))
                    assert self.same(pairing(chi, phi), self.product_sum(chi, phi))
            assert pairing(ones, ones).m == 1 and pairing(ones, ones) == 1

    def test_constructor_derives_and_checks_the_row(self):
        G = class_group(-47)
        chars = characters(G)
        for chi in chars:
            rebuilt = WeightFunction(G, (0, 0), chi.values)
            assert rebuilt == chi and rebuilt.exponents == chi.exponents
            assert WeightFunction(G, (0, 0), chi.values, chi.exponents) == chi
        other = chars[1].exponents
        with pytest.raises(InvalidInput, match="exponent row disagrees"):
            WeightFunction(G, (0, 0), chars[2].values, other)
        with pytest.raises(InvalidInput, match="exponent row disagrees"):
            WeightFunction(G, (2, 0), chars[1].values, other)  # no row at weight (2, 0)


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

    def test_subtraction_and_rational_operands(self):
        z = AlgebraicValue.root_of_unity(1, -7, 3)
        v = AlgebraicValue.quadratic(2, 3, -7)
        assert v - z == AlgebraicValue(-7, 3, [(2, 3), (-1, 0)])
        assert (v - z) + z == v and z - z == 0
        assert 1 + z == AlgebraicValue(-7, 3, [(1, 0), (1, 0)]) == z + 1
        assert 1 - z == AlgebraicValue(-7, 3, [(1, 0), (-1, 0)])
        assert 1 + z + z ** 2 == 0 and (1 - z) + z == 1

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


class TestFamilyRefusalRule:
    """A row of C(Z, n), n < order, for a lift Z known mod p^P refuses
    exactly when order > p^P, and `avatar_measure_family` refuses at the
    call by that rule, before it builds any row."""

    def test_binomial_rows_refuse_exactly_past_p_to_the_precision(self):
        # the row of a smaller order is a prefix of the longer row, so the
        # index of the first refusal settles every order: exactly p^P means
        # the rows of orders <= p^P are whole and every longer one refuses
        rows = 0
        for p in (2, 3, 5, 7):
            for P in (1, 2, 3):
                q = p ** P
                for Z in range(q):
                    whole = 0
                    with pytest.raises(PrecisionExhausted, match="^zero known to no precision$"):
                        for _ in measure._binomial_fields(Z, p, P, q + 4):
                            whole += 1
                    assert whole == q, (p, P, Z)
                    rows += 1
        assert rows == sum(p ** P for p in (2, 3, 5, 7) for P in (1, 2, 3))

    @pytest.mark.parametrize("D", [-4, -20, -23, -39])
    def test_families_refuse_at_the_call_exactly_past_p_to_the_precision(self, D):
        G = class_group(D)
        chars, p = characters(G), smallest_admissible_prime(G)
        d, h = G.order_data.d_K, G.h
        over_p = WeightFunction(G, (0, 0), [AlgebraicValue.from_rational(
            Fraction(1, p), d, G.exponent)] * h)
        for M in (1, 2, 3):
            emb, q = admissible_embedding(G, p, M), p ** M
            orders = range(1, q + 4) if M < 3 else range(q - 1, q + 4)
            for order in orders:
                if order > q:  # before chi0's values are read
                    for chi0 in (chars[-1], over_p):
                        with pytest.raises(PrecisionExhausted,
                                           match="^zero known to no precision$"):
                            avatar_measure_family(chi0, chars[-1], emb, order)
                    continue
                family = avatar_measure_family(chars[-1], chars[-1], emb, order)
                # no row is built at the call, and every row builds when read
                assert all(unfilled(mu) and mu._mahler[1] == {} for mu in family)
                if order >= q - 1:
                    assert all(len(mu.mahler) == order for mu in family)


class TestAvatarFamilyOnIntegers:
    """`avatar_measure_family`, whose coefficients are formed on integers,
    against chi0^(p)(s) · dirac(chi^(p)(s)) built from the public API: the
    same type, prime and `finite` flag per measure and the same value,
    valuation and precision per coefficient, or the same exception and
    message, over `paper_oracles.family_cases()`."""

    @staticmethod
    def dirac_family(chi0, chi, emb, order):
        family = []
        for c, v in zip(chi0.values, chi.values):
            z, c0 = emb.embed(v), emb.embed(c)
            family.append(dirac(z, emb.prime, order).scale(c0))
        return family

    @staticmethod
    def group_and_embedding(D=-23):
        G = class_group(D)
        p = smallest_admissible_prime(G)
        return G, characters(G), p, admissible_embedding(G, p, 6)

    def test_against_dirac_scale(self):
        seen = Counter()
        for case in family_cases():
            got = family_outcome(avatar_measure_family, *case)
            assert got == family_outcome(self.dirac_family, *case), case
            if type(got) is tuple:
                seen[got] += 1
            else:
                seen["built"] += 1
                seen["zero c0"] += any(mu[3][0][3] == 0 for mu in got)
        # every kind of outcome occurs: built families, some with a zero
        # chi0 value, refused binomial series and refused non-p-integral chi0
        assert seen["built"] > 200 and seen["zero c0"] > 5
        assert seen["PrecisionExhausted", "zero known to no precision"] > 20
        assert seen["InvalidInput", "Mahler coefficient with negative valuation: "
                    "this is a distribution, not a measure"] > 20

    def test_characters_take_neither_dirac_nor_scale(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the Dirac path was taken")
        monkeypatch.setattr("mahler.measure.dirac", refuse)
        monkeypatch.setattr("mahler.measure.Measure.scale", refuse)
        G, chars, p, emb = self.group_and_embedding(-407)
        family = family_outcome(avatar_measure_family, chars[3], chars[5], emb, 48)
        monkeypatch.undo()
        assert len(family) == G.h == 16
        assert family == family_outcome(self.dirac_family, chars[3], chars[5], emb, 48)

    def test_non_integral_chi0_is_refused_without_dirac(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the Dirac path was taken")
        G, chars, p, emb = self.group_and_embedding()
        const = WeightFunction(G, (0, 0), [AlgebraicValue.from_rational(
            Fraction(1, p), G.order_data.d_K, G.exponent)] * G.h)
        want = family_outcome(self.dirac_family, const, chars[2], emb, 16)
        monkeypatch.setattr("mahler.measure.dirac", refuse)
        monkeypatch.setattr("mahler.measure.Measure.scale", refuse)
        assert want == ("InvalidInput", "Mahler coefficient with negative valuation: "
                        "this is a distribution, not a measure")
        assert family_outcome(avatar_measure_family, const, chars[2], emb, 16) == want

    def test_order_below_one(self):
        G, chars, p, emb = self.group_and_embedding()
        const = WeightFunction(G, (0, 0), [AlgebraicValue.from_rational(
            Fraction(1, p), G.order_data.d_K, G.exponent)] * G.h)
        for chi0 in (chars[1], const):  # a character and the constant 1/p
            for order in (0, -3):
                with pytest.raises(InvalidInput, match="order must be >= 1"):
                    avatar_measure_family(chi0, chars[2], emb, order)

    def test_checks_keep_their_order(self):
        # group mismatch, then the order, then a non-unit avatar
        G, chars, p, emb = self.group_and_embedding()
        other = characters(class_group(-47))[1]
        bad = WeightFunction(G, (0, 0), [AlgebraicValue.from_rational(
            p, G.order_data.d_K, G.exponent)] * G.h)
        with pytest.raises(InvalidInput, match="group mismatch"):
            avatar_measure_family(other, bad, emb, 0)
        with pytest.raises(InvalidInput, match="order must be >= 1"):
            avatar_measure_family(chars[1], bad, emb, 0)
        with pytest.raises(InvalidInput, match="avatar value is not a unit"):
            avatar_measure_family(chars[1], bad, emb, 1)

    def test_order_is_refused_before_any_class_is_embedded(self, monkeypatch):
        # characters read the table of embedded roots, a weight function
        # without exponents embeds value by value: neither runs before the
        # order refusal
        G, chars, p, emb = self.group_and_embedding()
        original, roots, embedded = PadicEmbedding.embed, heckechar._embedded_roots, []

        def embed(self, value):
            embedded.append(value)
            return original(self, value)

        def table(*key):
            embedded.append(key)
            return roots(*key)
        monkeypatch.setattr(PadicEmbedding, "embed", embed)
        monkeypatch.setattr(heckechar, "_embedded_roots", table)
        const = WeightFunction(G, (0, 0), [AlgebraicValue.from_rational(
            2, G.order_data.d_K, G.exponent)] * G.h)
        for chi0 in (chars[1], const):
            for order in (0, -3):
                with pytest.raises(InvalidInput, match="^order must be >= 1$"):
                    avatar_measure_family(chi0, chars[2], emb, order)
        assert embedded == []
        assert len(avatar_measure_family(chars[1], chars[2], emb, 1)) == G.h
        key = (p, 6, G.exponent, emb.zeta_lift, G.exponent)
        assert embedded == [key, key]
        assert len(avatar_measure_family(const, chars[2], emb, 1)) == G.h
        assert embedded[2:] == [key] + list(const.values)


class TestAtomReads:
    """A family member, and a scaled one, restricts to the units, takes its
    cell masses and integrates step functions through its atom c0·δ_z: no
    call builds its Mahler coefficients, which are built only when `mahler`
    is read."""

    def test_restriction_and_cell_masses_build_no_coefficients(self, monkeypatch):
        # `unfilled` shows whether a member's coefficients were built; the
        # spies are on the Mahler route's kernels, which a scaled member,
        # whose coefficients are built, would reach without its atom
        kernels = []

        def spy(module, name, log):
            original = getattr(module, name)

            def call(*args):
                log.append(name)
                return original(*args)
            monkeypatch.setattr(module, name, call)
        for name in ("_shifted", "_cell_rows"):
            spy(measure, name, kernels)
        for D in (-20, -56):  # p = 3 and 5, where level-2 cells have a target
            G = class_group(D)
            chars, p = characters(G), smallest_admissible_prime(G)
            emb = admissible_embedding(G, p, 9)
            family = avatar_measure_family(chars[-1], chars[1], emb, 48)
            best = (48 - 1) // (p - 1) - 1

            def read(member):
                z = member.atoms[0][1].lift()
                assert len(restrict_to_units(member, best).mahler) == 48 - (best + 1) * (p - 1)
                with pytest.raises(PrecisionExhausted):
                    restrict_to_units(member, best + 1)
                for nu in (1, 2):
                    bound = cell_tail_valuation(48, nu, p)
                    for a in (z % p ** nu, (z + 1) % p ** nu):
                        assert type(cell_mass(member, a, nu, bound)) is PadicScalar
                    with pytest.raises(PrecisionExhausted):
                        cell_mass(member, z % p ** nu, nu, bound + 1)
                    # the step integral is Σ φ(a)·(cell mass of a), field for field
                    phi = [Fraction(a - 1, 2) for a in range(p ** nu)]
                    want = sum(f * cell_mass(member, a, nu, bound) for a, f in enumerate(phi))
                    got = integrate_step(member, phi, bound)
                    assert (type(got), got._fields()) == (type(want), want._fields())
                    with pytest.raises(PrecisionExhausted):
                        integrate_step(member, phi, bound + 1)
            for mu in family:
                read(mu)
                assert unfilled(mu) and kernels == []
                read(mu.scale(Fraction(p, 2)))  # the scaling reads the coefficients
                assert not unfilled(mu) and kernels == []
        restrict_to_units(Measure(*family[0]._fields()[:3]), 1)
        assert kernels == ["_shifted", "_shifted"]

    def test_step_integral_is_as_precise_as_its_cells(self):
        # D = -20, p = 3: the step integral of the one cell 0 + 3Z_3 is that
        # cell's mass, a zero known mod 3^23, and not the Mahler route's
        # 0 + O(3^4) at embedding precision 4
        G = class_group(-20)
        chars = characters(G)
        member = avatar_measure_family(chars[-1], chars[1], admissible_embedding(G, 3, 4), 48)[0]
        got = integrate_step(member, [1, 0, 0], 23)
        assert got._fields() == cell_mass(member, 0, 1, 23)._fields() == (3, INF, 0, 23)
        assert str(got) == "0 + O(3^23)" and unfilled(member)


class TestRowAvatars:
    """`padic_avatar` and `avatar_measure_family` read a weight function
    with exponents from the table of embedded roots of its layer, field for
    field what `PadicEmbedding.embed` gives; any other value is embedded."""

    @staticmethod
    def fields(xs):
        return [(type(x), x._fields()) for x in xs]

    @staticmethod
    def no_embed(monkeypatch):
        def refuse(self, value):
            raise AssertionError("a value was embedded")
        monkeypatch.setattr(PadicEmbedding, "embed", refuse)

    def test_every_character_up_to_200(self, monkeypatch):
        cases = []
        for D in ALL_DISCS_200:
            G = class_group(D)
            p = smallest_admissible_prime(G)
            for prec in (1, 5):
                emb = admissible_embedding(G, p, prec)
                for chi in characters(G):
                    cases.append((chi, emb, self.fields(map(emb.embed, chi.values))))
        self.no_embed(monkeypatch)
        for chi, emb, want in cases:
            assert self.fields(padic_avatar(chi, emb)) == want, (chi, emb)
        assert len(cases) > 750

    def test_a_layer_that_is_a_proper_multiple(self, monkeypatch):
        # h = 3 at D = -23: 7 and 13 are 1 mod 6 and mod 12
        G, chars = class_group(-23), characters(class_group(-23))
        d = G.order_data.d_K
        embeddings = [PadicEmbedding(7, 4, d, 6), PadicEmbedding(13, 3, d, 12),
                      PadicEmbedding(13, 2, d, 12, zeta_residue=7)]
        want = {(i, j): self.fields(map(emb.embed, chi.values))
                for i, emb in enumerate(embeddings) for j, chi in enumerate(chars)}
        families = [family_outcome(TestAvatarFamilyOnIntegers.dirac_family,
                                   chars[1], chars[2], emb, 16) for emb in embeddings]
        self.no_embed(monkeypatch)
        for (i, j), fields in want.items():
            assert self.fields(padic_avatar(chars[j], embeddings[i])) == fields
        for emb, family in zip(embeddings, families):
            assert family_outcome(avatar_measure_family, chars[1], chars[2], emb, 16) == family

    def test_the_trivial_layer(self, monkeypatch):
        # h = 1: the layer 1 and an embedding of layer 1, without a zeta lift
        G = class_group(-3)
        chi, emb = characters(G)[0], PadicEmbedding(5, 3, -3, 1)
        assert emb.zeta_lift is None and chi.exponents is not None
        want = self.fields(map(emb.embed, chi.values))
        self.no_embed(monkeypatch)
        assert self.fields(padic_avatar(chi, emb)) == want

    def test_other_weight_functions_are_embedded(self, monkeypatch):
        G = class_group(-47)
        chars, p = characters(G), smallest_admissible_prime(G)
        emb = admissible_embedding(G, p, 4)
        scaled = WeightFunction(G, (0, 0), [v.scale(3) for v in chars[2].values])
        assert scaled.exponents is None
        want = self.fields(map(emb.embed, scaled.values))
        original, embedded = PadicEmbedding.embed, []

        def embed(self, value):
            embedded.append(value)
            return original(self, value)
        monkeypatch.setattr(PadicEmbedding, "embed", embed)
        assert self.fields(padic_avatar(scaled, emb)) == want
        assert embedded == list(scaled.values)

    def test_a_layer_that_does_not_divide_the_embedding(self):
        G = class_group(-23)
        chars, p = characters(G), smallest_admissible_prime(G)
        emb = PadicEmbedding(p, 4, G.order_data.d_K, 1)
        message = "^value needs a larger cyclotomic layer than the embedding$"
        with pytest.raises(InvalidInput, match=message):
            padic_avatar(chars[1], emb)
        with pytest.raises(InvalidInput, match=message):
            avatar_measure_family(chars[1], chars[2], emb, 4)

    def test_the_table_is_keyed_on_values(self):
        # an equal embedding built anew reads the same cached table
        G = class_group(-47)
        p = smallest_admissible_prime(G)
        chi = characters(G)[1]
        first = padic_avatar(chi, admissible_embedding(G, p, 7))
        second = padic_avatar(chi, admissible_embedding(G, p, 7))
        assert all(x is y for x, y in zip(first, second))


class TestRefusalMessages:
    """Refusals that no other in-process test reaches, each with its message."""

    def test_quad_order(self):
        with pytest.raises(InvalidInput, match="conductor must be >= 1"):
            QuadOrder(-4, 0)
        with pytest.raises(InvalidInput, match="-12 is not a fundamental discriminant"):
            QuadOrder(-12)

    def test_coefficient_vector_too_long(self):
        with pytest.raises(InvalidInput, match="coefficient vector too long"):
            AlgebraicValue(-3, 3, [(1, 0)] * 3)  # phi(3) = 2 coefficients

    def test_weight_function_needs_one_value_per_class(self):
        G = class_group(-23)
        with pytest.raises(InvalidInput, match="need one value per ideal class"):
            WeightFunction(G, (0, 0), characters(G)[1].values[:-1])

    def test_weight_components_must_be_integers(self):
        # a weight such as (1/2, -1/2) was once truncated to (0, 0), and the
        # function then paired as a character
        G = class_group(-23)
        chars = characters(G)
        for weight, shown in (((Fraction(1, 2), Fraction(-1, 2)), "Fraction(1, 2)"),
                              ((0.5, -0.5), "0.5"),
                              ((1.9, -1.2), "1.9"), ((0, -1.2), "-1.2"),
                              ((math.nan, 0), "nan"), ((0, math.inf), "inf"), (("0", 0), "'0'")):
            with pytest.raises(InvalidInput,
                               match=f"^weight component {re.escape(shown)} is not an integer$"):
                WeightFunction(G, weight, chars[2].values)
        with pytest.raises(InvalidInput, match="^weight component 1.5 is not an integer$"):
            canonical_weight_character(QuadOrder(-7), (1.5, 0.5))
        # a component equal to an integer is stored as that int
        for weight in ((2.0, Fraction(-4, 2)), (0.0, -0.0)):
            phi = WeightFunction(G, weight, chars[2].values)
            assert phi.weight == tuple(map(int, weight)) and set(map(type, phi.weight)) == {int}
        assert WeightFunction(G, (0.0, 0), chars[2].values) == chars[2]
        assert canonical_weight_character(QuadOrder(-7), (2.0, 0)).weight == (2, 0)

    @staticmethod
    def powers():
        """A character, a weight-(2, 0) function, a value and a PadicScalar."""
        G = class_group(-23)
        chi = characters(G)[1]
        return {"character": chi, "weight (2, 0)": WeightFunction(G, (2, 0), chi.values),
                "value": chi.values[1], "scalar": PadicScalar.from_int(3, 7, 4)}

    @pytest.mark.parametrize("base", ["character", "weight (2, 0)", "value", "scalar"])
    @pytest.mark.parametrize("n", [0.5, 2.0, "2", True, Fraction(2)], ids=repr)
    def test_powers_need_an_int_exponent(self, base, n):
        # a float once ended in a raw TypeError, and True passed as 1
        with pytest.raises(InvalidInput, match="^only integer powers$"):
            self.powers()[base] ** n

    def test_weight_function_product_group_mismatch(self):
        a, b = characters(class_group(-23))[1], characters(class_group(-47))[1]
        with pytest.raises(InvalidInput, match="group mismatch"):
            a * b

    def test_embedding_needs_odd_prime_and_precision(self):
        for prime in (2, 9):
            with pytest.raises(InvalidInput, match="need an odd prime"):
                PadicEmbedding(prime, 4, -23)
        with pytest.raises(InvalidInput, match="precision must be >= 1"):
            PadicEmbedding(7, 0, -23)


class TestEmbedAgainstOperators:
    """`PadicEmbedding.embed`, summed on integers mod p^prec, against the sum
    of its terms in PadicScalar arithmetic, on random values for p in
    {3, 5, 7}: int and Fraction coefficients, p-adic denominators, a_k that
    vanish mod p^prec, sqrt(d) parts, split, inert and ramified d: the same
    value, valuation and stated precision, or the same InvalidInput."""

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
            # an a_k that vanishes mod p^prec is the zero known there
            assert got is not PrecisionExhausted, value
            checked += got is not InvalidInput
        assert checked > 200


class TestAvatarPathScalarOperations:
    """A guard on the integer-residue paths: at D = -407 (h = 16, p = 17,
    family order 48) the avatar families, their pairing measure, a restriction,
    a refused restriction and a cell mass call no PadicScalar operator: the
    pairing measure's atom route forms each class's c1·c2 and z1·z2 on their
    fields, where arithmetic per coefficient makes thousands of calls, so a
    fallback to it fails here.  A pushforward of two members without
    their atoms, the moment route for one pair, multiplies its 9 moment pairs
    and adds each product to 0 (9 `*`, 9 `+`), then divides each of its 9
    Mahler coefficients by n! (`*` by 1/n!, which calls `scale`)."""

    OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__", "__truediv__", "__pow__", "scale", "inverse")

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
        assert calls == [], sorted(set(calls))
        # the results are the avatars' measures, not empty work
        assert (G.h, p, paired.order, restricted.order) == (16, 17, 9, 16)
        assert mass.precision == 2 and all(mu.order == 48 for mu in fam1 + fam2)

    def test_pushforward_operator_calls(self, monkeypatch):
        # one `*` per moment pair and per 1/n!, no arithmetic per Mahler row entry
        _, p, (fam1, fam2) = self.families()
        calls = self.count_operators(monkeypatch)
        pushed = mult_pushforward(Measure(p, fam1[0].mahler), Measure(p, fam2[0].mahler), 8)
        monkeypatch.undo()
        assert Counter(calls) == {"__mul__": 18, "__radd__": 9, "scale": 9}, Counter(calls)
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
