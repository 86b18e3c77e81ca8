import random
from fractions import Fraction

import pytest

import math
import operator
import re

from mahler.errors import InvalidInput, PrecisionExhausted
from mahler.measure import (Measure, _dot, _residues, cell_mass, cell_tail_valuation,
                            dirac, from_plus_basis, integrate_step, mahler_from_moments,
                            moments, mult_pushforward, pairing_measure, plus_basis,
                            restrict_to_units)
from mahler.padic import INF, PadicScalar, binomial_series, exact, stirling_second
from paper_oracles import dirac_cases, family_cases, partner_family, rational_valuation


def random_finite_measure(rng, p, max_len=8, spread=9):
    length = rng.randrange(1, max_len + 1)
    coeffs = [rng.randrange(-spread, spread + 1) for _ in range(length)]
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1
    return Measure(p, coeffs, finite=True)


def falling_factorial_rows_from_scratch(size):
    """Oracle: rows n < size of the signed first-kind Stirling numbers, row n
    the coefficients of X(X-1)...(X-n+1), multiplied out one factor at a time."""
    rows = [[1]]
    for t in range(size - 1):
        nxt = [0] * (len(rows[-1]) + 1)
        for i, c in enumerate(rows[-1]):
            nxt[i + 1] += c
            nxt[i] -= t * c
        rows.append(nxt)
    return rows


def brute_force_moment(mu, r, nu):
    """Oracle: step-function approximation of t^r via level-nu cells."""
    p = mu.prime
    return sum(Fraction(a ** r) * Fraction(cell_mass(mu, a, nu))
               for a in range(p ** nu))


class TestDirac:
    def test_immutable(self):
        mu = dirac(2, 3, 6)
        for name, value in (("finite", False), ("mahler", [1]), ("prime", 5),
                            ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(mu, name, value)
        assert mu.finite and mu.prime == 3 and mu.mahler == (1, 2, 1, 0, 0, 0)

    def test_value_equality(self):
        assert dirac(1, 3, 4) == dirac(1, 3, 4)
        assert dirac(1, 3, 4) == Measure(3, [1, 1, 0, 0], finite=True)
        assert dirac(1, 3, 4) != dirac(2, 3, 4)
        assert dirac(1, 3, 4) != dirac(1, 5, 4)
        assert dirac(1, 3, 4) != dirac(1, 3, 5)
        assert dirac(1, 3, 4) != Measure(3, [1, 1, 0, 0], finite=False)
        x = PadicScalar.from_int(4, 3, 5)
        assert dirac(x, 3, 4) == dirac(x + PadicScalar.zero(3, 6), 3, 4)
        assert dirac(1, 3, 4) != (1, 1, 0, 0)
        with pytest.raises(TypeError):
            hash(dirac(1, 3, 4))

    def test_dirac_one(self):
        mu = dirac(1, 5, 6)
        assert mu.mahler == (1, 1, 0, 0, 0, 0) and mu.finite

    def test_dirac_zero_total_mass(self):
        assert dirac(0, 5, 4).mahler == (1, 0, 0, 0)

    def test_moment_example(self):
        assert moments(dirac(2, 5, 4), 3) == 8

    def test_dirac_moments_are_powers(self):
        rng = random.Random(5)
        for p in (3, 5, 7, 11):
            for _ in range(8):
                z = Fraction(rng.randrange(-40, 40), rng.choice(
                    [d for d in range(1, 20) if d % p]))
                mu = dirac(z, p, 12)
                for r in range(11):
                    assert moments(mu, r) == z ** r

    def test_non_integral_rejected(self):
        with pytest.raises(InvalidInput):
            dirac(Fraction(1, 5), 5, 4)

    def test_non_prime_rejected(self):
        with pytest.raises(InvalidInput, match="^4 is not prime$"):
            dirac(1, 4, 3)

    def test_finite_flag(self):
        assert dirac(3, 5, 6).finite
        assert not dirac(-1, 5, 6).finite
        assert not dirac(7, 5, 6).finite  # support beyond the stored order


class TestMoments:
    def test_zeroth_moment_is_a0(self):
        rng = random.Random(1)
        for _ in range(10):
            mu = random_finite_measure(rng, 7)
            assert moments(mu, 0) == mu.mahler[0]

    def test_hand_stirling_sum(self):
        mu = Measure(5, [0, 1, 2], finite=True)
        assert moments(mu, 2) == 5  # S(2,1)*1*1 + S(2,2)*2*2

    def test_order_guard(self):
        mu = Measure(5, [1, 2], finite=False)
        with pytest.raises(InvalidInput):
            moments(mu, 2)


class TestMahlerFromMoments:
    def test_dirac_inverse(self):
        b = [Fraction(3) ** r for r in range(7)]
        mu = mahler_from_moments(b, 5)
        assert mu.mahler == (1, 3, 3, 1, 0, 0, 0)

    def test_constant_moments_give_dirac_one(self):
        mu = mahler_from_moments([1] * 6, 7)
        assert mu.mahler == (1, 1, 0, 0, 0, 0)

    def test_round_trip_exact(self):
        rng = random.Random(2)
        for p in (3, 5, 7, 11):
            for _ in range(10):
                mu = random_finite_measure(rng, p)
                b = [moments(mu, r) for r in range(mu.order)]
                back = mahler_from_moments(b, p)
                assert back.mahler == mu.mahler

    def test_round_trip_padic_precision_loss(self):
        rng = random.Random(3)
        p, prec = 5, 12
        mu = random_finite_measure(rng, p, max_len=9)
        b = [PadicScalar.from_rational(moments(mu, r), p, prec)
             for r in range(mu.order)]
        back = mahler_from_moments(b, p)
        for n, got in enumerate(back.mahler):
            expect = PadicScalar.from_rational(mu.mahler[n], p, got.precision)
            assert got == expect

    def test_non_measure_rejected(self):
        # moments of (1/p) * dirac(1) are not p-integral
        with pytest.raises(InvalidInput):
            mahler_from_moments([Fraction(1, 5), Fraction(1, 5)], 5)


class TestRestriction:
    def test_unit_dirac_fixed(self):
        mu = dirac(2, 3, 8)
        res = restrict_to_units(mu)
        assert res.mahler == mu.mahler
        for r in range(6):
            assert moments(res, r) == moments(mu, r)

    def test_p_divisible_dirac_killed(self):
        res = restrict_to_units(dirac(3, 3, 8))
        assert all(a == 0 for a in res.mahler)

    def test_idempotent(self):
        rng = random.Random(4)
        for p in (3, 5, 7):
            for _ in range(10):
                mu = random_finite_measure(rng, p)
                once = restrict_to_units(mu)
                assert restrict_to_units(once).mahler == once.mahler

    def test_cell_level_characterisation(self):
        rng = random.Random(5)
        for p in (3, 5):
            for _ in range(10):
                mu = random_finite_measure(rng, p)
                res = restrict_to_units(mu)
                assert cell_mass(res, 0, 1) == 0
                for a in range(1, p):
                    assert cell_mass(res, a, 1) == cell_mass(mu, a, 1)

    def test_truncated_needs_precision(self):
        mu = Measure(3, [1] * 10, finite=False)
        with pytest.raises(InvalidInput):
            restrict_to_units(mu)
        # a missing or bad target is refused before any transform, of any
        # coefficients, here 16 beside 1 + O(2^4)
        mixed = Measure(2, [16, PadicScalar.from_int(1, 2, 4)] * 4, finite=False)
        with pytest.raises(InvalidInput, match="needs a target precision"):
            restrict_to_units(mixed)
        with pytest.raises(InvalidInput, match="must be >= 1"):
            restrict_to_units(mixed, 0)
        # and 16 enters the sums as its class mod 2^4, as in the exact list
        mixed_out, exact_out = [
            [(a.valuation, a.unit, a.precision) for a in restrict_to_units(mu, 2).mahler]
            for mu in (mixed, Measure(2, [16, 1] * 4, finite=False))]
        assert mixed_out == exact_out

    def test_truncated_exact_coefficients_vanishing_at_the_target(self):
        # every restricted coefficient of 3 + 3 C(t, 1) is 0 mod 3
        mu = Measure(3, [3, 3] + [0] * 6, finite=False)
        assert [(a.valuation, a.precision) for a in restrict_to_units(mu, 1).mahler] == \
            [(INF, 1)] * 4
        assert cell_mass(Measure(3, [1, 9] + [0] * 6, finite=False), 1, 1, 1) == \
            PadicScalar.zero(3, 1)

    def test_truncated_precision_gate(self):
        mu = Measure(3, [1] * 6, finite=False)
        with pytest.raises(PrecisionExhausted):
            restrict_to_units(mu, precision=5)

    def test_truncated_matches_exact_on_dirac(self):
        # dirac at a unit given as a truncated p-adic series: restriction is
        # the identity up to the advertised precision
        p, prec = 3, 2
        z = PadicScalar.from_int(5, p, 10)
        mu = dirac(z, p, 16)
        res = restrict_to_units(mu, precision=prec)
        for n in range(res.order):
            assert res.mahler[n] == mu.mahler[n]

    def test_moment_oracle_via_step_functions(self):
        # moments of the restriction against the integrate_step oracle with
        # phi(a) = a^r on level-nu cells: the difference is the step-function
        # approximation error of t^r, so its valuation grows with the level
        rng = random.Random(6)
        for p in (3, 5):
            for _ in range(5):
                mu = random_finite_measure(rng, p, max_len=6)
                res = restrict_to_units(mu)
                for r in range(1, 5):
                    exact = Fraction(moments(res, r))
                    for nu in (1, 2, 3):
                        phi = [a ** r if a % p else 0 for a in range(p ** nu)]
                        approx = Fraction(integrate_step(res, phi))
                        diff = exact - approx
                        assert diff == 0 or rational_valuation(diff, p) >= nu


class TestCellMass:
    def test_hand_example(self):
        mu = dirac(2, 3, 6)
        assert cell_mass(mu, 2, 1) == 1
        assert cell_mass(mu, 0, 1) == 0
        assert cell_mass(mu, 1, 1) == 0

    def test_partition_of_unity(self):
        rng = random.Random(7)
        for p in (3, 5, 7):
            for _ in range(8):
                mu = random_finite_measure(rng, p)
                for nu in (1, 2):
                    total = sum(Fraction(cell_mass(mu, a, nu))
                                for a in range(p ** nu))
                    assert total == mu.mahler[0]

    def test_deeper_cells_refine(self):
        rng = random.Random(8)
        p = 3
        mu = random_finite_measure(rng, p)
        for a in range(p):
            fine = sum(Fraction(cell_mass(mu, a + p * b, 2)) for b in range(p))
            assert fine == cell_mass(mu, a, 1)

    def test_tail_gate(self):
        mu = Measure(3, [1] * 8, finite=False)
        with pytest.raises(PrecisionExhausted):
            cell_mass(mu, 1, 2, precision=4)

    def test_truncated_masses_match_complete_expansion(self):
        p = 3
        full = dirac(5, p, 24)
        trunc = Measure(p, full.mahler[:24], finite=False)
        for a in range(p):
            got = cell_mass(trunc, a, 1, precision=4)
            assert got == cell_mass(full, a, 1)
        phi = list(range(p))
        assert integrate_step(trunc, phi, precision=4) == 5 % p

    def test_range_check(self):
        with pytest.raises(InvalidInput):
            cell_mass(dirac(1, 3, 4), 9, 1)


class TestTruncationTailOracle:
    """The tail bounds against exact answers: a Dirac mass at z in Z_p,
    truncated to its first K Mahler coefficients C(z, n), each given as a
    PadicScalar known mod p^60.  Up to the largest target the order supports,
    every coefficient of the restriction is C(z, n)·[z a unit] mod p^target
    and every level-nu cell mass is [z ≡ a mod p^nu] mod p^target, each
    stating precision target; the next target is refused."""

    PRECISION = 60
    ORDERS = (4, 8, 13, 24, 40)

    @staticmethod
    def points(p):
        """Units, then non-units."""
        return [Fraction(-1), Fraction(1, p + 1), Fraction(-p), Fraction(p, p + 1),
                Fraction(p * p, 1 - p)]

    @staticmethod
    def binomial(z, n):
        out = Fraction(1)
        for i in range(n):
            out = out * (z - i) / (i + 1)
        return out

    @staticmethod
    def congruent(x, q, p, target):
        """x is a PadicScalar known mod exactly p^target and congruent to the
        p-integral rational q mod p^target."""
        q = Fraction(q)
        if x.precision != target:
            return False
        return (x.lift() - q.numerator * pow(q.denominator, -1, p ** target)) \
            % p ** target == 0

    def truncated_dirac(self, z, p, order):
        return Measure(p, [PadicScalar.from_rational(self.binomial(z, n), p, self.PRECISION)
                           for n in range(order)], finite=False)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_restriction_and_cell_masses(self, p):
        compared = 0
        for z in self.points(p):
            unit = z.numerator % p != 0
            for order in self.ORDERS:
                mu = self.truncated_dirac(z, p, order)
                # output n is kept while (order - n)/(p - 1) - 1 > target, so
                # the largest target keeps n = 0 alone
                bound = (order - 1) // (p - 1) - 1
                for target in range(1, bound + 1):
                    restricted = restrict_to_units(mu, target).mahler
                    assert len(restricted) == order - (target + 1) * (p - 1)
                    for n, a in enumerate(restricted):
                        want = self.binomial(z, n) if unit else 0
                        assert self.congruent(a, want, p, target), (z, order, target, n)
                    compared += len(restricted)
                with pytest.raises(PrecisionExhausted):
                    restrict_to_units(mu, max(bound, 0) + 1)
                for nu in (1, 2):
                    q = p ** nu
                    bound = math.ceil(Fraction(order, q // p * (p - 1)) - nu)
                    for target in range(1, bound + 1):
                        for a in range(q):
                            d = z - a  # z ≡ a mod p^nu: p^nu divides z - a in Z_p
                            want = int(d.numerator * pow(d.denominator, -1, q) % q == 0)
                            assert self.congruent(cell_mass(mu, a, nu, target), want, p,
                                                  target), (z, order, nu, target, a)
                        compared += q
                    with pytest.raises(PrecisionExhausted):
                        cell_mass(mu, 0, nu, max(bound, 0) + 1)
        assert compared > 900  # 12 650 comparisons over the four primes

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_restriction_refusal_names_the_largest_target(self, p):
        # the refusal names floor((order - 1)/(p - 1)) - 1: accepted when it
        # is a target at all, and one more is refused
        for order in range(2, 41):
            mu = self.truncated_dirac(Fraction(-1), p, order)
            with pytest.raises(PrecisionExhausted) as refused:
                restrict_to_units(mu, order)
            best = int(re.search(r"at most (-?\d+)$", str(refused.value)).group(1))
            assert best == (order - 1) // (p - 1) - 1
            if best >= 1:
                assert restrict_to_units(mu, best).order >= 1
            with pytest.raises(PrecisionExhausted if best + 1 >= 1 else InvalidInput):
                restrict_to_units(mu, best + 1)


class TestIntegrateStep:
    def test_constant_gives_total_mass(self):
        rng = random.Random(9)
        mu = random_finite_measure(rng, 5)
        assert integrate_step(mu, [1] * 5) == mu.mahler[0]

    def test_unit_indicator_on_unit_dirac(self):
        mu = dirac(2, 5, 8)
        phi = [0] + [1] * 4
        assert integrate_step(mu, phi) == 1

    def test_residue_evaluation(self):
        p = 5
        for z in (1, 2, 3, 4, 6, 7):
            mu = dirac(z, p, 10)
            phi = list(range(p))
            assert integrate_step(mu, phi) == z % p

    def test_bad_length(self):
        with pytest.raises(InvalidInput):
            integrate_step(dirac(1, 5, 4), [1, 2, 3])


class TestPushforward:
    def test_dirac_times_dirac(self):
        mu = mult_pushforward(dirac(2, 7, 8), dirac(3, 7, 8), 12)
        target = dirac(6, 7, 13)
        assert mu.mahler == target.mahler[:mu.order]
        assert mu.finite

    def test_moments_multiply(self):
        rng = random.Random(10)
        for p in (3, 5, 7):
            mu1 = random_finite_measure(rng, p, max_len=5)
            mu2 = random_finite_measure(rng, p, max_len=5)
            r_max = mu1.support_degree() * mu2.support_degree() + 2
            prod = mult_pushforward(mu1, mu2, r_max)
            for r in range(r_max + 1):
                assert moments(prod, r) == Fraction(moments(mu1, r)) * Fraction(moments(mu2, r))

    def test_dirac_scaling_law(self):
        rng = random.Random(11)
        p = 5
        mu1 = random_finite_measure(rng, p, max_len=5)
        z = 3
        prod = mult_pushforward(mu1, dirac(z, p, 6), 8)
        for r in range(9):
            assert moments(prod, r) == Fraction(moments(mu1, r)) * z ** r

    def test_restriction_compatibility_exact(self):
        rng = random.Random(12)
        for p in (3, 5):
            for _ in range(10):
                mu1 = random_finite_measure(rng, p, max_len=5)
                mu2 = random_finite_measure(rng, p, max_len=5)
                r_max = mu1.support_degree() * mu2.support_degree()
                lhs = restrict_to_units(mult_pushforward(mu1, mu2, r_max))
                rhs = mult_pushforward(restrict_to_units(mu1),
                                       restrict_to_units(mu2), r_max)
                for r in range(r_max + 1):
                    assert moments(lhs, r) == moments(rhs, r)


class TestPairingMeasure:
    def test_single_pair_reduces_to_pushforward(self):
        rng = random.Random(13)
        p = 7
        mu1 = random_finite_measure(rng, p, max_len=4)
        mu2 = random_finite_measure(rng, p, max_len=4)
        paired = pairing_measure([(mu1, mu2)], 6)
        pushed = mult_pushforward(mu1, mu2, 6)
        for r in range(7):
            assert moments(paired, r) == moments(pushed, r)

    def test_all_dirac_one(self):
        p = 5
        pairs = [(dirac(1, p, 4), dirac(1, p, 4))] * 3
        mu = pairing_measure(pairs, 6)
        assert mu.mahler[:2] == (1, 1) and all(a == 0 for a in mu.mahler[2:])

    def test_inverse_diracs_average_to_dirac_one(self):
        p = 7
        pairs = [(dirac(z, p, 10), dirac(Fraction(1, z), p, 10))
                 for z in (1, 2, 3)]
        mu = pairing_measure(pairs, 8)
        for r in range(9):
            assert moments(mu, r) == 1

    def test_padic_h_divisible_by_p_rejected(self):
        p = 3
        z = PadicScalar.from_int(2, p, 8)
        mu = dirac(z, p, 6)
        with pytest.raises(InvalidInput):
            pairing_measure([(mu, mu)] * 3, 4)


class TestAtomRoute:
    """`pairing_measure` and `mult_pushforward` of finite exact measures push
    the atoms forward while every product atom Z is at most r_max, and take
    the moments past it; the oracle is the moment route through the public
    `moments` and `mahler_from_moments`: the same values, types and
    `finite` flags, or the same refusal at the same n."""

    @staticmethod
    def moment_route(pairs, r_max):
        p, h = pairs[0][0].prime, len(pairs)
        b = [exact(Fraction(sum(moments(m1, r) * moments(m2, r) for m1, m2 in pairs), h))
             for r in range(r_max + 1)]
        return mahler_from_moments(b, p)

    @staticmethod
    def outcome(fn, *args):
        """(typed coefficients, finite flag), or the error and its message."""
        try:
            mu = fn(*args)
        except InvalidInput as exc:
            return InvalidInput, str(exc)
        return [typed(a) for a in mu.mahler], mu.finite

    @staticmethod
    def measure(rng, p, fractions):
        dens = [d for d in (1, 2, 4, 5, 7, 11) if d % p] if fractions else [1]
        return Measure(p, [exact(Fraction(rng.randint(-9, 9), rng.choice(dens)))
                           for _ in range(rng.randint(1, 7))], finite=True)

    @staticmethod
    def top_atom(pairs):
        """The largest product m·n of nonzero atoms over the pairs (-1 if none)."""
        def atoms(mu):
            return [m for m, c in enumerate(plus_basis(mu)) if c]
        return max((m * n for m1, m2 in pairs for m in atoms(m1) for n in atoms(m2)),
                   default=-1)

    def test_against_the_moment_route(self):
        rng = random.Random("atom route")
        seen = set()
        for _ in range(150):
            p = rng.choice((2, 3, 5))
            fractions = rng.randrange(2) == 0
            h = rng.choice((1, 2, 3, 4, p))
            pairs = [(self.measure(rng, p, fractions), self.measure(rng, p, fractions))
                     for _ in range(h)]
            Z = self.top_atom(pairs)
            for r_max in (0, rng.randint(1, 12), Z - 1, Z, Z + 3):
                if r_max < 0:
                    continue
                got = self.outcome(pairing_measure, pairs, r_max)
                assert got == self.outcome(self.moment_route, pairs, r_max)
                if h == 1:
                    mu1, mu2 = pairs[0]
                    finite = mu1.support_degree() * mu2.support_degree() <= r_max
                    want = got if got[0] is InvalidInput else (got[0], finite)
                    assert self.outcome(mult_pushforward, mu1, mu2, r_max) == want
                seen.add(("h > 1", h > 1))
                seen.add(("refused", got[0] is InvalidInput, h % p == 0))
                seen.add(("Fraction", fractions))
                seen.add(("Z vs r_max", (Z > r_max) - (Z < r_max)))
        assert {("h > 1", True), ("h > 1", False), ("refused", True, True),
                ("refused", False, True), ("Fraction", True), ("Fraction", False),
                ("Z vs r_max", 1), ("Z vs r_max", 0), ("Z vs r_max", -1)} <= seen

    def test_refusal_for_h_divisible_by_p_matches(self):
        # δ1, δ2 and δ4 averaged over h = 3 = p: a_1 = 7/3
        p = 3
        one, two = dirac(1, p, 2), dirac(2, p, 3)
        pairs = [(one, one), (one, two), (two, two)]
        message = ("non-integral Mahler coefficient at n=1: "
                   "moments do not define a bounded measure")
        for r_max in (1, 4, 9):
            for route in (pairing_measure, self.moment_route):
                with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
                    route(pairs, r_max)
        assert pairing_measure(pairs, 0).mahler == (1,)

    def test_finite_pushforward_takes_no_moments(self, monkeypatch):
        from mahler import measure

        mu1, mu2 = self.measure(random.Random(5), 5, True), dirac(3, 5, 4)
        want = mult_pushforward(mu1, mu2, 30)

        def refuse(*args):
            raise AssertionError("a moment was taken")
        monkeypatch.setattr(measure, "moments", refuse)
        monkeypatch.setattr(measure, "mahler_from_moments", refuse)
        got = mult_pushforward(mu1, mu2, 30)
        assert got.mahler == want.mahler and got.finite == want.finite

    def test_r_max_far_past_the_top_atom(self):
        # one atom, 3·3 = 9, and then zeros up to r_max
        mu = mult_pushforward(dirac(3, 5, 4), dirac(3, 5, 4), 800)
        assert mu.mahler == dirac(9, 5, 801).mahler and mu.finite

    def test_a_product_atom_past_r_max_takes_the_moment_route(self, monkeypatch):
        # dense order-40 measures: the top atom 39·39 is far past r_max = 39,
        # where the atom route would shift 1522 atoms and the moments cost r_max·K
        from mahler import measure

        rng = random.Random("past r_max")
        mu1, mu2 = (Measure(3, [rng.randint(-9, 9) for _ in range(39)] + [1], finite=True)
                    for _ in range(2))

        def refuse(*args):
            raise AssertionError("the atom route was taken")
        monkeypatch.setattr(measure, "_paired_atoms", refuse)
        for r_max in (0, 5, 39):
            want = self.moment_route([(mu1, mu2)], r_max)
            assert mult_pushforward(mu1, mu2, r_max).mahler == want.mahler
            assert pairing_measure([(mu1, mu2), (mu2, mu2)], r_max).mahler == \
                self.moment_route([(mu1, mu2), (mu2, mu2)], r_max).mahler
        # one pair within r_max does not carry another past it
        assert pairing_measure([(dirac(1, 3, 2), dirac(1, 3, 2)), (mu1, mu2)], 39).mahler == \
            self.moment_route([(dirac(1, 3, 2), dirac(1, 3, 2)), (mu1, mu2)], 39).mahler

    def test_atoms_are_read_up_to_the_support_degree(self, monkeypatch):
        # a Dirac mass at 2 stored to order 3000: its atoms need a_0..a_2 alone
        from mahler import measure

        orders = []

        def recorded(mu):
            orders.append(mu.order)
            return plus_basis(mu)
        monkeypatch.setattr(measure, "plus_basis", recorded)
        mu = Measure(5, dirac(2, 5, 3).mahler + (0,) * 2997, finite=True)
        got = mult_pushforward(mu, mu, 4)
        assert orders == [3, 3]
        assert got.mahler == dirac(4, 5, 5).mahler and got.finite


class TestRefusalMessages:
    def test_pairing_measure_prime_mismatch(self):
        with pytest.raises(InvalidInput, match="^prime mismatch$"):
            pairing_measure([(dirac(1, 3, 4), dirac(1, 3, 4)),
                             (dirac(1, 3, 4), dirac(1, 5, 4))], 3)

    def test_dirac_prime_mismatch(self):
        with pytest.raises(InvalidInput, match="^prime mismatch$"):
            dirac(PadicScalar.from_int(2, 3, 5), 5, 4)

    def test_mahler_from_no_moments(self):
        with pytest.raises(InvalidInput, match="^need at least the 0-th moment$"):
            mahler_from_moments([], 3)

    def test_non_exact_scalar_types_are_refused(self):
        # a float has no route-independent reading: it is refused where it enters
        with pytest.raises(InvalidInput, match=r"^Mahler coefficient 0\.5 is not an int, "
                                               "Fraction or PadicScalar$"):
            Measure(3, [0.5])
        with pytest.raises(InvalidInput, match=r"^moment 1\.0 is not an int, "
                                               "Fraction or PadicScalar$"):
            mahler_from_moments([1.0], 3)
        with pytest.raises(InvalidInput, match="^Mahler coefficient '1' is not"):
            from_plus_basis([PadicScalar.from_int(1, 3, 4), "1"], 3, True)
        with pytest.raises(InvalidInput, match=r"^Mahler coefficient 0\.1 is not"):
            restrict_to_units(Measure(3, [0.1] * 12), 2)

    def test_scale_refuses_a_scalar_of_another_type(self):
        # the same refusal for exact and PadicScalar coefficients
        for mu in (dirac(1, 3, 4), dirac(PadicScalar.from_int(1, 3, 5), 3, 4)):
            for scalar, shown in ((0.1, r"0\.1"), ("2", "'2'"), (None, "None")):
                with pytest.raises(InvalidInput, match=f"^scalar {shown} is not an int, "
                                                       "Fraction or PadicScalar$"):
                    mu.scale(scalar)
        assert dirac(1, 3, 4).scale(True) == dirac(1, 3, 4)  # a bool is an int

    def test_targets_levels_and_residues_must_be_ints(self):
        # a float target once gave 0 + O(7^1.5), a bool target was stored as
        # the precision True, and a float level gave a mass
        from mahler.heckechar import admissible_embedding, avatar_measure_family, characters
        from mahler.heckechar import class_group
        G = class_group(-23)
        chars = characters(G)
        member = avatar_measure_family(chars[0], chars[1], admissible_embedding(G, 7, 6), 16)[1]
        truncated = dirac(PadicScalar.from_int(2, 3, 8), 3, 12)
        finite = dirac(2, 3, 4)
        for mu in (member, truncated, finite):
            for target in (1.5, True, False, 2.0, Fraction(2), "2"):
                shown = re.escape(repr(target))
                with pytest.raises(InvalidInput, match=f"^target precision {shown} is not an int$"):
                    restrict_to_units(mu, target)
                with pytest.raises(InvalidInput, match=f"^target precision {shown} is not an int$"):
                    cell_mass(mu, 1, 1, target)
                with pytest.raises(InvalidInput, match=f"^target precision {shown} is not an int$"):
                    integrate_step(mu, [1] * mu.prime, target)
            for a, nu, shown in ((0, 1.5, r"level nu 1\.5"), (0, True, "level nu True"),
                                 (2.0, 1, r"residue 2\.0"), (True, 1, "residue True"),
                                 (None, 1, "residue None"), (0.5, 0, r"residue 0\.5")):
                with pytest.raises(InvalidInput, match=f"^{shown} is not an int$"):
                    cell_mass(mu, a, nu, 1)
        # the type checks come first; the checks after them keep their messages
        with pytest.raises(InvalidInput, match=r"^target precision 1\.5 is not an int$"):
            cell_mass(finite, 3, 0, 1.5)
        with pytest.raises(InvalidInput, match=r"^target precision 1\.5 is not an int$"):
            integrate_step(finite, [1, 2], 1.5)
        with pytest.raises(InvalidInput, match="^target precision must be >= 1$"):
            restrict_to_units(truncated, 0)
        with pytest.raises(InvalidInput, match="^level nu must be >= 1$"):
            cell_mass(finite, 3, 0, 1)
        with pytest.raises(InvalidInput, match="^residue out of range$"):
            cell_mass(finite, 3, 1, 1)
        with pytest.raises(InvalidInput, match="^phi must list its values"):
            integrate_step(finite, [1, 2], 1)
        with pytest.raises(InvalidInput, match="^restricting a truncated measure needs"):
            restrict_to_units(member)
        with pytest.raises(PrecisionExhausted):
            restrict_to_units(member, 10 ** 6)
        with pytest.raises(InvalidInput, match=r"^target precision 1000000\.0 is not an int$"):
            restrict_to_units(member, 1e6)

    @pytest.mark.parametrize("name, call", [
        ("order", lambda n: dirac(2, 3, n)),
        ("order", lambda n: dirac(PadicScalar.from_int(2, 3, 4), 3, n)),
        ("order", lambda n: binomial_series(2, n)),
        ("moment index", lambda n: moments(dirac(2, 3, 4), n)),
        ("r_max", lambda n: pairing_measure([(dirac(2, 3, 4), dirac(1, 3, 4))], n)),
        ("r_max", lambda n: mult_pushforward(dirac(2, 3, 4), dirac(2, 3, 4), n)),
        ("order", lambda n: partner_family(7, n)),
    ])
    def test_sizes_must_be_ints(self, name, call):
        # a float size once ended in a raw TypeError, or in a family member
        # whose order read 2.5; the type check comes before every other
        for n in (1.5, 2.0, 2.5, True, False, Fraction(2), "2", None):
            with pytest.raises(InvalidInput, match=f"^{name} {re.escape(repr(n))} is not an int$"):
                call(n)

    def test_finite_must_be_a_bool(self):
        # as the JSON decoder refuses it; a str once made a finite measure
        for finite in ("no", 1, 0, None, 1.0):
            shown = re.escape(repr(finite))
            with pytest.raises(InvalidInput, match=f"^finite {shown} is not a bool$"):
                Measure(3, [1, 2], finite)
            with pytest.raises(InvalidInput, match=f"^finite {shown} is not a bool$"):
                from_plus_basis([1, 2], 3, finite)

    def test_dirac_point_must_be_a_scalar(self):
        # 2.5 once gave the Dirac at 5/2, "x" a raw ValueError, None a TypeError
        for z in (2.5, 1.0, "x", None, [1], 1j):
            shown = re.escape(repr(z))
            with pytest.raises(InvalidInput, match=f"^z {shown} is not an int, Fraction "
                                                   "or PadicScalar$"):
                dirac(z, 3, 3)
        assert dirac(True, 3, 3) == dirac(1, 3, 3)  # a bool is an int

    def test_from_plus_basis_checks_the_list_as_a_measure(self):
        # the shift keeps p-integrality both ways, so the list is checked before it
        with pytest.raises(InvalidInput, match="^coefficient prime mismatch$"):
            from_plus_basis([PadicScalar.from_int(1, 3, 4), PadicScalar.from_int(1, 5, 4)],
                            3, True)
        with pytest.raises(InvalidInput, match="^Mahler coefficient with negative valuation"):
            from_plus_basis([PadicScalar.from_int(1, 3, 4), Fraction(1, 3)], 3, True)
        with pytest.raises(InvalidInput, match="^a measure needs at least one"):
            from_plus_basis([], 3, True)


class TestBoundedness:
    def test_all_ops_keep_integrality(self):
        rng = random.Random(14)
        p = 5
        mu1 = random_finite_measure(rng, p)
        mu2 = random_finite_measure(rng, p)
        outputs = [restrict_to_units(mu1),
                   mult_pushforward(mu1, mu2, 6),
                   pairing_measure([(mu1, mu2), (mu2, mu1)], 6)]
        for out in outputs:
            for a in out.mahler:
                assert rational_valuation(a, p) >= 0 if a else True

    def test_distribution_rejected(self):
        with pytest.raises(InvalidInput):
            Measure(5, [Fraction(1, 5)])


class TestPlusBasisInternals:
    def test_plus_basis_of_dirac_is_delta(self):
        c = plus_basis(dirac(4, 7, 9))
        assert c[4] == 1 and all(x == 0 for i, x in enumerate(c) if i != 4)


def typed(x):
    """A value with its type: (type, value), or (PadicScalar, valuation, unit,
    precision) for a p-adic scalar."""
    if isinstance(x, PadicScalar):
        return (PadicScalar, x.valuation, x.unit, x.precision)
    return (type(x), x)


class TestScalarRule:
    """Exact zeros (int/Fraction 0 and the exact PadicScalar zero) drop out of
    sums, an inexact zero keeps its precision, and an integral rational comes
    back as an int."""

    p = 5
    EXACT_ZERO = (PadicScalar, INF, 0, INF)

    def mixed(self, with_inexact_zero):
        second = PadicScalar.zero(self.p, 3) if with_inexact_zero \
            else PadicScalar.zero(self.p)
        return Measure(self.p, [1, second, 2, PadicScalar.zero(self.p)], finite=True)

    def test_moments(self):
        mu, nu = self.mixed(False), self.mixed(True)
        assert [typed(moments(mu, r)) for r in range(5)] == \
            [(int, 1), (int, 0), (int, 4), (int, 12), (int, 28)]
        assert [typed(moments(nu, r)) for r in range(5)] == \
            [(int, 1), (PadicScalar, INF, 0, 3), (PadicScalar, 0, 4, 3),
             (PadicScalar, 0, 12, 3), (PadicScalar, 0, 28, 3)]

    def test_restrict_to_units(self):
        assert [typed(a) for a in restrict_to_units(self.mixed(False)).mahler] == \
            [(int, -2), (int, 0), (int, 2), (int, 0)]
        assert [typed(a) for a in restrict_to_units(self.mixed(True)).mahler] == \
            [(PadicScalar, 0, 123, 3), (PadicScalar, INF, 0, 3), (int, 2), (int, 0)]

    def test_cell_mass(self):
        mu, nu = self.mixed(False), self.mixed(True)
        assert [typed(cell_mass(mu, a, 1)) for a in range(5)] == \
            [(int, 3), (int, -4), (int, 2), (int, 0), (int, 0)]
        assert [typed(cell_mass(nu, a, 1)) for a in range(5)] == \
            [(PadicScalar, 0, 3, 3), (PadicScalar, 0, 121, 3), (int, 2), (int, 0),
             (int, 0)]

    def test_mahler_from_moments(self):
        b = [1, PadicScalar.zero(self.p), 2, PadicScalar.zero(self.p, 3)]
        assert [typed(a) for a in mahler_from_moments(b, self.p).mahler] == \
            [(int, 1), (int, 0), (int, 1), (PadicScalar, 0, 124, 3)]
        b = [1, Fraction(3), Fraction(9)]
        assert [typed(a) for a in mahler_from_moments(b, self.p).mahler] == \
            [(int, 1), (int, 3), (int, 3)]

    def test_pairing_measure(self):
        mu, nu = self.mixed(False), self.mixed(True)
        one = Measure(self.p, [1], finite=True)
        assert [typed(a) for a in pairing_measure([(mu, mu), (mu, one)], 3).mahler] == \
            [(int, 1), (int, 0), (int, 4), (int, 8)]
        assert [typed(a) for a in pairing_measure([(mu, nu), (nu, mu)], 3).mahler] == \
            [(int, 1), (int, 0), (PadicScalar, 0, 8, 3), (PadicScalar, 0, 16, 3)]

    def test_scale(self):
        mu = self.mixed(False)
        assert [typed(a) for a in mu.scale(0).mahler] == [(int, 0)] * 4
        assert [typed(a) for a in mu.scale(3).mahler] == \
            [(int, 3), self.EXACT_ZERO, (int, 6), self.EXACT_ZERO]

    def test_dirac_at_exact_zero(self):
        # C(0, n) = 0 exactly for n >= 1: 1 + O(p), then exact zeros
        for order in (1, 2, 3, 4, 12):
            mu = dirac(PadicScalar.zero(self.p), self.p, order)
            assert [typed(a) for a in mu.mahler] == \
                [(PadicScalar, 0, 1, 1)] + [self.EXACT_ZERO] * (order - 1)
            assert not mu.finite


class TestKernelsAgainstTermwiseSums:
    """The row-wise kernels against the term-by-term sums they replace, on
    exact, p-adic and mixed coefficients: same values, same types, same
    precisions."""

    @staticmethod
    def moment(mu, r):
        return exact(sum(stirling_second(r, n) * math.factorial(n) * mu.mahler[n]
                         for n in range(min(r, mu.order - 1) + 1)))

    @staticmethod
    def from_moments(b):
        rows = falling_factorial_rows_from_scratch(len(b))
        return [exact(exact(sum(rows[n][i] * b[i] for i in range(n + 1)))
                      * Fraction(1, math.factorial(n)))
                for n in range(len(b))]

    @staticmethod
    def plus(mu):
        K = mu.order
        return [exact(sum((-1) ** (k - m) * math.comb(k, m) * mu.mahler[k]
                          for k in range(m, K)))
                for m in range(K)]

    @staticmethod
    def from_plus(c):
        K = len(c)
        return [exact(sum(math.comb(m, n) * c[m] for m in range(n, K)))
                for n in range(K)]

    @staticmethod
    def cell(mu, a, q):
        total = 0
        for k in range(mu.order):
            w = sum((-1) ** (k - m) * math.comb(k, m) for m in range(a % q, k + 1, q))
            total += w * mu.mahler[k]
        return exact(total)

    @classmethod
    def restrict(cls, mu, precision=None):
        """Restriction as the term-by-term sums: the (1+T)^m coefficients
        with p | m replaced by int 0, back to Mahler coefficients, and for
        a truncated measure the first n_out of them capped at precision."""
        p = mu.prime
        c = cls.plus(mu)
        mahler = cls.from_plus([0 if m % p == 0 else x for m, x in enumerate(c)])
        if mu.finite:
            return mahler
        n_out = mu.order - (precision + 1) * (p - 1)
        if n_out < 1:
            raise PrecisionExhausted("order does not support the precision")
        return [a + PadicScalar.zero(p, precision) for a in mahler[:n_out]]

    @staticmethod
    def scalar(rng, kind, p):
        if kind == "bool":  # ints beside bools, which moments read by rows, not recurrences
            return rng.choice([True, False, rng.randint(-10 ** 4, 10 ** 4)])
        if kind == "zeros":  # p-adic, with int 0 beside exact and inexact p-adic zeros
            if rng.randrange(4) == 0:
                return 0
            kind = "padic"
        if kind == "int":
            return rng.randint(-10 ** 4, 10 ** 4)
        if kind == "fraction":
            return Fraction(rng.randint(-50, 50),
                            rng.choice([d for d in (1, 2, 3, 4, 5, 7, 11) if d % p]))
        choice = rng.randrange(5)
        if choice == 0:
            return PadicScalar.zero(p)
        if choice == 1:
            return PadicScalar.zero(p, rng.randint(1, 6))
        return PadicScalar(p, rng.randint(0, 3), rng.randint(1, 10 ** 4), rng.randint(4, 9))

    def measures(self, kind):
        rng = random.Random(kind)
        for p in (2, 3, 5, 7):
            for order in (1, 2, 5, 13, 30):
                kinds = ["int", "fraction", "padic"] if kind == "mixed" else [kind]
                yield Measure(p, [self.scalar(rng, rng.choice(kinds), p)
                                  for _ in range(order)], finite=True)

    KINDS = ["int", "fraction", "padic", "zeros", "mixed", "bool"]

    @staticmethod
    def outcome(fn, *args):
        """typed(...) of the result (each entry of a list or tuple), or the
        type of the error raised."""
        try:
            value = fn(*args)
        except (InvalidInput, PrecisionExhausted) as exc:
            return type(exc)
        if isinstance(value, Measure):
            value = value.mahler
        return [typed(x) for x in value] if isinstance(value, (list, tuple)) \
            else typed(value)

    @pytest.mark.parametrize("kind", KINDS)
    def test_moments(self, kind):
        for mu in self.measures(kind):
            for r in range(mu.order + 3):
                assert self.outcome(moments, mu, r) == self.outcome(self.moment, mu, r)

    @pytest.mark.parametrize("kind", KINDS)
    def test_mahler_from_moments(self, kind):
        rng = random.Random(kind)
        for p in (2, 3, 5, 7):
            for size in (1, 2, 6, 12):
                kinds = ["int", "fraction", "padic"] if kind == "mixed" else [kind]
                factorial = math.factorial(size)
                # p-integral multiples of size! keep every Mahler coefficient
                # p-integral
                b = [self.scalar(rng, rng.choice(kinds), p) * factorial
                     for _ in range(size)]
                assert self.outcome(mahler_from_moments, b, p) == \
                    self.outcome(self.from_moments, b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_plus_basis_and_back(self, kind):
        for mu in self.measures(kind):
            assert self.outcome(plus_basis, mu) == self.outcome(self.plus, mu)
            c = mu.mahler
            assert self.outcome(from_plus_basis, c, mu.prime, True) == \
                self.outcome(self.from_plus, c)

    @pytest.mark.parametrize("kind", KINDS)
    def test_cell_mass(self, kind):
        for mu in self.measures(kind):
            p = mu.prime
            for nu in (1, 2):
                for a in range(p ** nu):
                    assert self.outcome(cell_mass, mu, a, nu) == \
                        self.outcome(self.cell, mu, a, p ** nu)

    @pytest.mark.parametrize("kind", KINDS)
    def test_cell_mass_deep_levels(self, kind):
        # p^nu at, between and far above the order: the folded row is kept
        # at length min(p^nu, order), so nu = 40 costs no more than nu = 3
        for mu in self.measures(kind):
            p = mu.prime
            for nu in (3, 4, 12, 40):
                q = p ** nu
                residues = {0, 1, 5, 29, 30, mu.order - 1, mu.order, q - 1, q - 30}
                for a in sorted(r for r in residues if 0 <= r < q):
                    assert self.outcome(cell_mass, mu, a, nu) == \
                        self.outcome(self.cell, mu, a, q)

    @pytest.mark.parametrize("kind", KINDS)
    def test_restriction(self, kind):
        # the kept (1+T)^m coefficients hold int 0 at every m divisible by p
        for mu in self.measures(kind):
            assert self.outcome(restrict_to_units, mu) == self.outcome(self.restrict, mu)
            truncated = Measure(mu.prime, mu.mahler, finite=False)
            for precision in (1, 2, 4):
                assert self.outcome(restrict_to_units, truncated, precision) == \
                    self.outcome(self.restrict, truncated, precision)

    def test_mixed_rows_take_the_residue_rule(self):
        # each exact entry counts as known to infinite precision: Σ c·x mod
        # p^P, P the least prec(x) + v_p(c) over the PadicScalar terms with
        # c ≠ 0 and a finite precision, exact when there is no such term
        rng = random.Random("mixed rows")
        for mu in self.measures("mixed"):
            p, xs = mu.prime, mu.mahler
            for _ in range(6):
                row = [rng.choice([0, 1, -1, p, p ** 3, rng.randint(-99, 99)]) for _ in xs]
                total, P = 0, INF
                for c, x in zip(row, xs):
                    if type(x) is not PadicScalar:
                        total += c * x
                    elif c and x.precision is not INF:
                        total += c * x.lift()
                        P = min(P, x.precision + rational_valuation(Fraction(c), p))
                want = exact(total) if P is INF else PadicScalar.from_rational(total, p, P)
                assert typed(exact(_dot(row, xs, None))) == typed(want), (row, xs)

    def test_dot_falls_back(self):
        # a negative valuation, a second prime or a nonzero exact number
        # sends the row through + and *, with its result or its error
        p = 5
        rows = [
            [PadicScalar(p, -1, 2, 3), PadicScalar(p, 0, 7, 4)],
            [PadicScalar(p, 0, 3, 4), PadicScalar(7, 0, 3, 4)],
            [PadicScalar(7, 0, 3, 4), PadicScalar(p, 0, 3, 4)],
            [PadicScalar.zero(7), PadicScalar(p, 0, 3, 4)],
            [PadicScalar(p, 0, 3, 4), 1],
            [PadicScalar(p, 0, 3, 4), Fraction(1, 2)],
            [PadicScalar(p, 0, 1, 2), 25],
            [0, PadicScalar.zero(p)],
            [PadicScalar.zero(p, 2), 0],
        ]
        for xs in rows:
            for row in ([1, 1], [0, 3], [5, 10], [25, 0]):
                assert self.outcome(_dot, row, xs, _residues(xs, p)) == \
                    self.outcome(lambda r, x: sum(map(operator.mul, r, x)), row, xs)


class TestExactRecurrences:
    """The recurrences that lists of ints and Fractions take -- one falling
    factor per Mahler coefficient, the Taylor shifts of the (1+T)^m basis and
    one set of folded Pascal rows per step integral -- against the row
    formulas of `TestKernelsAgainstTermwiseSums`: same values, same types,
    same refusals with the same messages."""

    SIZES = (1, 2, 7, 60)
    rows = TestKernelsAgainstTermwiseSums

    @staticmethod
    def outcome(fn, *args):
        """typed(...) of each entry of the result, or the error and its message."""
        try:
            value = fn(*args)
        except (InvalidInput, PrecisionExhausted) as exc:
            return type(exc), str(exc)
        if isinstance(value, Measure):
            value = value.mahler
        return [typed(x) for x in value] if isinstance(value, (list, tuple)) \
            else typed(value)

    def lists(self, kind):
        rng = random.Random(f"recurrence {kind}")
        for p in (2, 3, 5, 7):
            for size in self.SIZES:
                yield p, [self.rows.scalar(rng, kind, p) for _ in range(size)]

    @pytest.mark.parametrize("kind", ["int", "fraction"])
    def test_mahler_from_moments(self, kind):
        for p, xs in self.lists(kind):
            # p-integral multiples of K! keep every Mahler coefficient p-integral
            b = [x * math.factorial(len(xs)) for x in xs]
            got = self.outcome(mahler_from_moments, b, p)
            assert got == self.outcome(self.rows.from_moments, b)
            assert all(t in (int, Fraction) for t, _ in got)

    @pytest.mark.parametrize("kind", ["int", "fraction"])
    def test_non_integral_moments_refused_at_the_first_n(self, kind):
        # moments that are multiples of j! only: the row formula names the
        # first non-p-integral coefficient, the recurrence must stop there
        rng = random.Random(f"refusal {kind}")
        refused = set()
        for p, xs in self.lists(kind):
            b = [x * math.factorial(rng.randrange(len(xs))) for x in xs]
            want = self.rows.from_moments(b)
            bad = [n for n, a in enumerate(want) if Fraction(a).denominator % p == 0]
            got = self.outcome(mahler_from_moments, b, p)
            if bad:
                refused.add(bad[0])
                assert got == (InvalidInput, f"non-integral Mahler coefficient at n={bad[0]}: "
                               "moments do not define a bounded measure")
            else:
                assert got == [typed(a) for a in want]
        assert len(refused) > 2  # refusals at several depths, not only at n = 1

    @pytest.mark.parametrize("kind", ["int", "fraction"])
    def test_plus_basis_both_ways(self, kind):
        for p, xs in self.lists(kind):
            mu = Measure(p, xs, finite=True)
            assert self.outcome(plus_basis, mu) == self.outcome(self.rows.plus, mu)
            assert self.outcome(from_plus_basis, xs, p, True) == \
                self.outcome(self.rows.from_plus, xs)

    @staticmethod
    def cell_sum(mu, phi, nu, precision):
        return exact(sum(phi[a] * cell_mass(mu, a, nu, precision) for a in range(len(phi))))

    @pytest.mark.parametrize("kind", ["int", "fraction"])
    def test_integrate_step_on_a_finite_measure(self, kind):
        rng = random.Random(f"step {kind}")
        for p, xs in self.lists(kind):
            mu = Measure(p, xs, finite=True)
            for nu in (1, 2, 3):
                phi = [rng.randint(-5, 5) for _ in range(p ** nu)]
                assert self.outcome(integrate_step, mu, phi) == \
                    self.outcome(self.cell_sum, mu, phi, nu, None)

    def test_integrate_step_on_a_truncated_padic_measure(self):
        # at the level-nu cell bound and one above it, where every cell refuses
        rng = random.Random("step padic")
        for p, xs in self.lists("zeros"):
            mu = Measure(p, xs, finite=False)
            for nu in (1, 2):
                phi = [rng.randint(-5, 5) for _ in range(p ** nu)]
                bound = cell_tail_valuation(mu.order, nu, p)
                for precision in (bound, bound + 1, None):
                    assert self.outcome(integrate_step, mu, phi, precision) == \
                        self.outcome(self.cell_sum, mu, phi, nu, precision)


class TestResiduePathsAgainstOperators:
    """The integer-residue paths of `Measure.scale`, `restrict_to_units`,
    `cell_mass` and `pairing_measure` against the same
    operations taken in PadicScalar `+`, `*` and `scale`, entry by entry, on
    random exact, p-adic and mixed coefficients for p in {3, 5, 7}, with
    zeros known mod p^N, exact zeros and refused targets: the same value,
    type, valuation and stated precision, or the same exception type."""

    sums = TestKernelsAgainstTermwiseSums
    outcome = staticmethod(TestKernelsAgainstTermwiseSums.outcome)
    KINDS = ["exact", "padic", "mixed", "avatar"]

    @staticmethod
    def scalar(rng, kind, p):
        if kind == "exact":
            return rng.choice([0, rng.randint(-10 ** 4, 10 ** 4),
                               rng.choice([-1, 1]) * p ** rng.randint(1, 9),
                               Fraction(rng.randint(-50, 50),
                                        rng.choice([d for d in (1, 2, 4, 11, 13) if d % p]))])
        choice = rng.randrange(6)
        if choice == 0:
            return PadicScalar.zero(p)
        if choice == 1:
            return PadicScalar.zero(p, rng.randint(1, 6))
        if choice == 2:
            return 0
        return PadicScalar(p, rng.randint(0, 3), rng.randint(1, 10 ** 4), rng.randint(4, 12))

    def measure(self, rng, p, kind, order, finite=False):
        if kind == "avatar":  # a Dirac mass at a unit known mod p^P, scaled by a unit
            P = rng.randint(2, 8)
            Z = rng.randrange(p ** P // p) * p + rng.randrange(1, p)
            try:  # C(Z, n) = 0 for n > Z is known mod p^(P - ...), refused below p^1
                mu = dirac(PadicScalar.from_int(Z, p, P), p, order)
            except PrecisionExhausted:
                return self.measure(rng, p, kind, order)
            return mu.scale(PadicScalar.from_int(rng.randrange(1, p ** P), p, P)) \
                if rng.randrange(2) else mu
        kinds = ["exact", "padic"] if kind == "mixed" else [kind]
        return Measure(p, [self.scalar(rng, rng.choice(kinds), p) for _ in range(order)],
                       finite=finite)

    def cases(self, kind, count=40):
        rng = random.Random(f"residues:{kind}")
        for _ in range(count):
            p = rng.choice((3, 5, 7))
            yield rng, p, self.measure(rng, p, kind, rng.choice((1, 2, 5, 9, 13, 20, 30)),
                                       finite=kind != "avatar" and rng.randrange(4) == 0)

    # -- the operator path ------------------------------------------------------

    @staticmethod
    def scale(mu, s):
        return Measure(mu.prime, [exact(s * a) for a in mu.mahler], finite=mu.finite)

    @classmethod
    def restrict(cls, mu, precision):
        if not mu.finite and (precision is None or precision < 1):
            cls.sums.plus(mu)  # the transform's own refusal comes first
            raise InvalidInput("no valid target precision")
        return cls.sums.restrict(mu, precision)

    @classmethod
    def cell(cls, mu, a, nu, precision):
        p = mu.prime
        if not mu.finite:
            if precision is None:
                raise InvalidInput("needs a target precision")
            if precision > cell_tail_valuation(mu.order, nu, p):
                raise PrecisionExhausted("above the tail bound")
        total = cls.sums.cell(mu, a, p ** nu)
        return total if mu.finite else total + PadicScalar.zero(p, precision)

    @staticmethod
    def from_moments(b, p):
        coeffs, rows = [], falling_factorial_rows_from_scratch(len(b))
        for n in range(len(b)):
            a = exact(exact(sum(rows[n][i] * b[i] for i in range(n + 1)))
                      * Fraction(1, math.factorial(n)))
            integral = a.is_zero or a.valuation >= 0 if isinstance(a, PadicScalar) \
                else Fraction(a).denominator % p != 0
            if not integral:
                raise InvalidInput("non-integral Mahler coefficient")
            coeffs.append(a)
        return Measure(p, coeffs, finite=False)

    @classmethod
    def pairing(cls, pairs, r_max):
        p, h = pairs[0][0].prime, len(pairs)
        if h % p == 0 and any(isinstance(a, PadicScalar) for pair in pairs
                              for mu in pair for a in mu.mahler):
            raise InvalidInput("class count divisible by p")

        def moment(mu, r):
            if r >= mu.order and not mu.finite:
                raise InvalidInput("moment beyond the order")
            return cls.sums.moment(mu, r)
        b = [exact(sum(moment(m1, r) * moment(m2, r) for m1, m2 in pairs) * Fraction(1, h))
             for r in range(r_max + 1)]
        return cls.from_moments(b, p)

    @staticmethod
    def atomless(mu):
        """µ through `Measure`, which keeps no atoms: a p-adic Dirac mass
        then takes the residue route, not the more precise atom route."""
        return Measure(mu.prime, mu.mahler, mu.finite)

    # -- the comparisons --------------------------------------------------------

    @pytest.mark.parametrize("kind", KINDS)
    def test_scale(self, kind):
        for rng, p, mu in self.cases(kind):
            padic = PadicScalar(p, rng.randint(-1, 3), rng.randint(1, 999), rng.randint(4, 9))
            for s in (padic, PadicScalar.zero(p, rng.randint(1, 5)), PadicScalar.zero(p),
                      PadicScalar(11, 0, 2, 3), rng.randint(-9, 9), Fraction(2, 11)):
                assert self.outcome(mu.scale, s) == self.outcome(self.scale, mu, s)

    @pytest.mark.parametrize("kind", KINDS)
    def test_restrict(self, kind):
        for rng, p, mu in self.cases(kind):
            mu = self.atomless(mu)
            for precision in (None, 0, 1, 2, 3, 5, 9):
                assert self.outcome(restrict_to_units, mu, precision) == \
                    self.outcome(self.restrict, mu, precision)

    @pytest.mark.parametrize("kind", KINDS)
    def test_cell_mass(self, kind):
        for rng, p, mu in self.cases(kind, 25):
            mu = self.atomless(mu)
            for nu in (1, 2):
                for precision in (None, -1, 0, 1, 2, 4, 12):
                    a = rng.randrange(p ** nu)
                    assert self.outcome(cell_mass, mu, a, nu, precision) == \
                        self.outcome(self.cell, mu, a, nu, precision)

    @pytest.mark.parametrize("kind", KINDS)
    def test_pairing_measure(self, kind):
        rng = random.Random(f"pairing:{kind}")
        for _ in range(30):
            p = rng.choice((3, 5, 7))
            order = rng.choice((2, 5, 9, 13))
            pairs = [(self.atomless(self.measure(rng, p, kind, order)),
                      self.atomless(self.measure(rng, p, kind, order)))
                     for _ in range(rng.randint(1, 4))]
            for r_max in (0, 3, 8):
                assert self.outcome(pairing_measure, pairs, r_max) == \
                    self.outcome(self.pairing, pairs, r_max)


def precision(x):
    return x.precision if isinstance(x, PadicScalar) else INF


class TestPadicDiracAtoms:
    """`dirac` of a PadicScalar z known mod p^P, P finite, is the atom
    measure (1 + O(p^P))·δ_z of `_avatar_member`, over
    `paper_oracles.dirac_cases()`."""

    @staticmethod
    def values(fn, *args):
        """The list of values fn returns, a measure's coefficients, or the
        exception type and message."""
        try:
            value = fn(*args)
        except (InvalidInput, PrecisionExhausted) as exc:
            return type(exc), str(exc)
        return list(value.mahler if isinstance(value, Measure) else
                    value if isinstance(value, tuple) else [value])

    def test_an_unbuilt_atom_measure_with_the_binomial_coefficients(self, monkeypatch):
        from mahler import measure

        def refuse(*args):
            raise AssertionError("binomial_series was called")
        monkeypatch.setattr(measure, "binomial_series", refuse)
        kinds = set()
        for z, p, order in dirac_cases():
            want = self.values(lambda: binomial_series(z, order).coeffs)
            try:
                mu = dirac(z, p, order)
            except PrecisionExhausted as exc:
                assert want == (PrecisionExhausted, str(exc)) and order > p ** z.precision
                kinds.add("refused")
                continue
            (c, w), = mu.atoms
            assert w is z and typed(c) == (PadicScalar, 0, 1, z.precision)
            assert type(mu._mahler) is list and mu.order == order and not mu.finite
            assert [typed(a) for a in mu.mahler] == [typed(a) for a in want]
            kinds.add("zero" if z.is_zero else "unit" if z.valuation == 0 else "non-unit")
        assert kinds == {"refused", "zero", "unit", "non-unit"}

    def test_atom_route_against_the_atomless_copy(self):
        """Restriction, cell masses, step integrals and pairings of each
        Dirac mass, and of its scalings by a p-adic unit and by p·k, agree
        with those of `Measure(p, mu.mahler)`, which has no atoms, mod the
        lower precision, and are never less precise; where they differ, the
        copy is refused with PrecisionExhausted."""
        rng, seen, last = random.Random("dirac atoms"), set(), {}
        partners = {p: partner_family(p)[1] for p in (3, 5, 7)}
        for z, p, order in dirac_cases(200):
            try:
                mu = dirac(z, p, order)
            except PrecisionExhausted:
                continue
            other, last[p] = last.get(p), mu
            unit = PadicScalar.from_int(rng.randrange(p ** 5 // p) * p + rng.randrange(1, p),
                                        p, rng.randint(1, 8))
            for subject in (mu, mu.scale(unit), mu.scale(p * rng.randrange(1, 50))):
                copy = Measure(p, subject.mahler)
                calls = [(restrict_to_units, t) for t in range(1, (order - 1) // (p - 1) + 1)]
                for t in range(1, 4):
                    calls += [(cell_mass, a, 1, t) for a in range(p)]
                    calls += [(cell_mass, z.lift() % p ** 2, 2, t),
                              (integrate_step, [rng.randint(-3, 3) for _ in range(p)], t)]
                pairs = [(subject, q, copy, Measure(p, q.mahler))
                         for q in (partners[p], other) if q is not None]
                for fn, *args in calls:
                    seen.add(self.check(self.values(fn, subject, *args),
                                        self.values(fn, copy, *args)))
                for s1, s2, c1, c2 in pairs:
                    for r_max in (0, 3, 8):
                        seen.add(self.check(self.values(pairing_measure, [(s1, s2)], r_max),
                                            self.values(pairing_measure, [(c1, c2)], r_max)))
        assert seen == {"same", "more precise", "newly valued"}

    @staticmethod
    def check(got, want) -> str:
        if type(want) is tuple:
            if got == want:
                return "same"
            assert want[0] is PrecisionExhausted and type(got) is list, (got, want)
            return "newly valued"
        assert type(got) is list and len(got) == len(want), (got, want)
        for g, w in zip(got, want):
            assert g == w and precision(g) >= precision(w), (got, want)
        return "same" if list(map(precision, got)) == list(map(precision, want)) \
            else "more precise"

    def test_the_factors_of_an_atom_are_both_padic_or_both_exact(self):
        """`_product`'s rule, over every kind of measure that carries atoms:
        p-adic Dirac masses, family members and their scalings."""
        from mahler.heckechar import avatar_measure_family
        measures = []
        for z, p, order in dirac_cases(120):
            try:
                measures.append(dirac(z, p, order))
            except PrecisionExhausted:
                pass
        for case in list(family_cases(60))[::3]:
            try:
                measures += avatar_measure_family(*case)
            except (InvalidInput, PrecisionExhausted):
                pass
        for mu in list(measures):
            p = mu.prime
            for scalar in (PadicScalar.from_int(p + 1, p, 4), PadicScalar.zero(p, 2), p * 7,
                           Fraction(p, 2), -1):
                try:
                    measures.append(mu.scale(scalar))
                except (InvalidInput, PrecisionExhausted):
                    pass
        atoms = [atom for mu in measures for atom in mu.atoms or ()]
        assert len(atoms) > 500
        for c, z in atoms:
            assert (type(c) is PadicScalar) == (type(z) is PadicScalar), (c, z)
