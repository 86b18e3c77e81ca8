import random
from fractions import Fraction

import pytest

import math
import operator

from mahler.errors import InvalidInput, PrecisionExhausted
from mahler.measure import (Measure, _dot, cell_mass, dirac, from_plus_basis,
                            integrate_step, mahler_from_moments, moments,
                            mult_pushforward, pairing_measure, plus_basis,
                            restrict_to_units)
from mahler.padic import (INF, PadicScalar, exact, rational_valuation,
                          stirling_first_signed, stirling_second)


def random_finite_measure(rng, p, max_len=8, spread=9):
    length = rng.randrange(1, max_len + 1)
    coeffs = [rng.randrange(-spread, spread + 1) for _ in range(length)]
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1
    return Measure(p, coeffs, finite=True)


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
        return [exact(exact(sum(stirling_first_signed(n, i) * b[i] for i in range(n + 1)))
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

    KINDS = ["int", "fraction", "padic", "zeros", "mixed"]

    @staticmethod
    def outcome(fn, *args):
        """typed(...) of the result (each entry of a list or tuple), or the error
        raised: adding an int of valuation >= a scalar's precision raises
        PrecisionExhausted in both versions."""
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
                assert self.outcome(_dot, row, xs, True) == \
                    self.outcome(lambda r, x: sum(map(operator.mul, r, x)), row, xs)
