import itertools
import math
import random
from fractions import Fraction

import pytest

from mahler import padic
from mahler.errors import InvalidInput, PrecisionExhausted
from mahler.padic import (INF, PadicScalar, TruncatedSeries, binomial_series,
                          exact, factorial_valuation, stirling_first_signed,
                          stirling_second)
from paper_oracles import rational_valuation


def xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


class TestScalarArith:
    def test_carry_case(self):
        a = PadicScalar.from_int(2, 5, 10)
        b = PadicScalar.from_int(3, 5, 10)
        s = a + b
        assert s.valuation == 1 and s.unit == 1

    def test_inverse_against_xgcd(self):
        # oracle: extended Euclid mod 125
        g, inv, _ = xgcd(2, 125)
        assert g == 1
        expected = inv % 125
        assert expected == 63
        got = PadicScalar.from_int(2, 5, 3).inverse()
        assert got.lift() == expected

    @pytest.mark.parametrize("p,n,prec", [(5, 7, 6), (3, 22, 8), (11, 160, 5)])
    def test_inverse_random_units(self, p, n, prec):
        x = PadicScalar.from_int(n, p, prec)
        assert (x * x.inverse()).lift() % p ** x.rel_precision == 1

    def test_zero_absorbs(self):
        z = PadicScalar.from_int(0, 7, 5)
        x = PadicScalar.from_int(3, 7, 5)
        assert (z * x).valuation is INF

    def test_prime_mismatch(self):
        with pytest.raises(InvalidInput):
            PadicScalar.from_int(1, 5, 3) + PadicScalar.from_int(1, 7, 3)

    def test_inv_of_zero(self):
        with pytest.raises(InvalidInput):
            PadicScalar.zero(5, 4).inverse()

    def test_negative_power(self):
        x = PadicScalar.from_int(2, 5, 4)
        y = x ** -2
        assert y.lift() == 469 and y.precision == 4 and y * x ** 2 == 1

    def test_exact_zero_edges(self):
        zero = PadicScalar.zero(5)
        assert repr(zero) == "0" and repr(PadicScalar.zero(5, 3)) == "0 + O(5^3)"
        with pytest.raises(InvalidInput, match="0\\^0 on an exact zero"):
            zero ** 0
        with pytest.raises(InvalidInput, match="division by zero"):
            PadicScalar.from_int(2, 5, 4) / 0
        cube = zero ** 3
        assert cube.is_zero and cube.precision is INF
        assert (zero == 3) is False and (zero == 0) is True
        with pytest.raises(TypeError):
            PadicScalar.from_int(2, 5, 4) / "2"

    def test_exact_zero_minus_a_rational(self):
        # subtraction is adding the negative, so it drops the exact zero as + does
        zero = PadicScalar.zero(5)
        for q in (3, Fraction(2, 7), Fraction(-1, 25)):
            assert zero - q == zero + (-q) == -q
            assert type(zero - q) is type(q)
            assert q - zero == q

    def test_p_integrality(self):
        assert padic.is_p_integral(Fraction(5, 3), 5)
        assert not padic.is_p_integral(Fraction(3, 5), 5)
        assert padic.is_p_integral(PadicScalar.from_int(10, 5, 4), 5)
        assert padic.is_p_integral(PadicScalar.zero(5, 2), 5)
        assert not padic.is_p_integral(PadicScalar.from_rational(Fraction(1, 5), 5, 4), 5)

    def test_sum_precision_is_min(self):
        a = PadicScalar.from_int(4, 3, 9)
        b = PadicScalar.from_int(5, 3, 4)
        assert (a + b).precision == 4

    def test_product_tracks_relative_precision(self):
        a = PadicScalar(3, 2, 1, 7)   # 9, rel prec 5
        b = PadicScalar(3, 1, 2, 3)   # 2*3, rel prec 2
        c = a * b
        assert c.valuation == 3 and c.rel_precision == 2

    def test_cancellation_gives_inexact_zero(self):
        a = PadicScalar.from_int(7, 5, 4)
        d = a - PadicScalar.from_int(7, 5, 4)
        assert d.is_zero and d.precision == 4

    def test_precision_zero_raises(self):
        with pytest.raises(PrecisionExhausted):
            PadicScalar(5, 3, 2, 3)
        for N in (0, -2):  # every rational's class mod p^N for N <= 0
            with pytest.raises(PrecisionExhausted, match="zero known to no precision"):
                PadicScalar.from_rational(27, 3, N)

    def test_exact_number_that_p_to_the_precision_divides(self):
        # 16 known mod 2^4 is the zero known mod 2^4, however it is built
        fields = [(x.prime, x.valuation, x.unit, x.precision) for x in (
            PadicScalar.from_rational(16, 2, 4), PadicScalar.from_int(16, 2, 4),
            PadicScalar(2, 0, 16, 4))]
        assert fields == [(2, INF, 0, 4)] * 3
        one = PadicScalar.from_int(1, 2, 4)
        for total, unit in ((one + 16, 1), (one - 16, 1), (16 + one, 1), (16 - one, 15),
                            (one + Fraction(48, 5), 1)):
            assert (total.valuation, total.unit, total.precision) == (0, unit, 4)
        assert PadicScalar.zero(2, 4) == 16 and 16 == PadicScalar.zero(2, 4)
        assert one == 17 and one != 3

    def test_exact_operand_of_a_scalar_known_to_nonpositive_precision(self):
        # 1/9 known mod 3^-1: an exact operand meets it at precision 1, so
        # sums keep precision -1, and a difference that vanishes mod 3^-1 is
        # equality, as for two such scalars
        x = PadicScalar.from_rational(Fraction(1, 9), 3, -1)
        for total, (v, unit) in ((x + 1, (-2, 1)), (x + 3, (-2, 1)), (1 - x, (-2, 2)),
                                 (x - Fraction(1, 3), (-2, 1)), (x + Fraction(1, 27), (-3, 4))):
            assert (total.valuation, total.unit, total.precision) == (v, unit, -1)
        assert x == Fraction(28, 9) and Fraction(28, 9) == x and x == x
        assert x == PadicScalar.from_rational(Fraction(4, 9), 3, -1)
        assert x != Fraction(2, 9) and x != 0
        with pytest.raises(PrecisionExhausted, match="zero known to no precision"):
            x - Fraction(28, 9)  # the difference itself is still refused

    def test_from_rational_of_an_int_is_from_int(self):
        rng = random.Random("from_rational")
        below = 0
        for _ in range(2000):
            p, N = rng.choice((2, 3, 5, 7, 11)), rng.randint(1, 8)
            q = rng.choice((-1, 1)) * rng.randrange(40) * p ** rng.randrange(12)
            x, y = PadicScalar.from_rational(q, p, N), PadicScalar.from_int(q, p, N)
            assert (x.prime, x.valuation, x.unit, x.precision) == \
                (y.prime, y.valuation, y.unit, y.precision), (q, p, N)
            below += q != 0 and x.is_zero
        assert below > 300

    def test_rational_embedding(self):
        x = PadicScalar.from_rational(Fraction(1, 2), 5, 3)
        assert (x * 2).lift() % 125 == 1

    def test_negative_valuation_arithmetic(self):
        x = PadicScalar.from_rational(Fraction(1, 5), 5, 4)   # valuation -1
        assert x.valuation == -1
        y = x + 2
        assert y.valuation == -1 and y.precision == 4
        assert y == Fraction(11, 5)
        assert (x * 5).valuation == 0
        assert x.inverse() == 5
        with pytest.raises(InvalidInput):
            x.residue(1)

    def test_exact_scaling_keeps_precision(self):
        x = PadicScalar.from_int(2, 5, 4)
        y = x.scale(Fraction(3, 7))
        assert y.precision == 4 and y.valuation == 0

    def test_ultrametric_inequality(self):
        rng = random.Random(20240)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7, 11])
            a = PadicScalar.from_int(rng.randrange(1, 400) * p ** rng.randrange(3), p, 12)
            b = PadicScalar.from_int(rng.randrange(1, 400) * p ** rng.randrange(3), p, 12)
            s = a + b
            va = a.valuation if not a.is_zero else INF
            vb = b.valuation if not b.is_zero else INF
            vs = s.valuation if not s.is_zero else s.precision
            assert vs >= min(va, vb)
            if va != vb:
                assert s.valuation == min(va, vb)


class TestPrecisionIsLowerBound:
    """Every stated precision is a lower bound: a result known mod p^N is
    congruent mod p^N to the exact rational result of the same operation on
    the rationals its operands approximate, or the operation refuses with
    PrecisionExhausted."""

    PRIMES = (2, 3, 5, 7)

    @staticmethod
    def rational(rng, p):
        if rng.random() < 0.1:
            return Fraction(0)
        num = rng.choice([1, -1]) * rng.randrange(1, 60) * p ** rng.randrange(5)
        den = rng.randrange(1, 20) * p ** rng.choice([0, 0, 1, 3])
        return Fraction(num, den)

    @staticmethod
    def approximate(rng, q, p):
        """q known mod p^N for a random N, by `from_rational`: the zero known
        mod p^N when p^N divides q; sometimes the exact zero for 0."""
        if q == 0 and rng.random() < 0.3:
            return PadicScalar.zero(p)
        N = rng.randrange(-3, 8)
        if q == 0:
            return PadicScalar.zero(p, max(N, 1))
        if N <= 0 and rational_valuation(q, p) >= N:  # no zero is known mod p^N
            N = rational_valuation(q, p) + 1
        return PadicScalar.from_rational(q, p, N)

    @staticmethod
    def holds(result, exact_value, p) -> bool:
        if not isinstance(result, PadicScalar):
            return result == exact_value
        if result.precision is INF:
            return exact_value == 0
        diff = Fraction(result.lift()) - exact_value
        return diff == 0 or rational_valuation(diff, p) >= result.precision

    @staticmethod
    def outcomes(x, y, q, r):
        """(operation, result thunk, exact value) over the approximations x
        of q and y of r, and the exact rational r itself."""
        yield "x + y", lambda: x + y, q + r
        yield "x - y", lambda: x - y, q - r
        yield "x * y", lambda: x * y, q * r
        yield "x + r", lambda: x + r, q + r
        yield "r - x", lambda: r - x, r - q
        yield "r * x", lambda: r * x, r * q
        yield "x.scale(r)", lambda: x.scale(r), q * r
        if r:
            yield "x / r", lambda: x / r, q / r
        if not y.is_zero:
            yield "x / y", lambda: x / y, q / r
            yield "y.inverse()", y.inverse, 1 / r

    def check(self, p, x, y, q, r):
        for name, thunk, exact_value in self.outcomes(x, y, q, r):
            try:
                result = thunk()
            except PrecisionExhausted:
                continue
            assert self.holds(result, exact_value, p), (name, x, y, q, r, result)

    def test_random_operations(self):
        rng = random.Random(1701)
        for _ in range(3000):
            p = rng.choice(self.PRIMES)
            q, r = self.rational(rng, p), self.rational(rng, p)
            x, y = self.approximate(rng, q, p), self.approximate(rng, r, p)
            self.check(p, x, y, q, r)
            self.check(p, y, x, r, q)

    def test_zero_times_negative_valuation(self):
        # 3 known mod 3 is the zero 0 + O(3); times 3^-3 it is 1/9, which no
        # zero known mod a positive power of 3 approximates
        x = PadicScalar.zero(3, 1)
        y = PadicScalar.from_rational(Fraction(1, 27), 3, 2)
        assert (y.valuation, y.precision) == (-3, 2)
        self.check(3, x, y, Fraction(3), Fraction(1, 27))
        self.check(3, y, x, Fraction(1, 27), Fraction(3))
        with pytest.raises(PrecisionExhausted, match="no precision"):
            x * y
        with pytest.raises(PrecisionExhausted, match="no precision"):
            x / PadicScalar.from_int(27, 3, 5)


class TestFactorialValuation:
    def test_examples(self):
        assert factorial_valuation(25, 5) == 6
        assert factorial_valuation(0, 7) == 0
        assert factorial_valuation(4, 2) == 3

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_against_exact_factorial(self, p):
        fact = 1
        for n in range(1, 201):
            fact *= n
            v, m = 0, fact
            while m % p == 0:
                m //= p
                v += 1
            assert factorial_valuation(n, p) == v


class TestExact:
    def test_int_returned_unchanged(self):
        n = 10 ** 40 + 1
        assert exact(n) is n
        assert exact(-3) == -3 and type(exact(-3)) is int

    def test_bool_and_int_subclass_become_int(self):
        class Tagged(int):
            pass

        for value, want in ((True, 1), (False, 0), (Tagged(7), 7)):
            got = exact(value)
            assert type(got) is int and got == want

    def test_fractions(self):
        assert type(exact(Fraction(6, 3))) is int and exact(Fraction(6, 3)) == 2
        assert type(exact(Fraction(1, 3))) is Fraction and exact(Fraction(2, 6)) == Fraction(1, 3)

    def test_padic_returned_unchanged(self):
        x = PadicScalar.from_int(7, 5, 4)
        assert exact(x) is x


class TestStirling:
    def test_first_kind_examples(self):
        assert stirling_first_signed(2, 1) == -1
        assert stirling_first_signed(2, 2) == 1
        assert stirling_first_signed(3, 2) == -3
        for n in range(13):
            assert stirling_first_signed(n, n) == 1

    def test_second_kind_examples(self):
        assert stirling_second(3, 2) == 3
        assert stirling_second(4, 2) == 7
        for r in range(13):
            assert stirling_second(r, r) == 1

    def test_falling_factorial_identity(self):
        # sum_i gamma_{n,i} k^i = k(k-1)...(k-n+1), exact integers
        for n in range(13):
            for k in range(13):
                falling = 1
                for t in range(n):
                    falling *= k - t
                assert sum(stirling_first_signed(n, i) * k ** i
                           for i in range(n + 1)) == falling

    def test_round_trip_degree_12(self):
        rng = random.Random(7)
        for _ in range(20):
            poly = [rng.randrange(-50, 51) for _ in range(13)]
            # monomials -> falling-factorial basis -> monomials
            falling = [sum(poly[r] * stirling_second(r, n) for r in range(n, 13))
                       for n in range(13)]
            back = [sum(falling[n] * stirling_first_signed(n, i)
                        for n in range(i, 13)) for i in range(13)]
            assert back == poly

    @staticmethod
    def falling_factorial_table_from_scratch(top):
        """Oracle: rows 0..top, row n the coefficients of X(X-1)...(X-n+1),
        multiplied out one factor at a time."""
        rows = [(1,)]
        for t in range(top):
            coeffs = rows[-1]
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] -= t * c
            rows.append(tuple(nxt))
        return rows

    @staticmethod
    def stirling_second_table_from_scratch(top):
        """Oracle: rows 0..top of S(r, n) = n S(r-1, n) + S(r-1, n-1)."""
        rows = [(1,)]
        for r in range(1, top + 1):
            prev = rows[-1]
            row = [0] * (r + 1)
            for n in range(r + 1):
                if n <= r - 1:
                    row[n] += n * prev[n]
                if n >= 1:
                    row[n] += prev[n - 1]
            rows.append(tuple(row))
        return rows

    def test_row_tables_against_from_scratch_builds(self, monkeypatch):
        # the first-kind rows stream from one generator; the surjection table
        # starts empty, is grown in uneven steps and is read back below the top
        monkeypatch.setattr(padic, "_SURJECTIONS", ((1,),))
        for top in (3, 4, 40, 300, 17):
            padic._surjection_head(top, top + 1)
        falling = self.falling_factorial_table_from_scratch(300)
        stirling = self.stirling_second_table_from_scratch(300)
        assert list(itertools.islice(padic._falling_factorial_rows(), 301)) == falling
        for n in range(301):
            # the surjection row is the Stirling row times n!, entry by entry
            assert padic._surjection_head(n, n + 1) == tuple(
                s * math.factorial(k) for k, s in enumerate(stirling[n]))
        assert len(padic._SURJECTIONS) == 301
        for n, i in ((0, 0), (17, 1), (17, 9), (300, 1), (300, 150), (300, 300)):
            assert stirling_first_signed(n, i) == falling[n][i]

    def test_row_heads_past_the_table(self, monkeypatch):
        # a head past the table is stepped on from its last row; the table
        # grows to row width - 1 only, and a head inside it is a slice
        monkeypatch.setattr(padic, "_SURJECTIONS", ((1,),))
        stirling = self.stirling_second_table_from_scratch(120)
        for r, width, table_rows in ((50, 4, 4), (120, 1, 4), (30, 30, 30),
                                     (120, 7, 30), (12, 5, 30), (29, 30, 30)):
            assert padic._surjection_head(r, width) == tuple(
                s * math.factorial(k) for k, s in enumerate(stirling[r][:width]))
            assert len(padic._SURJECTIONS) == table_rows

    def test_second_kind_against_recurrence(self):
        # the public S(r, n) is a sum of n + 1 powers, not a row of a table
        stirling = self.stirling_second_table_from_scratch(60)
        for r in range(61):
            assert [stirling_second(r, n) for n in range(r + 1)] == list(stirling[r])

    def test_index_errors(self):
        with pytest.raises(InvalidInput):
            stirling_first_signed(3, 4)
        with pytest.raises(InvalidInput):
            stirling_second(2, 3)


class TestBinomialSeries:
    def test_z_one(self):
        assert binomial_series(1, 5).coeffs == (1, 1, 0, 0, 0)

    def test_z_minus_one_is_geometric(self):
        # oracle: 1/(1+T) expanded by hand
        assert binomial_series(-1, 8).coeffs == tuple((-1) ** n for n in range(8))

    def test_z_three(self):
        assert binomial_series(3, 6).coeffs[2] == 3

    @pytest.mark.parametrize("z", [Fraction(1, 2), Fraction(-1, 3), Fraction(5, 7), 3, -4])
    def test_exact_coefficients_in_normal_form(self, z):
        # oracle: C(z, n) = z(z-1)...(z-n+1)/n!; an integral one is an int,
        # C(z, 0) = 1 included, whatever z is
        series = binomial_series(z, 9)
        for n, c in enumerate(series.coeffs):
            expected = Fraction(math.prod(z - k for k in range(n)), math.factorial(n))
            assert c == expected
            assert type(c) is (int if expected.denominator == 1 else Fraction)
        assert series.domain == ("int" if Fraction(z).denominator == 1 else "rat")
        assert binomial_series(z, 1).domain == "int"

    def test_integral_z_against_math_comb(self):
        # oracle: math.comb, and C(z, n) = (-1)^n C(n - z - 1, n) for z < 0;
        # an integral z, int or Fraction, reads the integer row, every
        # coefficient an int, its zeros past n = z >= 0 included
        for z in [*range(-30, 61), 10 ** 30]:
            for order in (1, 7, 200):
                want = tuple(math.comb(z, n) if z >= 0 else (-1) ** n * math.comb(n - z - 1, n)
                             for n in range(order))
                for given in (z, Fraction(z)):
                    coeffs = binomial_series(given, order).coeffs
                    assert coeffs == want and {type(c) for c in coeffs} == {int}, (z, order)

    def test_padic_input_integrality(self):
        z = PadicScalar.from_rational(Fraction(1, 2), 7, 8)
        series = binomial_series(z, 10)
        for c in series.coeffs:
            assert c.is_zero or c.valuation >= 0
        exact_series = binomial_series(Fraction(1, 2), 10)
        for n in range(10):
            assert c_eq(series.coeffs[n], exact_series.coeffs[n], 7)

    def test_negative_valuation_rejected(self):
        with pytest.raises(InvalidInput):
            binomial_series(PadicScalar.from_rational(Fraction(1, 5), 5, 6), 4)


def scalar_binomial_series(z, order):
    """Oracle: C(z, n) = C(z, n-1) (z - n + 1) / n in PadicScalar arithmetic."""
    coeffs = [PadicScalar.from_int(1, z.prime, z.precision)]
    for n in range(1, order):
        coeffs.append(coeffs[-1] * (z - (n - 1)) / n)
    return coeffs


class TestBinomialSeriesKernel:
    """The integer recurrence of `binomial_series` against the scalar one:
    same values, types, valuations and precisions, or the same error."""

    @staticmethod
    def outcome(fn, z, order):
        try:
            coeffs = fn(z, order)
        except (InvalidInput, PrecisionExhausted) as exc:
            return type(exc), str(exc)
        return [(type(c), c.valuation, c.unit, c.precision) for c in coeffs]

    @staticmethod
    def random_z(rng, p, prec, kind):
        if kind == "zero":
            return PadicScalar.zero(p, prec)
        v = 0 if kind == "unit" else rng.randint(1, prec)
        if v >= prec:
            return PadicScalar.zero(p, prec)
        unit = rng.randrange(1, p ** (prec - v))
        while unit % p == 0:
            unit = rng.randrange(1, p ** (prec - v))
        return PadicScalar(p, v, unit, prec)

    def test_against_scalar_recurrence(self):
        rng = random.Random(60)
        raised = 0
        for p in (2, 3, 5, 7, 11, 13):
            for prec in range(1, 15):
                for kind in ("unit", "nonunit", "zero"):
                    for draw in range(2):
                        z = self.random_z(rng, p, prec, kind)
                        # 64 and 300 pass p^P for the small p^P
                        orders = (rng.randint(1, 60), 60, 64) + ((300,) if draw == 0 else ())
                        for order in orders:
                            want = self.outcome(scalar_binomial_series, z, order)
                            got = self.outcome(
                                lambda z, K: binomial_series(z, K).coeffs, z, order)
                            assert got == want, (z, order)
                            raised += isinstance(want, tuple)
        assert raised  # the error paths are exercised too

    def test_small_primes_and_edges(self):
        # z = p^k - 1 style values and z congruent to small integers
        for p in (3, 5):
            for prec in (1, 2, 3, 6):
                for zl in (0, 1, 2, p - 1, p, p + 1, p ** 2 - 1):
                    z = PadicScalar(p, 0, zl, prec) if zl % p ** prec \
                        else PadicScalar.zero(p, prec)
                    for order in (1, 2, p + 2, 2 * p ** 2 + 1):
                        assert self.outcome(
                            lambda z, K: binomial_series(z, K).coeffs, z, order) == \
                            self.outcome(scalar_binomial_series, z, order)

    def test_exact_zero(self):
        # C(0, n) = 0 exactly for n >= 1, at every order
        for p in (3, 5, 7):
            for order in (1, 2, 3, 4, 25):
                coeffs = binomial_series(PadicScalar.zero(p), order).coeffs
                assert [(c.valuation, c.unit, c.precision) for c in coeffs] == \
                    [(0, 1, 1)] + [(INF, 0, INF)] * (order - 1)


def c_eq(padic, exact, p):
    return padic == PadicScalar.from_rational(exact, p, padic.precision
                                              if padic.precision is not INF else 1)


class TestSeries:
    def test_immutable(self):
        f = TruncatedSeries([1, 1, 0])
        for name, value in (("coeffs", [2]), ("prime", 3), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(f, name, value)
        assert f.coeffs == (1, 1, 0) and f.prime is None

    def test_mixed_primes_rejected(self):
        with pytest.raises(InvalidInput):
            TruncatedSeries([PadicScalar.from_int(1, 5, 3),
                             PadicScalar.from_int(1, 7, 3)])


class TestRefusalMessages:
    """Refusals that no other in-process test reaches, each with its message."""

    def test_residue_beyond_precision(self):
        with pytest.raises(PrecisionExhausted, match=r"known only mod p\^2"):
            PadicScalar.from_int(3, 5, 2).residue(3)

    def test_non_integer_power(self):
        x = PadicScalar.from_int(3, 5, 4)
        for n in (Fraction(1, 2), 0.5):
            with pytest.raises(InvalidInput, match="only integer powers"):
                x ** n

    def test_factorial_valuation_of_negative_n(self):
        with pytest.raises(InvalidInput, match="n must be nonnegative"):
            factorial_valuation(-1, 5)

    def test_series_without_coefficients(self):
        with pytest.raises(InvalidInput, match="a series needs at least one known coefficient"):
            TruncatedSeries([])

    def test_series_of_mixed_coefficients(self):
        for coeffs in ([PadicScalar.from_int(1, 5, 3), 1], [Fraction(1, 2), PadicScalar.zero(5)]):
            with pytest.raises(InvalidInput, match="mixed p-adic and exact coefficients"):
                TruncatedSeries(coeffs)

    def test_binomial_series_order_below_one(self):
        for z in (3, Fraction(1, 2), PadicScalar.from_int(3, 5, 4), PadicScalar.zero(5)):
            for order in (0, -2):
                with pytest.raises(InvalidInput, match="order must be >= 1"):
                    binomial_series(z, order)
