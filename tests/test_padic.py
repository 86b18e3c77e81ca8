import random
from fractions import Fraction

import pytest

from mahler import padic
from mahler.errors import InvalidInput, PrecisionExhausted
from mahler.padic import (INF, PadicScalar, TruncatedSeries, binomial_series,
                          exact, factorial_valuation, scalar_arith,
                          stirling_first_signed, stirling_second)


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
        s = scalar_arith(a, b, "add")
        assert s.valuation == 1 and s.unit == 1

    def test_inverse_against_xgcd(self):
        # oracle: extended Euclid mod 125
        g, inv, _ = xgcd(2, 125)
        assert g == 1
        expected = inv % 125
        assert expected == 63
        got = scalar_arith(PadicScalar.from_int(2, 5, 3), None, "inv")
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
            scalar_arith(PadicScalar.from_int(1, 5, 3),
                         PadicScalar.from_int(1, 7, 3), "add")

    def test_inv_of_zero(self):
        with pytest.raises(InvalidInput):
            PadicScalar.zero(5, 4).inverse()

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
        # from empty tables, grown in uneven steps and read back below the top
        monkeypatch.setattr(padic, "_FALLING_FACTORIAL", ((1,),))
        monkeypatch.setattr(padic, "_STIRLING_SECOND", ((1,),))
        for top in (3, 4, 40, 300, 17):
            padic._falling_factorial_coeffs(top)
            padic._stirling_second_row(top)
        falling = self.falling_factorial_table_from_scratch(300)
        stirling = self.stirling_second_table_from_scratch(300)
        for n in range(301):
            assert padic._falling_factorial_coeffs(n) == falling[n]
            assert padic._stirling_second_row(n) == stirling[n]
        assert len(padic._FALLING_FACTORIAL) == len(padic._STIRLING_SECOND) == 301

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
