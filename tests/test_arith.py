"""mahler.arith against sympy, which mahler itself no longer imports."""

import random
import types
from fractions import Fraction

import pytest

from mahler import arith
from mahler.errors import InvalidInput

sympy = pytest.importorskip("sympy")
from sympy.ntheory.residue_ntheory import sqrt_mod  # noqa: E402

PSI_13 = 3317044064679887385961981  # least strong pseudoprime to bases 2..41


class TestIsprime:
    def test_range(self):
        assert all(arith.isprime(n) == sympy.isprime(n) for n in range(-10, 20000))

    def test_random_below_1e20(self):
        rng = random.Random(3)
        for _ in range(2000):
            n = rng.randrange(10 ** 20)
            assert arith.isprime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041,
                                   825265, 321197185, 5394826801, 232250619601,
                                   9746347772161])
    def test_carmichael(self, n):
        assert not arith.isprime(n) and not sympy.isprime(n)

    @pytest.mark.parametrize("n", [
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051,
        318665857834031151167461,  # psi_12: strong pseudoprime to bases 2..37
        PSI_13])
    def test_strong_pseudoprimes_to_small_bases(self, n):
        assert not arith.isprime(n) and not sympy.isprime(n)

    def test_bpsw_branch(self):
        rng = random.Random(5)
        samples = [PSI_13 + i for i in range(-50, 200)]
        samples += [rng.randrange(PSI_13, 10 ** 40) for _ in range(300)]
        for e in (25, 30, 40, 60):
            p = sympy.nextprime(10 ** e)
            q = sympy.nextprime(p)
            samples += [p, q, p * q, p * p]
        for n in samples:
            assert arith.isprime(n) == sympy.isprime(n), n

    def test_lucas_refusals_of_a_square_and_of_a_shared_factor(self, monkeypatch):
        # (D/n) is never -1 for a square n, so without its guard the search
        # for D would not end; 1093**2, a square that passes the base-2
        # Fermat test, lies below the Miller-Rabin bound of `isprime`, so
        # the test is called directly.  5 * 53 gives (D/n) = 0 at D = 5,
        # which ends the search at once.
        n = 1093 ** 2
        assert pow(2, n - 1, n) == 1 and not arith.isprime(n) and not sympy.isprime(n)
        calls, jacobi = [], arith.jacobi

        def counted(a, m):
            calls.append(a)
            assert len(calls) < 100, "the search for D does not end"
            return jacobi(a, m)
        monkeypatch.setattr(arith, "jacobi", counted)
        assert arith._strong_lucas_probable_prime(n) is False and calls == []
        assert arith._strong_lucas_probable_prime(5 * 53) is False and calls == [5]

    @pytest.mark.parametrize("bad", [True, 3.0, Fraction(3), "7"])
    def test_non_integers_are_rejected(self, bad):
        with pytest.raises(ValueError):
            sympy.isprime(bad)
        with pytest.raises(ValueError):
            arith.isprime(bad)


class TestNextprime:
    def test_range(self):
        assert all(arith.nextprime(n) == sympy.nextprime(n) for n in range(-5, 5000))

    def test_large(self):
        for e in (10, 18, 24, 25, 30):
            assert arith.nextprime(10 ** e) == sympy.nextprime(10 ** e)


class TestFactorint:
    def test_range(self):
        assert all(arith.factorint(n) == sympy.factorint(n) for n in range(1, 5000))

    def test_random_18_digit(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(10 ** 17, 10 ** 18)
            assert arith.factorint(n) == sympy.factorint(n), n

    def test_hard_composites(self):
        p, q = sympy.nextprime(10 ** 9), sympy.nextprime(3 * 10 ** 9)
        for n in (p * q, p * p, p ** 3 * q, 2 ** 10 * 997 ** 2 * p):
            assert arith.factorint(n) == sympy.factorint(n), n

    def test_ascending_primes(self):
        assert list(arith.factorint(2 ** 3 * 3 * 1009 * 1000003)) == [2, 3, 1009, 1000003]

    def test_rho_guard(self, monkeypatch):
        # a gcd that always returns n finds no proper factor for any c
        fault = types.SimpleNamespace(gcd=lambda a, b: b)
        monkeypatch.setattr(arith, "math", fault)
        with pytest.raises(AssertionError, match="^no factor of 15 found$"):
            arith._rho(15)


class TestSqrtModPrime:
    def test_every_root_mod_every_prime_below_500(self):
        for p in sympy.primerange(2, 500):
            for a in range(p):
                assert arith.sqrt_mod_prime(a, p) == sorted(sqrt_mod(a, p, all_roots=True))


class TestJacobi:
    def test_legendre_symbol_mod_every_odd_prime_below_300(self):
        for p in sympy.primerange(3, 300):
            for a in range(-p, 2 * p):
                assert arith.jacobi(a, p) == sympy.legendre_symbol(a % p, p), (a, p)


class TestCyclotomic:
    def test_up_to_300(self):
        x = sympy.Symbol("x")
        for m in range(1, 301):
            poly = sympy.cyclotomic_poly(m, x).as_poly(x)
            assert arith.cyclotomic_coeffs(m) == [int(c) for c in reversed(poly.all_coeffs())]

    def test_first_coefficient_minus_2(self):
        assert -2 in arith.cyclotomic_coeffs(105)
        assert all(abs(c) <= 1 for m in range(1, 105) for c in arith.cyclotomic_coeffs(m))


class TestBernoulli:
    def test_up_to_100(self):
        for k in range(101):
            b = sympy.bernoulli(k)
            assert arith.bernoulli(k) == Fraction(int(b.p), int(b.q)), k

    def test_type(self):
        assert arith.bernoulli(12) == Fraction(-691, 2730)
        assert type(arith.bernoulli(12)) is Fraction


class TestRefusalMessages:
    """Refusals that no command reaches (every caller passes n >= 1 and a
    nonzero valuation argument), each with its message."""

    @pytest.mark.parametrize("n", [0, -6])
    def test_factorint_needs_a_positive_integer(self, n):
        with pytest.raises(ValueError, match=f"^factorint needs n >= 1, not {n}$"):
            arith.factorint(n)

    def test_valuation_of_zero(self):
        with pytest.raises(InvalidInput, match="^valuation of 0 is infinite$"):
            arith.int_valuation(0, 3)
