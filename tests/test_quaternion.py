import math
import random
from fractions import Fraction

import pytest

from mahler import quaternion
from mahler.arith import factorint
from mahler.cli import main
from mahler.errors import InvalidInput, SearchBoundExhausted
from mahler.quaternion import (INFINITE_PLACE, HashimotoData,
                               MatrixEmbedding, QuaternionAlgebra,
                               discriminant, embedding_conductor,
                               hashimoto_search, hilbert_symbol, mat, mat_mul,
                               mat_scale, ramified_set,
                               skolem_noether_complement, _fraction_lattice_generator)
from paper_oracles import IDENTITY, trace_pairing

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def hilbert_symbol_bruteforce(a, b, p):
    """Oracle: primitive solvability of z^2 = a x^2 + b y^2 mod p^k with k
    large enough for Hensel lifting (p^3 odd, 2^5 at p = 2), after reducing
    a, b to valuation <= 1 representatives of their square classes."""
    def reduce_sc(v):
        v = Fraction(v)
        n = v.numerator * v.denominator
        while n % p ** 2 == 0:
            n //= p ** 2
        return n
    a, b = reduce_sc(a), reduce_sc(b)
    k = 5 if p == 2 else 3
    mod = p ** k
    squares = {z * z % mod for z in range(mod)}
    for x in range(mod):
        for y in range(mod):
            if x % p == 0 and y % p == 0:
                continue
            if (a * x * x + b * y * y) % mod in squares:
                return 1
    return -1


class TestHilbertSymbol:
    def test_minus_one_minus_one(self):
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_symbol(-1, -1, INFINITE_PLACE) == -1
        for p in (3, 5, 7, 11, 13):
            assert hilbert_symbol(-1, -1, p) == 1

    def test_tame_example(self):
        assert hilbert_symbol(5, -6, 3) == -1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_against_bruteforce(self, p):
        rng = random.Random(p)
        cases = [(a, b) for a in (-6, -3, -2, -1, 1, 2, 3, 5, 6, 10)
                 for b in (-6, -2, -1, 1, 2, 3, 5)]
        rng.shuffle(cases)
        for a, b in cases[:30]:
            assert hilbert_symbol(a, b, p) == hilbert_symbol_bruteforce(a, b, p), \
                (a, b, p)

    def test_symmetry_and_bimultiplicativity(self):
        rng = random.Random(41)
        places = [INFINITE_PLACE] + SMALL_PRIMES
        for _ in range(60):
            a = Fraction(rng.choice([v for v in range(-20, 21) if v]),
                         rng.randrange(1, 8))
            b = Fraction(rng.choice([v for v in range(-20, 21) if v]),
                         rng.randrange(1, 8))
            c = Fraction(rng.choice([v for v in range(-20, 21) if v]))
            v = rng.choice(places)
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
            assert hilbert_symbol(a * c, b, v) == \
                hilbert_symbol(a, b, v) * hilbert_symbol(c, b, v)

    def test_square_invariance(self):
        for v in [INFINITE_PLACE, 2, 3, 5]:
            assert hilbert_symbol(Fraction(9, 4) * -6, 5, v) == \
                hilbert_symbol(-6, 5, v)

    def test_product_formula(self):
        rng = random.Random(42)
        from sympy import primerange
        for _ in range(100):
            a = Fraction(rng.choice([v for v in range(-50, 51) if v]),
                         rng.randrange(1, 12))
            b = Fraction(rng.choice([v for v in range(-50, 51) if v]),
                         rng.randrange(1, 12))
            relevant = set()
            for q in (a, b):
                n = abs(q.numerator * q.denominator)
                for p in primerange(2, n + 1):
                    if n % p == 0:
                        relevant.add(p)
            relevant.add(2)
            prod = hilbert_symbol(a, b, INFINITE_PLACE)
            for p in relevant:
                prod *= hilbert_symbol(a, b, p)
            assert prod == 1

    def test_zero_rejected(self):
        with pytest.raises(InvalidInput):
            hilbert_symbol(0, 3, 5)

    @pytest.mark.parametrize("place", [3.5, "3", True, "inf", "oo", -math.inf])
    def test_finite_place_must_be_an_int(self, place):
        # no truncation to the prime 3, no parsing of a string (the CLI maps
        # the names of the infinite place), no bool as 1, no minus infinity
        with pytest.raises(InvalidInput, match=f"^{place} is not a place$"):
            hilbert_symbol(2, 3, place)

    def test_infinite_place_by_value(self):
        # an equal float infinity names the place, not only INFINITE_PLACE itself
        assert hilbert_symbol(-1, -1, float("inf")) == -1
        assert hilbert_symbol(-1, 3, float("inf")) == 1


class TestRamifiedSet:
    def test_hamilton(self):
        assert ramified_set(QuaternionAlgebra(-1, -1)) == {2, INFINITE_PLACE}

    def test_split(self):
        alg = QuaternionAlgebra(1, 5)
        assert ramified_set(alg) == set()
        assert discriminant(alg) == 1

    def test_minus_one_minus_three(self):
        assert ramified_set(QuaternionAlgebra(-1, -3)) == {3, INFINITE_PLACE}

    def test_even_parity_random(self):
        rng = random.Random(43)
        for _ in range(100):
            a = Fraction(rng.choice([v for v in range(-30, 31) if v]),
                         rng.randrange(1, 9))
            b = Fraction(rng.choice([v for v in range(-30, 31) if v]),
                         rng.randrange(1, 9))
            assert len(ramified_set(QuaternionAlgebra(a, b))) % 2 == 0


class TestHashimoto:
    def test_delta_6_p_11(self):
        data = hashimoto_search(6, 11, 1000)
        assert data == HashimotoData(6, 5, 2)
        # re-verify every condition independently
        assert data.q % 8 == 5
        assert (data.b_param ** 2 * 6 + 1) % data.q == 0
        assert pow(data.q, (11 - 1) // 2, 11) == 1
        assert ramified_set(QuaternionAlgebra(data.q, -6)) == {2, 3}

    def test_output_discriminant_matches(self):
        for delta, p in [(6, 11), (10, 7), (14, 5), (15, 2)]:
            if math.gcd(p, 2 * delta) != 1:
                continue
            data = hashimoto_search(delta, p, 10 ** 5)
            alg = QuaternionAlgebra(data.q, -delta)
            assert discriminant(alg) == delta
            assert pow(data.q, (p - 1) // 2, p) == 1
            if delta % 2 == 0:
                assert data.q % 8 == 5
            else:
                assert data.q % 4 == 1

    def test_delta_one_rejected(self):
        with pytest.raises(InvalidInput):
            hashimoto_search(1, 5, 100)

    def test_odd_number_of_primes_rejected(self):
        with pytest.raises(InvalidInput):
            hashimoto_search(30, 7, 100)

    def test_bound_exhaustion(self):
        with pytest.raises(SearchBoundExhausted):
            hashimoto_search(6, 11, 3)


class TestEmbeddingConductor:
    def test_maximal_order_case(self):
        emb = MatrixEmbedding(((1, 2), (-4, -1)), 1)
        assert emb.d == -7
        assert embedding_conductor(emb) == 1

    def test_conductor_two_case(self):
        emb = MatrixEmbedding(((0, 1), (-4, 0)), 1)
        assert emb.d == -4
        assert embedding_conductor(emb) == 2

    def test_level_monotonicity(self):
        for level in (1, 2, 4):
            base = embedding_conductor(MatrixEmbedding(((1, 2), (-4, -1)), 1))
            higher = embedding_conductor(MatrixEmbedding(((1, 2), (-4, -1)), level))
            assert higher % base == 0 and higher >= base

    def test_gl2z_conjugation_invariance(self):
        rng = random.Random(44)
        m0 = mat(((1, 2), (-4, -1)))
        for _ in range(20):
            # random GL_2(Z) word in the standard generators
            g = IDENTITY
            for _ in range(rng.randrange(1, 6)):
                t = rng.randrange(-3, 4)
                gen = mat(((1, t), (0, 1))) if rng.random() < 0.5 \
                    else mat(((1, 0), (t, 1)))
                g = mat_mul(g, gen)
            det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
            assert det in (1, -1)
            ginv = mat_scale(((g[1][1], -g[0][1]), (-g[1][0], g[0][0])),
                             Fraction(1, det))
            conj = mat_mul(mat_mul(g, m0), ginv)
            assert embedding_conductor(MatrixEmbedding(conj, 1)) == 1

    def test_rational_entries(self):
        emb = MatrixEmbedding(((Fraction(1, 2), Fraction(5, 4)),
                               (Fraction(-3, 2), Fraction(-1, 2))), 1)
        assert embedding_conductor(emb) >= 1

    def test_lattice_generator_defining_property(self):
        # y0 > 0 generates {y in Q : y c in Z for each c}: y0 c is integral,
        # and y0 / q is not in the group for any prime q that could divide
        # y0 / g, g the generator (q divides y0's numerator, or cancelled
        # against g's denominator, which divides every c's numerator)
        rng = random.Random(24)
        for _ in range(2000):
            cs = [Fraction(rng.randrange(-60, 61), rng.randrange(1, 40))
                  for _ in range(rng.randrange(1, 5))] + [0, 7, -12][:rng.randrange(4)]
            if not any(cs):
                continue
            y0 = _fraction_lattice_generator(cs)
            assert y0 > 0
            assert all((y0 * c).denominator == 1 for c in cs)
            nums = math.prod(abs(Fraction(c).numerator) for c in cs if c)
            for q in factorint(y0.numerator * nums):
                assert any((y0 / q * c).denominator != 1 for c in cs)
        for zeros in ([0], [0, Fraction(0), 0]):
            with pytest.raises(InvalidInput):
                _fraction_lattice_generator(zeros)

    def test_invalid_matrix(self):
        with pytest.raises(InvalidInput):
            MatrixEmbedding(((1, 0), (0, 1)), 1)  # not traceless
        with pytest.raises(InvalidInput):
            MatrixEmbedding(((0, 1), (1, 0)), 1)  # M^2 = +I


def random_embedding(rng):
    while True:
        a = rng.randrange(-5, 6)
        b = rng.choice([v for v in range(-9, 10) if v])
        c = rng.randrange(-9, 10)
        d = a * a + b * c
        if d < 0:
            return MatrixEmbedding(((a, b), (c, -a)), 1)


class TestSkolemNoether:
    def test_hand_example(self):
        emb = MatrixEmbedding(((0, 1), (-4, 0)), 1)
        sn = skolem_noether_complement(emb)
        assert sn.u == mat(((1, 0), (0, -1)))
        assert mat_mul(sn.u, sn.u) == IDENTITY

    def test_projection_properties(self):
        emb = MatrixEmbedding(((0, 1), (-4, 0)), 1)
        sn = skolem_noether_complement(emb)
        assert sn.project(IDENTITY) == IDENTITY
        assert sn.project(emb.m) == emb.m
        zero = mat(((0, 0), (0, 0)))
        assert sn.project(sn.u) == zero
        assert sn.project(mat_mul(emb.m, sn.u)) == zero

    def test_random_embeddings(self):
        rng = random.Random(45)
        for _ in range(100):
            emb = random_embedding(rng)
            sn = skolem_noether_complement(emb)
            M, u = emb.m, sn.u
            # anticommutation
            s = mat_mul(u, M)
            t = mat_scale(mat_mul(M, u), -1)
            assert s == t
            # u^2 scalar
            usq = mat_mul(u, u)
            assert usq[0][1] == 0 and usq[1][0] == 0 and usq[0][0] == usq[1][1]
            # content 1 integral entries
            entries = [x for row in u for x in row]
            assert all(e.denominator == 1 for e in entries)
            assert math.gcd(*[int(e) for e in entries]) == 1

    def test_projection_is_idempotent_splitting(self):
        rng = random.Random(46)
        for _ in range(30):
            emb = random_embedding(rng)
            sn = skolem_noether_complement(emb)
            x = mat(((rng.randrange(-5, 6), rng.randrange(-5, 6)),
                     (rng.randrange(-5, 6), rng.randrange(-5, 6))))
            px = sn.project(x)
            assert sn.project(px) == px
            # complement piece is killed
            rest = tuple(tuple(a - b for a, b in zip(rx, ry))
                         for rx, ry in zip(x, px))
            assert sn.project(rest) == mat(((0, 0), (0, 0)))

    def test_trace_orthogonality(self):
        rng = random.Random(47)
        for _ in range(30):
            emb = random_embedding(rng)
            sn = skolem_noether_complement(emb)
            M, u = emb.m, sn.u
            for lam in (IDENTITY, M):
                for w in (u, mat_mul(M, u)):
                    assert trace_pairing(lam, w) == 0


class TestRefusalMessages:
    """Refusals that no other in-process test reaches, each with its message
    and the exit code of the command that reaches it."""

    @pytest.mark.parametrize("a, b", [("0", "1"), ("-1", "0")])
    def test_algebra_needs_nonzero_parameters(self, a, b, capsys):
        with pytest.raises(InvalidInput, match="^a and b must be nonzero$"):
            QuaternionAlgebra(Fraction(a), Fraction(b))
        assert main(["quat", "ramified", "--a", a, "--b", b]) == 2
        assert capsys.readouterr() == ("", "error: a and b must be nonzero\n")

    @pytest.mark.parametrize("p", [3, 4, 2])  # divides Delta = 6, not prime, divides 2
    def test_hashimoto_needs_a_prime_prime_to_two_delta(self, p, capsys):
        with pytest.raises(InvalidInput, match="^p must be a prime not dividing 2 Delta$"):
            hashimoto_search(6, p, 100)
        assert main(["quat", "hashimoto", "--delta", "6", "--p", str(p)]) == 2
        assert capsys.readouterr() == ("", "error: p must be a prime not dividing 2 Delta\n")


class TestInvariantGuards:
    """Each `raise AssertionError` guard of the module, reached through a
    planted fault, refuses with its message instead of returning a value."""

    def test_ramified_parity(self, monkeypatch):
        # ramified at the infinite place alone: an odd set
        monkeypatch.setattr(quaternion, "hilbert_symbol",
                            lambda a, b, place: -1 if place == INFINITE_PLACE else 1)
        with pytest.raises(AssertionError,
                           match="^ramified set with odd parity: product formula broken$"):
            ramified_set(QuaternionAlgebra(-1, -1))

    def test_hashimoto_square_root(self, monkeypatch):
        # b = 1 is no square root of -1/Delta mod q = 5 for Delta = 6
        monkeypatch.setattr(quaternion, "sqrt_mod_prime", lambda a, q: [1])
        with pytest.raises(AssertionError,
                           match="^square root of -1/Delta failed verification$"):
            hashimoto_search(6, 11, 1000)

    def test_conductor_lattice(self, monkeypatch):
        # y0 = 1/3 makes 4 y0^2 d = -4/9 for M^2 = -1
        monkeypatch.setattr(quaternion, "_fraction_lattice_generator",
                            lambda constraints: Fraction(1, 3))
        with pytest.raises(AssertionError, match="^intersection lattice is not an order$"):
            embedding_conductor(MatrixEmbedding(((0, 1), (-1, 0)), 1))

    def test_diagonal_complement(self):
        # a diagonal traceless M squares to a positive scalar, which the
        # constructor refuses; built unchecked, it reaches the guard
        diagonal = MatrixEmbedding._from_fields(mat(((1, 0), (0, -1))), 1)
        with pytest.raises(AssertionError,
                           match="^diagonal traceless M cannot square to d < 0$"):
            skolem_noether_complement(diagonal)

    def test_anticommutation(self, monkeypatch):
        monkeypatch.setattr(quaternion, "mat_add", lambda x, y: mat(((1, 0), (0, 0))))
        with pytest.raises(AssertionError, match="^anticommutation failed$"):
            skolem_noether_complement(MatrixEmbedding(((0, 1), (-4, 0)), 1))

    def test_square_of_the_complement(self, monkeypatch):
        # u built with a trace, whose square is not scalar, and a sum that
        # lets the anticommutation check pass
        emb = MatrixEmbedding(((0, 1), (-4, 0)), 1)
        monkeypatch.setattr(quaternion, "mat", lambda entries: (
            (Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))))
        monkeypatch.setattr(quaternion, "mat_add", lambda x, y: ((0, 0), (0, 0)))
        with pytest.raises(AssertionError, match=r"^u\^2 is not scalar$"):
            skolem_noether_complement(emb)
