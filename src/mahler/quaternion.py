"""Hilbert symbols and ramification sets of rational quaternion algebras,
the auxiliary-prime search for the explicit maximal-order model, embedding
conductors in the split matrix algebra, and the anticommuting complement of
an embedded imaginary quadratic field with its projection idempotent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .arith import (factorint, fundamental_decomposition, int_valuation, isprime, jacobi,
                    nextprime, sqrt_mod_prime)
from .errors import InvalidInput, Record, SearchBoundExhausted

INFINITE_PLACE = math.inf


def _square_class(q) -> int:
    """An integer in the square class of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise InvalidInput("zero has no Hilbert symbol")
    return q.numerator * q.denominator


def hilbert_symbol(a, b, place) -> int:
    """(a, b)_v: +1 iff z^2 = a x^2 + b y^2 has a nontrivial local solution."""
    a, b = _square_class(a), _square_class(b)
    if place == INFINITE_PLACE:
        return -1 if a < 0 and b < 0 else 1
    if type(place) is not int or not isprime(place):
        raise InvalidInput(f"{place} is not a place")
    p = place
    va, vb = int_valuation(a, p), int_valuation(b, p)
    a, b = a // p ** va, b // p ** vb
    va, vb = va % 2, vb % 2
    if p != 2:
        sign = 1
        if va and vb and (p - 1) // 2 % 2:
            sign = -sign
        if vb:
            sign *= jacobi(a, p)
        if va:
            sign *= jacobi(b, p)
        return sign
    eps_a, eps_b = (a - 1) // 2 % 2, (b - 1) // 2 % 2
    om_a, om_b = (a * a - 1) // 8 % 2, (b * b - 1) // 8 % 2
    e = eps_a * eps_b + va * om_b + vb * om_a
    return -1 if e % 2 else 1


class QuaternionAlgebra(Record):
    """The algebra with i^2 = a, j^2 = b, ij = -ji over Q."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction):
        if Fraction(a) == 0 or Fraction(b) == 0:
            raise InvalidInput("a and b must be nonzero")
        self._set(Fraction(a), Fraction(b))


def ramified_set(alg: QuaternionAlgebra) -> set:
    """The finite, even set of places where the algebra does not split."""
    candidates = {2} | set(factorint(abs(_square_class(alg.a))).keys()) \
        | set(factorint(abs(_square_class(alg.b))).keys())
    ramified = {p for p in candidates if hilbert_symbol(alg.a, alg.b, p) == -1}
    if hilbert_symbol(alg.a, alg.b, INFINITE_PLACE) == -1:
        ramified.add(INFINITE_PLACE)
    if len(ramified) % 2:
        raise AssertionError("ramified set with odd parity: product formula broken")
    return ramified


def discriminant(alg: QuaternionAlgebra) -> int:
    """The product of the finite ramified primes."""
    return math.prod(p for p in ramified_set(alg) if p is not INFINITE_PLACE)


class HashimotoData(Record):
    """Parameters (q, b) of the explicit model i^2 = -Delta, j^2 = q with its
    distinguished maximal order Z + Z(1+j)/2 + Z(i+ij)/2 + Z(b Delta j + ij)/q."""

    __slots__ = ("delta", "q", "b_param")

    def __init__(self, delta: int, q: int, b_param: int):
        self._set(delta, q, b_param)


def hashimoto_search(delta: int, p: int, bound: int) -> HashimotoData:
    """Least prime q <= bound with q = 1 mod 4 (5 mod 8 when 2 | Delta),
    (q, -Delta) ramified exactly at the primes of Delta, and q a square
    mod p; b solves b^2 Delta = -1 mod q."""
    if delta < 2:
        raise InvalidInput("Delta must be a nontrivial even product of primes")
    factors = factorint(delta)
    if any(e > 1 for e in factors.values()) or len(factors) % 2:
        raise InvalidInput("Delta must be squarefree with an even number of prime factors")
    if not isprime(p) or math.gcd(p, 2 * delta) != 1:
        raise InvalidInput("p must be a prime not dividing 2 Delta")
    delta_primes = set(factors)
    q = 2
    while True:
        q = nextprime(q)
        if q > bound:
            raise SearchBoundExhausted(
                f"no admissible q <= {bound} (existence is guaranteed; raise the bound)")
        if q % 4 != 1 or (delta % 2 == 0 and q % 8 != 5):
            continue
        if q in delta_primes:
            continue
        if jacobi(q, p) != 1:
            continue
        if ramified_set(QuaternionAlgebra(q, -delta)) != delta_primes:
            continue
        target = (-pow(delta, -1, q)) % q
        b = min(sqrt_mod_prime(target, q))  # a square: (q, -Delta)_q = (-Delta/q) = 1
        if (b * b * delta + 1) % q:
            raise AssertionError("square root of -1/Delta failed verification")
        return HashimotoData(delta, q, b)


# ---------------------------------------------------------------------------
# 2x2 rational matrices and split-model embeddings
# ---------------------------------------------------------------------------

Mat = tuple  # ((a, b), (c, d)) of Fractions


def mat(entries) -> Mat:
    (a, b), (c, d) = entries
    return ((Fraction(a), Fraction(b)), (Fraction(c), Fraction(d)))


def mat_mul(x: Mat, y: Mat) -> Mat:
    return ((x[0][0] * y[0][0] + x[0][1] * y[1][0],
             x[0][0] * y[0][1] + x[0][1] * y[1][1]),
            (x[1][0] * y[0][0] + x[1][1] * y[1][0],
             x[1][0] * y[0][1] + x[1][1] * y[1][1]))


def mat_add(x: Mat, y: Mat) -> Mat:
    return tuple(tuple(a + b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def mat_scale(x: Mat, s) -> Mat:
    s = Fraction(s)
    return tuple(tuple(s * a for a in row) for row in x)


def mat_trace(x: Mat):
    return x[0][0] + x[1][1]


class MatrixEmbedding(Record):
    """A traceless rational M with M^2 = d I, d < 0, defining Q(sqrt d) inside
    the split algebra, together with the level of the upper-triangular-mod-N
    order it is intersected with."""

    __slots__ = ("m", "level")

    def __init__(self, m: Mat, level: int = 1):
        m = mat(m)
        if level < 1:
            raise InvalidInput("level must be >= 1")
        if mat_trace(m) != 0:
            raise InvalidInput("M must be traceless")
        sq = mat_mul(m, m)  # traceless, so M^2 = -det(M) I (Cayley-Hamilton)
        if sq[0][0] >= 0:
            raise InvalidInput("M^2 must be a negative scalar (imaginary quadratic)")
        self._set(m, level)

    @property
    def d(self) -> Fraction:
        return mat_mul(self.m, self.m)[0][0]


def _fraction_lattice_generator(constraints) -> Fraction:
    """Positive generator of the group {y in Q : y*c in Z for each c}: the lcm
    of the denominators over the gcd of the numerators of the nonzero c."""
    cs = [Fraction(c) for c in constraints if c]
    if not cs:
        raise InvalidInput("unconstrained lattice (degenerate embedding)")
    return Fraction(math.lcm(*(c.denominator for c in cs)),
                    math.gcd(*(c.numerator for c in cs)))


def embedding_conductor(emb: MatrixEmbedding) -> int:
    """The unique c > 0 with rho(O_{K,c}) = rho(K) ∩ R_N: the plane Q + Q M
    meets the order in a lattice Z + Z(x0 + y0 sqrt d), and c is read from
    its discriminant 4 y0^2 d = c^2 d_K, which depends on y0 only."""
    M, N = emb.m, emb.level
    # x I + y M integral and lower-left entry divisible by N:
    #   y m12 in Z,  y m21 in N Z,  2 y m11 in Z,  x = -y m11 (mod Z)
    y0 = _fraction_lattice_generator(
        [M[0][1], Fraction(M[1][0], N), 2 * M[0][0]])
    disc = 4 * y0 * y0 * emb.d
    if disc.denominator != 1:
        raise AssertionError("intersection lattice is not an order")
    return fundamental_decomposition(int(disc))[0]


class SkolemNoetherData(NamedTuple):
    u: Mat
    project: Callable[[Mat], Mat]


def skolem_noether_complement(emb: MatrixEmbedding) -> SkolemNoetherData:
    """A primitive integral traceless u with u M = -M u (the conjugation
    intertwiner), plus the idempotent projection P(x) = (x + M x M / d)/2
    onto the plane Q + Q M along Q u + Q M u."""
    M = emb.m
    d = emb.d
    # clear denominators: the anticommutant is scale-invariant
    den = math.lcm(*[f.denominator for row in M for f in row])
    A = int(M[0][0] * den)
    B = int(M[0][1] * den)
    C = int(M[1][0] * den)
    # traceless u = [[e, f], [g, -e]] anticommutes with M iff 2Ae + Cf + Bg = 0
    if A == 0:
        e, f, g = 1, 0, 0
    else:
        if B == 0 and C == 0:
            raise AssertionError("diagonal traceless M cannot square to d < 0")
        div = math.gcd(B, C)
        e, f, g = 0, B // div, -C // div
    u = mat(((e, f), (g, -e)))
    anti = mat_add(mat_mul(u, M), mat_mul(M, u))
    if any(x for row in anti for x in row):
        raise AssertionError("anticommutation failed")
    usq = mat_mul(u, u)
    if usq[0][1] or usq[1][0] or usq[0][0] != usq[1][1]:
        raise AssertionError("u^2 is not scalar")

    def project(x: Mat) -> Mat:
        x = mat(x)
        return mat_scale(mat_add(x, mat_scale(mat_mul(mat_mul(M, x), M), 1 / d)),
                         Fraction(1, 2))

    return SkolemNoetherData(u, project)
