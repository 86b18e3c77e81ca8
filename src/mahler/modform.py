"""Truncated q-expansions with the U/V/T_p operators, p-depletion, the theta
operator, the interpolation Euler factor, and nearly-holomorphic raising.

Coefficients are exact rationals (or p-adic scalars); built-in generators
supply the weight-12 level-1 cusp form Δ and Eisenstein series as a test
corpus.  Δ = q Π (1-q^n)^24 is built on integers: Jacobi's sparse series for
Π (1-q^n)^3, squared three times by Kronecker substitution, each squaring
one big-integer product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

from .arith import bernoulli
from .errors import Frozen, InvalidInput
from .padic import checked_prime, exact


class DirichletCharacter(Frozen):
    """A character mod q stored by its value table (exact values; real
    characters suffice for every computation here)."""

    __slots__ = ("modulus", "values")

    def __init__(self, modulus: int, values):
        values = tuple(exact(v) for v in values)
        if modulus < 1:
            raise InvalidInput("the modulus must be >= 1")
        if len(values) != modulus:
            raise InvalidInput("value table must have length equal to the modulus")
        for n, v in enumerate(values):
            coprime = math.gcd(n, modulus) == 1
            if coprime == (v == 0):
                raise InvalidInput("character must vanish exactly off the units")
        if modulus <= 100:
            for i in range(modulus):
                for j in range(modulus):
                    if values[i * j % modulus] != values[i] * values[j]:
                        raise InvalidInput("value table is not multiplicative")
        self._set(modulus, values)

    @classmethod
    def trivial(cls, modulus: int = 1) -> "DirichletCharacter":
        return cls(modulus, tuple(1 if math.gcd(n, modulus) == 1 else 0
                                  for n in range(modulus)))

    def __call__(self, n: int):
        return self.values[n % self.modulus]

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus})"


class QExpansion(Frozen):
    """A modular-form q-expansion known through q^trunc."""

    __slots__ = ("weight", "level", "eps", "coeffs")

    def __init__(self, weight: int, level: int, eps: DirichletCharacter, coeffs):
        if level < 1:
            raise InvalidInput("level must be >= 1")
        if level % eps.modulus != 0:
            raise InvalidInput("nebentypus modulus must divide the level")
        coeffs = tuple(exact(c) if isinstance(c, (int, Fraction)) else c
                       for c in coeffs)
        if not coeffs:
            raise InvalidInput("empty coefficient list")
        self._set(weight, level, eps, coeffs)

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        if not 0 <= n <= self.trunc:
            raise InvalidInput(f"coefficient {n} beyond truncation {self.trunc}")
        return self.coeffs[n]

    def __add__(self, other: "QExpansion") -> "QExpansion":
        if (self.weight, self.level, self.eps) != (other.weight, other.level, other.eps):
            raise InvalidInput("weight/level/nebentypus mismatch")
        n = min(self.trunc, other.trunc)
        return QExpansion(self.weight, self.level, self.eps,
                          [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        return self + other.scale(-1)

    def scale(self, scalar) -> "QExpansion":
        scalar = exact(scalar)
        return QExpansion(self.weight, self.level, self.eps,
                          [c * scalar for c in self.coeffs])

    def __repr__(self):
        return (f"QExpansion(k={self.weight}, N={self.level}, "
                f"coeffs={list(self.coeffs[:8])}... + O(q^{self.trunc + 1}))")


# -- Hecke-type operators ----------------------------------------------------

def u_operator(f: QExpansion, p: int) -> QExpansion:
    """U_p: a_n -> a_{np}; truncation drops to floor(M/p)."""
    checked_prime(p)
    if f.trunc < p:
        raise InvalidInput("truncation too short for U_p")
    return QExpansion._from_fields(f.weight, f.level, f.eps, f.coeffs[::p])


def v_operator(f: QExpansion, p: int) -> QExpansion:
    """V_p: (Vf)(q) = f(q^p); every coefficient of the result is determined,
    so the truncation stretches to p*M."""
    checked_prime(p)
    out = [0] * (p * f.trunc + 1)
    for n, c in enumerate(f.coeffs):
        out[n * p] = c
    return QExpansion._from_fields(f.weight, f.level, f.eps, tuple(out))


def hecke_operator(f: QExpansion, p: int) -> QExpansion:
    """T_p = U_p + eps(p) p^(k-1) V_p, with eps(p) = 0 when p | level:
    b_n = a_{np} + eps(p) p^(k-1) a_{n/p}, the second term 0 when p ∤ n."""
    u = u_operator(f, p)
    eps_p = 0 if f.level % p == 0 else f.eps(p)
    if eps_p == 0:
        return u
    scalar = exact(Fraction(eps_p) * Fraction(p) ** (f.weight - 1))
    a = f.coeffs
    return QExpansion(f.weight, f.level, f.eps,
                      [u_n + (a[n // p] * scalar if n % p == 0 else 0)
                       for n, u_n in enumerate(u.coeffs)])


def p_deplete(f: QExpansion, p: int) -> QExpansion:
    """(1 - VU): zero every coefficient with p | n."""
    checked_prime(p)
    coeffs = tuple(0 if n % p == 0 else c for n, c in enumerate(f.coeffs))
    return QExpansion._from_fields(f.weight, f.level, f.eps, coeffs)


def theta_operator(f: QExpansion, iterations: int = 1) -> QExpansion:
    """(q d/dq)^r: a_n -> n^r a_n."""
    if iterations < 0:
        raise InvalidInput("iteration count must be >= 0")
    if iterations == 0:
        return f
    return QExpansion(f.weight, f.level, f.eps,
                      [c * n ** iterations for n, c in enumerate(f.coeffs)])


def interpolation_euler_factor(a_p, eps_p, chi_value, kappa: int, p: int) -> Fraction:
    """The multiplier 1 - a_p χ(ϖ) p^(-2κ) + ε(p) χ(ϖ)^2 p^(-2κ-1) relating the
    p-depleted toric period to the original one."""
    if kappa < 1:
        raise InvalidInput("kappa must be >= 1")
    checked_prime(p)
    a_p, eps_p, chi_value = Fraction(a_p), Fraction(eps_p), Fraction(chi_value)
    q = Fraction(1, p ** (2 * kappa))
    return 1 - a_p * chi_value * q + eps_p * chi_value ** 2 * q / p


# -- nearly-holomorphic forms and Maass raising -------------------------------

class NearlyHolomorphic(Frozen):
    """Σ c(n,j) q^n X^j with X = 1/(4πy); finite table, explicit truncation."""

    __slots__ = ("weight", "trunc", "cells")

    def __init__(self, weight: int, trunc: int, cells):
        table = {}
        for (n, j), c in dict(cells).items():
            if n < 0 or j < 0:
                raise InvalidInput("cell indices must be nonnegative")
            if n > trunc:
                continue
            c = exact(c)
            if c != 0:
                table[(n, j)] = c
        self._set(weight, trunc, MappingProxyType(table))

    def __add__(self, other: "NearlyHolomorphic") -> "NearlyHolomorphic":
        if self.weight != other.weight:
            raise InvalidInput("weight mismatch")
        trunc = min(self.trunc, other.trunc)
        cells = dict(self.cells)
        for key, c in other.cells.items():
            cells[key] = cells.get(key, 0) + c
        return NearlyHolomorphic(self.weight, trunc, cells)

    def __mul__(self, other: "NearlyHolomorphic") -> "NearlyHolomorphic":
        trunc = min(self.trunc, other.trunc)
        cells = {}
        for (n1, j1), c1 in self.cells.items():
            for (n2, j2), c2 in other.cells.items():
                if n1 + n2 <= trunc:
                    key = (n1 + n2, j1 + j2)
                    cells[key] = cells.get(key, 0) + c1 * c2
        return NearlyHolomorphic(self.weight + other.weight, trunc, cells)

    def __repr__(self):
        return f"NearlyHolomorphic(k={self.weight}, cells={len(self.cells)})"


def maass_raise(f: NearlyHolomorphic, iterations: int = 1) -> NearlyHolomorphic:
    """The weight-raising operator: c(n,j) contributes n·c at (n,j) and
    (j-k)·c at (n,j+1); each application raises the weight by 2."""
    if iterations < 0:
        raise InvalidInput("iteration count must be >= 0")
    out = f
    for _ in range(iterations):
        k = out.weight
        cells = {}
        for (n, j), c in out.cells.items():
            if n:
                cells[(n, j)] = cells.get((n, j), 0) + n * c
            cells[(n, j + 1)] = cells.get((n, j + 1), 0) + (j - k) * c
        out = NearlyHolomorphic(k + 2, out.trunc, cells)
    return out


# -- generators ----------------------------------------------------------------

def _kronecker_square(a, trunc: int) -> list:
    """The square of an integer polynomial (coefficient list, constant term
    first) through q^trunc, by Kronecker substitution: the polynomial is
    packed into one int in base 2^(8w), with w bytes per coefficient enough
    to hold every coefficient of the square, the int is squared once, and
    the digits are read back with a bias of half the base that makes every
    digit nonnegative (Harvey, J. Symb. Comput. 44, 2009)."""
    a = a[:trunc + 1]
    top = max(map(abs, a))
    bound = max(len(a) * top * top, top)
    w = bound.bit_length() // 8 + 1  # |coefficient| <= bound < 2^(8w - 1)
    half = 1 << (8 * w - 1)
    one = (1).to_bytes(w, "little")
    digits = b"".join([(x + half).to_bytes(w, "little") for x in a])
    x = int.from_bytes(digits, "little") - half * int.from_bytes(one * len(a), "little")
    n = 2 * len(a) - 1
    digits = (x * x + half * int.from_bytes(one * n, "little")).to_bytes(n * w, "little")
    out = [int.from_bytes(digits[i:i + w], "little") - half
           for i in range(0, min(n, trunc + 1) * w, w)]
    return out + [0] * (trunc + 1 - len(out))


def delta_qexpansion(trunc: int) -> QExpansion:
    """The discriminant cusp form q Π (1-q^n)^24, exact.

    Jacobi's identity Π (1-q^n)^3 = Σ_k (-1)^k (2k+1) q^(k(k+1)/2) gives the
    cube as a sparse series; three squarings by Kronecker substitution
    (`_kronecker_square`) give its 8th power, the 24th power of the product."""
    if trunc < 1:
        raise InvalidInput("truncation must be >= 1")
    m = trunc - 1
    power = [0] * (m + 1)
    k = 0
    while k * (k + 1) // 2 <= m:
        power[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    for _ in range(3):
        power = _kronecker_square(power, m)
    return QExpansion._from_fields(12, 1, DirichletCharacter.trivial(), (0, *power))


def eisenstein_qexpansion(k: int, trunc: int) -> QExpansion:
    """E_k = 1 - (2k/B_k) Σ σ_{k-1}(n) q^n for even k >= 4, exact rationals."""
    if k < 4 or k % 2:
        raise InvalidInput("Eisenstein weight must be even and >= 4")
    if trunc < 0:
        raise InvalidInput("truncation must be >= 0")
    sigma = [0] * (trunc + 1)
    for d in range(1, trunc + 1):
        step = d ** (k - 1)
        for n in range(d, trunc + 1, d):
            sigma[n] += step
    factor = Fraction(-2 * k) / bernoulli(k)
    coeffs = [Fraction(1)] + [factor * sigma[n] for n in range(1, trunc + 1)]
    return QExpansion(k, 1, DirichletCharacter.trivial(), coeffs)
