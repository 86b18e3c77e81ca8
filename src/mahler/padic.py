"""Exact p-adic scalars, truncated power series, and the Stirling transforms
between the monomial basis t^r and the binomial basis C(t,n).

Everything here is exact: Python integers, `fractions.Fraction`, or
`PadicScalar` values carried modulo an explicit power of p.  No floats.

Scalars of the three kinds combine through the ordinary `+`, `*` and `/`
(a PadicScalar takes an int/Fraction operand from either side), under one
exactness rule:

* exact zeros -- int/Fraction 0 and the infinite-precision PadicScalar zero
  -- drop out of sums, and an exact rational 0 times a PadicScalar is 0;
* an inexact zero (a PadicScalar zero known mod p^k) keeps its precision;
* an exact result is normalised by `exact`: int when integral, else Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .arith import isprime
from .errors import InvalidInput, PrecisionExhausted

INF = math.inf


@lru_cache(maxsize=None)
def checked_prime(p: int) -> bool:
    return isprime(p)


def exact(q):
    """Normal form of a scalar: an integral rational as int, any other
    rational as Fraction; a PadicScalar is returned unchanged."""
    if type(q) is int or isinstance(q, PadicScalar):  # bool and int subclasses become int
        return q
    if type(q) is not Fraction:  # a Fraction is already in lowest terms
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def int_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer."""
    if n == 0:
        raise InvalidInput("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_valuation(q, p: int) -> int:
    """v_p of a nonzero int or Fraction."""
    q = Fraction(q)
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


def is_p_integral(q, p: int) -> bool:
    """True when the int/Fraction lies in Z_p (denominator prime to p)."""
    return Fraction(q).denominator % p != 0


class PadicScalar:
    """An element of Q_p known modulo p^precision.

    Stored as unit * p^valuation with 0 <= unit < p^(precision - valuation)
    and gcd(unit, p) = 1.  Zero is flagged by valuation = +inf; its precision
    records how well it is known (p^precision divides it, infinite for an
    exact zero).
    """

    __slots__ = ("prime", "valuation", "unit", "precision")

    def __init__(self, prime: int, valuation, unit: int, precision):
        if not checked_prime(prime):
            raise InvalidInput(f"{prime} is not prime")
        if valuation is INF or unit == 0:
            if valuation is not INF and unit == 0:
                valuation = INF
            if unit != 0:
                raise InvalidInput("infinite valuation with nonzero unit")
            if precision is not INF and precision <= 0:
                raise PrecisionExhausted("zero known to no precision")
            object.__setattr__(self, "prime", prime)
            object.__setattr__(self, "valuation", INF)
            object.__setattr__(self, "unit", 0)
            object.__setattr__(self, "precision", precision)
            return
        if precision is INF:
            raise InvalidInput("nonzero scalars need a finite precision")
        rel = precision - valuation
        if rel <= 0:
            raise PrecisionExhausted(
                f"scalar with valuation {valuation} known only mod p^{precision}")
        unit %= prime ** rel
        if unit == 0:
            self.__init__(prime, INF, 0, precision)
            return
        shift = int_valuation(unit, prime)
        if shift:
            valuation += shift
            unit = (unit // prime ** shift) % prime ** (precision - valuation)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "precision", precision)

    def __setattr__(self, *args):
        raise AttributeError("PadicScalar is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_int(cls, n: int, prime: int, precision: int) -> "PadicScalar":
        if n == 0:
            return cls(prime, INF, 0, INF)
        return cls(prime, 0, n, precision)

    @classmethod
    def from_rational(cls, q, prime: int, precision: int) -> "PadicScalar":
        """Embed an int/Fraction with denominator prime to p."""
        q = Fraction(q)
        if q == 0:
            return cls(prime, INF, 0, INF)
        num, den = q.numerator, q.denominator
        vn = int_valuation(num, prime)
        vd = int_valuation(den, prime)
        v = vn - vd
        rel = precision - v
        if rel <= 0:
            raise PrecisionExhausted("rational embeds below requested precision")
        unit = (num // prime ** vn) * pow(den // prime ** vd, -1, prime ** rel)
        return cls(prime, v, unit, precision)

    @classmethod
    def zero(cls, prime: int, precision=INF) -> "PadicScalar":
        return cls(prime, INF, 0, precision)

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.valuation is INF

    @property
    def rel_precision(self):
        return 0 if self.is_zero else self.precision - self.valuation

    def lift(self):
        """Representative unit * p^valuation (a Fraction when valuation < 0)."""
        if self.is_zero:
            return 0
        if self.valuation >= 0:
            return self.unit * self.prime ** self.valuation
        return Fraction(self.unit, self.prime ** (-self.valuation))

    def residue(self, k: int = 1) -> int:
        """The class mod p^k; needs valuation >= 0 and precision >= k."""
        if not self.is_zero and self.valuation < 0:
            raise InvalidInput("negative valuation has no residue")
        if self.precision < k:
            raise PrecisionExhausted(f"known only mod p^{self.precision}")
        return int(self.lift()) % self.prime ** k

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicScalar):
            if other.prime != self.prime:
                raise InvalidInput("prime mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            if Fraction(other) == 0:
                return PadicScalar(self.prime, INF, 0, INF)
            if self.precision is INF:
                raise InvalidInput(
                    "coercing a nonzero rational against an exact zero loses exactness")
            return PadicScalar.from_rational(other, self.prime, self.precision)
        return NotImplemented

    def __add__(self, other):
        if self.precision is INF and isinstance(other, (int, Fraction)):
            return other  # the exact zero drops out
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        p = self.prime
        prec = min(self.precision, other.precision)
        if self.is_zero and other.is_zero:
            return PadicScalar(p, INF, 0, prec)
        if self.is_zero or other.is_zero:
            x = other if self.is_zero else self
            if prec is INF or prec >= x.precision:
                return x
            if x.valuation >= prec:
                return PadicScalar(p, INF, 0, prec)
            return PadicScalar(p, x.valuation, x.unit, prec)
        v0 = min(self.valuation, other.valuation)
        rel = prec - v0
        n = self.unit * p ** (self.valuation - v0) \
            + other.unit * p ** (other.valuation - v0)
        n %= p ** rel
        if n == 0:
            return PadicScalar(p, INF, 0, prec)
        return PadicScalar(p, v0, n, prec)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        if self.is_zero:
            return self
        return PadicScalar(self.prime, self.valuation, -self.unit, self.precision)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other) if other else 0
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        p = self.prime
        if self.is_zero or other.is_zero:
            bound = 0
            for x in (self, other):
                term = x.precision if x.is_zero else x.valuation
                if term is INF:
                    return PadicScalar(p, INF, 0, INF)
                bound += term
            return PadicScalar(p, INF, 0, max(bound, 1))
        v = self.valuation + other.valuation
        rel = min(self.rel_precision, other.rel_precision)
        return PadicScalar(p, v, self.unit * other.unit, v + rel)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, q) -> "PadicScalar":
        """Multiply by an exact nonzero int/Fraction: no precision loss."""
        q = Fraction(q)
        if q == 0:
            return PadicScalar(self.prime, INF, 0, INF)
        p = self.prime
        shift = rational_valuation(q, p)
        if self.is_zero:
            prec = self.precision if self.precision is INF else self.precision + shift
            return PadicScalar(p, INF, 0, prec)
        rel = self.rel_precision
        vn = int_valuation(q.numerator, p)
        vd = int_valuation(q.denominator, p)
        num = q.numerator // p ** vn
        den = q.denominator // p ** vd
        unit = self.unit * num * pow(den, -1, p ** rel)
        v = self.valuation + shift
        return PadicScalar(p, v, unit, v + rel)

    def inverse(self) -> "PadicScalar":
        if self.is_zero:
            raise InvalidInput("inversion of zero")
        p, rel = self.prime, self.rel_precision
        unit = pow(self.unit, -1, p ** rel)
        v = -self.valuation
        return PadicScalar(p, v, unit, v + rel)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise InvalidInput("division by zero")
            return self.scale(Fraction(1) / Fraction(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self.__mul__(other.inverse())

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise InvalidInput("only integer powers")
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            if self.precision is INF:
                raise InvalidInput("0^0 on an exact zero")
            return PadicScalar.from_int(1, self.prime, self.precision)
        result, base, e = None, self, n
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if self.precision is INF:
                return Fraction(other) == 0
            other = self._coerce(other)
        if not isinstance(other, PadicScalar) or other.prime != self.prime:
            return NotImplemented
        if self.precision is INF and other.precision is INF:
            return True  # both exact zeros
        return (self - other).is_zero

    __hash__ = None

    def __repr__(self):
        if self.is_zero:
            tail = "" if self.precision is INF else f" + O({self.prime}^{self.precision})"
            return f"0{tail}"
        return f"{self.unit}*{self.prime}^{self.valuation} + O({self.prime}^{self.precision})"


def scalar_arith(a: PadicScalar, b: PadicScalar, op: str) -> PadicScalar:
    """Dispatch {add, sub, mul, inv} with the documented precision rules."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "inv":
        return a.inverse()
    raise InvalidInput(f"unknown op {op!r}")


# ---------------------------------------------------------------------------
# combinatorial transforms
# ---------------------------------------------------------------------------

def factorial_valuation(n: int, p: int) -> int:
    """v_p(n!) by Legendre's digit-sum formula."""
    if n < 0:
        raise InvalidInput("n must be nonnegative")
    if not checked_prime(p):
        raise InvalidInput(f"{p} is not prime")
    digit_sum, m = 0, n
    while m:
        digit_sum += m % p
        m //= p
    return (n - digit_sum) // (p - 1)


@lru_cache(maxsize=None)
def _falling_factorial_coeffs(n: int) -> tuple:
    """Monomial coefficients of X(X-1)...(X-n+1)."""
    coeffs = [1]
    for t in range(n):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= t * c
        coeffs = nxt
    return tuple(coeffs)


def stirling_first_signed(n: int, i: int) -> int:
    """Coefficient of X^i in n! * C(X, n) (signed first-kind number)."""
    if not 0 <= i <= n:
        raise InvalidInput("need 0 <= i <= n")
    return _falling_factorial_coeffs(n)[i]


@lru_cache(maxsize=None)
def _stirling_second_row(r: int) -> tuple:
    if r == 0:
        return (1,)
    prev = _stirling_second_row(r - 1)
    row = [0] * (r + 1)
    for n in range(r + 1):
        if n <= r - 1:
            row[n] += n * prev[n]
        if n >= 1:
            row[n] += prev[n - 1]
    return tuple(row)


def stirling_second(r: int, n: int) -> int:
    """S(r, n) in t^r = sum_n S(r,n) n! C(t,n)."""
    if not 0 <= n <= r:
        raise InvalidInput("need 0 <= n <= r")
    return _stirling_second_row(r)[n]


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """A power series known modulo T^order, coefficients in one exact domain."""

    __slots__ = ("coeffs", "prime")

    def __init__(self, coeffs, prime=None):
        coeffs = list(coeffs)
        if not coeffs:
            raise InvalidInput("a series needs at least one known coefficient")
        padic = [c for c in coeffs if isinstance(c, PadicScalar)]
        if padic:
            primes = {c.prime for c in padic}
            if len(primes) > 1 or (prime is not None and primes != {prime}):
                raise InvalidInput("mixed primes in one series")
            if len(padic) != len(coeffs):
                raise InvalidInput("mixed p-adic and exact coefficients")
            prime = padic[0].prime
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "prime", prime)

    def __setattr__(self, *args):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def domain(self) -> str:
        if self.prime is not None and isinstance(self.coeffs[0], PadicScalar):
            return "padic"
        if any(isinstance(c, Fraction) for c in self.coeffs):
            return "rat"
        return "int"

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and self.order == other.order \
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def __repr__(self):
        shown = ", ".join(repr(c) for c in self.coeffs[:6])
        more = ", ..." if self.order > 6 else ""
        return f"TruncatedSeries([{shown}{more}] + O(T^{self.order}))"


def binomial_series(z, order: int) -> TruncatedSeries:
    """The Amice series (1+T)^z = sum_n C(z,n) T^n for z in Z_p.

    Exact int/Fraction inputs give exact coefficients.  The exact p-adic
    zero gives 1 + O(p) and then exact zeros, C(0, n) = 0 for n >= 1.

    A PadicScalar z known mod p^P gives what the recurrence
    C(z, n) = C(z, n-1) (z - n + 1) / n gives in PadicScalar arithmetic,
    read off the integer Z = lift(z) in [0, p^P).  The factor z - k is known
    mod p^P and has valuation w_k = min(v_p(Z - k), P): P at k = Z, and
    v_p(Z - k) < P at any other k < p^P.  Dividing by n is exact and lowers
    the valuation by v_p(n).
    * For n <= Z no factor is 0 mod p^P: a product keeps the lesser
      relative precision, so C(z, n) is C(Z, n), of valuation
      sum_{k<n} w_k - v_p(n!) and relative precision P - max_{k<n} w_k.
    * The factor at k = Z is the first zero, known mod p^P, and a zero
      known mod p^e times a factor of valuation w is known mod p^(e + w):
      for n > Z, C(z, n) is the zero C(Z, n) = 0 known mod
      p^(sum_{k<n} w_k - v_p(n!)), and there max_{k<n} w_k = P.
    Both are PadicScalar(p, 0, C(Z, n), P_n) with
    P_n = P + sum_{k<n} w_k - max_{k<n} w_k - v_p(n!); a zero with P_n <= 0
    is refused as PadicScalar refuses it.  Over k < p^P the w_k are
    min(v_p(j), P) for j running through Z/p^P, which sum to v_p((p^P)!), so
    the refusal comes by n = p^P: no factor z - k with k >= p^P is formed.
    """
    if order < 1:
        raise InvalidInput("order must be >= 1")
    if isinstance(z, PadicScalar):
        if not z.is_zero and z.valuation < 0:
            raise InvalidInput("z must lie in Z_p")
        p, P = z.prime, z.precision
        if P is INF:
            return TruncatedSeries([PadicScalar.from_int(1, p, 1)]
                                   + [PadicScalar.zero(p)] * (order - 1), p)
        Z = z.lift()
        c, w_sum, w_max, fact = 1, 0, 0, 0  # C(Z, n), sum/max of w_k, v_p(n!)
        coeffs = [PadicScalar(p, 0, 1, P)]
        for n in range(1, order):
            t = Z - n + 1
            w = int_valuation(t, p) if t else P
            w_sum += w
            w_max = max(w_max, w)
            fact += int_valuation(n, p)
            c = c * t // n
            coeffs.append(PadicScalar(p, 0, c, P + w_sum - w_max - fact))
        return TruncatedSeries(coeffs, p)
    z = Fraction(z)
    coeffs = [Fraction(1)]
    for n in range(1, order):
        coeffs.append(coeffs[-1] * (z - (n - 1)) / n)
    if all(c.denominator == 1 for c in coeffs):
        return TruncatedSeries([int(c) for c in coeffs])
    return TruncatedSeries(coeffs)
