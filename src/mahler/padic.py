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

PadicScalar arithmetic has one precision rule (the capped-relative model of
Caruso, arXiv:1701.06794, section 2): a zero known mod p^N counts as
valuation N and relative precision 0, and an exact number meets a scalar
known mod p^N as its class mod p^max(N, 1); a sum takes the least precision;
a product takes valuation v1 + v2 and relative precision min(rel1, rel2), and
an exact factor q shifts the valuation by v_p(q); a zero known to no
precision (N <= 0) is refused with PrecisionExhausted, and `==` reads such a
difference as equality.  Every result goes through one normalising
constructor, `PadicScalar._make`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice
from operator import add, mul, sub

from .arith import int_valuation, isprime
from .errors import Frozen, InvalidInput, PrecisionExhausted

INF = math.inf


@lru_cache(maxsize=None)
def checked_prime(p: int) -> int:
    """p, once it is known to be prime; any other p is refused."""
    if not isprime(p):
        raise InvalidInput(f"{p} is not prime")
    return p


def exact(q):
    """Normal form of a scalar: an integral rational as int, any other
    rational as Fraction; a PadicScalar is returned unchanged."""
    if type(q) is int or isinstance(q, PadicScalar):  # bool and int subclasses become int
        return q
    if type(q) is not Fraction:  # a Fraction is already in lowest terms
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def _residue(q, p: int, mod: int):
    """q mod `mod`, a power of p, for an int or a p-integral Fraction; None
    for a Fraction whose denominator p divides."""
    if type(q) is int:
        return q % mod
    if q.denominator % p == 0:
        return None
    return q.numerator * pow(q.denominator, -1, mod) % mod


def is_p_integral(q, p: int) -> bool:
    """True when q lies in Z_p: a PadicScalar of valuation >= 0 or a zero,
    an int/Fraction with denominator prime to p."""
    if type(q) is PadicScalar:
        return not q.unit or q.valuation >= 0
    return Fraction(q).denominator % p != 0


class PadicScalar(Frozen):
    """An element of Q_p known modulo p^precision.

    Stored as unit * p^valuation with 0 <= unit < p^(precision - valuation)
    and gcd(unit, p) = 1.  Zero is flagged by valuation = +inf; its precision
    records how well it is known (p^precision divides it, infinite for an
    exact zero).
    """

    __slots__ = ("prime", "valuation", "unit", "precision")

    def __new__(cls, prime: int, valuation, unit: int, precision):
        checked_prime(prime)
        if valuation is INF and unit != 0:
            raise InvalidInput("infinite valuation with nonzero unit")
        if unit != 0 and precision is INF:
            raise InvalidInput("nonzero scalars need a finite precision")
        if unit != 0 and precision <= valuation:
            raise PrecisionExhausted(
                f"scalar with valuation {valuation} known only mod p^{precision}")
        return PadicScalar._make(prime, valuation, unit, precision)

    @staticmethod
    def _make(p: int, v, n: int, N) -> "PadicScalar":
        """n * p^v known mod p^N, normalised: n is reduced mod p^(N - v) and
        its power of p moved into the valuation.  When n vanishes the result
        is the zero known mod p^N (the exact zero for N = INF, which needs
        n = 0), and a zero known to no precision is refused.  p is taken to
        be a checked prime."""
        n = n % p ** (N - v) if n and N > v else 0
        if n == 0 and N <= 0:
            raise PrecisionExhausted("zero known to no precision")
        while n and n % p == 0:
            n //= p
            v += 1
        return PadicScalar._from_fields(p, v if n else INF, n, N)

    def __reduce__(self):  # pickle makes inf anew; `zero` and `_make` give back INF
        if self.precision is INF:
            return PadicScalar.zero, (self.prime,)
        return PadicScalar._make, (self.prime, self._val, self.unit, self.precision)

    # -- constructors --------------------------------------------------

    @classmethod
    def from_int(cls, n: int, prime: int, precision: int) -> "PadicScalar":
        return cls(prime, 0, n, precision if n else INF)  # int 0 is the exact zero

    @classmethod
    def from_rational(cls, q, prime: int, precision: int) -> "PadicScalar":
        """The class of an int/Fraction q mod p^precision, as `from_int` reads an int."""
        q = Fraction(q)
        if q == 0:
            return cls(prime, INF, 0, INF)
        checked_prime(prime)  # before int_valuation, which never ends for p = 1
        num, den = q.numerator, q.denominator
        vn, vd = int_valuation(num, prime), int_valuation(den, prime)
        v = vn - vd
        inverse = pow(den // prime ** vd, -1, prime ** max(precision - v, 0))
        return PadicScalar._make(prime, v, num // prime ** vn * inverse, precision)

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

    @property
    def _val(self):
        """The valuation, reading a zero known mod p^N as valuation N."""
        return self.precision if self.valuation is INF else self.valuation

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

    # -- arithmetic: the precision rule of the module docstring ---------------

    def _coerce(self, other):
        if isinstance(other, PadicScalar):
            if other.prime != self.prime:
                raise InvalidInput("prime mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            if Fraction(other) == 0:
                return PadicScalar._make(self.prime, INF, 0, INF)
            return PadicScalar.from_rational(other, self.prime, max(self.precision, 1))
        return NotImplemented

    def __add__(self, other):
        if self.precision is INF and isinstance(other, (int, Fraction)):
            return other  # the exact zero drops out
        other = self._coerce(other)
        if other is NotImplemented or self.precision is INF:
            return other
        if other.precision is INF:  # exact zeros drop out of every sum
            return self
        p, v1, v2 = self.prime, self._val, other._val
        v = min(v1, v2)
        n = self.unit * p ** (v1 - v) + other.unit * p ** (v2 - v)
        return PadicScalar._make(p, v, n, min(self.precision, other.precision))

    __radd__ = __add__

    def __neg__(self):
        return PadicScalar._make(self.prime, self._val, -self.unit, self.precision)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other) if other else 0
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if self.precision is INF or other.precision is INF:
            return PadicScalar._make(self.prime, INF, 0, INF)
        v1, v2 = self._val, other._val  # v1 + v2, relative precision min(rel1, rel2)
        v = v1 + v2
        return PadicScalar._make(self.prime, v, self.unit * other.unit,
                                 v + min(self.precision - v1, other.precision - v2))

    __rmul__ = __mul__

    def scale(self, q) -> "PadicScalar":
        """Multiply by an exact int/Fraction: the valuation shifts by v_p(q)
        and the relative precision is kept."""
        q = Fraction(q)
        p = self.prime
        if q == 0 or self.precision is INF:
            return PadicScalar._make(p, INF, 0, INF)
        rel = self.rel_precision
        vn, vd = int_valuation(q.numerator, p), int_valuation(q.denominator, p)
        num = q.numerator // p ** vn
        den = q.denominator // p ** vd
        v = self._val + vn - vd
        return PadicScalar._make(p, v, self.unit * num * pow(den, -1, p ** rel), v + rel)

    def inverse(self) -> "PadicScalar":
        if self.is_zero:
            raise InvalidInput("inversion of zero")
        p, rel = self.prime, self.rel_precision
        v = -self.valuation
        return PadicScalar._make(p, v, pow(self.unit, -1, p ** rel), v + rel)

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
        if self.precision is INF:
            return self
        p, v, rel = self.prime, n * self._val, self.rel_precision
        return PadicScalar._make(p, v, pow(self.unit, n, p ** rel), v + rel)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if self.precision is INF:
                return Fraction(other) == 0
            other = self._coerce(other)
        if not isinstance(other, PadicScalar) or other.prime != self.prime:
            return NotImplemented
        try:
            return (self - other).is_zero
        except PrecisionExhausted:  # the difference vanishes mod p^N, N <= 0
            return True

    def __repr__(self):
        if self.is_zero:
            tail = "" if self.precision is INF else f" + O({self.prime}^{self.precision})"
            return f"0{tail}"
        return f"{self.unit}*{self.prime}^{self.valuation} + O({self.prime}^{self.precision})"


# ---------------------------------------------------------------------------
# combinatorial transforms
# ---------------------------------------------------------------------------

def factorial_valuation(n: int, p: int) -> int:
    """v_p(n!) by Legendre's digit-sum formula."""
    if n < 0:
        raise InvalidInput("n must be nonnegative")
    checked_prime(p)
    digit_sum, m = 0, n
    while m:
        digit_sum += m % p
        m //= p
    return (n - digit_sum) // (p - 1)


# The rows of `_surjection_head`, row r at index r, kept because a run of
# `moments` calls for r = 0, 1, ... re-reads them.  The table is replaced whole,
# never extended in place, so a reader in another thread never sees a partial one.
_SURJECTIONS = ((1,),)


def _falling_factorial_rows():
    """Rows n = 0, 1, ... of the monomial coefficients of X(X-1)...(X-n+1),
    each from the one before, of which only the current row is kept: row n
    is row n-1 times (X - n + 1), c_i = c'_(i-1) - (n-1) c'_i."""
    row, n = (1,), 0
    while True:
        yield row
        row = tuple(map(sub, (0,) + row, map(n.__mul__, row + (0,))))
        n += 1


def stirling_first_signed(n: int, i: int) -> int:
    """Coefficient of X^i in n! * C(X, n) (signed first-kind number)."""
    if not 0 <= i <= n:
        raise InvalidInput("need 0 <= i <= n")
    return next(islice(_falling_factorial_rows(), n, None))[i]


def _surjection_head(r: int, width: int) -> tuple:
    """The first `width` <= r + 1 entries of S(r, 0) 0!, ..., S(r, r) r!, the
    numbers of maps of an r-set onto an n-set: S(r, n) n! = n (S(r-1, n) n!
    + S(r-1, n-1) (n-1)!).  The table grows to row width - 1 only, as entries
    n < width of a row need only those of the row before; a row past the
    table is stepped on from its last row in width-wide rows, none kept."""
    global _SURJECTIONS
    table = _SURJECTIONS
    if len(table) < width:
        rows = list(table)
        while len(rows) < width:
            row = rows[-1]
            rows.append(tuple(map(mul, range(len(row) + 1), map(add, row + (0,), (0,) + row))))
        table = _SURJECTIONS = tuple(rows)
    if r < len(table):
        return table[r][:width]
    row = table[-1][:width]
    for _ in range(len(table), r + 1):
        row = tuple(map(mul, range(width), map(add, row, (0,) + row)))
    return row


def stirling_second(r: int, n: int) -> int:
    """S(r, n) in t^r = sum_n S(r,n) n! C(t,n), from the n + 1 terms of
    S(r, n) n! = sum_j (-1)^(n-j) C(n, j) j^r: no row of the table is built."""
    if not 0 <= n <= r:
        raise InvalidInput("need 0 <= n <= r")
    return sum((-1) ** (n - j) * math.comb(n, j) * j ** r
               for j in range(n + 1)) // math.factorial(n)


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

class TruncatedSeries(Frozen):
    """A power series known modulo T^order, coefficients in one exact domain."""

    __slots__ = ("coeffs", "prime")

    def __init__(self, coeffs, prime=None):
        coeffs = tuple(coeffs)
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
        self._set(coeffs, prime)

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

    def __repr__(self):
        shown = ", ".join(repr(c) for c in self.coeffs[:6])
        more = ", ..." if self.order > 6 else ""
        return f"TruncatedSeries([{shown}{more}] + O(T^{self.order}))"


def _binomial_row(Z: int, size: int) -> list:
    """C(Z, n) for an int Z and n < size, on integers by
    C(Z, n+1) = C(Z, n)(Z - n)/(n + 1), up to n = Z when 0 <= Z < size:
    the entries past it are 0."""
    stop = size - 1 if Z < 0 else min(Z, size - 1)
    return list(accumulate(range(stop), lambda c, n: c * (Z - n) // (n + 1), initial=1))


def _binomial_fields(Z: int, p: int, P: int, order: int):
    """The fields (valuation, unit, relative precision) that
    `PadicScalar._make(p, 0, C(Z, n), P_n)` stores, for n < order, Z = lift(z)
    of a PadicScalar z known mod p^P; a zero known mod p^P_n is read as
    (P_n, 0, 0).  C(Z, n) = C(Z, n-1) (Z - n + 1) / n is taken on integers,
    and P_n = P + sum_{k<n} w_k - max_{k<n} w_k - v_p(n!) as `binomial_series`
    derives it.  P_n <= 0 comes only at a zero C(Z, n) = 0, which is refused
    as a zero known to no precision."""
    c, w_sum, w_max, fact = 1, 0, 0, 0  # C(Z, n), sum/max of w_k, v_p(n!)
    yield 0, 1, P
    for n in range(1, order):
        t = Z - n + 1
        w = int_valuation(t, p) if t else P
        w_sum += w
        w_max = max(w_max, w)
        fact += int_valuation(n, p)
        c = c * t // n
        P_n = P + w_sum - w_max - fact
        if P_n <= 0:
            raise PrecisionExhausted("zero known to no precision")
        r = c % p ** P_n
        v = int_valuation(r, p) if r else P_n
        yield v, r // p ** v, P_n - v


def binomial_series(z, order: int) -> TruncatedSeries:
    """The Amice series (1+T)^z = sum_n C(z,n) T^n for z in Z_p.

    Exact int/Fraction inputs give exact coefficients, an integral one from
    the integer row `_binomial_row`.  The exact p-adic zero gives 1 + O(p)
    and then exact zeros, C(0, n) = 0 for n >= 1.

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
    The fields of each C(z, n) come from `_binomial_fields`, which
    `measure`'s atom sums read too.
    """
    if order < 1:
        raise InvalidInput("order must be >= 1")
    if isinstance(z, PadicScalar):
        if not z.is_zero and z.valuation < 0:
            raise InvalidInput("z must lie in Z_p")
        p, P = z.prime, z.precision
        if P is INF:
            return TruncatedSeries._from_fields(
                (PadicScalar.from_int(1, p, 1),) + (PadicScalar.zero(p),) * (order - 1), p)
        fields = _binomial_fields(z.lift(), p, P, order)
        return TruncatedSeries._from_fields(
            tuple(PadicScalar._make(p, v, u, v + rel) for v, u, rel in fields), p)
    z = Fraction(z)
    if z.denominator == 1:
        coeffs = _binomial_row(z.numerator, order)
        return TruncatedSeries._from_fields(tuple(coeffs + [0] * (order - len(coeffs))), None)
    coeffs = [1]
    for n in range(1, order):
        coeffs.append(exact(coeffs[-1] * (z - (n - 1)) / n))
    return TruncatedSeries._from_fields(tuple(coeffs), None)
