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
constructor, `PadicScalar._make`.  `_atom_sums` restates the product rule
on integer fields to sum c·C(z, n) over Dirac masses c·δ_z: the one body for
`binomial_series` of a PadicScalar and for `measure`'s atom measures.
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


def checked_prime(p: int) -> int:
    """p, once it is known to be an int and prime; any other p is refused,
    a p that is not an int (or is a bool) before the memo hashes it."""
    return _checked_prime(_require_int("prime", p))


@lru_cache(maxsize=256)
def _checked_prime(p: int) -> int:
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


def _integer_power(n) -> int:
    """The exponent n of a power, refused unless it is an int and not a bool."""
    if type(n) is bool or not isinstance(n, int):
        raise InvalidInput("only integer powers")
    return n


def _require_int(name: str, x):
    """x, refused unless it is an int and not a bool, before any other check
    reads it."""
    if type(x) is bool or not isinstance(x, int):
        raise InvalidInput(f"{name} {x!r} is not an int")
    return x


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
        if _integer_power(n) < 0:
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
    """The fields (valuation, unit, relative precision) of C(z, n), n < order,
    for a PadicScalar z known mod p^P, lift Z in [0, p^P), as the recurrence
    C(z, n) = C(z, n-1) (z - n + 1) / n gives them in PadicScalar arithmetic,
    a zero known mod p^P_n read as (P_n, 0, 0): the one statement of their
    precision rule.  The factor z - k has valuation w_k = min(v_p(Z - k), P),
    P at k = Z only, and n divides exactly.  For n <= Z no factor is 0 mod
    p^P, so C(z, n) keeps the lesser relative precision P - max_{k<n} w_k;
    past the first zero, at k = Z, a zero known mod p^e times a factor of
    valuation w is known mod p^(e + w).  Either way C(z, n) is C(Z, n), taken
    on integers, known mod p^P_n, P_n = P + sum_{k<n} w_k - max_{k<n} w_k
    - v_p(n!).  For n > Z, P_n = P - v_p(n·C(n-1, Z)), and v_p(n·C(n-1, Z))
    <= log_p n is below P for n < p^P and P at n = p^P: a zero with P_n <= 0
    ("zero known to no precision") is refused exactly when order > p^P."""
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


def _scalar_fields(x) -> tuple:
    """(valuation, unit, relative precision) of a PadicScalar, its valuation
    read as `_val` does, and (0, x, INF) for an exact int or Fraction x."""
    return (x._val, x.unit, x.rel_precision) if type(x) is PadicScalar else (0, x, INF)


def _product(x, y) -> tuple:
    """The fields of x·y from those of x and y, as `*` gives them: valuation
    v1 + v2, unit u1·u2 (not reduced: every reader reduces it mod a power of
    p, or it is exact) and relative precision min(rel1, rel2), so a product
    of exact values is their exact product.  The factors of one atom are
    both p-adic or both exact, as in every measure of the library."""
    return x[0] + y[0], x[1] * y[1], min(x[2], y[2])


def _atom_fields(atoms) -> list:
    """Each atom (c, z) as the fields of c and of z (`_scalar_fields`)."""
    return [(_scalar_fields(c), _scalar_fields(z)) for c, z in atoms]


def _atom_sums(atoms, p: int, size: int, rows: dict):
    """(totals, precisions) of Σ c·C(Z, n), n < size, over the atoms (c, Z)
    given by their fields, on integers: each sum is the total known mod
    p^precision, INF when exact.  C(Z, n) comes from `_atom_row` over rows,
    on the key of Z: an exact Z itself, else (lift, precision), the lift
    u·p^v reduced mod p^(v + rel).  A term has valuation v = v_c + v_n and
    precision v + min(rel_c, rel_n), as `*` gives it, the sum the least."""
    totals, precisions = [0] * size, [INF] * size
    for (vc, uc, rc), (vz, uz, rz) in atoms:
        N = vz + rz
        key = uz if N == INF else (uz * p ** vz % p ** N, N)
        for n, (v, u, rel) in enumerate(_atom_row(key, p, size, rows)):
            v += vc
            totals[n] += uc * u * p ** v
            P = v + (rel if rel < rc else rc)
            if P < precisions[n]:
                precisions[n] = P
    return totals, precisions


def _atom_row(key, p: int, size: int, rows: dict) -> list:
    """The fields of C(Z, n), n < size, kept in rows on the key of Z: an
    exact int Z, its row `_binomial_row` read as (0, C(Z, n), INF); a lift
    Z known mod p^P, (Z, P), its fields from `_binomial_fields`, which
    refuses a zero known to no precision."""
    row = rows.get(key)
    if row is None:
        row = rows[key] = [(0, c, INF) for c in _binomial_row(key, size)] \
            if type(key) is int else list(_binomial_fields(key[0], p, key[1], size))
    return row


def _atom_scalars(atoms, p: int, size: int, rows: dict, cap=INF) -> tuple:
    """The sums of `_atom_sums` over the atoms (c, z), each one PadicScalar
    known mod p^min(N, cap)."""
    totals, precisions = _atom_sums(_atom_fields(atoms), p, size, rows)
    return tuple(PadicScalar._make(p, 0, total, min(N, cap))
                 for total, N in zip(totals, precisions))


def binomial_series(z, order: int) -> TruncatedSeries:
    """The Amice series (1+T)^z = sum_n C(z,n) T^n for z in Z_p.

    Exact int/Fraction inputs give exact coefficients, an integral one from
    the integer row `_binomial_row`.  A PadicScalar z known mod p^P gives
    `_atom_scalars` of the one atom (1 + O(p^P), z), 1 + O(p) for the exact
    zero, whose C(0, n), n >= 1, are exact zeros: C(z, n) with the fields
    of `_binomial_fields`, which refuses an order past p^P.
    """
    _require_int("order", order)
    if order < 1:
        raise InvalidInput("order must be >= 1")
    if isinstance(z, PadicScalar):
        if not z.is_zero and z.valuation < 0:
            raise InvalidInput("z must lie in Z_p")
        p, P = z.prime, z.precision
        one = PadicScalar._make(p, 0, 1, 1 if P is INF else P)
        return TruncatedSeries._from_fields(_atom_scalars(((one, z),), p, order, {}), p)
    z = Fraction(z)
    if z.denominator == 1:
        coeffs = _binomial_row(z.numerator, order)
        return TruncatedSeries._from_fields(tuple(coeffs + [0] * (order - len(coeffs))), None)
    coeffs = [1]
    for n in range(1, order):
        coeffs.append(exact(coeffs[-1] * (z - (n - 1)) / n))
    return TruncatedSeries._from_fields(tuple(coeffs), None)
