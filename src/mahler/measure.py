"""Bounded measures on Z_p stored by their Mahler coefficients a_n = ∫ C(t,n) dµ.

The binomial-coefficient sequence is the canonical store; moments are derived
through the Stirling transforms (an exact, triangular change of basis), and
restriction to the units is done entirely in the (1+T)^m basis with integer
weights, so no root-of-unity arithmetic ever appears.

Coefficients may be exact (int / Fraction, p-integral) or `PadicScalar`,
mixed freely; every result below is what plain `+`/`*` give under the
scalar rule stated in `padic`: exact zeros (int/Fraction 0, the
infinite-precision PadicScalar zero) drop out, an inexact zero keeps its
precision, and an exact result is an int when integral, else a Fraction.
Exact inputs stay exact through every operation that permits it.

Each transform is a dot product of integer rows with one coefficient list,
taken by `_dot`, and `_residues` chooses once per list: over PadicScalars of
one prime and exact zeros every row is summed on integers (`_residue_dot`),
the value Σ c·lift(x) mod p^P with P = min(prec(x) + v_p(c)), which is what
`+` and `*` give term by term; over any other list, with `+` and `*`.

Where every coefficient is such a scalar, the measure operations stay on
integer residues (value, N), x known mod p^N, and make one PadicScalar per
output through `PadicScalar._make`, with the precision `+` and `*` would give:
* `Measure.scale` by a PadicScalar: `PadicScalar._times`, the product
  formula of `*`, for each coefficient known to finite precision;
* `restrict_to_units`: the (1+T)^m coefficients c_m for p ∤ m as residues,
  then only the n_out outputs, each sum started at the target precision, so
  the cap is the least precision and costs no scalar;
* `cell_mass` and the other restrictions cap a PadicScalar x by integer
  reduction, x mod p^min(prec(x), N), as x + O(p^N) would;
* `pairing_measure` and its one-pair case `mult_pushforward`: the moment
  products m_r(µ1_s) m_r(µ2_s) (precision min(N1 + v2, N2 + v1)), their sum
  over the classes and the 1/h, one scalar per moment.
Exact and mixed coefficients take the `+`/`*` path with its results and
refusals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul, sub

from .errors import Frozen, InvalidInput, PrecisionExhausted
from .padic import (INF, PadicScalar, _falling_factorial_coeffs, _stirling_second_row,
                    binomial_series, checked_prime, exact, is_p_integral)

_FACTORIALS = (1,)  # n! at index n; replaced whole by a longer table when needed


def _factorials(n: int) -> tuple:
    """0!, 1!, ..., (n-1)!: a prefix of one shared table."""
    global _FACTORIALS
    table = _FACTORIALS
    if len(table) < n:
        table = _FACTORIALS = tuple(accumulate(range(1, 2 * n), mul, initial=1))
    return table[:n]


def _binomial_columns(size: int):
    """For m = 0, 1, ..., size-1 the column [C(m, m), C(m+1, m), ...,
    C(size-1, m)] of Pascal's triangle: column m+1 is the running sum of
    column m without its last entry."""
    col = [1] * size
    while col:
        yield col
        col = list(accumulate(col[:-1]))


def _residues(xs):
    """(p, [(lift(x), prec(x))]) when every x is a PadicScalar of one prime p
    with valuation >= 0 or int 0, which gives (0, INF) as the exact zero does;
    None for any other list and for one without a PadicScalar."""
    p, out = None, []
    for x in xs:
        if type(x) is PadicScalar:
            if p is None:
                p = x.prime
            if x.prime != p or (x.unit and x.valuation < 0):
                return None
            out.append((x.unit * p ** x.valuation if x.unit else 0, x.precision))
        elif type(x) is int and x == 0:
            out.append((0, INF))
        else:
            return None
    return None if p is None else (p, out)


def _residue_dot(row, residues, p: int, P=INF):
    """Σ c·x over zip(row, residues) on integers, each (x, N) standing for x
    known mod p^N: (total, P') with P' the minimum of P and of N + v_p(c) over
    the terms with c ≠ 0 and N finite, the precision PadicScalar's `+` and `*`
    give the sum term by term; total is its value mod p^P'.  P' is INF when
    no term contributes and P is INF: the sum is the exact zero."""
    total = 0
    for c, (x, N) in zip(row, residues):
        if not c or N is INF:
            continue
        total += c * x
        while N < P and c % p == 0:  # N + v_p(c), as far as it can lower P
            c //= p
            N += 1
        if N < P:
            P = N
    return total, P


def _valuation(x: int, p: int, N: int) -> int:
    """v_p of x known mod p^N, reading a zero mod p^N as valuation N."""
    v = 0
    while v < N and x % p == 0:
        x //= p
        v += 1
    return v


def _dot(row, xs, res, start=0):
    """Σ c·x over zip(row, xs[start:]) for a row of ints, res = `_residues(xs)`:
    with residues, `_residue_dot`, one PadicScalar known mod p^P or int 0 when
    no term contributes; without, `+` and `*`."""
    if res is None:
        return sum(map(mul, row, xs[start:]))
    p, residues = res
    total, P = _residue_dot(row, residues[start:], p)
    return 0 if P is INF else PadicScalar._make(p, 0, total, P)


def _cap_precision(x, p: int, precision: int):
    """x + O(p^precision): a PadicScalar is reduced mod p^min(prec(x),
    precision), which is what adding the zero known mod p^precision gives; an
    exact x is added to that zero, and refused as `+` refuses it."""
    if type(x) is PadicScalar:
        return PadicScalar._make(p, x.valuation, x.unit, min(x.precision, precision))
    return x + PadicScalar.zero(p, precision)


def _integral(x, p: int) -> bool:
    if type(x) is PadicScalar:
        return not x.unit or x.valuation >= 0
    return is_p_integral(x, p)


class Measure(Frozen):
    """A bounded measure on Z_p, known through its first `order` Mahler
    coefficients; `finite` marks a complete expansion (all higher a_n = 0)."""

    __slots__ = ("prime", "mahler", "finite")

    def __init__(self, prime: int, mahler, finite: bool = False):
        if not checked_prime(prime):
            raise InvalidInput(f"{prime} is not prime")
        mahler = tuple(mahler)
        if not mahler:
            raise InvalidInput("a measure needs at least one Mahler coefficient")
        for a in mahler:
            if type(a) is PadicScalar and a.prime != prime:
                raise InvalidInput("coefficient prime mismatch")
            if not _integral(a, prime):
                raise InvalidInput("Mahler coefficient with negative valuation: "
                                   "this is a distribution, not a measure")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "mahler", mahler)
        object.__setattr__(self, "finite", finite)

    @property
    def order(self) -> int:
        return len(self.mahler)

    def coefficient(self, n: int):
        if n < self.order:
            return self.mahler[n]
        if self.finite:
            return 0
        raise InvalidInput(f"coefficient {n} beyond order {self.order} "
                           "of a non-finite measure")

    def support_degree(self) -> int:
        """Largest index with a nonzero stored coefficient."""
        for n in range(self.order - 1, -1, -1):
            if self.mahler[n] != 0:
                return n
        return 0

    def scale(self, scalar) -> "Measure":
        """Multiply by a p-integral scalar (boundedness is preserved).  A
        PadicScalar of the measure's prime, not the exact zero, multiplies each
        coefficient known to finite precision by `PadicScalar._times`, as `*`
        does without its dispatch; every other product is taken with `*`."""
        p = self.prime
        if type(scalar) is not PadicScalar or scalar.prime != p or scalar.precision is INF:
            return Measure(p, [exact(scalar * a) for a in self.mahler], finite=self.finite)
        return Measure(p, [scalar._times(a) if type(a) is PadicScalar
                           and a.precision is not INF else scalar * a
                           for a in self.mahler], finite=self.finite)

    def __repr__(self):
        flag = "finite" if self.finite else f"order {self.order}"
        return f"Measure(p={self.prime}, {flag}, mahler={list(self.mahler[:5])}...)"


def dirac(z, prime: int, order: int) -> Measure:
    """The Dirac measure at z in Z_p: Mahler coefficients C(z, n)."""
    if isinstance(z, PadicScalar):
        if z.prime != prime:
            raise InvalidInput("prime mismatch")
        series = binomial_series(z, order)
        return Measure(prime, series.coeffs, finite=False)
    z = Fraction(z)
    if not is_p_integral(z, prime):
        raise InvalidInput("z must lie in Z_p")
    series = binomial_series(z, order)
    finite = z.denominator == 1 and 0 <= z < order
    return Measure(prime, series.coeffs, finite=finite)


def _moment_weights(mu: Measure, r: int) -> list:
    """S(r, n) n! for n <= min(r, order - 1): m_r(µ) = Σ_n S(r, n) n! a_n."""
    if r < 0:
        raise InvalidInput("moment index must be nonnegative")
    if r >= mu.order and not mu.finite:
        raise InvalidInput(f"moment {r} needs order > {r} or a finite measure")
    n = min(r, mu.order - 1) + 1
    return list(map(mul, _stirling_second_row(r), _factorials(n)))


def moments(mu: Measure, r: int):
    """m_r(µ) = ∫ t^r dµ = Σ_n S(r,n) n! a_n — a finite exact sum."""
    weights = _moment_weights(mu, r)
    coeffs = mu.mahler[:len(weights)]
    return exact(_dot(weights, coeffs, _residues(coeffs)))


def mahler_from_moments(b, prime: int) -> Measure:
    """Invert the moment map: a_n = (1/n!) Σ_i γ_{n,i} b_i.

    The division by n! costs v_p(n!) of absolute precision on p-adic input;
    a coefficient that fails integrality at the available precision means the
    moments were not those of a bounded measure.
    """
    b = list(b)
    if not b:
        raise InvalidInput("need at least the 0-th moment")
    coeffs = []
    res = _residues(b)
    for n in range(len(b)):
        total = _dot(_falling_factorial_coeffs(n), b, res)
        a_n = exact(total * Fraction(1, math.factorial(n)))
        if not _integral(a_n, prime):
            raise InvalidInput(f"non-integral Mahler coefficient at n={n}: "
                               "moments do not define a bounded measure")
        coeffs.append(a_n)
    return Measure(prime, coeffs, finite=False)


# -- the (1+T)^m basis --------------------------------------------------------

def plus_basis(mu: Measure):
    """Coefficients c_m with F(T) = Σ c_m (1+T)^m, m < order.

    Exact for finite measures; in general c_m mixes all stored a_k.
    """
    K = mu.order
    signs = [(-1) ** j for j in range(K)]
    res = _residues(mu.mahler)
    return [exact(_dot(map(mul, signs, col), mu.mahler, res, m))
            for m, col in enumerate(_binomial_columns(K))]


def from_plus_basis(c, prime: int, finite: bool) -> Measure:
    """Mahler coefficients a_n = Σ_m c_m C(m, n) from (1+T)^m coefficients."""
    res = _residues(c)
    mahler = [exact(_dot(col, c, res, n)) for n, col in enumerate(_binomial_columns(len(c)))]
    return Measure(prime, mahler, finite=finite)


def restriction_tail_valuation(order: int, n: int, p: int) -> int:
    """Lower bound for v_p of the truncation error in the n-th restricted
    coefficient: every dropped band k >= order contributes at least
    (k-n)/(p-1) - 1, coming from the µ_p averaging."""
    return math.ceil(Fraction(order - n, p - 1) - 1)


def restrict_to_units(mu: Measure, precision: int | None = None) -> Measure:
    """Restriction of µ to Z_p^×: drop every (1+T)^m component with p | m.

    Finite measures restrict exactly.  For a truncated measure the caller
    must name a target precision; the call refuses when the truncation-tail
    valuation bound cannot support it, before any transform.  Its first
    n_out coefficients are kept, capped at the target precision; a missing
    or bad target is reported after the transform, whose own refusal of
    mixed coefficients comes first.
    """
    p = mu.prime
    if not mu.finite and precision is not None and precision >= 1:
        n_out = mu.order - (precision + 1) * (p - 1)
        if n_out < 1:
            best = restriction_tail_valuation(mu.order, 0, p)
            raise PrecisionExhausted(
                f"order {mu.order} supports restriction precision at most {best}")
        res = _residues(mu.mahler)
        if res is not None:
            return Measure(p, _restricted_residues(res[1], p, n_out, precision), finite=False)
    c = plus_basis(mu)
    kept = [0 if m % p == 0 else c[m] for m in range(len(c))]
    if mu.finite:
        return from_plus_basis(kept, p, finite=True)
    if precision is None:
        raise InvalidInput("restricting a truncated measure needs a target precision")
    if precision < 1:
        raise InvalidInput("target precision must be >= 1")
    raw = from_plus_basis(kept, p, finite=False)
    capped = [_cap_precision(a, p, precision) for a in raw.mahler[:n_out]]
    return Measure(p, capped, finite=False)


def _restricted_residues(residues, p: int, n_out: int, precision: int) -> list:
    """The first n_out restricted coefficients of a truncated measure whose
    coefficients are the residues, known at most mod p^precision: the
    (1+T)^m coefficients c_m for p ∤ m as residues, then each output sum
    started at the target precision, so the cap is its least precision."""
    K = len(residues)
    signs = [(-1) ** j for j in range(K)]
    kept = [(0, INF)] * K
    for m, col in enumerate(_binomial_columns(K)):
        if m % p:
            total, P = _residue_dot(map(mul, signs, col), residues[m:], p)
            kept[m] = (total, P) if P is INF else (total % p ** P, P)
    return [PadicScalar._make(p, 0, *_residue_dot(col, kept[n:], p, precision))
            for n, col in zip(range(n_out), _binomial_columns(K))]


def cell_tail_valuation(order: int, nu: int, p: int) -> int:
    """Lower bound for v_p of the truncation error of a level-nu cell mass."""
    return math.ceil(Fraction(order, p ** (nu - 1) * (p - 1)) - nu)


def _cell_weights(a: int, q: int, size: int):
    """w_k = Σ_{m ≡ a mod q} (-1)^(k-m) C(k, m) for k < size, from row k of
    Pascal's triangle folded mod q with signs: row k+1 at residue r is row k
    at r-1 minus row k at r.

    The row is kept at length min(q, size): for q > size, row k < size has
    no entry at index size or above, so folding mod size changes no weight
    that is read, and every weight is 0 when a >= size."""
    width = min(q, size)
    if a >= width:
        yield from repeat(0, size)
        return
    row = [1] + [0] * (width - 1)
    for _ in range(size):
        yield row[a]
        row = list(map(sub, row[-1:] + row[:-1], row))


def cell_mass(mu: Measure, a: int, nu: int, precision: int | None = None):
    """µ(a + p^nu Z_p) = Σ_k a_k Σ_{m ≡ a mod p^nu} (-1)^{k-m} C(k, m)."""
    p = mu.prime
    if nu < 1:
        raise InvalidInput("level nu must be >= 1")
    q = p ** nu
    if not 0 <= a < q:
        raise InvalidInput("residue out of range")
    if not mu.finite:
        if precision is None:
            raise InvalidInput("cell mass of a truncated measure needs a target precision")
        bound = cell_tail_valuation(mu.order, nu, p)
        if precision > bound:
            raise PrecisionExhausted(
                f"order {mu.order} supports level-{nu} cell masses to precision "
                f"at most {bound}")
    total = exact(_dot(_cell_weights(a, q, mu.order), mu.mahler, _residues(mu.mahler)))
    if mu.finite:
        return total
    return _cap_precision(total, p, precision)


def integrate_step(mu: Measure, phi, precision: int | None = None):
    """∫ φ dµ for a step function φ given by its values on Z/p^nu."""
    p = mu.prime
    size = len(phi)
    nu = 0
    while p ** nu < size:
        nu += 1
    if p ** nu != size or nu == 0:
        raise InvalidInput("phi must list its values on all of Z/p^nu, nu >= 1")
    return exact(sum(phi[a] * cell_mass(mu, a, nu, precision) for a in range(size)))


def mult_pushforward(mu1: Measure, mu2: Measure, r_max: int) -> Measure:
    """The measure with m_r = m_r(µ1) m_r(µ2) for r <= r_max (image of
    µ1 ⊗ µ2 under multiplication): the pairing measure of the one pair
    (µ1, µ2), finite when both are and r_max reaches the product's degree.

    The Stirling transforms are triangular, so the first r_max+1 Mahler
    coefficients computed this way are exactly those of the product measure.
    """
    out = pairing_measure([(mu1, mu2)], r_max)
    finite = mu1.finite and mu2.finite and mu1.support_degree() * mu2.support_degree() <= r_max
    return Measure(mu1.prime, out.mahler, finite=True) if finite else out


def pairing_measure(pairs, r_max: int) -> Measure:
    """Average of multiplicative pushforwards over class-indexed pairs:
    m_r = (1/h) Σ_s m_r(µ1_s) m_r(µ2_s)."""
    pairs = list(pairs)
    if not pairs:
        raise InvalidInput("need at least one pair")
    p = pairs[0][0].prime
    h = len(pairs)
    padic_mode = any(isinstance(a, PadicScalar) for m1, m2 in pairs
                     for a in m1.mahler + m2.mahler)
    if padic_mode and h % p == 0:
        raise InvalidInput("class count divisible by p in p-adic-only mode")
    if any(m1.prime != p or m2.prime != p for m1, m2 in pairs):
        raise InvalidInput("prime mismatch")
    if r_max < 0:
        raise InvalidInput("r_max must be >= 0")
    residues = [(_residues(m1.mahler), _residues(m2.mahler)) for m1, m2 in pairs]
    if any(res is None for pair in residues for res in pair):  # exact or mixed: `+`, `*`
        b = [exact(sum(moments(m1, r) * moments(m2, r) for m1, m2 in pairs))
             for r in range(r_max + 1)]
        if h > 1:  # a pushforward's one pair is not multiplied by 1/1
            b = [exact(m * Fraction(1, h)) for m in b]
    else:
        b = [_paired_moment(pairs, residues, r, p, h) for r in range(r_max + 1)]
    return mahler_from_moments(b, p)


def _paired_moment(pairs, residues, r: int, p: int, h: int):
    """(1/h) Σ_s m_r(µ1_s) m_r(µ2_s) on integers, each measure given with its
    `_residues`: a product of moments known mod p^N1 and p^N2, of valuations
    v1 and v2, is known mod p^min(N1 + v2, N2 + v1), as `*` gives it; the
    sum takes the least precision and 1/h, a unit, keeps it.  One
    PadicScalar, or int 0 when every product is an exact zero."""
    total, P = 0, INF
    for (m1, m2), ((_, res1), (_, res2)) in zip(pairs, residues):
        t1, P1 = _residue_dot(_moment_weights(m1, r), res1, p)
        t2, P2 = _residue_dot(_moment_weights(m2, r), res2, p)
        if P1 is INF or P2 is INF:  # an exact zero moment drops out
            continue
        total += t1 * t2
        P = min(P, P1 + _valuation(t2, p, P2), P2 + _valuation(t1, p, P1))
    return 0 if P is INF else PadicScalar._make(p, 0, total * pow(h, -1, p ** P), P)
