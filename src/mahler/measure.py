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
A list of ints and Fractions alone takes recurrences, with the same values:
falling factors in `mahler_from_moments`, Taylor shifts in the (1+T)^m basis.
Other lists keep the rows: P, the least of prec(x) + v_p(c) over one row's
entries, is a precision that a recurrence's partial sums do not carry.

The capped outputs of a truncated measure -- `restrict_to_units`,
`cell_mass` and `integrate_step` at a target precision N -- take the integer
route for every coefficient type: `_residues` reads each coefficient once as
x + O(p^N), an exact x as (x mod p^N, N), and each output sum starts at
precision N, so the cap is the least precision and costs no scalar.
`restrict_to_units` forms the (1+T)^m coefficients c_m for p ∤ m as
residues, then only its n_out outputs.  Where every coefficient is a
PadicScalar of one prime or an exact zero, `pairing_measure` and its
one-pair case `mult_pushforward` stay on integers too: the moment products
m_r(µ1_s) m_r(µ2_s) (precision min(N1 + v2, N2 + v1)), their sum over the
classes and the 1/h, one PadicScalar per moment through `PadicScalar._make`.
Other exact and mixed lists take the `+`/`*` path, where an exact entry
meets a PadicScalar known mod p^N as its class mod p^N.  Finite measures
with exact coefficients take no moments in `pairing_measure` when every
product atom is at most r_max: Σ c_m δ_m over their (1+T)^m coefficients
push forward atom by atom, and one Taylor shift of the product atoms gives
the Mahler coefficients (`_pushed_atoms`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul, sub

from .arith import int_valuation
from .errors import Frozen, InvalidInput, PrecisionExhausted
from .padic import (INF, PadicScalar, _falling_factorial_rows, _surjection_head,
                    binomial_series, checked_prime, exact, is_p_integral)


def _is_exact(xs) -> bool:
    """True when every x is an int or a Fraction (a bool is neither)."""
    return all(type(x) is int or type(x) is Fraction for x in xs)


def _taylor_shift(xs) -> list:
    """The coefficients of f(X + 1), f = Σ xs[k] X^k, by additions only: the
    suffix sums are Horner's scheme at 1, f(1) and then (f(X) - f(1))/(X - 1),
    shifted in turn (von zur Gathen and Gerhard, ISSAC 1997)."""
    rev, out = xs[::-1], []
    while rev:
        rev = list(accumulate(rev))
        out.append(exact(rev.pop()))
    return out


def _alternated(xs) -> list:
    """xs[k] times (-1)^k: f(X) to f(-X)."""
    return [-x if k % 2 else x for k, x in enumerate(xs)]


def _binomial_columns(size: int):
    """For m = 0, 1, ..., size-1 the column [C(m, m), C(m+1, m), ...,
    C(size-1, m)] of Pascal's triangle: column m+1 is the running sum of
    column m without its last entry."""
    col = [1] * size
    while col:
        yield col
        col = list(accumulate(col[:-1]))


def _residues(xs, p=None, target=None):
    """(p, [(lift(x), prec(x))]) when every x is a PadicScalar of one prime p
    with valuation >= 0 or int 0, which gives (0, INF) as the exact zero does;
    None for any other list and for one without a PadicScalar.  Given the
    prime and a target precision >= 1, as a truncated measure's capped
    outputs read it, any other p-integral x is read as x + O(p^target),
    (x mod p^target, target): a measure's coefficients always give residues."""
    out = []
    for x in xs:
        if type(x) is PadicScalar:
            if p is None:
                p = x.prime
            if x.prime != p or (x.unit and x.valuation < 0):
                return None
            out.append((x.unit * p ** x.valuation if x.unit else 0, x.precision))
        elif type(x) is int and x == 0:
            out.append((0, INF))
        elif target is None:
            return None
        else:
            x, q = Fraction(x), p ** target
            out.append((x.numerator * pow(x.denominator, -1, q) % q, target))
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
    return min(int_valuation(x, p), N) if x else N


def _dot(row, xs, res, start=0, P=INF):
    """Σ c·x over zip(row, xs[start:]) for a row of ints, res = `_residues(xs)`:
    with residues, `_residue_dot` started at precision P, one PadicScalar
    known mod p^P' or int 0 when no term contributes; without, `+` and `*`."""
    if res is None:
        return sum(map(mul, row, xs[start:]))
    p, residues = res
    total, P = _residue_dot(row, residues[start:], p, P)
    return 0 if P is INF else PadicScalar._make(p, 0, total, P)


class Measure(Frozen):
    """A bounded measure on Z_p, known through its first `order` Mahler
    coefficients; `finite` marks a complete expansion (all higher a_n = 0)."""

    __slots__ = ("prime", "mahler", "finite")

    def __init__(self, prime: int, mahler, finite: bool = False):
        checked_prime(prime)
        mahler = tuple(mahler)
        if not mahler:
            raise InvalidInput("a measure needs at least one Mahler coefficient")
        for a in mahler:
            if type(a) is PadicScalar and a.prime != prime:
                raise InvalidInput("coefficient prime mismatch")
            if not is_p_integral(a, prime):
                raise InvalidInput("Mahler coefficient with negative valuation: "
                                   "this is a distribution, not a measure")
        self._set(prime, mahler, finite)

    @property
    def order(self) -> int:
        return len(self.mahler)

    def support_degree(self) -> int:
        """Largest index with a nonzero stored coefficient."""
        for n in range(self.order - 1, -1, -1):
            if self.mahler[n] != 0:
                return n
        return 0

    def scale(self, scalar) -> "Measure":
        """Multiply by a p-integral scalar (boundedness is preserved).  The
        products are checked as `Measure` checks unless the scalar is a
        p-integral int, Fraction or PadicScalar of the measure's prime."""
        p = self.prime
        known = (scalar.prime == p if type(scalar) is PadicScalar
                 else type(scalar) in (int, Fraction))
        build = Measure._from_fields if known and is_p_integral(scalar, p) else Measure
        return build(p, tuple(exact(scalar * a) for a in self.mahler), self.finite)

    def __repr__(self):
        flag = "finite" if self.finite else f"order {self.order}"
        return f"Measure(p={self.prime}, {flag}, mahler={list(self.mahler[:5])}...)"


def dirac(z, prime: int, order: int) -> Measure:
    """The Dirac measure at z in Z_p: Mahler coefficients C(z, n)."""
    if isinstance(z, PadicScalar):
        if z.prime != prime:
            raise InvalidInput("prime mismatch")
        series, finite = binomial_series(z, order), False
    else:
        z = Fraction(z)
        if not is_p_integral(z, prime):
            raise InvalidInput("z must lie in Z_p")
        series, finite = binomial_series(z, order), z.denominator == 1 and 0 <= z < order
    checked_prime(prime)
    return Measure._from_fields(prime, series.coeffs, finite)


def _moment_weights(mu: Measure, r: int) -> list:
    """S(r, n) n! for n <= min(r, order - 1): m_r(µ) = Σ_n S(r, n) n! a_n."""
    if r < 0:
        raise InvalidInput("moment index must be nonnegative")
    if r >= mu.order and not mu.finite:
        raise InvalidInput(f"moment {r} needs order > {r} or a finite measure")
    return _surjection_head(r, min(r, mu.order - 1) + 1)


def moments(mu: Measure, r: int):
    """m_r(µ) = ∫ t^r dµ = Σ_n S(r,n) n! a_n — a finite exact sum."""
    weights = _moment_weights(mu, r)
    coeffs = mu.mahler[:len(weights)]
    return exact(_dot(weights, coeffs, _residues(coeffs)))


def mahler_from_moments(b, prime: int) -> Measure:
    """Invert the moment map: a_n = (1/n!) Σ_i γ_{n,i} b_i.

    On exact moments, c_i = ∫ t^i t(t-1)...(t-n+1) dµ: a_n = c_0 / n!, and the
    factor (t - n) makes c_i of c_(i+1) - n c_i.  Other lists take the rows γ_n.
    The division by n! costs v_p(n!) of absolute precision on p-adic input;
    a coefficient that fails integrality at the available precision means the
    moments were not those of a bounded measure.
    """
    b = list(b)
    if not b:
        raise InvalidInput("need at least the 0-th moment")
    coeffs, factorial, rows = [], 1, _falling_factorial_rows()
    res, c = _residues(b), b if _is_exact(b) else None
    for n in range(len(b)):
        factorial *= n or 1
        if c is None:
            a_n = exact(_dot(next(rows), b, res) * Fraction(1, factorial))
        else:
            a_n = exact(Fraction(c[0], factorial))
            c = [y - n * x for x, y in zip(c, c[1:])]
        coeffs.append(_bounded(a_n, prime, n))
    return Measure(prime, coeffs, finite=False)


def _bounded(a_n, prime: int, n: int):
    """a_n, refused unless p-integral: the n-th Mahler coefficient of moments."""
    if not is_p_integral(a_n, prime):
        raise InvalidInput(f"non-integral Mahler coefficient at n={n}: "
                           "moments do not define a bounded measure")
    return a_n


# -- the (1+T)^m basis --------------------------------------------------------

def plus_basis(mu: Measure):
    """Coefficients c_m with F(T) = Σ c_m (1+T)^m, m < order.

    Exact for finite measures; in general c_m mixes all stored a_k.  On
    exact coefficients, F(T) = G(-T) with G(Y) = Σ (-1)^k a_k (1 + Y)^k: the
    Taylor shift by 1 of the alternated coefficients, alternated.
    """
    if _is_exact(mu.mahler):
        return _alternated(_taylor_shift(_alternated(mu.mahler)))
    K = mu.order
    signs = [(-1) ** j for j in range(K)]
    res = _residues(mu.mahler)
    return [exact(_dot(map(mul, signs, col), mu.mahler, res, m))
            for m, col in enumerate(_binomial_columns(K))]


def from_plus_basis(c, prime: int, finite: bool) -> Measure:
    """Mahler coefficients a_n = Σ_m c_m C(m, n) from (1+T)^m coefficients:
    on exact ones, the Taylor shift by 1."""
    if _is_exact(c):
        return Measure(prime, _taylor_shift(c), finite=finite)
    res = _residues(c)
    mahler = [exact(_dot(col, c, res, n)) for n, col in enumerate(_binomial_columns(len(c)))]
    return Measure(prime, mahler, finite=finite)


def restrict_to_units(mu: Measure, precision: int | None = None) -> Measure:
    """Restriction of µ to Z_p^×: drop every (1+T)^m component with p | m.

    Finite measures restrict exactly.  For a truncated measure the caller
    must name a target precision >= 1; the call refuses a missing or bad
    target, and one that the truncation-tail valuation bound cannot support,
    before any transform.  Its first n_out coefficients are kept, capped at
    the target precision.
    """
    p = mu.prime
    if mu.finite:
        c = plus_basis(mu)
        return from_plus_basis([0 if m % p == 0 else c[m] for m in range(len(c))], p, True)
    if precision is None:
        raise InvalidInput("restricting a truncated measure needs a target precision")
    if precision < 1:
        raise InvalidInput("target precision must be >= 1")
    n_out = mu.order - (precision + 1) * (p - 1)
    if n_out < 1:
        raise PrecisionExhausted(f"order {mu.order} supports restriction "
                                 f"precision at most {(mu.order - 1) // (p - 1) - 1}")
    return Measure._from_fields(p, _restricted(mu.mahler, p, n_out, precision), False)


def _restricted(mahler, p: int, n_out: int, precision: int) -> tuple:
    """The first n_out restricted coefficients of a truncated measure, each
    coefficient read as x + O(p^precision): the (1+T)^m coefficients c_m for
    p ∤ m as residues, then each output sum started at the target precision,
    so the cap is its least precision."""
    residues = _residues(mahler, p, precision)[1]
    K = len(residues)
    signs = [(-1) ** j for j in range(K)]
    kept = [(0, INF)] * K
    for m, col in enumerate(_binomial_columns(K)):
        if m % p:
            total, P = _residue_dot(map(mul, signs, col), residues[m:], p)
            kept[m] = (total, P) if P is INF else (total % p ** P, P)
    return tuple(PadicScalar._make(p, 0, *_residue_dot(col, kept[n:], p, precision))
                 for n, col in zip(range(n_out), _binomial_columns(K)))


def cell_tail_valuation(order: int, nu: int, p: int) -> int:
    """Lower bound for v_p of the truncation error of a level-nu cell mass."""
    return math.ceil(Fraction(order, p ** (nu - 1) * (p - 1)) - nu)


def _cell_rows(q: int, size: int):
    """Rows k < size of Pascal's triangle folded mod q with signs: entry a of
    row k is w_k(a) = Σ_{m ≡ a mod q} (-1)^(k-m) C(k, m), and row k+1 at
    residue r is row k at r-1 minus row k at r.

    A row is kept at length min(q, size): for q > size, row k < size has
    no entry at index size or above, so folding mod size changes no weight
    that is read, and every weight is 0 when a >= size."""
    row = [1] + [0] * (min(q, size) - 1)
    yield row
    for _ in range(size - 1):
        row = list(map(sub, row[-1:] + row[:-1], row))
        yield row


def _cell_gate(mu: Measure, nu: int, precision):
    """The refusals of a level-nu cell mass of µ, the same for every cell;
    then the coefficients' `_residues` and the precision each cell sum starts
    at: INF for a finite measure, the target for a truncated one, whose
    coefficients are read as x + O(p^target)."""
    if mu.finite:
        return _residues(mu.mahler), INF
    if precision is None:
        raise InvalidInput("cell mass of a truncated measure needs a target precision")
    bound = cell_tail_valuation(mu.order, nu, mu.prime)
    if precision > bound:
        raise PrecisionExhausted(f"order {mu.order} supports level-{nu} cell masses "
                                 f"to precision at most {bound}")
    if precision < 1:
        raise PrecisionExhausted("zero known to no precision")
    return _residues(mu.mahler, mu.prime, precision), precision


def cell_mass(mu: Measure, a: int, nu: int, precision: int | None = None):
    """µ(a + p^nu Z_p) = Σ_k a_k Σ_{m ≡ a mod p^nu} (-1)^{k-m} C(k, m)."""
    if nu < 1:
        raise InvalidInput("level nu must be >= 1")
    q = mu.prime ** nu
    if not 0 <= a < q:
        raise InvalidInput("residue out of range")
    res, P = _cell_gate(mu, nu, precision)
    K = mu.order
    weights = [row[a] for row in _cell_rows(q, K)] if a < min(q, K) else repeat(0, K)
    return exact(_dot(weights, mu.mahler, res, 0, P))


def integrate_step(mu: Measure, phi, precision: int | None = None):
    """∫ φ dµ for a step function φ given by its values on Z/p^nu: the
    cell masses µ(a + p^nu Z_p), read from one set of folded rows."""
    p = mu.prime
    size = len(phi)
    nu = 0
    while p ** nu < size:
        nu += 1
    if p ** nu != size or nu == 0:
        raise InvalidInput("phi must list its values on all of Z/p^nu, nu >= 1")
    res, P = _cell_gate(mu, nu, precision)
    columns = list(zip(*_cell_rows(size, mu.order)))
    zeros = (0,) * mu.order
    return exact(sum(phi[a] * exact(_dot(columns[a] if a < len(columns) else zeros,
                                         mu.mahler, res, 0, P)) for a in range(size)))


def mult_pushforward(mu1: Measure, mu2: Measure, r_max: int) -> Measure:
    """The measure with m_r = m_r(µ1) m_r(µ2) for r <= r_max (image of
    µ1 ⊗ µ2 under multiplication): the pairing measure of the one pair
    (µ1, µ2), finite when both are and r_max reaches the product's degree.

    The Stirling transforms are triangular, so the first r_max+1 Mahler
    coefficients computed this way are exactly those of the product measure.
    """
    out = pairing_measure([(mu1, mu2)], r_max)
    finite = mu1.finite and mu2.finite and mu1.support_degree() * mu2.support_degree() <= r_max
    return Measure._from_fields(mu1.prime, out.mahler, True) if finite else out


def pairing_measure(pairs, r_max: int) -> Measure:
    """Average of multiplicative pushforwards over class-indexed pairs:
    m_r = (1/h) Σ_s m_r(µ1_s) m_r(µ2_s).  When every measure is finite with
    exact coefficients and every product atom is at most r_max (d1·d2 <= r_max
    for the support degrees of each pair), the pairs push forward through
    their atoms (`_pushed_atoms`), at a cost bounded by r_max; otherwise
    through r_max + 1 moments of each, whose cost does not grow with d1·d2."""
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
    if all(mu.finite and _is_exact(mu.mahler) for pair in pairs for mu in pair) and all(
            m1.support_degree() * m2.support_degree() <= r_max for m1, m2 in pairs):
        return _pushed_atoms(pairs, r_max, p, h)
    residues = [(_residues(m1.mahler), _residues(m2.mahler)) for m1, m2 in pairs]
    if any(res is None for pair in residues for res in pair):  # exact or mixed: `+`, `*`
        b = [exact(sum(moments(m1, r) * moments(m2, r) for m1, m2 in pairs))
             for r in range(r_max + 1)]
        if h > 1:  # a pushforward's one pair is not multiplied by 1/1
            b = [exact(m * Fraction(1, h)) for m in b]
    else:
        b = [_paired_moment(pairs, residues, r, p, h) for r in range(r_max + 1)]
    return mahler_from_moments(b, p)


def _pushed_atoms(pairs, r_max: int, p: int, h: int) -> Measure:
    """The first r_max + 1 Mahler coefficients of (1/h) Σ_s of the images of
    µ1_s ⊗ µ2_s under multiplication, for finite exact measures whose product
    atoms are at most r_max: µ = Σ c_m δ_m over m <= its support degree d
    (`plus_basis` of a_0..a_d), so each image is Σ c_m c'_n δ_(mn), whose
    a_n = Σ_k d_k C(k, n) are a Taylor shift of the atoms d_k, then zeros.
    The values, and the refusal, are `mahler_from_moments`' on the moments:
    the Stirling transforms are triangular."""
    atoms = {}
    for pair in pairs:
        left, right = ([(m, c) for m, c in enumerate(plus_basis(Measure._from_fields(
            p, mu.mahler[:mu.support_degree() + 1], True))) if c] for mu in pair)
        for m, c in left:
            for n, c2 in right:
                atoms[m * n] = atoms.get(m * n, 0) + c * c2
    d = [atoms.get(k, 0) for k in range(max(atoms, default=-1) + 1)]
    coeffs = _taylor_shift(d)
    coeffs += [0] * (r_max + 1 - len(coeffs))
    if h > 1:
        coeffs = [exact(a * Fraction(1, h)) for a in coeffs]
    return Measure._from_fields(p, tuple(_bounded(a, p, n) for n, a in enumerate(coeffs)), False)


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
