"""Bounded measures on Z_p stored by their Mahler coefficients a_n = ∫ C(t,n) dµ.

Moments come through the Stirling transforms, and restriction to the units
is done in the (1+T)^m basis with integer weights, with no root-of-unity
arithmetic.  README's "Precision policy" states what every transform gives
and by which route; each precision rule is stated once, at the code that
implements it: `_dot` for sums of integer weights, `_shifted` for the
(1+T)^m basis changes, `_atom_sums` for sums over Dirac masses c·δ_z, and
`_cell_masses` for cells.  The products c·C(Z, n) over atoms are formed
only here, the coefficients of the Dirac masses c·δ_z that
`_avatar_member` makes, a family member or a p-adic `dirac`, among them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul, sub

from .arith import int_valuation
from .errors import Frozen, InvalidInput, PrecisionExhausted
from .padic import (INF, PadicScalar, _binomial_fields, _binomial_row, _falling_factorial_rows,
                    _require_int, _residue, _surjection_head, binomial_series, checked_prime,
                    exact, is_p_integral)


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


def _residues(xs, p: int, target=None):
    """(p, [(lift(x), prec(x))]) when every x is a PadicScalar of the prime p
    with valuation >= 0 or int 0, which gives (0, INF) as the exact zero does;
    None for any other list.  Given a target precision, any other p-integral
    x is read as x + O(p^target): (x, INF) for the target INF, else
    (x mod p^target, target), as a truncated measure's capped outputs read it."""
    out = []
    for x in xs:
        if type(x) is PadicScalar:
            if x.prime != p or (x.unit and x.valuation < 0):
                return None
            out.append((x.unit * p ** x.valuation if x.unit else 0, x.precision))
        elif type(x) is int and x == 0:
            out.append((0, INF))
        elif target is INF:
            out.append((x, INF))
        elif target is None:
            return None
        else:
            out.append((_residue(x, p, p ** target), target))
    return p, out


def _dot(row, xs, res, P=INF):
    """Σ c·x over zip(row, xs) for a row of ints, res = `_residues(xs, p)`:
    without residues, `+` and `*`; with them, on integers, each (x, N)
    standing for x known mod p^N, to the precision P' that `+` and `*` give
    the sum term by term: the minimum of P and of N + v_p(c) over the terms
    with c ≠ 0 and N finite.  The result is one PadicScalar known mod p^P',
    or int 0 when no term contributes and P is INF: the exact zero."""
    if res is None:
        return sum(map(mul, row, xs))
    p, residues = res
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
    return 0 if P is INF else PadicScalar._make(p, 0, total, P)


class Measure(Frozen):
    """A bounded measure on Z_p, known through its first `order` Mahler
    coefficients; `finite`, a bool, marks a complete expansion (all higher
    a_n = 0).  `atoms`, None or the tuple of (c, z) of µ = Σ c·δ_z, is set
    only by `_avatar_member` (a p-adic `dirac` or a family member) and by
    `scale`, as the public constructor cannot check it; the `_mahler` slot
    of an `_avatar_member` measure holds its recipe, a list [order, rows],
    until `mahler` is first read."""

    __slots__ = ("prime", "_mahler", "finite", "atoms")

    def __init__(self, prime: int, mahler, finite: bool = False):
        checked_prime(prime)
        if type(finite) is not bool:
            raise InvalidInput(f"finite {finite!r} is not a bool")
        mahler = tuple(mahler)
        if not mahler:
            raise InvalidInput("a measure needs at least one Mahler coefficient")
        for a in mahler:
            if not isinstance(a, (int, Fraction, PadicScalar)):  # a bool is an int
                raise InvalidInput(f"Mahler coefficient {a!r} is not an int, Fraction "
                                   "or PadicScalar")
            if type(a) is PadicScalar and a.prime != prime:
                raise InvalidInput("coefficient prime mismatch")
            if not is_p_integral(a, prime):
                raise InvalidInput("Mahler coefficient with negative valuation: "
                                   "this is a distribution, not a measure")
        self._set(prime, mahler, finite, None)

    @property
    def mahler(self) -> tuple:
        """The coefficients; a member's are `_atom_scalars` of its atoms over
        the family's rows, stored in place of the recipe, which frees them."""
        mahler = self._mahler
        if type(mahler) is list:
            mahler = _atom_scalars(self.atoms, self.prime, *mahler)
            object.__setattr__(self, "_mahler", mahler)
        return mahler

    def _fields(self) -> tuple:
        return self.prime, self.mahler, self.finite, self.atoms

    @property
    def order(self) -> int:
        mahler = self._mahler
        return mahler[0] if type(mahler) is list else len(mahler)

    def support_degree(self) -> int:
        """Largest index with a nonzero stored coefficient."""
        mahler = self.mahler
        for n in range(len(mahler) - 1, -1, -1):
            if mahler[n] != 0:
                return n
        return 0

    def scale(self, scalar) -> "Measure":
        """Multiply by a p-integral scalar (boundedness is preserved).  The
        products are checked as `Measure` checks them, and carry no atoms,
        unless the scalar is a p-integral int, Fraction or PadicScalar of the
        measure's prime; then each atom (c, z) becomes (scalar·c, z), and an
        exact zero leaves none."""
        if not isinstance(scalar, (int, Fraction, PadicScalar)):  # a bool is an int
            raise InvalidInput(f"scalar {scalar!r} is not an int, Fraction or PadicScalar")
        p = self.prime
        mahler = tuple(exact(scalar * a) for a in self.mahler)
        if type(scalar) is PadicScalar:
            known, zero = scalar.prime == p, scalar.precision is INF
        else:
            known, zero = type(scalar) in (int, Fraction), not scalar
        if not (known and is_p_integral(scalar, p)):
            return Measure(p, mahler, self.finite)
        atoms = None if zero or self.atoms is None else tuple(
            (scalar * c, z) for c, z in self.atoms)
        return Measure._from_fields(p, mahler, self.finite, atoms)

    def __repr__(self):
        flag = "finite" if self.finite else f"order {self.order}"
        return f"Measure(p={self.prime}, {flag}, mahler={list(self.mahler[:5])}...)"


def dirac(z, prime: int, order: int) -> Measure:
    """The Dirac measure at z in Z_p: Mahler coefficients C(z, n), unbuilt
    for a PadicScalar z known mod p^P, P finite: `_avatar_member`'s atom
    measure (1 + O(p^P))·δ_z.  `binomial_series` gives the rest and refuses
    an order below 1 or a z outside Z_p."""
    _require_int("order", order)
    if not isinstance(z, (int, Fraction, PadicScalar)):  # a bool is an int
        raise InvalidInput(f"z {z!r} is not an int, Fraction or PadicScalar")
    if isinstance(z, PadicScalar):
        if z.prime != prime:
            raise InvalidInput("prime mismatch")
        if order >= 1 and is_p_integral(z, prime) and z.precision is not INF:
            return _avatar_member(PadicScalar._make(prime, 0, 1, z.precision), z, order, {})
        series, finite = binomial_series(z, order), False
    else:
        z = Fraction(z)
        if not is_p_integral(z, prime):
            raise InvalidInput("z must lie in Z_p")
        series, finite = binomial_series(z, order), z.denominator == 1 and 0 <= z < order
    checked_prime(prime)
    return Measure._from_fields(prime, series.coeffs, finite, None)


def moments(mu: Measure, r: int):
    """m_r(µ) = ∫ t^r dµ = Σ_n S(r,n) n! a_n — a finite exact sum over
    n <= min(r, order - 1)."""
    _require_int("moment index", r)
    if r < 0:
        raise InvalidInput("moment index must be nonnegative")
    if r >= mu.order and not mu.finite:
        raise InvalidInput(f"moment {r} needs order > {r} or a finite measure")
    weights = _surjection_head(r, min(r, mu.order - 1) + 1)
    coeffs = mu.mahler[:len(weights)]
    return exact(_dot(weights, coeffs, _residues(coeffs, mu.prime)))


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
    for x in b:
        if not isinstance(x, (int, Fraction, PadicScalar)):
            raise InvalidInput(f"moment {x!r} is not an int, Fraction or PadicScalar")
    coeffs, factorial, rows = [], 1, _falling_factorial_rows()
    res, c = _residues(b, prime), b if _is_exact(b) else None
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

def _readings(xs, p: int, target=INF):
    """The values and precisions of the xs as `_residues` reads them, None
    for the precisions when every x is an int or a Fraction and target INF."""
    if target is INF and _is_exact(xs):
        return xs, None
    return tuple(zip(*_residues(xs, p, target)[1]))


def _shifted(values, precisions, p: int, cap=INF):
    """Σ_{m>=n} C(m, n) x_m for readings x_m: the values by one Taylor shift,
    each known mod p^P_n, P_n = min(cap, min_m N_m + v_p(C(m, n))), as `+`
    and `*` give the sum; v_p(C(m, n)) = f(m) - f(n) - f(m - n) for
    f(k) = v_p(k!), and N_m >= cap cannot lower the cap."""
    values = _taylor_shift(values)
    if precisions is None:
        return values, None
    if all(N >= cap for N in precisions):
        return values, [cap] * len(values)
    f = list(accumulate((int_valuation(k, p) for k in range(1, len(values))), initial=0))
    g = [N + fm if N < cap else INF for N, fm in zip(precisions, f)]
    return values, [min(cap, min(map(sub, g[n:], f)) - fn) for n, fn in enumerate(f)]


def _scalars(values, precisions, p: int) -> list:
    """Exact values where known to INF, else one PadicScalar each, known mod
    p^N, with a Fraction value reduced mod p^N first."""
    if precisions is None:
        return values
    return [x if N == INF else PadicScalar._make(p, 0, _residue(x, p, p ** N), N)
            for x, N in zip(values, precisions)]


def plus_basis(mu: Measure):
    """Coefficients c_m with F(T) = Σ c_m (1+T)^m, m < order.

    Exact for finite measures; in general c_m mixes all stored a_k.
    F(T) = G(-T) with G(Y) = Σ (-1)^k a_k (1 + Y)^k: the Taylor shift by 1
    of the alternated coefficients, alternated.
    """
    values, precisions = _readings(mu.mahler, mu.prime)
    values, precisions = _shifted(_alternated(values), precisions, mu.prime)
    return _scalars(_alternated(values), precisions, mu.prime)


def from_plus_basis(c, prime: int, finite: bool) -> Measure:
    """Mahler coefficients a_n = Σ_m c_m C(m, n) from (1+T)^m coefficients,
    checked as `Measure` checks its own: the shift is unipotent with an
    integral inverse, so c is p-integral exactly when its shift is."""
    c = Measure(prime, c, finite).mahler
    mahler = _scalars(*_shifted(*_readings(c, prime), prime), prime)
    return Measure._from_fields(prime, tuple(mahler), finite, None)


def restrict_to_units(mu: Measure, precision: int | None = None) -> Measure:
    """Restriction of µ to Z_p^×: drop every (1+T)^m component with p | m.

    Finite measures restrict exactly.  For a truncated measure the caller
    must name a target precision >= 1; the call refuses a missing or bad
    target, and one that the truncation-tail valuation bound cannot support,
    before any transform.  It reads the coefficients as x + O(p^target),
    caps both shifts at the target and keeps the first n_out outputs; a
    truncated measure with `atoms` gives instead `_atom_scalars` of its
    unit atoms, capped at the target.
    """
    if precision is not None:
        _require_int("target precision", precision)
    p, n_out, cap = mu.prime, mu.order, INF
    if not mu.finite:
        if precision is None:
            raise InvalidInput("restricting a truncated measure needs a target precision")
        if precision < 1:
            raise InvalidInput("target precision must be >= 1")
        n_out, cap = mu.order - (precision + 1) * (p - 1), precision
        if n_out < 1:
            raise PrecisionExhausted(f"order {mu.order} supports restriction "
                                     f"precision at most {(mu.order - 1) // (p - 1) - 1}")
        if mu.atoms:  # the unit atoms, each its own restriction
            return Measure._from_fields(p, _atom_scalars(
                [(c, z) for c, z in mu.atoms if z.valuation == 0], p, n_out, {}, cap), False, None)
    values, precisions = _readings(mu.mahler, p, cap)
    values, precisions = _shifted(_alternated(values), precisions, p, cap)
    values = [0 if m % p == 0 else x for m, x in enumerate(_alternated(values))]
    if precisions is not None:
        precisions = [INF if m % p == 0 else N for m, N in enumerate(precisions)]
    values, precisions = _shifted(values, precisions, p, cap)
    return Measure._from_fields(p, tuple(_scalars(values[:n_out], precisions, p)),
                                mu.finite, None)


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


def _cell_masses(mu: Measure, nu: int, cells, precision) -> list:
    """The masses µ(a + p^nu Z_p), a in `cells`, each a < p^nu, after the
    refusals that every level-nu cell shares: read from a truncated
    measure's atoms when it has them, else one `_dot` per cell with a column
    of one set of folded rows, each sum starting at INF for a finite measure
    and at the target for a truncated one."""
    p, q, P = mu.prime, mu.prime ** nu, INF
    if not mu.finite:
        if precision is None:
            raise InvalidInput("cell mass of a truncated measure needs a target precision")
        bound = cell_tail_valuation(mu.order, nu, p)
        if precision > bound:
            raise PrecisionExhausted(f"order {mu.order} supports level-{nu} cell masses "
                                     f"to precision at most {bound}")
        if precision < 1:
            raise PrecisionExhausted("zero known to no precision")
        P = precision
        if mu.atoms:  # Σ c·C(0, 0) over the atoms in the cell
            return [_atom_scalars([(c, 0) for c, z in mu.atoms if z.lift() % q == a],
                                  p, 1, {}, P)[0] for a in cells]
    res = _residues(mu.mahler, p, None if P is INF else P)
    columns, zeros = list(zip(*_cell_rows(q, mu.order))), (0,) * mu.order
    return [exact(_dot(columns[a] if a < len(columns) else zeros, mu.mahler, res, P))
            for a in cells]


def cell_mass(mu: Measure, a: int, nu: int, precision: int | None = None):
    """µ(a + p^nu Z_p) = Σ_k a_k Σ_{m ≡ a mod p^nu} (-1)^{k-m} C(k, m), or
    the sum over the atoms in the cell (`_cell_masses`)."""
    _require_int("level nu", nu)
    _require_int("residue", a)
    if precision is not None:
        _require_int("target precision", precision)
    if nu < 1:
        raise InvalidInput("level nu must be >= 1")
    if not 0 <= a < mu.prime ** nu:
        raise InvalidInput("residue out of range")
    return _cell_masses(mu, nu, (a,), precision)[0]


def integrate_step(mu: Measure, phi, precision: int | None = None):
    """∫ φ dµ for a step function φ given by its values on Z/p^nu: Σ φ(a)
    times the cell mass µ(a + p^nu Z_p), the masses as `cell_mass` gives
    them, atoms included."""
    if precision is not None:
        _require_int("target precision", precision)
    p = mu.prime
    size = len(phi)
    nu = 0
    while p ** nu < size:
        nu += 1
    if p ** nu != size or nu == 0:
        raise InvalidInput("phi must list its values on all of Z/p^nu, nu >= 1")
    return exact(sum(map(mul, phi, _cell_masses(mu, nu, range(size), precision))))


def mult_pushforward(mu1: Measure, mu2: Measure, r_max: int) -> Measure:
    """The measure with m_r = m_r(µ1) m_r(µ2) for r <= r_max (image of
    µ1 ⊗ µ2 under multiplication): the pairing measure of the one pair
    (µ1, µ2), finite when both are and r_max reaches the product's degree.

    The Stirling transforms are triangular, so the first r_max+1 Mahler
    coefficients computed this way are exactly those of the product measure.
    """
    out = pairing_measure([(mu1, mu2)], r_max)
    finite = mu1.finite and mu2.finite and mu1.support_degree() * mu2.support_degree() <= r_max
    return Measure._from_fields(mu1.prime, out.mahler, True, None) if finite else out


def pairing_measure(pairs, r_max: int) -> Measure:
    """Average of multiplicative pushforwards over class-indexed pairs:
    m_r = (1/h) Σ_s m_r(µ1_s) m_r(µ2_s).  When every measure carries its
    `atoms`, or every measure is finite with exact coefficients and every
    product atom is at most r_max (d1·d2 <= r_max for the support degrees of
    each pair, so the cost is bounded by r_max), the pairs push forward
    through their atoms (`_paired_atoms`); otherwise through r_max + 1
    moments of each, whose cost does not grow with d1·d2, multiplied, added
    and scaled by 1/h with `+` and `*`, exact and p-adic alike."""
    _require_int("r_max", r_max)
    pairs = list(pairs)
    if not pairs:
        raise InvalidInput("need at least one pair")
    p = pairs[0][0].prime
    h = len(pairs)
    if h % p == 0 and any(map(_has_padic, (mu for pair in pairs for mu in pair))):
        raise InvalidInput("class count divisible by p in p-adic-only mode")
    if any(m1.prime != p or m2.prime != p for m1, m2 in pairs):
        raise InvalidInput("prime mismatch")
    if r_max < 0:
        raise InvalidInput("r_max must be >= 0")
    if all(mu.atoms for pair in pairs for mu in pair) or (
            all(mu.finite and _is_exact(mu.mahler) for pair in pairs for mu in pair)
            and all(m1.support_degree() * m2.support_degree() <= r_max for m1, m2 in pairs)):
        return _paired_atoms(pairs, r_max, p, h)
    b = [exact(sum(moments(m1, r) * moments(m2, r) for m1, m2 in pairs))
         for r in range(r_max + 1)]
    if h > 1:  # a pushforward's one pair is not multiplied by 1/1
        b = [exact(m * Fraction(1, h)) for m in b]
    return mahler_from_moments(b, p)


def _has_padic(mu: Measure) -> bool:
    """Whether a coefficient of µ is a PadicScalar, read off its atoms when
    it has them: the atoms of a p-adic `dirac`, of a family member and of
    their scalings hold PadicScalars, and give PadicScalar coefficients."""
    if mu.atoms:
        return any(type(x) is PadicScalar for atom in mu.atoms for x in atom)
    return any(isinstance(a, PadicScalar) for a in mu.mahler)


def _paired_atoms(pairs, r_max: int, p: int, h: int) -> Measure:
    """a_n = (1/h) Σ c·C(Z, n), n <= r_max, over the product atoms
    (c, Z) = (c1·c2, z1·z2) of each pair: a measure's `atoms`, or a finite
    exact measure's `plus_basis` weights c_m at m = 0..d, its support degree,
    read by `_atom_fields`, each product formed on those fields by
    `_product`, and summed by `_atom_sums`.  `_bounded` checks an exact sum,
    as `mahler_from_moments` does, and 1/h of a p-adic one is a unit.  The
    order refusal of measures that are not finite is the moment route's; no
    v_p(n!) is lost, so the precision can exceed it."""
    K = min((mu.order for pair in pairs for mu in pair if not mu.finite), default=INF)
    if r_max >= K:
        raise InvalidInput(f"moment {K} needs order > {K} or a finite measure")
    sides = ((_atom_fields(mu.atoms or [(c, m) for m, c in enumerate(plus_basis(
        Measure._from_fields(p, mu.mahler[:mu.support_degree() + 1], True, None))) if c])
        for mu in pair) for pair in pairs)
    totals, precisions = _atom_sums(((_product(c1, c2), _product(z1, z2))
                                     for left, right in sides
                                     for c1, z1 in left for c2, z2 in right), p, r_max + 1, {})
    return Measure._from_fields(p, tuple(
        _bounded(exact(Fraction(total, h) if h > 1 else total), p, n) if N == INF
        else PadicScalar._make(p, 0, total * pow(h, -1, p ** N), N)
        for n, (total, N) in enumerate(zip(totals, precisions))), False, None)


def _atom_fields(atoms) -> list:
    """Each atom (c, z) as the fields of c and of z (`_scalar_fields`)."""
    return [(_scalar_fields(c), _scalar_fields(z)) for c, z in atoms]


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


def _avatar_member(c0: PadicScalar, z: PadicScalar, order: int, rows: dict) -> Measure:
    """The measure c0·δ_z, z in Z_p known mod p^P (an avatar family member,
    or a p-adic `dirac` with c0 = 1 + O(p^P)), with `order` coefficients and
    the atoms ((c0, z),): unbuilt until `mahler` is read, rows the family's
    memo.  Its row of C(Z, n), n < order, refuses exactly when order > p^P
    (`_binomial_fields`), which is refused here, so no row is built at the
    call.  As `Measure.scale` does, a c0 that is not p-integral is refused
    by `Measure`'s check of the products c0·C(Z, n)."""
    p = z.prime
    if order > p ** z.precision:
        raise PrecisionExhausted("zero known to no precision")
    if is_p_integral(c0, p):
        return Measure._from_fields(p, [order, rows], False, ((c0, z),))
    return Measure(p, [c0 * PadicScalar._make(p, v, u, v + rel)
                       for v, u, rel in _atom_row((z.lift(), z.precision), p, order, rows)])
