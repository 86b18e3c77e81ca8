"""Ideal class groups of imaginary quadratic orders via reduced binary
quadratic forms, weight functions with their zero-weight pairing, finite-order
characters, and p-adic avatars feeding the measure layer.

All algebraic values live in the tower Q(sqrt(d))(zeta_m), stored in the group
ring Q(sqrt(d))[z]/(z^m - 1) with coefficients in `padic.exact` normal form (int
while integral, else Fraction); their `coeffs`, the form reduced mod Phi_m, is
what equality, printing and encoding read. Arithmetic is exact throughout, and
every pairing is one sum, divided by h once.  For characters the sum is a
count of exponents: in a layer m small enough that the factors' exponents add
within one byte, the exponent rows are added as packed ints and reduced mod m
by one `bytes.translate`, so a pairing costs a few C-level passes whatever h;
the counted value is read from a bounded memo keyed on the per-class sums,
of which an h × h table of pairings meets each about h times.

A p-adic embedding maps a value to one PadicScalar (`PadicEmbedding.embed`);
the avatars of a weight function with an exponent row are read from one
cached table of the embedded roots of its layer, and `measure` builds the
avatar measure family on them.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from functools import lru_cache

from .arith import (cyclotomic_coeffs, factorint, fundamental_decomposition,
                    isprime, jacobi, sqrt_mod_prime)
from .errors import Frozen, InvalidInput
from .padic import PadicScalar, _integer_power, _require_int, _residue, exact

# ---------------------------------------------------------------------------
# discriminants and orders
# ---------------------------------------------------------------------------


class QuadOrder(Frozen):
    """The order of conductor c in the imaginary quadratic field of
    fundamental discriminant d_K."""

    __slots__ = ("d_K", "c")

    def __init__(self, d_K: int, c: int = 1):
        if c < 1:
            raise InvalidInput("conductor must be >= 1")
        cc, dd = fundamental_decomposition(d_K)
        if cc != 1 or dd != d_K:
            raise InvalidInput(f"{d_K} is not a fundamental discriminant")
        self._set(d_K, c)

    @classmethod
    def from_discriminant(cls, D: int) -> "QuadOrder":
        c, d_K = fundamental_decomposition(D)
        return cls._from_fields(d_K, c)

    @property
    def discriminant(self) -> int:
        return self.c ** 2 * self.d_K


# ---------------------------------------------------------------------------
# reduced binary quadratic forms and Gauss composition
# ---------------------------------------------------------------------------

def reduce_form(form, D: int):
    a, b, c = form
    while True:
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
            continue
        if -a < b <= a:  # a = c came through the swap above, so b >= 0
            return (a, b, c)
        # normalize b into (-a, a]
        t = (a - b) // (2 * a)
        b = b + 2 * t * a
        c = (b * b - D) // (4 * a)


def _solve_congruence(a: int, b: int, m: int):
    """Solutions x = x0 + t*(m/g) of a x ≡ b (mod m); returns (x0, m/g)."""
    g = math.gcd(a, m)
    if b % g:
        raise InvalidInput("congruence has no solution")
    m2 = m // g
    x0 = (b // g) * pow(a // g, -1, m2) % m2
    return x0, m2


def compose_forms(f1, f2, D: int):
    """Dirichlet/Gauss composition of primitive forms of one discriminant,
    followed by reduction."""
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    g = (b1 + b2) // 2
    h = (b2 - b1) // 2
    w = math.gcd(math.gcd(a1, a2), g)
    s, t, u = a1 // w, a2 // w, g // w
    mu, nu = _solve_congruence(t * u, h * u + s * c1, s * t)
    lam, _ = _solve_congruence(t * nu, h - t * mu, s)
    k = mu + nu * lam
    ll = (k * t - h) // s
    mres = (t * u * k - h * u - c1 * s) // (s * t)
    A = s * t
    B = w * u - (k * t + ll * s)
    C = k * ll - w * mres
    return reduce_form((A, B, C), D)


class IdealClassGroup(Frozen):
    """The form class group of a negative discriminant: reduced primitive
    forms under composition, with the full multiplication table, built along
    one subgroup chain.  For H the subgroup so far and g the least class
    outside it, g's row is composed (h `compose_forms` calls) and each coset
    g^j H takes its rows from it, as (x g) y = x (g y), until g^k lies in H.
    `chain` holds each (g, k, g^k); `walk` the classes in the order found,
    mixed radix with the last generator varying slowest; `exponent` the lcm
    of the orders of the chain's generators, which generate G."""

    __slots__ = ("discriminant", "order_data", "forms", "table",
                 "identity_index", "chain", "walk", "exponent")

    def __init__(self, D: int):
        order = QuadOrder.from_discriminant(D)  # refuses a non-discriminant
        forms = _enumerate_reduced_forms(D)
        index = {f: i for i, f in enumerate(forms)}
        h, e = len(forms), 0  # the principal form (1, D mod 2, ·) comes first
        rows, walk, chain = {e: tuple(range(h))}, [e], []
        while len(walk) < h:
            g = next(i for i in range(h) if i not in rows)
            g_row = [index.get(compose_forms(forms[g], f, D)) for f in forms]
            if None in g_row:
                raise AssertionError("composition left the reduced set")
            subgroup, prev, k = set(walk), walk, 1
            coset = [g_row[x] for x in walk]
            while coset[0] not in subgroup:  # coset is g^k H, led by g^k
                for x, y in zip(coset, prev):  # x = g y, so x z = y (g z)
                    rows[x] = tuple(map(rows[y].__getitem__, g_row))
                walk, prev, k = walk + coset, coset, k + 1
                coset = [g_row[x] for x in coset]
            chain.append((g, k, coset[0]))
        table = tuple(rows[i] for i in range(h))
        self._set(D, order, tuple(forms), table, e, tuple(chain), tuple(walk),
                  math.lcm(*(_element_order(table, e, g) for g, _, _ in chain)))

    @property
    def h(self) -> int:
        return len(self.forms)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def element_order(self, i: int) -> int:
        return _element_order(self.table, self.identity_index, i)

    def __repr__(self):
        return f"IdealClassGroup(D={self.discriminant}, h={self.h})"


def _element_order(table: tuple, identity: int, i: int) -> int:
    n, acc = 1, i
    while acc != identity:
        acc = table[acc][i]
        n += 1
    return n


def _enumerate_reduced_forms(D: int):
    """The reduced primitive forms of discriminant D, sorted: a, then b, ascending."""
    forms = []
    a_max = math.isqrt(-D // 3)
    for a in range(1, a_max + 1):
        for b in range(-a + (a + D) % 2, a + 1, 2):  # b ≡ D mod 2
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            # reduced (|b| <= a <= c, b >= 0 if |b| = a or a = c) and primitive
            if c < a or b < 0 and (b == -a or a == c) or math.gcd(a, b, c) != 1:
                continue
            forms.append((a, b, c))
    return forms


def class_group(D: int) -> IdealClassGroup:
    """Enumerate reduced primitive forms of discriminant D and build the
    composition table (closed under composition by construction; the tests
    check the group axioms)."""
    return IdealClassGroup(D)


# ---------------------------------------------------------------------------
# the value tower Q(sqrt d)(zeta_m)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _cyclotomic(m: int) -> tuple:
    """Ascending coefficients of the monic Phi_m, computed once per m."""
    return tuple(cyclotomic_coeffs(m))


def _check_tower(d: int, m: int):
    """Refuse the tower Q(sqrt(d))(zeta_m) unless d is a non-square and m >= 1."""
    if d == 0 or math.isqrt(abs(d)) ** 2 == d:
        raise InvalidInput("d must be a non-square")
    if m < 1:
        raise InvalidInput("the cyclotomic layer m must be >= 1")


def _rational(q):
    """`exact` of a rational; anything Fraction() refuses, a PadicScalar
    included, is refused."""
    return exact(q if type(q) is int else Fraction(q))


def _convolve(xs: dict, ys: dict, m: int, d: int) -> dict:
    """The cyclic convolution of two group-ring term dicts, exponents mod m;
    zero terms may remain."""
    out = {}
    for i, (ax, ay) in xs.items():
        for j, (bx, by) in ys.items():
            k = (i + j) % m
            cx, cy = out.get(k, (0, 0))
            out[k] = (cx + ax * bx + ay * by * d, cy + ax * by + ay * bx)
    return out


class AlgebraicValue(Frozen):
    """An element of Q(sqrt(d))(zeta_m) in the group ring Q(sqrt(d))[z]/(z^m - 1):
    `terms` maps k mod m to (a_k, b_k), meaning sum_k (a_k + b_k sqrt(d)) z^k,
    so a root of unity is one term; a_k and b_k are int while integral, else
    Fraction.  `coeffs` is the canonical form: the power-basis vector of length
    phi(m), reduced mod Phi_m."""

    __slots__ = ("d", "m", "terms")

    def __init__(self, d: int, m: int, coeffs):
        _check_tower(d, m)
        coeffs = [(_rational(a), _rational(b)) for a, b in coeffs]
        if len(coeffs) > len(_cyclotomic(m)) - 1:
            raise InvalidInput("coefficient vector too long")
        self._set(d, m, {k: c for k, c in enumerate(coeffs) if c[0] or c[1]})

    # -- constructors --

    @classmethod
    def _from_terms(cls, d: int, m: int, terms: dict) -> "AlgebraicValue":
        """sum_k terms[k] z^k, coefficients in `exact` normal form, zero terms
        dropped; (d, m) are taken as valid."""
        return cls._from_fields(
            d, m, {k: (exact(a), exact(b)) for k, (a, b) in terms.items() if a or b})

    @classmethod
    def from_rational(cls, q, d: int, m: int = 1) -> "AlgebraicValue":
        return cls(d, m, [(q, 0)])

    @classmethod
    def quadratic(cls, a, b, d: int, m: int = 1) -> "AlgebraicValue":
        """a + b sqrt(d)."""
        return cls(d, m, [(a, b)])

    @classmethod
    def root_of_unity(cls, exponent: int, d: int, m: int) -> "AlgebraicValue":
        _check_tower(d, m)
        return cls._from_terms(d, m, {exponent % m: (1, 0)})

    # -- structure --

    @property
    def coeffs(self) -> tuple:
        """((a_j, b_j) for j < phi(m)): the terms reduced mod Phi_m."""
        phi = _cyclotomic(self.m)
        deg = len(phi) - 1
        xs = [0] * self.m
        ys = [0] * self.m
        for k, (a, b) in self.terms.items():
            xs[k], ys[k] = a, b
        for k in range(self.m - 1, deg - 1, -1):
            a, b = xs[k], ys[k]
            if a or b:  # z^k = -z^(k-deg) sum_{i<deg} phi_i z^i mod Phi_m
                for i, c in enumerate(phi[:deg]):
                    if c:
                        xs[k - deg + i] -= a * c
                        ys[k - deg + i] -= b * c
        return tuple((exact(a), exact(b)) for a, b in zip(xs[:deg], ys[:deg]))

    def promote(self, m_new: int) -> "AlgebraicValue":
        if m_new == self.m:
            return self
        if m_new < 1 or m_new % self.m:
            raise InvalidInput("can only promote to a positive multiple of m")
        t = m_new // self.m
        return AlgebraicValue._from_terms(
            self.d, m_new, {k * t: c for k, c in self.terms.items()})

    def _align(self, other: "AlgebraicValue"):
        if not isinstance(other, AlgebraicValue):
            other = AlgebraicValue.from_rational(other, self.d, 1)
        if self.d != other.d:
            raise InvalidInput("mixed quadratic fields")
        m = math.lcm(self.m, other.m)
        return self.promote(m), other.promote(m)

    # -- ring operations --

    def __add__(self, other):
        a, b = self._align(other)
        terms = dict(a.terms)
        for k, (x, y) in b.terms.items():
            x0, y0 = terms.get(k, (0, 0))
            terms[k] = (x0 + x, y0 + y)
        return AlgebraicValue._from_terms(a.d, a.m, terms)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        """The cyclic convolution of the terms, exponents mod m."""
        a, b = self._align(other)
        return AlgebraicValue._from_terms(a.d, a.m, _convolve(a.terms, b.terms, a.m, a.d))

    __rmul__ = __mul__

    def scale(self, q) -> "AlgebraicValue":
        q = _rational(q)
        return AlgebraicValue._from_terms(
            self.d, self.m, {k: (a * q, b * q) for k, (a, b) in self.terms.items()})

    def __pow__(self, n: int):
        if _integer_power(n) < 0:
            return self.inverse() ** (-n)
        result = AlgebraicValue.from_rational(1, self.d, self.m)
        base, e = self, n
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def conjugate(self) -> "AlgebraicValue":
        """The Q(zeta_m)-linear involution sqrt(d) -> -sqrt(d)."""
        return AlgebraicValue._from_terms(
            self.d, self.m, {k: (a, -b) for k, (a, b) in self.terms.items()})

    def inverse(self) -> "AlgebraicValue":
        """Invert through the norm: n = x conj(x) lies in Q(zeta_m), the
        product c of its conjugates sigma_a(n), a in (Z/m)^x with a != 1,
        makes N = n c rational, and 1/x = conj(x) c / N."""
        n = self * self.conjugate()
        c = AlgebraicValue.from_rational(1, self.d, self.m)
        for a in range(2, self.m):
            if math.gcd(a, self.m) == 1:  # sigma_a: z -> z^a
                c = c * AlgebraicValue._from_terms(
                    self.d, self.m, {k * a % self.m: t for k, t in n.terms.items()})
        N = (n * c).as_rational()
        if N == 0:
            raise InvalidInput("value is a zero divisor in the stated tower")
        return (self.conjugate() * c).scale(Fraction(1, N))

    # -- queries --

    def is_zero(self) -> bool:
        return all(a == 0 and b == 0 for a, b in self.coeffs)

    def as_rational(self):
        """The value if the element is rational (an int when integral, else a
        Fraction), else None."""
        (a0, b0), *rest = self.coeffs
        if b0 == 0 and all(a == 0 and b == 0 for a, b in rest):
            return a0
        return None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.as_rational() == other
        if not isinstance(other, AlgebraicValue) or self.d != other.d:
            return NotImplemented
        a, b = self._align(other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        terms = []
        for j, (a, b) in enumerate(self.coeffs):
            if a or b:
                zpart = "" if j == 0 else f"*z^{j}"
                terms.append(f"({a}+{b}*sqrt({self.d})){zpart}")
        return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# weight functions, characters, pairings
# ---------------------------------------------------------------------------

def _integral_weight(w) -> int:
    """A weight component as an int; one that is not equal to an integer
    (a non-integral number, NaN, an infinity, a str) is refused."""
    try:
        if w == int(w):
            return int(w)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidInput(f"weight component {w!r} is not an integer")


class WeightFunction(Frozen):
    """A function on ideal classes transforming with weight (w1, ws) on
    principal ideals; finite-order characters are the weight-(0,0) case.  At
    weight (0, 0), if each value is z^e (coefficient (1, 0)) in the layer m =
    G.exponent < 2^16, `exponents` is the e row as `array("H")` bytes, else None."""

    __slots__ = ("group", "weight", "values", "exponents")

    def __init__(self, group: IdealClassGroup, weight, values, exponents=None):
        w1, ws = map(_integral_weight, weight)
        values = tuple(values)
        if len(values) != group.h:
            raise InvalidInput("need one value per ideal class")
        d, m = group.order_data.d_K, group.exponent
        row = array("H", [next(iter(v.terms)) for v in values]).tobytes() if (
            (w1, ws) == (0, 0) and m < 1 << 16 and all(
                isinstance(v, AlgebraicValue) and (v.d, v.m) == (d, m)
                and list(v.terms.values()) == [(1, 0)] for v in values)) else None
        if exponents is not None and exponents != row:
            raise InvalidInput("exponent row disagrees with the values")
        self._set(group, (w1, ws), values, row)

    def __mul__(self, other: "WeightFunction") -> "WeightFunction":
        if other.group.discriminant != self.group.discriminant:
            raise InvalidInput("group mismatch")
        if self.exponents and other.exponents:  # both valued in the layer G.exponent
            m = self.values[0].m
            x, y = (memoryview(f.exponents).cast("H") for f in (self, other))
            return _from_row(self.group, m, array("H", [(a + b) % m for a, b in zip(x, y)]))
        w = (self.weight[0] + other.weight[0], self.weight[1] + other.weight[1])
        return WeightFunction(self.group, w, (a * b for a, b in zip(self.values, other.values)))

    def __pow__(self, n: int) -> "WeightFunction":
        _integer_power(n)
        if self.exponents:
            m, row = self.values[0].m, memoryview(self.exponents).cast("H")
            return _from_row(self.group, m, array("H", [e * n % m for e in row]))
        w = (n * self.weight[0], n * self.weight[1])
        return WeightFunction(self.group, w, (v ** n for v in self.values))

    def inverse(self) -> "WeightFunction":
        return self ** (-1)

    def __repr__(self):
        return f"WeightFunction(D={self.group.discriminant}, w={self.weight})"


@lru_cache(maxsize=64)
def _roots(d: int, m: int) -> tuple:
    """The roots z^e, e < m, of the layer m of Q(sqrt(d)), one object each."""
    return tuple(AlgebraicValue.root_of_unity(e, d, m) for e in range(m))


def _from_row(G: IdealClassGroup, m: int, row: array) -> WeightFunction:
    """The character of G, m = G.exponent, with these exponents."""
    roots = _roots(G.order_data.d_K, m)
    return WeightFunction._from_fields(G, (0, 0), tuple([roots[e] for e in row]), row.tobytes())


def characters(G: IdealClassGroup):
    """All h homomorphisms G -> mu_m (m the exponent), extended along
    `G.chain` as exponents in `G.walk` order, each in class order once complete;
    values are exact roots of unity, one shared object per exponent."""
    m = G.exponent
    position = {x: i for i, x in enumerate(G.walk)}
    order = [position[i] for i in range(G.h)]
    chars = [array("H", [0])]
    for _, k, power in G.chain:
        new_chars = []
        for chi in chars:
            # chi(g^k) has exponent c with k | c; extensions chi(g) = x solve
            # k x ≡ c (mod m), i.e. x = c/k + t m/k  (k divides m here)
            c = chi[position[power]]
            if c % k or m % k:
                raise AssertionError("character extension arithmetic broke")
            for t in range(k):
                x = c // k + t * (m // k)
                new = [(u + j * x) % m for j in range(k) for u in chi]
                new_chars.append(array("H", [new[i] for i in order] if len(new) == G.h else new))
        chars = new_chars
    return [_from_row(G, m, row) for row in sorted(chars)]


_LOW = 1 if sys.byteorder == "big" else 0  # the low byte's offset in an "H" lane


@lru_cache(maxsize=64)
def _residue_table(m: int) -> bytes:
    """The `bytes.translate` table b -> b mod m, m < 256."""
    return bytes(b % m for b in range(256))


@lru_cache(maxsize=128)
def _count_value(d: int, m: int, sums) -> "AlgebraicValue":
    """(1/h) Σ_k n_k z^k in the layer m of Q(sqrt(d)), h = len(sums), for
    the per-class exponent sums mod m (bytes or a tuple of ints): the keys
    in first occurrence, as a walk over the classes meets them, and n_k the
    count of k, each share n_k/h in `exact` normal form (n_k >= 1, so none
    is zero).  The value depends on nothing else, and values are immutable,
    so equal sums share one.

    In an h × h table of character pairings, χ_a·χ_b takes only h distinct
    values, and so does χ_a·χ_b·ψ: the plain and twisted tables of one group
    meet at most 2h keys, 32 at h = 16, and each is counted once.  A run
    over many groups meets more keys than the 128 kept, and a
    least-recently-used memo misses on every entry of a cyclic scan larger
    than itself, so the reuse it gives is within a table, not across tables."""
    h = len(sums)
    keys = dict.fromkeys(sums)
    return AlgebraicValue._from_fields(d, m, {
        k: (n // h if n % h == 0 else Fraction(n, h), 0)
        for k, n in zip(keys, map(sums.count, keys))})


def _class_sum(phi1: WeightFunction, phi2: WeightFunction, psi: WeightFunction | None = None):
    """(1/h) Σ_s φ1(I_s) φ2(I_s) ψ(I_s), or without ψ, when the weights of φ1
    and φ2 cancel, else exact 0: (1/h) Σ_k n_k z^k, n_k the number of
    classes whose exponents add to k mod m = G.exponent, the layer of every
    exponent row, when every factor has exponents; else the per-class
    products and their sum are taken with `AlgebraicValue`'s `*` and `+` and
    scaled by 1/h.  A value that is not an AlgebraicValue is coerced first,
    as `_align` coerces it.

    The per-class sums pack when the f = 2 or 3 factors' exponents, each
    < m, add below 256, f·(m - 1) < 256: each row's "H" bytes are read as
    one int in native byte order, as `array` stores them, and the ints
    added, so every 16-bit lane holds its class's sum in its low byte, with
    no carry; one `bytes.translate` reduces those bytes mod m, and the low
    bytes are the sums.  A wider layer adds the rows class by class into a
    tuple of sums mod m.  Either way the value is read from `_count_value`,
    keyed on (d, m, sums)."""
    G = phi1.group
    D = G.discriminant
    if phi2.group.discriminant != D or psi is not None and psi.group.discriminant != D:
        raise InvalidInput("group mismatch")
    d = G.order_data.d_K
    (a1, b1), (a2, b2) = phi1.weight, phi2.weight
    if a1 + a2 or b1 + b2:
        return AlgebraicValue.from_rational(0, d, 1)
    x, y, z = phi1.exponents, phi2.exponents, psi and psi.exponents
    if x and y and (psi is None or z):
        m, order = G.exponent, sys.byteorder
        if (m - 1) * (2 if psi is None else 3) < 256:  # every lane's sum fits its low byte
            packed = int.from_bytes(x, order) + int.from_bytes(y, order)
            if z:
                packed += int.from_bytes(z, order)
            sums = packed.to_bytes(2 * G.h, order).translate(_residue_table(m))[_LOW::2]
        else:
            rows = (memoryview(row).cast("H") for row in (x, y, z) if row)
            sums = tuple(map(m.__rmod__, map(sum, zip(*rows))))
        return _count_value(d, m, sums)
    rows = [[v if isinstance(v, AlgebraicValue) else AlgebraicValue.from_rational(v, d, 1)
             for v in phi.values] for phi in (phi1, phi2, psi) if phi is not None]
    total = sum((math.prod(rest, start=first) for first, *rest in zip(*rows)),
                AlgebraicValue.from_rational(0, d, 1))
    return total.scale(Fraction(1, G.h))


def pairing(phi1: WeightFunction, phi2: WeightFunction) -> AlgebraicValue:
    """(1/h) Σ_s φ1(I_s) φ2(I_s) when the weights cancel, else exact 0."""
    return _class_sum(phi1, phi2)


def twisted_pairing(phi1: WeightFunction, phi2: WeightFunction,
                    psi: WeightFunction) -> AlgebraicValue:
    """The psi-twist <φ1, ψ·φ2> = (1/h) Σ_s φ1(I_s) φ2(I_s) ψ(I_s), taken
    in the same sum as `pairing` (ψ·φ2 is never formed)."""
    if psi.weight != (0, 0):
        raise InvalidInput("twists must have weight (0,0)")
    return _class_sum(phi1, phi2, psi)


def canonical_weight_character(order: QuadOrder, w) -> WeightFunction:
    """For class number one and unit group {±1}: the weight function with
    φ((λ)) = λ^{w1} conj(λ)^{ws}, normalized to 1 on the trivial class."""
    w1, ws = w
    if (w1 + ws) % 2:
        raise InvalidInput("total weight must be even (λ -> -λ ambiguity)")
    if order.d_K in (-3, -4):
        raise InvalidInput("extra units: the rule is not well-defined")
    G = class_group(order.discriminant)
    if G.h != 1:
        raise InvalidInput("canonical construction needs class number one")
    one = AlgebraicValue.from_rational(1, order.d_K, 1)
    return WeightFunction(G, (w1, ws), [one])


# ---------------------------------------------------------------------------
# p-adic avatars
# ---------------------------------------------------------------------------

def _pick_sqrt(d: int, p: int, residue) -> int:
    """The chosen square root of d mod p, else the smaller one."""
    roots = sqrt_mod_prime(d, p)
    if residue is not None:
        if residue % p not in roots:
            raise InvalidInput("chosen residue is not a square root of d mod p")
        return residue % p
    return min(roots)


def _pick_zeta(p: int, m: int, residue) -> int:
    """The chosen primitive m-th root of unity mod p, else the least one:
    x = t^((p-1)/m) for the first t of order exactly m, and then the least
    x^j with j prime to m."""
    q_factors = list(factorint(m))
    def primitive(t):
        return pow(t, m, p) == 1 and all(pow(t, m // q, p) != 1 for q in q_factors)
    if residue is not None:
        if not primitive(residue % p):
            raise InvalidInput("chosen residue is not a primitive m-th root mod p")
        return residue % p
    x = next(x for x in (pow(t, (p - 1) // m, p) for t in range(2, p)) if primitive(x))
    return min(pow(x, j, p) for j in range(1, m) if math.gcd(j, m) == 1)


def _lift_root(f, df, x0: int, p: int, target: int) -> int:
    """The Hensel lift mod p^target of the simple root 0 <= x0 < p of f mod p."""
    x, k = x0, 1
    while k < target:
        k = min(2 * k, target)
        mod = p ** k
        x = (x - f(x) * pow(df(x), -1, mod)) % mod
    return x


class PadicEmbedding(Frozen):
    """A ring map from the value tower into Z_p given by a chosen square root
    of d mod p and a primitive m-th root of unity mod p (Hensel-lifted)."""

    __slots__ = ("prime", "precision", "d", "m", "sqrt_lift", "zeta_lift")

    def __init__(self, prime: int, precision: int, d: int, m: int = 1,
                 sqrt_residue: int | None = None, zeta_residue: int | None = None):
        if not isprime(prime) or prime == 2:
            raise InvalidInput("need an odd prime")
        if precision < 1:
            raise InvalidInput("precision must be >= 1")
        if m > 1 and (prime - 1) % m:
            raise InvalidInput(f"p = {prime} is not 1 mod {m}: mu_{m} not in Z_p")
        zeta_lift = None if m == 1 else _lift_root(
            lambda x: x ** m - 1, lambda x: m * x ** (m - 1),
            _pick_zeta(prime, m, zeta_residue), prime, precision)
        if d % prime == 0:
            sqrt_lift = "ramified"
        elif jacobi(d, prime) != 1:
            sqrt_lift = "inert"
        else:
            sqrt_lift = _lift_root(lambda x: x * x - d, lambda x: 2 * x,
                                   _pick_sqrt(d, prime, sqrt_residue), prime, precision)
        self._set(prime, precision, d, m, sqrt_lift, zeta_lift)

    def embed(self, value: AlgebraicValue) -> PadicScalar:
        """The image of sum_k (a_k + b_k sqrt(d)) z^k: on integers mod p^prec,
        sum_k (a_k + b_k s) zeta^k for the lifts s of sqrt(d) and zeta, made one
        PadicScalar known mod p^prec, which is what the sum of its terms in
        PadicScalar arithmetic gives when every a_k and b_k is p-integral; any
        other value is embedded term by term.  An int or Fraction value, which
        a `WeightFunction` may hold, is read as `_class_sum` reads it; any other
        value that is not an AlgebraicValue is refused."""
        if isinstance(value, (int, Fraction)):  # a bool is an int
            value = AlgebraicValue.from_rational(value, self.d, 1)
        elif not isinstance(value, AlgebraicValue):
            raise InvalidInput(f"value {value!r} is not an AlgebraicValue, int or Fraction")
        if value.m != self.m:
            if self.m % value.m:
                raise InvalidInput("value needs a larger cyclotomic layer than the embedding")
            value = value.promote(self.m)
        p, prec = self.prime, self.precision
        # sqrt(d) parts that cancel mod Phi_m need no square root of d mod p
        has_sqrt = any(b for _, b in value.terms.values()) and \
            any(b for _, b in value.coeffs)
        if has_sqrt:
            if value.d != self.d:
                raise InvalidInput("quadratic field mismatch")
            if self.sqrt_lift in ("ramified", "inert"):
                raise InvalidInput(f"p is {self.sqrt_lift} in Q(sqrt({self.d}))")
        # zeta_lift is a root of z^m - 1 mod p^prec, so z^k maps to its k-th power
        zeta, mod = self.zeta_lift or 1, p ** prec
        root = self.sqrt_lift if has_sqrt else 0
        total = 0
        for k, (a, b) in value.terms.items():
            x, y = _residue(a, p, mod), _residue(b, p, mod)
            if x is None or y is None:
                return self._embed_termwise(value, has_sqrt)
            total += (x + root * y) * pow(zeta, k, mod)
        return PadicScalar._make(p, 0, total, prec)

    def _embed_termwise(self, value: AlgebraicValue, has_sqrt: bool) -> PadicScalar:
        """`embed` in PadicScalar arithmetic, for a value with a coefficient
        that is not p-integral."""
        p, prec = self.prime, self.precision
        zeta, mod = self.zeta_lift or 1, p ** prec
        total = PadicScalar.zero(p, prec)
        for k, (a, b) in value.terms.items():
            term = PadicScalar.from_rational(a, p, prec)
            if b and has_sqrt:
                term = term + PadicScalar.from_int(self.sqrt_lift, p, prec).scale(b)
            total = total + term * PadicScalar.from_int(pow(zeta, k, mod), p, prec)
        return total


def padic_avatar(phi: WeightFunction, embedding: PadicEmbedding):
    """Embed every class value of a weight function; the result is the avatar
    restricted to the chosen class representatives.  A weight function with
    `exponents` in a layer m that divides `embedding.m` reads each z^e from
    one table of the embedded roots (`_row_avatars`), field for field what
    `embed` gives; any other is embedded value by value."""
    row = _row_avatars(phi, embedding)
    return [embedding.embed(v) for v in phi.values] if row is None else row


@lru_cache(maxsize=64)
def _embedded_roots(p: int, prec: int, m_emb: int, zeta_lift, m: int) -> tuple:
    """The images of z^e, e < m, in an embedding of layer m_emb, a multiple
    of m: z^e is promoted to z^(e·m_emb/m), which `embed` maps to the power
    of zeta_lift (None for m_emb = 1) made one PadicScalar known mod p^prec."""
    zeta, mod, t = zeta_lift or 1, p ** prec, m_emb // m
    return tuple(PadicScalar._make(p, 0, pow(zeta, e * t, mod), prec) for e in range(m))


def _row_avatars(phi: WeightFunction, emb: PadicEmbedding):
    """`padic_avatar` of phi read from its exponent row, when it has one in a
    layer that divides the embedding's; else None."""
    if phi.exponents is None or emb.m % phi.values[0].m:
        return None
    roots = _embedded_roots(emb.prime, emb.precision, emb.m, emb.zeta_lift, phi.values[0].m)
    return [roots[e] for e in memoryview(phi.exponents).cast("H")]


def admissible_embedding(G: IdealClassGroup, prime: int, precision: int,
                         **kwargs) -> PadicEmbedding:
    """An embedding whose cyclotomic layer covers all characters of G."""
    return PadicEmbedding(prime, precision, G.order_data.d_K, G.exponent, **kwargs)


def smallest_admissible_prime(G: IdealClassGroup) -> int:
    """The least odd prime p ≡ 1 mod exponent(G), prime to h and D."""
    m = G.exponent
    D = G.discriminant
    p = 3
    while True:
        if isprime(p) and (p - 1) % m == 0 and G.h % p and D % p:
            return p
        p += 2


def avatar_measure_family(chi0: WeightFunction, chi: WeightFunction,
                          embedding: PadicEmbedding, order: int):
    """Per ideal class s, in class order, the measure chi0^(p)(s)·δ_z at the
    avatar z = chi^(p)(s), a unit, from `measure._avatar_member` over one
    row memo for the family: its r-th moment is the avatar of chi0·chi^r
    at s.  z and c0 of a weight function with `exponents` are read from its
    row (`_row_avatars`), the others embedded one class at a time."""
    from .measure import _avatar_member
    _require_int("order", order)
    if chi0.group.discriminant != chi.group.discriminant:
        raise InvalidInput("group mismatch")
    if order < 1:
        raise InvalidInput("order must be >= 1")
    family, rows = [], {}
    # a row's avatars are units and refuse nothing, so reading them first
    # keeps every refusal in class order
    zs, c0s = (_row_avatars(f, embedding) for f in (chi, chi0))
    for s in range(chi0.group.h):
        z = embedding.embed(chi.values[s]) if zs is None else zs[s]
        if z.is_zero or z.valuation != 0:
            raise InvalidInput("avatar value is not a unit")
        c0 = embedding.embed(chi0.values[s]) if c0s is None else c0s[s]
        family.append(_avatar_member(c0, z, order, rows))
    return family
