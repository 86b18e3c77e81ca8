"""Ideal class groups of imaginary quadratic orders via reduced binary
quadratic forms, weight functions with their zero-weight pairing, finite-order
characters, and p-adic avatars feeding the measure layer.

All algebraic values live in the tower Q(sqrt(d))(zeta_m), stored in the group
ring Q(sqrt(d))[z]/(z^m - 1) with coefficients in `padic.exact` normal form (int
while integral, else Fraction); their `coeffs`, the form reduced mod Phi_m, is
what equality, printing and encoding read. Arithmetic is exact throughout, and
every pairing is one sum of group-ring products, divided by h once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .arith import cyclotomic_coeffs, factorint, isprime, sqrt_mod_prime
from .errors import Frozen, InvalidInput
from .measure import dirac
from .padic import PadicScalar, exact

# ---------------------------------------------------------------------------
# discriminants and orders
# ---------------------------------------------------------------------------


def is_discriminant(D: int) -> bool:
    return D < 0 and D % 4 in (0, 1)


def fundamental_decomposition(D: int):
    """Write a discriminant as D = c^2 * d_K with d_K fundamental."""
    if not is_discriminant(D):
        raise InvalidInput(f"{D} is not a negative discriminant")
    square = 1
    for q, e in factorint(-D).items():
        square *= q ** (e // 2)
    m = D // square ** 2  # squarefree part, negative
    if m % 4 == 1:
        return square, m
    if square % 2:
        raise InvalidInput(f"{D} is not a valid discriminant")
    return square // 2, 4 * m


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
        object.__setattr__(self, "d_K", d_K)
        object.__setattr__(self, "c", c)

    @classmethod
    def from_discriminant(cls, D: int) -> "QuadOrder":
        c, d_K = fundamental_decomposition(D)
        return cls(d_K, c)

    @property
    def discriminant(self) -> int:
        return self.c ** 2 * self.d_K

    def __eq__(self, other):
        return isinstance(other, QuadOrder) and \
            (self.d_K, self.c) == (other.d_K, other.c)

    __hash__ = None

    def __repr__(self):
        return f"QuadOrder(d_K={self.d_K}, c={self.c})"


# ---------------------------------------------------------------------------
# reduced binary quadratic forms and Gauss composition
# ---------------------------------------------------------------------------

def _is_reduced(a: int, b: int, c: int) -> bool:
    if not (abs(b) <= a <= c):
        return False
    if (abs(b) == a or a == c) and b < 0:
        return False
    return True


def reduce_form(form, D: int):
    a, b, c = form
    while True:
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
            continue
        if -a < b <= a:
            if a == c and b < 0:
                b = -b
            return (a, b, c)
        # normalize b into (-a, a]
        t = (a - b) // (2 * a)
        b = b + 2 * t * a
        c = (b * b - D) // (4 * a)


def principal_form(D: int):
    b = D % 2
    return (1, b, (b * b - D) // 4)


def _solve_congruence(a: int, b: int, m: int):
    """Solutions x = x0 + t*(m/g) of a x ≡ b (mod m); returns (x0, m/g)."""
    g = math.gcd(a, m)
    if b % g:
        raise InvalidInput("congruence has no solution")
    m2 = m // g
    if m2 == 1:
        return 0, 1
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
    forms under composition, with the full multiplication table."""

    __slots__ = ("discriminant", "order_data", "forms", "table",
                 "identity_index", "inverse")

    def __init__(self, D: int):
        if not is_discriminant(D):
            raise InvalidInput(f"{D} is not a negative discriminant")
        forms = _enumerate_reduced_forms(D)
        index = {f: i for i, f in enumerate(forms)}
        h = len(forms)
        table = [[0] * h for _ in range(h)]
        for i in range(h):
            for j in range(i, h):
                prod = compose_forms(forms[i], forms[j], D)
                if prod not in index:
                    raise AssertionError("composition left the reduced set")
                table[i][j] = table[j][i] = index[prod]
        for name, value in (
                ("discriminant", D), ("order_data", QuadOrder.from_discriminant(D)),
                ("forms", tuple(forms)),
                ("table", tuple(map(tuple, table))),
                ("identity_index", index[principal_form(D)]),
                ("inverse", tuple(index[reduce_form((a, -b, c), D)] for a, b, c in forms))):
            object.__setattr__(self, name, value)

    @property
    def h(self) -> int:
        return len(self.forms)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def element_order(self, i: int) -> int:
        n, acc = 1, i
        while acc != self.identity_index:
            acc = self.mul(acc, i)
            n += 1
        return n

    @property
    def exponent(self) -> int:
        m = 1
        for i in range(self.h):
            m = math.lcm(m, self.element_order(i))
        return m

    def __repr__(self):
        return f"IdealClassGroup(D={self.discriminant}, h={self.h})"


def _enumerate_reduced_forms(D: int):
    forms = []
    a_max = math.isqrt(-D // 3)
    for a in range(1, a_max + 1):
        for b in range(-a, a + 1):
            if (b - D) % 2:
                continue
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if not _is_reduced(a, b, c):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) != 1:
                continue
            forms.append((a, b, c))
    forms.sort()
    return forms


def class_group(D: int) -> IdealClassGroup:
    """Enumerate reduced primitive forms of discriminant D and build the
    composition table (closed under composition by construction; the tests
    check the group axioms)."""
    return IdealClassGroup(D)


# ---------------------------------------------------------------------------
# the value tower Q(sqrt d)(zeta_m)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
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


def _convolve(xs: dict, ys: dict, m: int, d: int, out: dict) -> dict:
    """Add the cyclic convolution of two group-ring term dicts, exponents
    mod m, into `out`; zero terms may remain."""
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
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", MappingProxyType(
            {k: c for k, c in enumerate(coeffs) if c[0] or c[1]}))

    # -- constructors --

    @classmethod
    def _from_terms(cls, d: int, m: int, terms: dict) -> "AlgebraicValue":
        """sum_k terms[k] z^k, coefficients in `exact` normal form, zero terms
        dropped; (d, m) are taken as valid."""
        value = object.__new__(cls)
        object.__setattr__(value, "d", d)
        object.__setattr__(value, "m", m)
        object.__setattr__(value, "terms", MappingProxyType(
            {k: (exact(a), exact(b)) for k, (a, b) in terms.items() if a or b}))
        return value

    @classmethod
    def from_rational(cls, q, d: int, m: int = 1) -> "AlgebraicValue":
        return cls(d, m, [(q, 0)])

    @classmethod
    def sqrt_d(cls, d: int, m: int = 1) -> "AlgebraicValue":
        return cls(d, m, [(0, 1)])

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

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        """The cyclic convolution of the terms, exponents mod m."""
        a, b = self._align(other)
        return AlgebraicValue._from_terms(a.d, a.m, _convolve(a.terms, b.terms, a.m, a.d, {}))

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, q) -> "AlgebraicValue":
        q = _rational(q)
        return AlgebraicValue._from_terms(
            self.d, self.m, {k: (a * q, b * q) for k, (a, b) in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
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
        makes N = n c rational, and 1/x = conj(x) c / N.  One term is inverted
        directly: (a + b sqrt(d)) z^k -> (a - b sqrt(d)) / (a^2 - d b^2) z^(m-k),
        where a^2 - d b^2 != 0 because d is not a square."""
        if len(self.terms) == 1:
            (k, (a, b)), = self.terms.items()
            N = Fraction(a * a - self.d * b * b)
            return AlgebraicValue._from_terms(self.d, self.m, {-k % self.m: (a / N, -b / N)})
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

    __hash__ = None

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

class WeightFunction(Frozen):
    """A function on ideal classes transforming with weight (w1, ws) on
    principal ideals; finite-order characters are the weight-(0,0) case."""

    __slots__ = ("group", "weight", "values")

    def __init__(self, group: IdealClassGroup, weight, values):
        w1, ws = weight
        values = tuple(values)
        if len(values) != group.h:
            raise InvalidInput("need one value per ideal class")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "weight", (int(w1), int(ws)))
        object.__setattr__(self, "values", values)

    def __mul__(self, other: "WeightFunction") -> "WeightFunction":
        if other.group.discriminant != self.group.discriminant:
            raise InvalidInput("group mismatch")
        w = (self.weight[0] + other.weight[0], self.weight[1] + other.weight[1])
        return WeightFunction(self.group, w,
                              [a * b for a, b in zip(self.values, other.values)])

    def __pow__(self, n: int) -> "WeightFunction":
        w = (n * self.weight[0], n * self.weight[1])
        return WeightFunction(self.group, w, [v ** n for v in self.values])

    def inverse(self) -> "WeightFunction":
        return self ** (-1)

    def is_trivial(self) -> bool:
        return self.weight == (0, 0) and all(v == 1 for v in self.values)

    def __eq__(self, other):
        return isinstance(other, WeightFunction) \
            and self.group.discriminant == other.group.discriminant \
            and self.weight == other.weight and \
            all(a == b for a, b in zip(self.values, other.values))

    __hash__ = None

    def __repr__(self):
        return f"WeightFunction(D={self.group.discriminant}, w={self.weight})"


def characters(G: IdealClassGroup):
    """All h homomorphisms G -> mu_m (m the exponent), built by extending
    along a subgroup chain; values are exact roots of unity."""
    m = G.exponent
    d = G.order_data.d_K
    chars = [{G.identity_index: 0}]
    subgroup = [G.identity_index]
    member = {G.identity_index}
    while len(subgroup) < G.h:
        g = next(i for i in range(G.h) if i not in member)
        k, acc = 1, g
        while acc not in member:
            acc = G.mul(acc, g)
            k += 1
        new_chars = []
        for chi in chars:
            # chi(g^k) has exponent c with k | c; extensions chi(g) = x solve
            # k x ≡ c (mod m), i.e. x = c/k + t m/k  (k divides m here)
            c = chi[acc]
            if c % k or m % k:
                raise AssertionError("character extension arithmetic broke")
            step = m // k
            for t in range(k):
                x = (c // k + t * step) % m
                ext = {}
                power = G.identity_index
                val = 0
                for j in range(k):
                    for hh in subgroup:
                        ext[G.mul(hh, power)] = (chi[hh] + val) % m
                    power = G.mul(power, g)
                    val = (val + x) % m
                new_chars.append(ext)
        chars = new_chars
        new_sub = []
        power = G.identity_index
        for _ in range(k):
            for hh in subgroup:
                new_sub.append(G.mul(hh, power))
            power = G.mul(power, g)
        subgroup = new_sub
        member = set(subgroup)
    tables = sorted(tuple(chi[i] for i in range(G.h)) for chi in chars)
    return [WeightFunction(G, (0, 0),
                           [AlgebraicValue.root_of_unity(e, d, m) for e in tab])
            for tab in tables]


def _class_sum(phi1: WeightFunction, phi2: WeightFunction, *twist: WeightFunction):
    """(1/h) Σ_s φ1(I_s) φ2(I_s) Π ψ(I_s) over the twists ψ when the weights of
    φ1 and φ2 cancel, else exact 0.  Per class, the values' terms are
    multiplied in the lcm of their layers and added into one term dict, which
    is divided by h once.  A value that is not an AlgebraicValue is coerced as
    `_align` coerces it."""
    G = phi1.group
    if any(phi.group.discriminant != G.discriminant for phi in (phi2, *twist)):
        raise InvalidInput("group mismatch")
    d = G.order_data.d_K
    if (phi1.weight[0] + phi2.weight[0], phi1.weight[1] + phi2.weight[1]) != (0, 0):
        return AlgebraicValue.from_rational(0, d, 1)
    rows = [[v if isinstance(v, AlgebraicValue) else AlgebraicValue.from_rational(v, d, 1)
             for v in phi.values] for phi in (phi1, phi2, *twist)]
    if any(v.d != d for row in rows for v in row):
        raise InvalidInput("mixed quadratic fields")
    m = math.lcm(*(v.m for row in rows for v in row))
    rows = [[v.promote(m).terms for v in row] for row in rows]
    total = {}
    for first, *middle, last in zip(*rows):
        for terms in middle:
            first = _convolve(first, terms, m, d, {})
        _convolve(first, last, m, d, total)
    h = G.h
    def share(c):  # c / h, an int when h divides c
        return c // h if c % h == 0 else Fraction(c, h)
    return AlgebraicValue._from_terms(
        d, m, {k: (share(a), share(b)) for k, (a, b) in total.items()})


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
        for name, value in (("prime", prime), ("precision", precision),
                            ("d", d), ("m", m)):
            object.__setattr__(self, name, value)
        if m > 1 and (prime - 1) % m:
            raise InvalidInput(f"p = {prime} is not 1 mod {m}: mu_{m} not in Z_p")
        zeta_lift = None if m == 1 else self._lift_root(
            lambda x: x ** m - 1, lambda x: m * x ** (m - 1),
            self._pick_zeta(zeta_residue))
        if d % prime == 0:
            sqrt_lift = "ramified"
        elif pow(d % prime, (prime - 1) // 2, prime) != 1:
            sqrt_lift = "inert"
        else:
            sqrt_lift = self._lift_root(
                lambda x: x * x - d, lambda x: 2 * x,
                self._pick_sqrt(sqrt_residue))
        object.__setattr__(self, "zeta_lift", zeta_lift)
        object.__setattr__(self, "sqrt_lift", sqrt_lift)

    def _pick_sqrt(self, residue):
        """The chosen square root of d mod p, else the smaller one."""
        p = self.prime
        roots = sqrt_mod_prime(self.d, p)
        if residue is not None:
            if residue % p not in roots:
                raise InvalidInput("chosen residue is not a square root of d mod p")
            return residue % p
        return min(roots)

    def _pick_zeta(self, residue):
        """The chosen primitive m-th root of unity mod p, else the least one:
        x = t^((p-1)/m) for the first t of order exactly m, and then the least
        x^j with j prime to m."""
        p, m = self.prime, self.m
        q_factors = list(factorint(m))
        def primitive(t):
            return pow(t, m, p) == 1 and all(pow(t, m // q, p) != 1 for q in q_factors)
        if residue is not None:
            if not primitive(residue % p):
                raise InvalidInput("chosen residue is not a primitive m-th root mod p")
            return residue % p
        x = next(x for x in (pow(t, (p - 1) // m, p) for t in range(2, p)) if primitive(x))
        return min(pow(x, j, p) for j in range(1, m) if math.gcd(j, m) == 1)

    def _lift_root(self, f, df, x0: int) -> int:
        p, target = self.prime, self.precision
        x, k = x0, 1
        while k < target:
            k = min(2 * k, target)
            mod = p ** k
            x = (x - f(x) * pow(df(x), -1, mod)) % mod
        return x % p ** target

    def embed(self, value: AlgebraicValue) -> PadicScalar:
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
            sq = PadicScalar.from_int(self.sqrt_lift, p, prec)
        # zeta_lift is a root of z^m - 1 mod p^prec, so z^k maps to its k-th power
        zeta, mod = self.zeta_lift or 1, p ** prec
        total = PadicScalar.zero(p, prec)
        for k, (a, b) in value.terms.items():
            term = PadicScalar.from_rational(a, p, prec)
            if b and has_sqrt:
                term = term + sq.scale(b)
            total = total + term * PadicScalar.from_int(pow(zeta, k, mod), p, prec)
        return total


def padic_avatar(phi: WeightFunction, embedding: PadicEmbedding):
    """Embed every class value of a weight function; the result is the avatar
    restricted to the chosen class representatives."""
    return [embedding.embed(v) for v in phi.values]


def admissible_embedding(G: IdealClassGroup, prime: int, precision: int,
                         **kwargs) -> PadicEmbedding:
    """An embedding whose cyclotomic layer covers all characters of G."""
    return PadicEmbedding(prime, precision, G.order_data.d_K, G.exponent, **kwargs)


def smallest_admissible_prime(G: IdealClassGroup, split: bool = False) -> int:
    """The least odd prime p ≡ 1 mod exponent(G), prime to h and D (and split
    in the field when avatars of weight characters are needed)."""
    m = G.exponent
    D = G.discriminant
    p = 3
    while True:
        if isprime(p) and (p - 1) % m == 0 and G.h % p and D % p:
            if not split or pow(G.order_data.d_K % p, (p - 1) // 2, p) == 1:
                return p
        p += 2


def avatar_measure_family(chi0: WeightFunction, chi: WeightFunction,
                          embedding: PadicEmbedding, order: int):
    """Per ideal class s, the measure chi0^(p)(s) · dirac(chi^(p)(s)): its
    r-th moment is the avatar of chi0·chi^r at s, and the family is supported
    on Z_p^× (unit avatar values are required)."""
    if chi0.group.discriminant != chi.group.discriminant:
        raise InvalidInput("group mismatch")
    p = embedding.prime
    family = []
    for s in range(chi0.group.h):
        z = embedding.embed(chi.values[s])
        if z.is_zero or z.valuation != 0:
            raise InvalidInput("avatar value is not a unit")
        c0 = embedding.embed(chi0.values[s])
        family.append(dirac(z, p, order).scale(c0))
    return family
