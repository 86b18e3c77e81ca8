"""Reference answers computed without the code under test.

Every function here works from how the benchmark built its inputs (Dirac
masses at known points, random coefficient lists, chosen discriminants) or
from an identity the exact answer must satisfy.  Nothing imports mahler.
"""

from __future__ import annotations

import math
from fractions import Fraction

# -- integers ------------------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list:
    n, out, f = abs(n), [], 2
    while f * f <= n:
        while n % f == 0:
            if not out or out[-1] != f:
                out.append(f)
            n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_factorial(n: int, p: int) -> int:
    """v_p(n!) as the sum of floor(n / p^i)."""
    total, q = 0, p
    while q <= n:
        total += n // q
        q *= p
    return total


def phi(n: int) -> int:
    out = n
    for q in prime_factors(n):
        out = out // q * (q - 1)
    return out


def exact_str(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- measures built from Dirac masses --------------------------------------------


def mahler_of_diracs(points, order: int) -> list:
    """Mahler coefficients a_n = sum c C(z, n), n < order, of sum c delta_z
    with nonnegative integer points z."""
    return [sum(c * math.comb(z, n) for c, z in points) for n in range(order)]


def moment_of_diracs(points, r: int):
    return sum(c * z ** r for c, z in points)


def restrict_points(points, p: int) -> list:
    return [(c, z) for c, z in points if z % p]


def cell_of_diracs(points, a: int, q: int):
    return sum(c for c, z in points if z % q == a)


def product_points(points1, points2) -> list:
    """sum c delta_z times sum d delta_w pushed forward by multiplication."""
    merged = {}
    for c, z in points1:
        for d, w in points2:
            merged[z * w] = merged.get(z * w, 0) + c * d
    return [(c, z) for z, c in sorted(merged.items()) if c]


def restriction_supported(order: int, p: int, precision: int) -> int:
    """Number of restricted coefficients a truncated measure supports at a
    target precision (README precision policy); < 1 means a refusal."""
    return order - (precision + 1) * (p - 1)


def cell_tail_bound(order: int, nu: int, p: int) -> int:
    """Best precision of a level-nu cell mass of a truncated measure
    (README precision policy: order / (p^(nu-1)(p-1)) - nu, rounded up)."""
    return math.ceil(Fraction(order, p ** (nu - 1) * (p - 1)) - nu)


def congruent(got, want, p: int, e: int) -> bool:
    """got == want mod p^e for p-integral rationals."""
    if e <= 0:
        return True
    mod = p ** e
    diff = Fraction(got) - Fraction(want)
    if diff == 0:
        return True
    if diff.denominator % p == 0:
        return False
    return diff.numerator % mod == 0


def padic_value(obj: dict):
    """The integer (or fraction) unit * p^val of an encoded p-adic scalar."""
    if obj["val"] == "inf":
        return 0
    v, p = int(obj["val"]), int(obj["p"])
    unit = int(obj["unit"])
    return unit * p ** v if v >= 0 else Fraction(unit, p ** -v)


# -- q-expansions --------------------------------------------------------------

TAU_SMALL = (0, 1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)


def sigma_table(k: int, n_max: int) -> list:
    out = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dk = d ** k
        for n in range(d, n_max + 1, d):
            out[n] += dk
    return out


def bernoulli(k: int) -> Fraction:
    """B_k (B_1 = +1/2 convention; only even k >= 2 are used) by the
    Akiyama-Tanigawa algorithm."""
    a = [Fraction(0)] * (k + 1)
    for m in range(k + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


def delta_errors(tau: list, pairs) -> str | None:
    """Identities the coefficients of Delta must satisfy: the first ten
    values, Ramanujan's congruence tau(n) = sigma_11(n) mod 691, Hecke
    multiplicativity on coprime pairs, the prime-power recursion and the
    Deligne bound at primes."""
    T = len(tau) - 1
    for n in range(min(T, 10) + 1):
        if tau[n] != TAU_SMALL[n]:
            return f"tau({n}) = {tau[n]}, expected {TAU_SMALL[n]}"
    sig = sigma_table(11, T)
    for n in range(1, T + 1):
        if (tau[n] - sig[n]) % 691:
            return f"tau({n}) fails Ramanujan's congruence mod 691"
    for m, n in pairs:
        if m * n <= T and math.gcd(m, n) == 1 and tau[m * n] != tau[m] * tau[n]:
            return f"tau({m}*{n}) is not multiplicative"
    for p in range(2, T + 1):
        if not is_prime(p):
            continue
        if tau[p] ** 2 > 4 * p ** 11:
            return f"tau({p}) breaks the Deligne bound"
        pk = p
        while pk * p <= T:
            if tau[pk * p] != tau[p] * tau[pk] - p ** 11 * tau[pk // p]:
                return f"tau({pk * p}) breaks the prime-power recursion"
            pk *= p
    return None


def hecke_coeffs(a: list, p: int, weight: int) -> list:
    """T_p on level 1 with trivial character: b_n = a_{np} + p^(k-1) a_{n/p}."""
    top = (len(a) - 1) // p
    return [a[n * p] + (p ** (weight - 1) * a[n // p] if n % p == 0 else 0)
            for n in range(top + 1)]


def maass_cells(cells: dict, weight: int, iterations: int) -> dict:
    """Raising operator on {(n, j): c}: n c at (n, j) and (j - k) c at (n, j+1)."""
    for _ in range(iterations):
        out = {}
        for (n, j), c in cells.items():
            if n:
                out[(n, j)] = out.get((n, j), 0) + n * c
            out[(n, j + 1)] = out.get((n, j + 1), 0) + (j - weight) * c
        cells = {key: c for key, c in out.items() if c}
        weight += 2
    return cells


# -- binary quadratic forms --------------------------------------------------------


def reduced_forms(D: int) -> list:
    """Primitive reduced forms (a, b, c), b^2 - 4ac = D < 0: |b| <= a <= c,
    b >= 0 when |b| = a or a = c."""
    forms = []
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (b < 0 and a == c):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                forms.append((a, b, c))
        a += 1
    return sorted(forms)


def fundamental_part(D: int) -> int:
    """The fundamental discriminant d_K with D = f^2 d_K."""
    square = 1
    n = -D
    for q in prime_factors(n):
        e = valuation(n, q)
        square *= q ** (e // 2)
    m = D // square ** 2
    return m if m % 4 == 1 else 4 * m


# -- Hilbert symbols and quaternion algebras -----------------------------------------


def _legendre(u: int, p: int) -> int:
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def hilbert(a: Fraction, b: Fraction, place) -> int:
    """(a, b)_v by Serre, A Course in Arithmetic, III.1.2, Theorem 1."""
    a = Fraction(a).numerator * Fraction(a).denominator
    b = Fraction(b).numerator * Fraction(b).denominator
    if place == "inf":
        return -1 if a < 0 and b < 0 else 1
    p = place
    alpha, beta = valuation(a, p), valuation(b, p)
    u, v = a // p ** alpha, b // p ** beta
    if p != 2:
        eps = (p - 1) // 2 % 2
        sign = (-1) ** (alpha * beta * eps)
        if beta % 2:
            sign *= _legendre(u, p)
        if alpha % 2:
            sign *= _legendre(v, p)
        return sign

    def e(x):
        return (x - 1) // 2 % 2

    def w(x):
        return (x * x - 1) // 8 % 2
    return (-1) ** ((e(u) * e(v) + alpha * w(v) + beta * w(u)) % 2)


def ramified_places(a: Fraction, b: Fraction) -> tuple:
    """(finite ramified primes, ramified at infinity)."""
    n = abs(Fraction(a).numerator * Fraction(a).denominator
            * Fraction(b).numerator * Fraction(b).denominator)
    candidates = sorted(set(prime_factors(n)) | {2})
    finite = [p for p in candidates if hilbert(a, b, p) == -1]
    return finite, hilbert(a, b, "inf") == -1


def hashimoto(delta: int, p: int, bound: int):
    """Least prime q <= bound with q = 1 mod 4 (5 mod 8 for even Delta), q not
    dividing Delta, (q/p) = 1, (q, -Delta) ramified exactly at the primes of
    Delta; b is the least square root of -1/Delta mod q.  None past bound."""
    primes = prime_factors(delta)
    for q in range(3, bound + 1):
        if not is_prime(q) or q % 4 != 1 or (delta % 2 == 0 and q % 8 != 5):
            continue
        if q in primes or _legendre(q, p) != 1:
            continue
        finite, infinite = ramified_places(Fraction(q), Fraction(-delta))
        if infinite or finite != primes:
            continue
        target = (-pow(delta, -1, q)) % q
        roots = [x for x in range(q) if x * x % q == target]
        if roots:
            return q, roots[0]
    return None


def conductor(matrix, level: int) -> int:
    """Conductor of Q(M) ∩ (the Eichler order of level N in M_2(Z)) for a
    traceless integer M with M^2 = d < 0: the lattice of y with y M
    integral and N | y m21 is y0 Z; the order Z + Z(x0 + y0 M) has
    discriminant 4 y0^2 d = c^2 d_K."""
    (a, b), (c, _) = matrix
    d = a * a + b * c
    gens = [Fraction(x) for x in (b, Fraction(c, level), 2 * a) if x]
    den = math.lcm(*[g.denominator for g in gens])
    g = Fraction(math.gcd(*[int(x * den) for x in gens]), den)
    y0 = 1 / g
    disc = 4 * y0 * y0 * d
    disc = int(disc)
    c2 = disc // fundamental_part(disc)
    return math.isqrt(c2)


# -- archimedean --------------------------------------------------------------------


def local_factor(kappa: int, r: int, s: float) -> float:
    """2 r! Gamma(s + 2 kappa + r + 1/2) / (4 pi)^(s + 2(kappa + r) + 1/2)
    at zeta_u = 1, |nu(u)| = 1."""
    return 2 * math.factorial(r) * math.gamma(s + 2 * kappa + r + 0.5) \
        / (4 * math.pi) ** (s + 2 * (kappa + r) + 0.5)
