"""Integer primitives on the standard library only: primality, the next
prime, factorisation, the Jacobi symbol, the p-adic valuation of an
integer, the fundamental part of a quadratic discriminant, square roots
modulo a prime, cyclotomic polynomials and Bernoulli numbers.

Primality is trial division, then strong Miller-Rabin to the first thirteen
prime bases, which is deterministic below psi_13 ~ 3.3e24 (Sorenson and
Webster, Math. Comp. 86, 2017); at and above it, BPSW (a strong base-2
test and a strong Lucas test with Selfridge's parameters).  Square roots
use Tonelli-Shanks (Cohen, GTM 138, 1.5.1), B_k the Akiyama-Tanigawa
algorithm (Kaneko, J. Integer Seq. 3, 2000).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import InvalidInput

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_MR_BASES = _SMALL_PRIMES[:13]
_MR_BOUND = 3317044064679887385961981  # psi_13: least strong pseudoprime to _MR_BASES
_TRIAL_BOUND = 1000


def _as_int(n) -> int:
    """n as an int; a bool or a non-integral type is a ValueError."""
    if isinstance(n, bool):
        raise ValueError(f"{n} is not an integer")
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"{n} is not an integer") from None


def _strong_probable_prime(n: int, a: int) -> bool:
    """Strong Fermat test of the odd n > a to base a."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0: the Legendre symbol when n is prime."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of the odd n > 47 with Selfridge's parameters:
    D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1-D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # gcd(D, n) > 1 and |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    half = (n + 1) // 2
    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1 with P = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def isprime(n) -> bool:
    """Whether the integer n is prime (False for n < 2)."""
    n = _as_int(n)
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 53 * 53:
        return True
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def nextprime(n) -> int:
    """The least prime > n."""
    n = max(_as_int(n), 1) + 1
    while not isprime(n):
        n += 1
    return n


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n (Brent's variant of Pollard
    rho, with the gcds batched)."""
    for c in range(1, n):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                g = math.gcd(prod, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError(f"no factor of {n} found")


def factorint(n) -> dict:
    """{prime: exponent} of the integer n >= 1, in ascending order of prime."""
    n = _as_int(n)
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, not {n}")
    factors: dict = {}
    for q in range(2, _TRIAL_BOUND):
        if q * q > n:
            break
        while n % q == 0:
            factors[q] = factors.get(q, 0) + 1
            n //= q
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if isprime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _rho(m)
            pending += [d, m // d]
    return dict(sorted(factors.items()))


def int_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer."""
    if n == 0:
        raise InvalidInput("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


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
    return square // 2, 4 * m  # square is even: an odd one gives D = m = 2, 3 mod 4


def sqrt_mod_prime(a: int, p: int) -> list:
    """Every x in [0, p) with x^2 = a mod the prime p, ascending."""
    a %= p
    if a == 0 or p == 2:
        return [a]
    if pow(a, (p - 1) // 2, p) != 1:
        return []
    q = p - 1
    s = (q & -q).bit_length() - 1
    q >>= s
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return sorted({r, p - r})


def cyclotomic_coeffs(m: int) -> list:
    """Ascending integer coefficients of Phi_m = prod_{d | m} (x^d - 1)^mu(m/d):
    the factors with mu = 1 are multiplied out, then those with mu = -1 are
    divided off exactly."""
    primes = list(factorint(m))
    up, down = [], []
    for mask in range(1 << len(primes)):
        squarefree = math.prod(q for i, q in enumerate(primes) if mask >> i & 1)
        (down if mask.bit_count() % 2 else up).append(m // squarefree)
    poly = [1]
    for d in up:  # times (x^d - 1)
        poly = [(poly[i - d] if i >= d else 0) - (poly[i] if i < len(poly) else 0)
                for i in range(len(poly) + d)]
    for d in down:  # over (x^d - 1): if P = Q (x^d - 1) then Q_i = Q_{i-d} - P_i
        quotient = []
        for i in range(len(poly) - d):
            quotient.append((quotient[i - d] if i >= d else 0) - poly[i])
        poly = quotient
    return poly


def bernoulli(k: int) -> Fraction:
    """B_k for k >= 0, with B_1 = +1/2, by the Akiyama-Tanigawa algorithm."""
    row = [Fraction(0)] * (k + 1)
    for m in range(k + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]
