"""Functions the tests use to check the paper's mathematics, kept out of the
library because no command calls them: the second-order raising recurrence
on the two-variable Gaussian basis with its finite-difference cross-check,
the exact l = r closed form of the archimedean local factor, the weight
factor of a principal ideal, the class-group table composed pair by pair,
the seeded grid of avatar measure families and their fields, the seeded
corpus of p-adic Dirac masses with a family member to pair them with,
the quaternionic trace pairing, and small helpers: the valuation of a
rational, sqrt(d) as an algebraic value, a q-expansion as a
nearly-holomorphic form, and the trivial-character test."""

import cmath
import math
import random
from fractions import Fraction

from mahler.archimedean import PiPolynomial
from mahler.errors import InvalidInput
from mahler.heckechar import (AlgebraicValue, WeightFunction, _enumerate_reduced_forms,
                              admissible_embedding, avatar_measure_family, characters,
                              class_group, compose_forms, smallest_admissible_prime)
from mahler.modform import NearlyHolomorphic, QExpansion
from mahler.padic import PadicScalar, int_valuation
from mahler.quaternion import Mat, mat, mat_add, mat_mul, mat_scale, mat_trace

# ---------------------------------------------------------------------------
# archimedean: the raising operator and the l = r closed form
# ---------------------------------------------------------------------------

def gaussian_basis_value(l: int, m: int, z1: complex, z2: complex) -> complex:
    """(z1 conj(z1))^l z2^(2m) e^(-2 pi (|z1|^2 + |z2|^2))."""
    r1 = (z1 * z1.conjugate()).real
    r2 = (z2 * z2.conjugate()).real
    return r1 ** l * z2 ** (2 * m) * cmath.exp(-2 * math.pi * (r1 + r2))


def apply_raising_operator(state: dict) -> dict:
    """One step of the second-order raising recurrence on basis coefficients:
    (l, m) feeds l^2 into (l-1, m+1), -4 pi (2l+1) into (l, m+1) and
    (4 pi)^2 into (l+1, m+1)."""
    out = {}

    def bump(key, value):
        if key in out:
            out[key] = out[key] + value
        else:
            out[key] = value

    for (l, m), coeff in state.items():
        if not isinstance(coeff, PiPolynomial):
            coeff = PiPolynomial.term(coeff)
        if l > 0:
            bump((l - 1, m + 1), coeff * (l * l))
        bump((l, m + 1), coeff * PiPolynomial.term(-4 * (2 * l + 1), 1))
        bump((l + 1, m + 1), coeff * PiPolynomial.term(16, 2))
    return {k: v for k, v in out.items() if not v.is_zero()}


def raising_recurrence_value(l: int, m: int, z1: complex, z2: complex) -> complex:
    """Right-hand side of the recurrence evaluated pointwise."""
    pi = math.pi
    value = -4 * pi * (2 * l + 1) * gaussian_basis_value(l, m + 1, z1, z2) \
        + 16 * pi * pi * gaussian_basis_value(l + 1, m + 1, z1, z2)
    if l > 0:
        value += l * l * gaussian_basis_value(l - 1, m + 1, z1, z2)
    return value


_D1 = ((-2, 1), (-1, -8), (1, 8), (2, -1))  # 4th order, divide by 12h
_D2 = ((-2, -1), (-1, 16), (0, -30), (1, 16), (2, -1))  # 4th order, divide by 12h^2


def _partial1(f, point, i, h):
    acc = 0.0
    for off, w in _D1:
        p = list(point)
        p[i] += off * h
        acc += w * f(p)
    return acc / (12 * h)


def _partial2(f, point, i, h):
    acc = 0.0
    for off, w in _D2:
        p = list(point)
        p[i] += off * h
        acc += w * f(p)
    return acc / (12 * h * h)


def _partial_mixed(f, point, i, j, h):
    acc = 0.0
    for off_i, w_i in _D1:
        for off_j, w_j in _D1:
            p = list(point)
            p[i] += off_i * h
            p[j] += off_j * h
            acc += w_i * w_j * f(p)
    return acc / (144 * h * h)


def raising_operator_finite_difference(l: int, m: int, z1: complex, z2: complex,
                                        step: float = 1e-3) -> complex:
    """Evaluate the displayed second-order operator
    z2^2 d2/dz1 dcz1 + cz1 z2 d2/dcz1 dcz2 + z1 z2 d2/dz1 dcz2
    + z1 cz1 d2/dcz2^2 + z2 d/dcz2
    on the basis function by 4th-order central differences in the four real
    coordinates (Wirtinger combinations)."""
    if step <= 0:
        raise InvalidInput("degenerate step size")

    def f(p):
        return gaussian_basis_value(l, m, complex(p[0], p[1]), complex(p[2], p[3]))

    pt = [z1.real, z1.imag, z2.real, z2.imag]
    X1, Y1, X2, Y2 = 0, 1, 2, 3
    dx1x2 = _partial_mixed(f, pt, X1, X2, step)
    dx1y2 = _partial_mixed(f, pt, X1, Y2, step)
    dy1x2 = _partial_mixed(f, pt, Y1, X2, step)
    dy1y2 = _partial_mixed(f, pt, Y1, Y2, step)
    # Wirtinger: d/dz = (dx - i dy)/2, d/dcz = (dx + i dy)/2
    dz1_dcz1 = (_partial2(f, pt, X1, step) + _partial2(f, pt, Y1, step)) / 4
    dcz1_dcz2 = (dx1x2 + 1j * dx1y2 + 1j * dy1x2 - dy1y2) / 4
    dz1_dcz2 = (dx1x2 + 1j * dx1y2 - 1j * dy1x2 + dy1y2) / 4
    dcz2_dcz2 = (_partial2(f, pt, X2, step) - _partial2(f, pt, Y2, step)
                 + 2j * _partial_mixed(f, pt, X2, Y2, step)) / 4
    dcz2 = (_partial1(f, pt, X2, step) + 1j * _partial1(f, pt, Y2, step)) / 2
    return (z2 * z2 * dz1_dcz1
            + z1.conjugate() * z2 * dcz1_dcz2
            + z1 * z2 * dz1_dcz2
            + z1 * z1.conjugate() * dcz2_dcz2
            + z2 * dcz2)


def raising_operator_check(l: int, m: int, points, step: float = 1e-3) -> float:
    """Max relative deviation between the finite-difference evaluation of the
    operator and the recurrence right-hand side over the sample points."""
    worst = 0.0
    for z1, z2 in points:
        lhs = raising_operator_finite_difference(l, m, z1, z2, step)
        rhs = raising_recurrence_value(l, m, z1, z2)
        scale = max(abs(rhs), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def closed_form_pi_polynomial(kappa: int, r: int) -> PiPolynomial:
    """The l = r closed form at s = 1/2, zeta_u = 1, |nu| = 1, where the Gamma
    value is the exact integer (2 kappa + r)!: an exact Laurent monomial."""
    if kappa < 1 or r < 0:
        raise InvalidInput("need kappa >= 1 and r >= 0")
    power = 2 * (kappa + r) + 1
    coeff = Fraction(2 * math.factorial(r) * math.factorial(2 * kappa + r),
                     4 ** power)
    return PiPolynomial.term(coeff, -power)


# ---------------------------------------------------------------------------
# heckechar: the composition table, the weight factor on principal ideals
# and the grid of avatar measure families
# ---------------------------------------------------------------------------

def composition_table(D: int) -> tuple:
    """The multiplication table of the reduced forms of discriminant D, one
    `compose_forms` call per unordered pair, h(h+1)/2 in all."""
    forms = _enumerate_reduced_forms(D)
    index = {f: i for i, f in enumerate(forms)}
    h = len(forms)
    table = [[0] * h for _ in range(h)]
    for i in range(h):
        for j in range(i, h):
            table[i][j] = table[j][i] = index[compose_forms(forms[i], forms[j], D)]
    return tuple(map(tuple, table))


def weight_value_on_principal(lam: AlgebraicValue, w) -> AlgebraicValue:
    """λ^{w1} conj(λ)^{ws} — the transformation factor on a principal ideal
    with chosen generator λ."""
    w1, ws = w
    return lam ** w1 * lam.conjugate() ** ws


FAMILY_ORDERS = (1, 2, 16, 48)


def family_cases(limit: int = 200):
    """(chi0, chi, embedding, order) per D with |D| <= limit and per order of
    FAMILY_ORDERS, with the embedding precision, chi and the kind of chi0
    drawn from a seeded generator."""
    rng = random.Random("avatar-family-digest")
    discs = [D for D in range(-3, -limit - 1, -1) if D % 4 in (0, 1)]
    for D in discs:
        G = class_group(D)
        chars, p = characters(G), smallest_admissible_prime(G)
        d, m, h = G.order_data.d_K, G.exponent, G.h
        for order in FAMILY_ORDERS:
            emb = admissible_embedding(G, p, rng.randint(1, 6))
            chi, psi = chars[rng.randrange(h)], chars[rng.randrange(h)]
            kind, zero_at = rng.randrange(4), rng.randrange(h)
            if kind == 1:
                chi0 = WeightFunction(G, (0, 0), [
                    AlgebraicValue.from_rational(0, d, m) if s == zero_at else v
                    for s, v in enumerate(psi.values)])
            elif kind == 2:
                chi0 = WeightFunction(G, (0, 0), [AlgebraicValue.from_rational(
                    Fraction(1, p), d, m)] * h)
            elif kind == 3:
                q = rng.choice([Fraction(3, 2), -1, p, Fraction(p * p, 5)])
                chi0 = WeightFunction(G, (0, 0), [v.scale(q) for v in psi.values])
            else:
                chi0 = psi
            yield chi0, chi, emb, order


def family_outcome(build, *args):
    """The fields of each measure `build(*args)` returns and of each of its
    Mahler coefficients, or the exception type and message."""
    try:
        family = build(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return [(type(mu).__name__, mu.prime, mu.finite,
             [(type(a).__name__, a.prime, a.valuation, a.unit, a.precision)
              for a in mu.mahler]) for mu in family]


DIRAC_PARTNER_DISCS = {3: -20, 5: -39, 7: -23}  # each p is the least admissible prime


def dirac_cases(count: int = 400):
    """(z, prime, order) for p-adic Dirac masses: p in {3, 5, 7}, z a unit,
    a non-unit or the zero known mod p^P, P <= 6, and an order from 1 to 48,
    drawn from a seeded generator; an order past p^P is refused."""
    rng = random.Random("padic-dirac")
    for _ in range(count):
        p, P = rng.choice((3, 5, 7)), rng.randint(1, 6)
        v = rng.choice((0, 0, rng.randint(1, P)))  # a unit, or valuation v; v = P is zero
        u = rng.randrange(p ** max(P - v - 1, 0)) * p + rng.randrange(1, p)
        z = PadicScalar.zero(p, P) if v == P else PadicScalar.from_int(p ** v * u, p, P)
        yield z, p, rng.randint(1, 48)


def partner_family(p: int, order: int = 48):
    """An avatar family at p of the given order, its avatars known mod p^6."""
    G = class_group(DIRAC_PARTNER_DISCS[p])
    chars = characters(G)
    return avatar_measure_family(chars[0], chars[1], admissible_embedding(G, p, 6), order)


# ---------------------------------------------------------------------------
# quaternion: the trace pairing
# ---------------------------------------------------------------------------

IDENTITY: Mat = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def trace_pairing(x: Mat, y: Mat):
    """tr(x * conj(y)) with conj the quaternionic involution tr(y) I - y."""
    conj_y = mat_add(mat_scale(IDENTITY, mat_trace(y)), mat_scale(y, -1))
    return mat_trace(mat_mul(mat(x), conj_y))


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def rational_valuation(q, p: int) -> int:
    """v_p of a nonzero int or Fraction."""
    q = Fraction(q)
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


def sqrt_d(d: int, m: int = 1) -> AlgebraicValue:
    """sqrt(d) in Q(sqrt(d))(zeta_m)."""
    return AlgebraicValue(d, m, [(0, 1)])


def nearly_holomorphic(f: QExpansion) -> NearlyHolomorphic:
    """A q-expansion as the nearly-holomorphic form with only the cells (n, 0)."""
    return NearlyHolomorphic(f.weight, f.trunc, {(n, 0): c for n, c in enumerate(f.coeffs)})


def is_trivial(phi: WeightFunction) -> bool:
    """The weight-(0, 0) function with every value 1."""
    return phi.weight == (0, 0) and all(v == 1 for v in phi.values)
