"""Exact combinatorics and numerical quadrature for the archimedean local
factor: Laurent polynomials in pi, the Gaussian Fourier coefficients and their
double-factorial weights, the second-order raising recurrence on the
two-variable Gaussian basis, and the Gauss-Laguerre/trapezoid evaluation of
the radial-angular integral against its Gamma closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInput


class PiPolynomial:
    """A Laurent polynomial in pi with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for power, coeff in dict(terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                clean[int(power)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("PiPolynomial is immutable")

    @classmethod
    def term(cls, coeff, power: int = 0) -> "PiPolynomial":
        return cls({power: coeff})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PiPolynomial.term(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return PiPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return PiPolynomial({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PiPolynomial.term(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PiPolynomial({k: v * other for k, v in self.terms.items()})
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = k1 + k2
                out[k] = out.get(k, Fraction(0)) + v1 * v2
        return PiPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PiPolynomial.term(other)
        return isinstance(other, PiPolynomial) and self.terms == other.terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, pi_value: float = math.pi) -> float:
        return float(sum(float(c) * pi_value ** k for k, c in self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            c = self.terms[k]
            if k == 0:
                bits.append(f"{c}")
            else:
                bits.append(f"{c}*pi^{k}")
        return " + ".join(bits)


def double_factorial(n: int) -> int:
    """n!! for odd n >= -1, with (-1)!! = 1."""
    if n < -1 or n % 2 == 0:
        raise InvalidInput("double factorial used only for odd n >= -1")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def gamma_coeff(l: int, alpha: int, beta: int) -> PiPolynomial:
    """Coefficient of x1^(2a) x2^(2b) in the stated Fourier expansion of the
    radial Gaussian (|z|^2)^l e^(-2pi |z|^2), j-sum with the k = l - j reading.

    Note: the true Fourier transform carries an extra (-1)^l global sign; the
    convention here is the one the closed-form factor and the diagonal
    double-factorial identity are stated in.  See the Gaussian-moment oracle
    in the tests for the exact relationship.
    """
    if l < 0 or alpha < 0 or beta < 0 or alpha + beta > l:
        raise InvalidInput("need 0 <= alpha + beta <= l")
    total = 0
    for j in range(alpha, l - beta + 1):
        k = l - j
        total += math.comb(l, j) * math.comb(2 * j, 2 * alpha) \
            * math.comb(2 * k, 2 * beta) \
            * double_factorial(2 * j - 2 * alpha - 1) \
            * double_factorial(2 * k - 2 * beta - 1)
    drop = l - alpha - beta
    coeff = Fraction((-1) ** drop * total, 4 ** drop)
    return PiPolynomial.term(coeff, -(drop))


def delta_coeff(l: int, alpha: int, beta: int) -> PiPolynomial:
    """gamma * (2a-1)!! (2b-1)!! (4 pi)^-(a+b): the angular integrand weights."""
    g = gamma_coeff(l, alpha, beta)
    w = Fraction(double_factorial(2 * alpha - 1) * double_factorial(2 * beta - 1),
                 4 ** (alpha + beta))
    return g * PiPolynomial.term(w, -(alpha + beta))


def delta_diagonal_sum(r: int) -> PiPolynomial:
    """Sum over the diagonal a + b = r; equals (4 pi)^-r 2^r r! exactly."""
    total = PiPolynomial()
    for alpha in range(r + 1):
        total = total + delta_coeff(r, alpha, r - alpha)
    return total


def delta_diagonal_target(r: int) -> PiPolynomial:
    return PiPolynomial.term(Fraction(2 ** r * math.factorial(r), 4 ** r), -r)


# ---------------------------------------------------------------------------
# the raising operator on the two-variable Gaussian basis
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


# ---------------------------------------------------------------------------
# the local integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalFactorParams:
    kappa: int
    r: int
    l: int
    s: float = 0.5
    nu_u_abs: float = 1.0
    zeta_u: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.kappa < 1:
            raise InvalidInput("kappa must be >= 1")
        if not 0 <= self.l <= self.r:
            raise InvalidInput("need 0 <= l <= r")
        if self.s <= 0:
            raise InvalidInput("s must be positive (convergent range)")
        if self.nu_u_abs <= 0:
            raise InvalidInput("|nu(u)| must be positive")


def _phase(params: LocalFactorParams) -> complex:
    return params.zeta_u ** (2 * (params.kappa + params.r))


def local_integral_quadrature(params: LocalFactorParams, nodes_a: int = 64,
                              nodes_theta: int = 256) -> complex:
    """Evaluate (1/pi) * phase * |nu|^(-1/2) * ∫∫ a^(2k+r+s-1/2) e^(-4pi a)
    * sum delta_coeffs (cos t)^(a+b) e^((2r-a-b) i t) da dt with Gauss-Laguerre
    nodes in the radial variable (u = 4 pi a) and a uniform angular grid.
    numpy is imported here, its only use, so that no other command pays for it."""
    import numpy as np

    if nodes_a < 2 or nodes_theta < 4:
        raise InvalidInput("insufficient node counts")
    kappa, r, l = params.kappa, params.r, params.l
    exponent = 2 * kappa + r + params.s - 0.5
    u, w = np.polynomial.laguerre.laggauss(nodes_a)
    radial = float(np.sum(w * u ** exponent)) / (4 * math.pi) ** (exponent + 1)
    deltas = [(alpha, beta, delta_coeff(l, alpha, beta).evaluate())
              for alpha in range(l + 1) for beta in range(l + 1 - alpha)]
    theta = 2 * math.pi * np.arange(nodes_theta) / nodes_theta
    angular_samples = np.zeros(nodes_theta, dtype=complex)
    for alpha, beta, dval in deltas:
        ab = alpha + beta
        angular_samples += dval * np.cos(theta) ** ab \
            * np.exp(1j * (2 * r - ab) * theta)
    angular = complex(np.sum(angular_samples)) * (2 * math.pi / nodes_theta)
    return _phase(params) / math.pi / math.sqrt(params.nu_u_abs) * radial * angular


def local_factor_closed_form(params: LocalFactorParams) -> complex:
    """2 * phase * |nu|^(-1/2) * r! * (4pi)^-(s+2(kappa+r)+1/2)
    * Gamma(s + 2 kappa + r + 1/2) when l = r, exact 0 for l < r."""
    if params.l < params.r:
        return 0j
    kappa, r, s = params.kappa, params.r, params.s
    g = math.gamma(s + 2 * kappa + r + 0.5)
    power = (4 * math.pi) ** (s + 2 * (kappa + r) + 0.5)
    return 2 * _phase(params) / math.sqrt(params.nu_u_abs) \
        * math.factorial(r) * g / power


def closed_form_pi_polynomial(kappa: int, r: int) -> PiPolynomial:
    """The l = r closed form at s = 1/2, zeta_u = 1, |nu| = 1, where the Gamma
    value is the exact integer (2 kappa + r)!: an exact Laurent monomial."""
    if kappa < 1 or r < 0:
        raise InvalidInput("need kappa >= 1 and r >= 0")
    power = 2 * (kappa + r) + 1
    coeff = Fraction(2 * math.factorial(r) * math.factorial(2 * kappa + r),
                     4 ** power)
    return PiPolynomial.term(coeff, -power)


def quadrature_report(params: LocalFactorParams, nodes_a: int = 64,
                      nodes_theta: int = 256) -> dict:
    """Quadrature at the stated and doubled resolutions plus the closed form;
    used by the CLI and the acceptance suite."""
    q1 = local_integral_quadrature(params, nodes_a, nodes_theta)
    q2 = local_integral_quadrature(params, 2 * nodes_a, 2 * nodes_theta)
    closed = local_factor_closed_form(params)
    scale = abs(local_factor_closed_form(
        LocalFactorParams(params.kappa, params.r, params.r, params.s,
                          params.nu_u_abs, params.zeta_u)))
    rel_error = abs(q1 - closed) / scale if scale else math.inf
    return {
        "quadrature": q1,
        "quadrature_refined": q2,
        "closed_form": closed,
        "rel_error": rel_error,
        "self_consistency": abs(q1 - q2) / scale if scale else math.inf,
    }
