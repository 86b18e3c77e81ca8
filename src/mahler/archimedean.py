"""Exact combinatorics and numerical quadrature for the archimedean local
factor: Laurent polynomials in pi, the Gaussian Fourier coefficients and their
double-factorial weights, and the Gauss-Laguerre/trapezoid evaluation of the
radial-angular integral against its Gamma closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import Frozen, InvalidInput


class PiPolynomial(Frozen):
    """A Laurent polynomial in pi with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for power, coeff in dict(terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                clean[int(power)] = coeff
        object.__setattr__(self, "terms", MappingProxyType(clean))

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
