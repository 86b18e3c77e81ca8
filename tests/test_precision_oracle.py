"""Every precision that a measure transform states is a lower bound, checked
against exact oracles.

One seeded generator draws exact finite measures with random p-integral
tails and, for each, the precision N in 1..8 at which each of its first K
coefficients is approximated, or 0 to leave that coefficient exact; the
approximated coefficients make a truncated measure of order K.  Each
transform of the truncated measure -- restriction, cell masses, step
integrals, moments, and from approximated moments `mahler_from_moments` and
`pairing_measure` -- must agree with the same transform of the exact measure
modulo every precision that it states, and an exact output must be equal.
Refused calls are counted, not compared.  The module runs in about 3 s.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from mahler.cli import main
from mahler.errors import InvalidInput, PrecisionExhausted
from mahler.measure import (Measure, cell_mass, cell_tail_valuation, integrate_step,
                            mahler_from_moments, moments, pairing_measure, restrict_to_units)
from mahler.padic import INF, PadicScalar
from mahler.serialize import encode_measure

SEED, COUNT = 0, 300


def approximate(x, p: int, N: int):
    """x itself for N = 0, else its class mod p^N."""
    return PadicScalar.from_rational(x, p, N) if N else x


def generate(seed=SEED, count=COUNT):
    """(p, exact finite measure, precisions): the truncation of the measure
    is `truncated(mu, precisions)`, of order len(precisions)."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice((2, 3, 5, 7))
        K = rng.randint(2, 16)
        dens = [d for d in (1, 1, 2, 3, 4, 5, 7, 9) if d % p]
        mahler = [Fraction(rng.randint(-p ** 8, p ** 8), rng.choice(dens))
                  for _ in range(K + rng.randint(1, 12))]
        yield p, Measure(p, mahler, finite=True), [rng.randint(0, 8) for _ in range(K)]


def truncated(mu: Measure, precisions) -> Measure:
    return Measure(mu.prime, [approximate(x, mu.prime, N)
                              for x, N in zip(mu.mahler, precisions)])


def agrees(value, want, p: int) -> bool:
    """value is want mod every precision it states: an exact value is equal,
    a PadicScalar known mod p^N is congruent to the rational want mod p^N."""
    if type(value) is not PadicScalar:
        return value == want
    if value.precision is INF:
        return want == 0
    return (Fraction(want) - value.lift()).numerator % p ** value.precision == 0


def outcome(fn, *args):
    """fn(*args), or None when it refuses."""
    try:
        return fn(*args)
    except (InvalidInput, PrecisionExhausted):
        return None


def test_restriction():
    compared = 0
    for p, mu, precisions in generate():
        trunc, want = truncated(mu, precisions), restrict_to_units(mu).mahler
        for target in range(1, (len(precisions) - 1) // (p - 1)):
            got = restrict_to_units(trunc, target).mahler
            assert all(agrees(a, b, p) and a.precision <= target
                       for a, b in zip(got, want)), (mu, precisions, target)
            compared += len(got)
    assert compared > 2500


def test_cell_masses_and_step_integrals():
    compared = 0
    for p, mu, precisions in generate():
        trunc, K = truncated(mu, precisions), len(precisions)
        for nu in (1, 2):
            q = p ** nu
            phi = [(7 * a * a + 3) % 11 - 5 for a in range(q)]
            want = integrate_step(mu, phi)
            masses = [cell_mass(mu, a, nu) for a in range(q)]
            for target in range(1, cell_tail_valuation(K, nu, p) + 1):
                got = integrate_step(trunc, phi, target)
                assert agrees(got, want, p) and got.precision <= target, (mu, precisions)
                for a in {0, 1, q - 1}:
                    got = cell_mass(trunc, a, nu, target)
                    assert agrees(got, masses[a], p) and got.precision <= target
                    compared += 1
    assert compared > 2300


def test_moments():
    compared = 0
    for p, mu, precisions in generate():
        trunc = truncated(mu, precisions)
        for r in range(len(precisions)):
            assert agrees(moments(trunc, r), moments(mu, r), p), (mu, precisions, r)
            compared += 1
    assert compared > 2000


def test_mahler_from_moments():
    # the transform is triangular: the moments b_0..b_k give a_0..a_k, so
    # each case compares the longest prefix that is not refused
    compared = refused = 0
    for p, mu, precisions in generate():
        b = [approximate(moments(mu, r), p, N) for r, N in enumerate(precisions)]
        for k in range(1, len(b) + 1):
            got = outcome(mahler_from_moments, b[:k], p)
            if got is None:
                refused += 1
                break
            assert agrees(got.mahler[-1], mu.mahler[k - 1], p), (mu, precisions, k)
            compared += 1
    assert compared > 1300 and refused < COUNT * 2 // 3


def test_pairing_measure():
    # the pairs of an average are consecutive cases of one prime, h = 1, 2, 3
    # but not a multiple of p, which the p-adic route refuses
    compared = refused = 0
    by_prime = {}
    for p, mu, precisions in generate():
        by_prime.setdefault(p, []).append((mu, truncated(mu, precisions)))
    for p, cases in by_prime.items():
        i, counts = 0, itertools.cycle([h for h in (1, 2, 3) if h % p])
        while i + 6 <= len(cases):
            h = next(counts)
            group = cases[i:i + 2 * h]
            i += 2 * h
            pairs = list(zip(group[0::2], group[1::2]))
            r_max = min(trunc.order for _, trunc in group) - 1
            want = outcome(pairing_measure, [(a[0], b[0]) for a, b in pairs], r_max)
            got = outcome(pairing_measure, [(a[1], b[1]) for a, b in pairs], r_max)
            if want is None or got is None:
                refused += 1
                continue
            assert all(agrees(a, b, p) for a, b in zip(got.mahler, want.mahler)), group
            compared += got.order
    assert compared > 170 and refused < 30


@pytest.mark.parametrize("target", [0, -1])
def test_truncated_cell_mass_refuses_a_target_below_one(target, tmp_path, capsys):
    # order 8 at p = 3 supports level-1 cell masses to precision 3, so the
    # target passes the tail bound and meets the refusal of a target < 1
    mu = Measure(3, [1, 9] + [0] * 6)
    for call in (lambda: cell_mass(mu, 1, 1, target),
                 lambda: integrate_step(mu, [1, 0, 2], target)):
        with pytest.raises(PrecisionExhausted) as err:
            call()
        assert str(err.value) == "zero known to no precision"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(encode_measure(mu)))
    assert main(["measure", "cell-mass", "--file", str(path), "--a", "1",
                 "--prec", str(target)]) == 3
    assert capsys.readouterr().err == "precision exhausted: zero known to no precision\n"
