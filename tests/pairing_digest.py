"""Print SHA-256 digests of the characters, their pairings and avatar families.

    PYTHONPATH=src python tests/pairing_digest.py [--limit-chars 3000] [--limit-pairs 1200]

Eight digests, one per line:

* `character-terms`: d, m and the group-ring terms, in stored order, of every
  value of every character of every discriminant D with |D| <= limit-chars,
  and of D = -1999999;
* `exponent-rows`: the `exponents` row of the same characters, after checking
  that it lists the exponent of each value's one term (`absent` where
  `WeightFunction` has no such field);
* `pairing-terms`: d, m and the stored terms of `pairing(a, b)` for every pair
  of characters of every D with |D| <= limit-pairs, and of
  `twisted_pairing(a, b, psi)` with psi drawn per pair from a seeded
  generator;
* `weight-function-terms`: d, m and the stored terms, sorted by exponent, or
  the exception type and message, of `pairing` and `twisted_pairing` over a
  seeded corpus of weight functions that are not characters: scaled
  characters, int and Fraction constants, roots of unity in a smaller layer,
  general values of cancelling nonzero weights, and values of another
  quadratic field, a PadicScalar or a str, which are refused.  The terms are
  sorted because the order in which a sum of products first meets its
  exponents is not part of its value.
* `avatar-family`: the type, prime, `finite` flag and the type, prime,
  valuation, unit and precision of every Mahler coefficient of
  `avatar_measure_family`, or the exception type and message, over
  `paper_oracles.family_cases()`: every D with |D| <= 200 at orders 1, 2, 16 and 48, a
  seeded embedding precision from 1 to 6 (low enough that some binomial
  series are refused), a character as chi and as chi0 a character, a
  character with one zero value, the non-p-integral constant 1/p or a
  character scaled by a seeded rational.
* `wide-pairing-terms`: d, m and the stored terms of `pairing(a, b)` and
  `twisted_pairing(a, b, psi)` for seeded characters a, b and psi at
  D = -4679 and -8399 (h = m = 91 and 134), where the factors' exponents
  can add past one byte.
* `family-pairing`: over the same `family_cases()`, the fields, or the
  exception type and message, of `pairing_measure` of each family paired
  with itself reversed at r_max 0 and 8, and of `restrict_to_units` and the
  two level-1 `cell_mass` calls at the residues of z and z + 1 of member 0,
  with avatar z, at every target from 1 to one past the restriction's tail
  bound; every call reads the members' atoms, none their coefficients.
* `dirac-atoms`: over `paper_oracles.dirac_cases()`, the fields, or the
  exception type and message, of `dirac` at a PadicScalar with its atom, of
  `restrict_to_units` and the two level-1 `cell_mass` calls at the residues
  of z and z + 1 at every target from 1 to one past the restriction's tail
  bound, and of `pairing_measure` at r_max 0 and 8 of the one pair with
  member 1 of `paper_oracles.partner_family(p)` and of the one pair with
  the Dirac mass of the case before at the same prime; all but the first
  read the atoms.

Two trees compute the same characters, pairings and avatar families, term
for term, when they print the same `character-terms`, `pairing-terms`,
`weight-function-terms`, `avatar-family`, `wide-pairing-terms` and
`family-pairing` lines, and the same p-adic Dirac masses when they print the
same `dirac-atoms` line.  The defaults take about half a minute on one core.
"""

import argparse
import hashlib
import random
from fractions import Fraction

from mahler.heckechar import (AlgebraicValue, WeightFunction, avatar_measure_family,
                              characters, class_group, pairing, twisted_pairing)
from mahler.measure import Measure, cell_mass, dirac, pairing_measure, restrict_to_units
from mahler.padic import PadicScalar
from paper_oracles import dirac_cases, family_cases, family_outcome, partner_family

EXTRA_DISCS = (-1999999,)
WIDE_DISCS = (-4679, -8399)
WIDE_PAIRS = 2000
WEIGHT_FUNCTION_DISCS = (-23, -39, -47, -56, -84, -104, -263, -407)


def discriminants(limit: int) -> list:
    return [D for D in range(-3, -limit - 1, -1) if D % 4 in (0, 1)]


def stored(value) -> bytes:
    return repr((value.d, value.m, tuple(value.terms.items()))).encode()


def rational(rng):
    return rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 6))])


def weight_functions(rng, G) -> list:
    """Weight functions of G that are not characters, one of each kind, and
    two characters."""
    d, m, h = G.order_data.d_K, G.exponent, G.h
    chars = characters(G)
    chi = chars[rng.randrange(h)]
    low = m // min(q for q in range(2, m + 1) if m % q == 0)  # a proper divisor of m
    def general(w):
        def value():
            layer = rng.choice([1, low, m])
            size = len(AlgebraicValue.root_of_unity(0, d, layer).coeffs)
            return AlgebraicValue(d, layer, [(rational(rng), rational(rng))
                                             for _ in range(rng.randint(1, size))])
        return WeightFunction(G, w, [value() for _ in range(h)])
    w = (rng.randint(1, 4), rng.randint(-4, 4))
    return [
        WeightFunction(G, (0, 0), [v.scale(rational(rng) or 2) for v in chi.values]),
        WeightFunction(G, (0, 0), [rng.randint(-3, 3)] * h),
        WeightFunction(G, (0, 0), [rational(rng) for _ in range(h)]),
        WeightFunction(G, (0, 0), [AlgebraicValue.root_of_unity(rng.randrange(low), d, low)
                                   for _ in range(h)]),
        general(w), general((-w[0], -w[1])), general((0, 0)),
        WeightFunction(G, (0, 0), [AlgebraicValue.root_of_unity(e, -7 if d != -7 else -3, m)
                                   for e in range(h)]),
        WeightFunction(G, (0, 0), [PadicScalar.from_int(3, 7, 4)] + list(chi.values[1:])),
        WeightFunction(G, (0, 0), list(chi.values[:-1]) + ["x"]),
        chi, chars[-1],
    ]


def outcome(call, *args) -> bytes:
    try:
        value = call(*args)
        return repr((value.d, value.m, sorted(value.terms.items()))).encode()
    except Exception as exc:
        return repr((type(exc).__name__, str(exc))).encode()


def fields(x):
    """The prime, `finite` flag and coefficient fields of a measure, the
    fields of a PadicScalar, or the type and value of an exact x."""
    if type(x) is Measure:
        return x.prime, x.finite, [fields(a) for a in x.mahler]
    if type(x) is PadicScalar:
        return x.prime, x.valuation, x.unit, x.precision
    return type(x).__name__, x


def attempt(call, *args):
    """`fields` of call(*args), or the exception type and message."""
    try:
        return fields(call(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def family_pairing(chi0, chi, emb, order) -> list:
    """The outcomes of the `family-pairing` calls on one family."""
    try:
        family = avatar_measure_family(chi0, chi, emb, order)
    except Exception as exc:
        return [(type(exc).__name__, str(exc))]
    p, mu = emb.prime, family[0]
    outcomes = [attempt(pairing_measure, list(zip(family, family[::-1])), r) for r in (0, 8)]
    z = mu.atoms[0][1].lift()
    for target in range(1, max((order - 1) // (p - 1) - 1, 0) + 2):
        outcomes.append(attempt(restrict_to_units, mu, target))
        outcomes += [attempt(cell_mass, mu, a % p, 1, target) for a in (z, z + 1)]
    return outcomes


def dirac_atoms(z, p, order, partners, last) -> list:
    """The outcomes of the `dirac-atoms` calls on one Dirac mass; last maps
    each prime to the Dirac mass before it."""
    try:
        mu = dirac(z, p, order)
        outcomes = [(fields(mu), [fields(x) for atom in mu.atoms for x in atom])]
    except Exception as exc:
        return [(type(exc).__name__, str(exc))]
    for target in range(1, max((order - 1) // (p - 1) - 1, 0) + 2):
        outcomes.append(attempt(restrict_to_units, mu, target))
        outcomes += [attempt(cell_mass, mu, a % p, 1, target) for a in (z.lift(), z.lift() + 1)]
    for other in (partners[p], last.get(p)):
        if other is not None:
            outcomes += [attempt(pairing_measure, [(mu, other)], r) for r in (0, 8)]
    last[p] = mu
    return outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--limit-chars", type=int, default=3000)
    ap.add_argument("--limit-pairs", type=int, default=1200)
    args = ap.parse_args(argv)

    terms, rows, has_rows = hashlib.sha256(), hashlib.sha256(), True
    for D in discriminants(args.limit_chars) + list(EXTRA_DISCS):
        for chi in characters(class_group(D)):
            terms.update(repr(D).encode())
            for value in chi.values:
                terms.update(stored(value))
            row = getattr(chi, "exponents", None)
            has_rows = has_rows and row is not None
            if row is not None:
                exponents = memoryview(row).cast("H").tolist()
                if exponents != [next(iter(value.terms)) for value in chi.values]:
                    raise SystemExit(f"D = {D}: the exponent row disagrees with the values")
                rows.update(repr((D, exponents)).encode())
    print("character-terms", terms.hexdigest())
    print("exponent-rows", rows.hexdigest() if has_rows else "absent")

    pairs, rng = hashlib.sha256(), random.Random("pairing-digest")
    for D in discriminants(args.limit_pairs):
        chars = characters(class_group(D))
        for a in chars:
            for b in chars:
                psi = chars[rng.randrange(len(chars))]
                pairs.update(stored(pairing(a, b)) + stored(twisted_pairing(a, b, psi)))
    print("pairing-terms", pairs.hexdigest())

    weighted, rng = hashlib.sha256(), random.Random("weight-function-digest")
    for D in WEIGHT_FUNCTION_DISCS:
        phis = weight_functions(rng, class_group(D))
        for a in phis:
            for b in phis:
                psi = phis[rng.randrange(len(phis))]
                weighted.update(outcome(pairing, a, b) + outcome(twisted_pairing, a, b, psi))
    print("weight-function-terms", weighted.hexdigest())

    families = hashlib.sha256()
    for case in family_cases():
        families.update(repr(family_outcome(avatar_measure_family, *case)).encode())
    print("avatar-family", families.hexdigest())

    wide, rng = hashlib.sha256(), random.Random("wide-pairing-digest")
    for D in WIDE_DISCS:
        chars = characters(class_group(D))
        for _ in range(WIDE_PAIRS):
            a, b, psi = (chars[rng.randrange(len(chars))] for _ in range(3))
            wide.update(stored(pairing(a, b)) + stored(twisted_pairing(a, b, psi)))
    print("wide-pairing-terms", wide.hexdigest())

    paired = hashlib.sha256()
    for case in family_cases():
        paired.update(repr(family_pairing(*case)).encode())
    print("family-pairing", paired.hexdigest())

    diracs, partners, last = hashlib.sha256(), {p: partner_family(p)[1] for p in (3, 5, 7)}, {}
    for case in dirac_cases():
        diracs.update(repr(dirac_atoms(*case, partners, last)).encode())
    print("dirac-atoms", diracs.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
