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
The (1+T)^m basis changes `plus_basis` and `from_plus_basis` and the exact
restriction are checked the same way on the approximated coefficients read
as a finite measure, against the first K exact ones.  On the avatar path,
each family of `paper_oracles.family_cases` and the pairing measure of two
families must agree with c0·C(Z, n) and (1/h) Σ_s c0_s^2 C(Z_s Z'_s, n),
formed with `math.comb` from the avatar lifts and from two other lifts of
each avatar known mod p^N.  The pairing measure of two families, which goes
through the members' atoms, is also compared with the moment route of the
same members rebuilt without their atoms, unscaled and scaled as
`test_acceptance` scales them, by exact zeros and through a non-p-integral
scalar among others: it agrees modulo the lesser precision, never states
less, and refuses only where the moment route refuses.  The restriction and
the cell masses of each family member, which read its atom, of the member
scaled by a seeded p-integral scalar and of the member with a second atom
off the units are compared the same way with the Mahler route of the same
measure rebuilt without its atoms: the same number of outputs and the same
refusals, values that agree modulo the lesser precision, and never less
precision; they also agree with lifts of each atom.  Refused calls are
counted, not compared.  The module runs in about 10-15 s on two shared
vCPUs.
"""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from mahler.cli import main
from mahler.errors import InvalidInput, PrecisionExhausted
from mahler.heckechar import avatar_measure_family, characters
from mahler.measure import (Measure, cell_mass, cell_tail_valuation, dirac, from_plus_basis,
                            integrate_step, mahler_from_moments, moments, pairing_measure,
                            plus_basis, restrict_to_units)
from mahler.padic import INF, PadicScalar
from mahler.serialize import encode_measure
from paper_oracles import family_cases

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


def refusal(fn, *args):
    """fn(*args), or the exception when it refuses."""
    try:
        return fn(*args)
    except (InvalidInput, PrecisionExhausted) as error:
        return error


def outcome(fn, *args):
    """fn(*args), or None when it refuses."""
    result = refusal(fn, *args)
    return None if isinstance(result, Exception) else result


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


def test_basis_changes_and_exact_restriction():
    # the approximated coefficients of a case as a finite measure, against
    # the first K exact ones: both shifts of the kernel and the restriction
    compared = 0
    for p, mu, precisions in generate():
        head = Measure(p, mu.mahler[:len(precisions)], finite=True)
        approx = Measure(p, truncated(mu, precisions).mahler, finite=True)
        for got, want in ((plus_basis(approx), plus_basis(head)),
                          (from_plus_basis(approx.mahler, p, True).mahler,
                           from_plus_basis(head.mahler, p, True).mahler),
                          (restrict_to_units(approx).mahler, restrict_to_units(head).mahler)):
            assert all(agrees(a, b, p) for a, b in zip(got, want)), (mu, precisions)
            compared += len(got)
    assert compared > 7000


def lifts(x: PadicScalar, rng) -> list:
    """The lift of x and two other integers it stands for, x known mod p^N."""
    if x.precision is INF:
        return [x.lift()] * 3
    return [x.lift()] + [x.lift() + rng.randrange(1, x.prime ** 3) * x.prime ** x.precision
                         for _ in range(2)]


def test_avatar_families_and_their_pairing_measure():
    rng = random.Random(SEED)
    families = coefficients = paired = refused = 0
    for chi0, chi, emb, order in family_cases():
        p, h = emb.prime, chi.group.h
        fam1 = outcome(avatar_measure_family, chi0, chi, emb, order)
        if fam1 is None:
            refused += 1
            continue
        fam2 = avatar_measure_family(chi0, chi.inverse(), emb, order)
        c0s, zs, ws = ([lifts(emb.embed(v), rng) for v in f.values]
                       for f in (chi0, chi, chi.inverse()))
        for s, mu in enumerate(fam1):
            for c0, z in zip(c0s[s], zs[s]):
                assert all(agrees(a, c0 * math.comb(z, n), p)
                           for n, a in enumerate(mu.mahler)), (chi0, chi, emb, order, s)
            coefficients += order
        families += 1
        r_max = order - 1
        got = outcome(pairing_measure, list(zip(fam1, fam2)), r_max)
        if got is None:
            refused += 1
            continue
        for k in range(3):
            want = [Fraction(sum(c0s[s][k] ** 2 * math.comb(zs[s][k] * ws[s][k], n)
                                 for s in range(h)), h) for n in range(r_max + 1)]
            assert all(agrees(a, b, p) for a, b in zip(got.mahler, want)), (chi0, chi, emb)
        paired += r_max + 1
    assert families > 250 and coefficients > 14000 and paired > 1300 and refused < 200


def unscaled(mu):
    return mu


SCALINGS = {  # the scalings of the two families, as test_acceptance's, and λ1·λ2
    "unscaled": (unscaled, unscaled, 1),
    "3 and 5/2": (lambda mu: mu.scale(3), lambda mu: mu.scale(Fraction(5, 2)), Fraction(15, 2)),
    "exact 0": (lambda mu: mu.scale(0), lambda mu: mu.scale(3), 0),
    "exact p-adic 0": (lambda mu: mu.scale(Fraction(5, 2)),
                       lambda mu: mu.scale(PadicScalar.zero(mu.prime)), 0),
    # 1/p is not p-integral, but the coefficients p·a it scales are
    "p, then 1/p": (lambda mu: mu.scale(mu.prime).scale(Fraction(1, mu.prime)), unscaled, 1),
}


def test_family_pairings_through_atoms_against_moments():
    # each family of the grid with the inverse character's family and with an
    # independent character's family, unscaled and, at r_max 8, scaled by a
    # seeded entry of SCALINGS; a member rebuilt through `Measure` has no
    # atoms, so its pairing takes the moment route, and so has a member
    # scaled by an exact zero or through `Measure`'s check (1/p).  The atom
    # route agrees with the moment route modulo the lesser precision, never
    # states less, refuses only as the moment route does, and agrees with
    # the lifts' sums times λ1·λ2
    pick, rng, scale_pick, groups = (random.Random(SEED), random.Random(SEED),
                                     random.Random(SEED), {})
    compared = higher = refused = gained = 0
    seen = set()
    for chi0, chi, emb, order in family_cases():
        p, G = emb.prime, chi.group
        fam1 = outcome(avatar_measure_family, chi0, chi, emb, order)
        if fam1 is None:
            continue
        chars = groups.setdefault(G.discriminant, characters(G))
        c0s, zs = ([lifts(emb.embed(v), rng) for v in f.values] for f in (chi0, chi))
        for other in (chi.inverse(), chars[pick.randrange(G.h)]):
            ws = [lifts(emb.embed(v), rng) for v in other.values]
            fam2 = avatar_measure_family(chi0, other, emb, order)
            for name in ("unscaled", scale_pick.choice(list(SCALINGS)[1:])):
                scale1, scale2, lam = SCALINGS[name]
                pairs = [(scale1(mu1), scale2(mu2)) for mu1, mu2 in zip(fam1, fam2)]
                with_atoms = all(mu.atoms for pair in pairs for mu in pair)
                assert with_atoms == (name in ("unscaled", "3 and 5/2")), name
                plain = [tuple(Measure(p, mu.mahler) for mu in pair) for pair in pairs]
                for r_max in (order - 1, 8) if name == "unscaled" else (8,):
                    atoms, moments = (refusal(pairing_measure, ps, r_max)
                                      for ps in (pairs, plain))
                    seen.add((name, type(atoms).__name__, type(moments).__name__))
                    if isinstance(atoms, Exception):
                        assert (type(atoms), str(atoms)) == (type(moments), str(moments))
                        refused += 1
                        continue
                    for k in range(3):
                        want = [lam * Fraction(sum(c0s[s][k] ** 2
                                                   * math.comb(zs[s][k] * ws[s][k], n)
                                                   for s in range(G.h)), G.h)
                                for n in range(r_max + 1)]
                        assert all(agrees(a, b, p) for a, b in zip(atoms.mahler, want)), \
                            (chi0, chi, name)
                    if isinstance(moments, Exception):
                        gained += 1
                        continue
                    for a, b in zip(atoms.mahler, moments.mahler):
                        if type(a) is not PadicScalar or a.precision is INF:
                            assert (type(a), a) == (type(b), b), (chi0, chi, name, r_max)
                            continue
                        N = min(a.precision, b.precision)
                        assert (a.lift() - b.lift()) % p ** N == 0, (chi0, chi, emb, r_max)
                        assert a.precision >= b.precision, (chi0, chi, emb, r_max)
                        higher += a.precision > b.precision
                    compared += r_max + 1
    assert compared > 4500 and higher > 1000 and gained > 100 and refused > 250
    assert {name for name, atoms, moments in seen if atoms == moments == "Measure"} \
        == set(SCALINGS)


def atom_scalars(p: int) -> list:
    """Scalars that keep a member's atoms: p-integral ints and Fractions,
    PadicScalars of p, an inexact zero among them."""
    return [3, Fraction(5, 2), p, Fraction(p * p, 7), PadicScalar.from_int(2, p, 2),
            PadicScalar.zero(p, 3)]


def same_or_more_precise(atoms, mahler, p: int, target: int) -> int:
    """Assert that the atom route's output, a truncated measure or a scalar,
    agrees with the Mahler route's modulo the lesser precision and states no
    less, and at most the target; the number of coefficients where it
    states more."""
    if type(atoms) is Measure:
        assert (atoms.prime, atoms.finite, atoms.atoms) == (p, False, None)
        xs, ys = atoms.mahler, mahler.mahler
    else:
        xs, ys = (atoms,), (mahler,)
    assert len(xs) == len(ys) and all(type(x) is PadicScalar for x in xs + ys)
    for x, y in zip(xs, ys):
        assert (x.lift() - y.lift()) % p ** min(x.precision, y.precision) == 0
        assert y.precision <= x.precision <= target
    return sum(x.precision > y.precision for x, y in zip(xs, ys))


def with_a_non_unit_atom(mu: Measure, c: PadicScalar):
    """µ + c·δ_(p·z) for µ's atom z, with both atoms, or None where the
    Dirac series refuses."""
    p, z = mu.prime, mu.atoms[0][1]
    other = outcome(dirac, z * p, p, mu.order)
    if other is None:
        return None
    return Measure._from_fields(p, tuple(a + b for a, b in zip(mu.mahler, other.scale(c).mahler)),
                                False, mu.atoms + ((c, z * p),))


def test_restriction_and_cell_masses_through_atoms_against_the_mahler_route():
    # every member of every family of the grid, unscaled, scaled by a
    # seeded entry of atom_scalars, and with a second atom p·z off the
    # units, restricted at every target from 1 to one above the supported
    # one, and its level-1 and level-2 cell masses in its atom's cell and
    # the next, at every target from 1 to one above the tail bound; the
    # Mahler route reads the measure rebuilt without atoms.  Each output
    # also agrees with Σ c·C(z, n) over the unit atoms, or Σ c over the
    # atoms in the cell, for the lifts of each c and z and two other
    # integers they stand for.  A cell finer than the precision of the
    # atoms refuses every target
    rng = random.Random(SEED)
    compared = higher = refused = families = refused_families = beyond = 0
    for chi0, chi, emb, order in family_cases():
        p = emb.prime
        family = outcome(avatar_measure_family, chi0, chi, emb, order)
        if family is None:
            refused_families += 1
            continue
        families += 1
        for mu in family:
            scaled = mu.scale(rng.choice(atom_scalars(p)))
            assert scaled.atoms is not None and len(scaled.atoms) == 1
            z = mu.atoms[0][1].lift()
            measures = [mu, scaled, with_a_non_unit_atom(mu, rng.choice(atom_scalars(p)[4:]))]
            for member in filter(None, measures):
                plain = Measure(*member._fields()[:3])
                lifted = [list(zip(*(lifts(x, rng) for x in atom))) for atom in member.atoms]
                calls = [(restrict_to_units, (t,))
                         for t in range(1, (order - 1) // (p - 1) + 1)]
                calls += [(cell_mass, (a, nu, t)) for nu in (1, 2)
                          for t in range(1, cell_tail_valuation(order, nu, p) + 2)
                          for a in (z % p ** nu, (z + 1) % p ** nu)]
                for fn, args in calls:
                    atoms, mahler = (refusal(fn, m, *args) for m in (member, plain))
                    if isinstance(atoms, Exception) or isinstance(mahler, Exception):
                        assert (type(atoms), str(atoms)) == (type(mahler), str(mahler))
                        refused += 1
                        continue
                    higher += same_or_more_precise(atoms, mahler, p, args[-1])
                    if fn is restrict_to_units:
                        for atom_lifts in zip(*lifted):
                            assert all(agrees(x, sum(c * math.comb(w, n) for c, w in atom_lifts
                                                     if w % p), p)
                                       for n, x in enumerate(atoms.mahler))
                        compared += len(atoms.mahler)
                        continue
                    a, nu = args[:2]
                    # a cell that passes the tail bound is no finer than its atoms
                    assert all(w.precision >= nu for _, w in member.atoms)
                    for atom_lifts in zip(*lifted):
                        assert agrees(atoms, sum(c for c, w in atom_lifts
                                                 if w % p ** nu == a), p)
                    compared += 1
                # a family's order is at most p^M for avatars known mod p^M
                # (C(Z, p^M) is a zero known to no precision), so a cell of
                # level nu > M has a tail bound of at most 1 - nu, and every
                # target refuses before the atoms, known mod p^M, are read
                M = min(w.precision for _, w in member.atoms)
                assert member.order <= p ** M
                for nu in (M + 1, M + 2):
                    assert cell_tail_valuation(member.order, nu, p) <= 1 - nu
                    for t in (1, 2, M + 1):
                        with pytest.raises(PrecisionExhausted, match=f"level-{nu} cell"):
                            cell_mass(member, z % p ** nu, nu, t)
                        beyond += 1
    assert families > 250 and refused_families > 40 and beyond > 15000
    assert compared > 50000 and higher > 5000 and refused > 5000


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
