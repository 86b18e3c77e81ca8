"""Acceptance suite: each test is one numbered criterion with its stated
tolerance, printing one PASS/FAIL line (run with -s or -v to see them)."""

import random
import time
from fractions import Fraction

from mahler.archimedean import (LocalFactorParams, delta_diagonal_sum,
                                delta_diagonal_target,
                                local_factor_closed_form,
                                local_integral_quadrature, quadrature_report)
from mahler.heckechar import (admissible_embedding, avatar_measure_family,
                              characters, class_group, padic_avatar, pairing,
                              smallest_admissible_prime, twisted_pairing)
from mahler.measure import (Measure, cell_mass, dirac, mahler_from_moments,
                            moments, mult_pushforward, pairing_measure,
                            restrict_to_units)
from mahler.modform import (delta_qexpansion, hecke_operator,
                            interpolation_euler_factor, p_deplete, v_operator)
from mahler.padic import PadicScalar, factorial_valuation
from mahler.quaternion import (INFINITE_PLACE, MatrixEmbedding,
                               QuaternionAlgebra, embedding_conductor,
                               hashimoto_search, hilbert_symbol, mat_mul,
                               mat_scale, ramified_set,
                               skolem_noether_complement)
from paper_oracles import raising_operator_check

PRIMES = (3, 5, 7, 11)


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def random_finite_measure(rng, p, max_len):
    length = rng.randrange(1, max_len + 1)
    coeffs = [rng.randrange(-9, 10) for _ in range(length)]
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1
    return Measure(p, coeffs, finite=True)


def test_criterion_1_stirling_duality():
    start = time.monotonic()
    rng = random.Random(101)
    count = 0
    while count < 200:
        p = PRIMES[count % 4]
        mu = random_finite_measure(rng, p, max_len=21)
        # exact route
        b = [moments(mu, r) for r in range(mu.order)]
        assert mahler_from_moments(b, p).mahler == mu.mahler
        # p-adic route with the v_p(n!) bookkeeping
        prec = 14
        pad = PadicScalar.zero(p, prec)
        bp = [PadicScalar.from_rational(x, p, prec) + pad for x in b]
        back = mahler_from_moments(bp, p)
        for n, got in enumerate(back.mahler):
            assert got.precision >= prec - factorial_valuation(n, p)
            assert got == mu.mahler[n]
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report(1, f"moments<->Mahler round trip exact on 200 random finite "
              f"measures, n <= 20, p in {PRIMES} ({elapsed:.2f}s)")


def test_criterion_2_dirac_law():
    rng = random.Random(102)
    checked = 0
    while checked < 100:
        p = PRIMES[checked % 4]
        den = rng.choice([d for d in range(1, 30) if d % p])
        z = Fraction(rng.randrange(-60, 61), den)
        mu = dirac(z, p, 12)
        for r in range(11):
            assert moments(mu, r) == z ** r
        checked += 1
    report(2, "moments(dirac(z), r) = z^r exactly for 100 random z in Z_p, r <= 10")


def test_criterion_3_restriction():
    for p in PRIMES:
        for z in range(1, 3 * p):
            mu = dirac(z, p, 3 * p + 2)
            res = restrict_to_units(mu)
            if z % p:
                assert res.mahler == mu.mahler
                for r in range(8):
                    assert moments(res, r) == z ** r
            else:
                assert all(a == 0 for a in res.mahler)
            # cell-mass oracle: the restriction only removes the 0-cell
            assert cell_mass(res, 0, 1) == 0
            for a in range(1, p):
                assert cell_mass(res, a, 1) == cell_mass(mu, a, 1)
    rng = random.Random(103)
    for p in PRIMES:
        for _ in range(10):
            mu = random_finite_measure(rng, p, max_len=9)
            once = restrict_to_units(mu)
            assert restrict_to_units(once).mahler == once.mahler
            total = sum(Fraction(cell_mass(mu, a, 1)) for a in range(p))
            assert total == mu.mahler[0]
    report(3, "restriction fixes unit Diracs, kills p Z_p, is idempotent, "
              "and cell masses partition the total mass exactly")


def test_criterion_4_pushforward_restriction_compatibility():
    rng = random.Random(104)
    checked = 0
    while checked < 100:
        p = PRIMES[checked % 4]
        mu1 = random_finite_measure(rng, p, max_len=5)
        mu2 = random_finite_measure(rng, p, max_len=5)
        r_max = mu1.support_degree() * mu2.support_degree()
        lhs = restrict_to_units(mult_pushforward(mu1, mu2, r_max))
        rhs = mult_pushforward(restrict_to_units(mu1), restrict_to_units(mu2),
                               r_max)
        for r in range(r_max + 1):
            assert moments(lhs, r) == moments(rhs, r)
        checked += 1
    report(4, "restrict(push(mu1, mu2)) == push(restrict mu1, restrict mu2) "
              "in moments on 100 random finite pairs")


def test_criterion_5_hecke_suite():
    needed = 50 * 11 + 1
    delta = delta_qexpansion(needed)
    tau = {n: delta.coefficient(n) for n in range(1, 51)}
    tau[11] = delta.coefficient(11)
    assert tau[11] == 534612
    for p in (2, 3, 5, 7, 11):
        tf = hecke_operator(delta, p)
        for n in range(1, 51):
            assert tf.coefficient(n) == delta.coefficient(p) * delta.coefficient(n)
        lhs = p_deplete(delta, p)
        rhs = delta - v_operator(delta, p).scale(delta.coefficient(p)) \
            + v_operator(v_operator(delta, p), p).scale(p ** 11)
        assert lhs.trunc >= 50 and rhs.trunc >= 50
        for n in range(51):
            assert lhs.coefficient(n) == rhs.coefficient(n)
    e11 = interpolation_euler_factor(534612, 1, 1, 6, 11)
    assert e11 == 1 - Fraction(534612, 11 ** 12) + Fraction(1, 11 ** 13)
    report(5, "T_p Delta = tau(p) Delta (50 coeffs, p <= 11), the (1-VU) "
              "eigenform identity holds, and E_11 matches exactly")


def test_criterion_6_class_groups_and_orthogonality():
    assert class_group(-23).h == 3
    assert class_group(-47).h == 5
    for D in range(-3, -201, -1):
        if D % 4 not in (0, 1):
            continue
        G = class_group(D)
        chars = characters(G)
        assert len(chars) == G.h
        for c1 in chars:
            for c2 in chars:
                value = pairing(c1, c2)
                if (c1 * c2).is_trivial():
                    assert value == 1
                else:
                    assert value.is_zero()
    for D in (-23, -47, -56, -84):
        chars = characters(class_group(D))
        for c1 in chars:
            for c2 in chars:
                for psi in chars:
                    value = twisted_pairing(c1, c2, psi)
                    if (c1 * c2 * psi).is_trivial():
                        assert value == 1
                    else:
                        assert value.is_zero()
    report(6, "h(-23)=3, h(-47)=5 by enumeration; exact character "
              "orthogonality for all |D| <= 200; twisted orthogonality")


def test_criterion_7_avatar_pairing_compatibility():
    for D in range(-3, -101, -1):
        if D % 4 not in (0, 1):
            continue
        G = class_group(D)
        p = smallest_admissible_prime(G)
        emb = admissible_embedding(G, p, 6)
        chars = characters(G)
        avatars = [padic_avatar(c, emb) for c in chars]
        for i, c1 in enumerate(chars):
            for j, c2 in enumerate(chars):
                total = None
                for s in range(G.h):
                    term = avatars[i][s] * avatars[j][s]
                    total = term if total is None else total + term
                assert total.scale(Fraction(1, G.h)) == emb.embed(pairing(c1, c2))
    # paired measure against the direct class-group sum, with scalars
    G = class_group(-23)
    p = smallest_admissible_prime(G)
    emb = admissible_embedding(G, p, 10)
    chars = characters(G)
    chi0, chi = chars[1], chars[2]
    chi0i, chii = chi0.inverse(), chi.inverse()
    lam1, lam2 = Fraction(3), Fraction(5, 2)
    fam1 = [m.scale(lam1) for m in avatar_measure_family(chi0, chi, emb, 14)]
    fam2 = [m.scale(lam2) for m in avatar_measure_family(chi0i, chii, emb, 14)]
    mu = pairing_measure(list(zip(fam1, fam2)), 10)
    for r in range(11):
        alg = pairing(chi0 * chi ** r, chi0i * chii ** r)
        assert moments(mu, r) == emb.embed(alg).scale(lam1 * lam2)
    report(7, "p-adic pairing of avatars equals the avatar of the algebraic "
              "pairing for all |D| <= 100; paired measure reproduces "
              "lam1*lam2*<phi_r1, phi_r2> for r <= 10")


def test_criterion_8_archimedean_local_factor():
    start = time.monotonic()
    for kappa in (1, 2):
        for r in (0, 1, 2):
            rep = quadrature_report(LocalFactorParams(kappa=kappa, r=r, l=r))
            assert rep["rel_error"] < 1e-6
            assert rep["self_consistency"] < 1e-9
    for r in range(1, 4):
        scale = abs(local_factor_closed_form(LocalFactorParams(1, r, r)))
        for l in range(r):
            q = local_integral_quadrature(LocalFactorParams(1, r, l))
            assert abs(q) < 1e-8 * scale
    for r in range(21):
        assert delta_diagonal_sum(r) == delta_diagonal_target(r)
    rng = random.Random(108)
    points = [(complex(rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75)),
               complex(rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75)))
              for _ in range(10)]
    for (l, m) in [(0, 1), (1, 1), (2, 1), (1, 2)]:
        assert raising_operator_check(l, m, points) < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    report(8, f"quadrature vs Gamma closed form < 1e-6 (kappa, r <= 2); "
              f"vanishing < 1e-8 for l < r <= 3; exact diagonal identity "
              f"r <= 20; raising-operator FD check < 1e-6 ({elapsed:.2f}s)")


def test_criterion_9_quaternion_suite():
    rng = random.Random(109)
    from sympy import primerange
    for _ in range(500):
        a = Fraction(rng.choice([v for v in range(-60, 61) if v]),
                     rng.randrange(1, 12))
        b = Fraction(rng.choice([v for v in range(-60, 61) if v]),
                     rng.randrange(1, 12))
        relevant = {2, INFINITE_PLACE}
        for q in (a, b):
            n = abs(q.numerator * q.denominator)
            for pp in primerange(2, n + 1):
                if n % pp == 0:
                    relevant.add(pp)
        prod = 1
        for v in relevant:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1
        assert len(ramified_set(QuaternionAlgebra(a, b))) % 2 == 0
    data = hashimoto_search(6, 11, 1000)
    assert (data.q, data.b_param) == (5, 2)
    assert data.q % 8 == 5
    assert (data.b_param ** 2 * 6 + 1) % data.q == 0
    assert pow(data.q, 5, 11) == 1  # Legendre(q, 11) = 1
    assert ramified_set(QuaternionAlgebra(data.q, -6)) == {2, 3}
    assert embedding_conductor(MatrixEmbedding(((1, 2), (-4, -1)), 1)) == 1
    assert embedding_conductor(MatrixEmbedding(((0, 1), (-4, 0)), 1)) == 2
    count = 0
    while count < 100:
        aa = rng.randrange(-5, 6)
        bb = rng.choice([v for v in range(-9, 10) if v])
        cc = rng.randrange(-9, 10)
        if aa * aa + bb * cc >= 0:
            continue
        emb = MatrixEmbedding(((aa, bb), (cc, -aa)), 1)
        sn = skolem_noether_complement(emb)
        assert mat_mul(sn.u, emb.m) == mat_scale(mat_mul(emb.m, sn.u), -1)
        usq = mat_mul(sn.u, sn.u)
        assert usq[0][1] == 0 and usq[1][0] == 0 and usq[0][0] == usq[1][1]
        count += 1
    report(9, "Hilbert product formula on 500 random pairs; even ramified "
              "sets; Hashimoto(6, 11) = (q=5, b=2) fully re-verified; "
              "conductors 1 and 2; Skolem-Noether on 100 random embeddings")
