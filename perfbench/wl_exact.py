"""exact-transforms: in-process jobs on exact int/Fraction data.

Measure jobs use finite measures sum c delta_z with integer points z at
orders K in {50, 100, 200} and p in {2, 3, 5, 7}; every answer (moments,
Mahler coefficients, restrictions, cell masses, pushforwards, step
integrals) follows from the points.  q-expansion jobs build Delta and the
Eisenstein series and apply the Hecke-type operators (one job per p) and
Maass raising; Delta is checked against identities of tau, the rest
against the defining formulas.  The seed picks the points, weights,
residues, step functions, Eisenstein weights and random forms; sizes and
primes are fixed, so every seed does the same amount of work.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import harness
import oracles
from harness import Job

NAME = "exact-transforms"
ORDERS = (50, 100, 200)
PRIMES = (2, 3, 5, 7)
DELTA_TRUNCS = (1000, 2000)
DELTA_PRIMES = (11, 7)  # fixed: T_p on Delta costs more as p grows (V_p has p * trunc terms)
EISENSTEIN_TRUNC = 2000
OPERATOR_TRUNC = 1000
OPERATOR_PRIMES = (2, 3, 5, 7, 11, 13)
MAASS_TRUNC = 300
NONZERO = [c for c in range(-9, 10) if c]

TINY = {"orders": (8, 12), "primes": (2, 3), "delta": (30,),
        "eisenstein": 30, "operators": 40, "maass": 10}
FULL = {"orders": ORDERS, "primes": PRIMES, "delta": DELTA_TRUNCS,
        "eisenstein": EISENSTEIN_TRUNC, "operators": OPERATOR_TRUNC,
        "maass": MAASS_TRUNC}


def dirac_points(rng, count: int, top: int) -> list:
    """`count` distinct points in [0, top), always including top - 1 so the
    coefficient sizes do not depend on the seed, with nonzero weights."""
    zs = {top - 1} | set(rng.sample(range(top - 1), min(count, top) - 1))
    return [(rng.choice(NONZERO), z) for z in sorted(zs)]


class Workload:
    name = NAME
    cycle_seconds = 11.0  # one cycle (47 jobs) on the reference machine

    def __init__(self, seed: int, tiny: bool = False):
        from mahler import measure, modform  # set-up includes the import
        self.m, self.mf = measure, modform
        size = TINY if tiny else FULL
        rng = random.Random(f"{NAME}:{seed}")
        groups = [[job for p in size["primes"] for job in self._measure_jobs(rng, K, p)]
                  for K in size["orders"]]
        groups.append(self._qexp_jobs(rng, size))
        self.jobs = harness.interleave(groups)

    peak_rss_mb = staticmethod(harness.self_peak_rss_mb)

    # -- measures --------------------------------------------------------------

    def _measure_jobs(self, rng, K: int, p: int) -> list:
        m = self.m
        pts = dirac_points(rng, 5, K)
        mu = m.Measure(p, oracles.mahler_of_diracs(pts, K), finite=True)
        z_dirac = rng.randrange(K)
        tag = f"K={K} p={p}"

        def roundtrip():
            b = [m.moments(mu, r) for r in range(K)]
            return b, m.mahler_from_moments(b, p), m.dirac(z_dirac, p, K)

        def check_roundtrip(s):
            b, back, dmahler, dfinite = s
            for r in range(K):
                if b[r] != oracles.moment_of_diracs(pts, r):
                    return f"moment {r} wrong"
            if list(back) != oracles.mahler_of_diracs(pts, K):
                return "mahler_from_moments does not invert the moments"
            if list(dmahler) != oracles.mahler_of_diracs([(1, z_dirac)], K) or not dfinite:
                return "dirac coefficients wrong"
            return None

        a1 = rng.choice(pts)[1] % p
        a2 = rng.choice(pts)[1] % (p * p)
        nu = rng.choice((1, 2))
        phi = [rng.randrange(-5, 6) for _ in range(p ** nu)]

        def restrict():
            return (m.restrict_to_units(mu), m.cell_mass(mu, a1, 1),
                    m.cell_mass(mu, a2, 2), m.integrate_step(mu, phi))

        def check_restrict(s):
            res, finite, c1, c2, integral = s
            if list(res) != oracles.mahler_of_diracs(oracles.restrict_points(pts, p), K):
                return "restriction wrong"
            if not finite:
                return "restriction of a finite measure is not finite"
            if c1 != oracles.cell_of_diracs(pts, a1, p):
                return "level-1 cell mass wrong"
            if c2 != oracles.cell_of_diracs(pts, a2, p * p):
                return "level-2 cell mass wrong"
            if integral != sum(c * phi[z % p ** nu] for c, z in pts):
                return "step integral wrong"
            return None

        r_max = K - 1
        top = math.isqrt(r_max) + 1  # products of points stay <= r_max
        pts1, pts2 = dirac_points(rng, 3, top), dirac_points(rng, 3, top)
        mu1 = m.Measure(p, oracles.mahler_of_diracs(pts1, top), finite=True)
        mu2 = m.Measure(p, oracles.mahler_of_diracs(pts2, top), finite=True)

        def push():
            return m.mult_pushforward(mu1, mu2, r_max)

        def check_push(s):
            coeffs, finite = s
            want = oracles.mahler_of_diracs(oracles.product_points(pts1, pts2), r_max + 1)
            if list(coeffs) != want:
                return "pushforward coefficients wrong"
            if finite != ((top - 1) ** 2 <= r_max):
                return "pushforward finiteness flag wrong"
            return None

        return [
            Job(f"roundtrip {tag}", roundtrip,
                lambda r: (tuple(r[0]), tuple(r[1].mahler), tuple(r[2].mahler), r[2].finite),
                check_roundtrip),
            Job(f"restrict {tag}", restrict,
                lambda r: (tuple(r[0].mahler), r[0].finite) + r[1:], check_restrict),
            Job(f"push {tag}", push, lambda r: (tuple(r.mahler), r.finite), check_push),
        ]

    # -- q-expansions ------------------------------------------------------------

    def _qexp_jobs(self, rng, size) -> list:
        mf = self.mf
        jobs = []
        for T, p in zip(size["delta"], DELTA_PRIMES):
            pairs = [(rng.randrange(2, 60), rng.randrange(2, max(3, T // 60)))
                     for _ in range(200)]

            def run(T=T, p=p):
                f = mf.delta_qexpansion(T)
                return f, mf.hecke_operator(f, p), mf.p_deplete(f, p)

            def check(s, p=p, pairs=pairs):
                tau, tp, dep = s
                error = oracles.delta_errors(list(tau), pairs)
                if error:
                    return error
                if list(tp) != [tau[p] * tau[n] for n in range(len(tp))] \
                        or len(tp) != (len(tau) - 1) // p + 1:
                    return f"T_{p} Delta != tau({p}) Delta"
                if list(dep) != [0 if n % p == 0 else t for n, t in enumerate(tau)]:
                    return "p-depletion wrong"
                return None

            jobs.append(Job(f"delta trunc={T} p={p}", run,
                            lambda r: tuple(f.coeffs for f in r), check))

        T = size["eisenstein"]
        for k in rng.sample((4, 6, 8, 10, 12, 14), 2):

            def check_eisenstein(coeffs, k=k):
                sig = oracles.sigma_table(k - 1, T)
                factor = Fraction(-2 * k) / oracles.bernoulli(k)
                if list(coeffs) != [1] + [factor * sig[n] for n in range(1, T + 1)]:
                    return f"E_{k} coefficients wrong"
                return None

            jobs.append(Job(f"eisenstein k={k} trunc={T}",
                            lambda k=k: mf.eisenstein_qexpansion(k, T),
                            lambda f: f.coeffs, check_eisenstein))

        T = size["operators"]
        a = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(T + 1)]
        g = mf.QExpansion(12, 1, mf.DirichletCharacter.trivial(), a)
        for i, p in enumerate(OPERATOR_PRIMES):
            r = 1 + i % 3

            def run(p=p, r=r):
                return [mf.u_operator(g, p), mf.v_operator(g, p), mf.hecke_operator(g, p),
                        mf.p_deplete(g, p), mf.theta_operator(g, r)]

            def check(s, p=p, r=r):
                u, v, t, dep, theta = s
                if list(u) != a[::p]:
                    return f"U_{p} wrong"
                if list(v) != [a[n // p] if n % p == 0 else 0
                               for n in range(p * (len(a) - 1) + 1)]:
                    return f"V_{p} wrong"
                if list(t) != oracles.hecke_coeffs(a, p, 12):
                    return f"T_{p} wrong"
                if list(dep) != [0 if n % p == 0 else c for n, c in enumerate(a)]:
                    return f"depletion at {p} wrong"
                if list(theta) != [c * n ** r for n, c in enumerate(a)]:
                    return "theta wrong"
                return None

            jobs.append(Job(f"operators trunc={T} p={p}", run,
                            lambda out: tuple(f.coeffs for f in out), check))

        T = size["maass"]
        forms = []
        for iterations in (2, 3):
            cells = {(n, j): rng.randrange(-50, 51) for n in range(T + 1) for j in range(2)}
            cells = {key: c for key, c in cells.items() if c}
            forms.append((mf.NearlyHolomorphic(12, T, cells), cells, iterations))

        def run_maass():
            return [mf.maass_raise(f, iterations) for f, _, iterations in forms]

        def check_maass(s):
            for (weight, got), (_, cells, iterations) in zip(s, forms):
                if weight != 12 + 2 * iterations:
                    return "raised weight wrong"
                if got != oracles.maass_cells(cells, 12, iterations):
                    return "Maass raising wrong"
            return None

        jobs.append(Job(f"maass trunc={T}", run_maass,
                        lambda out: tuple((h.weight, dict(h.cells)) for h in out), check_maass))
        return jobs
