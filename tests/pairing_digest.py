"""Print SHA-256 digests of the characters and their pairings.

    PYTHONPATH=src python tests/pairing_digest.py [--limit-chars 3000] [--limit-pairs 1200]

Three digests, one per line:

* `character-terms`: d, m and the group-ring terms, in stored order, of every
  value of every character of every discriminant D with |D| <= limit-chars,
  and of D = -1999999;
* `exponent-rows`: the `exponents` row of the same characters, after checking
  that it lists the exponent of each value's one term (`absent` where
  `WeightFunction` has no such field);
* `pairing-terms`: d, m and the stored terms of `pairing(a, b)` for every pair
  of characters of every D with |D| <= limit-pairs, and of
  `twisted_pairing(a, b, psi)` with psi drawn per pair from a seeded
  generator.

Two trees compute the same characters and pairings, term for term, when they
print the same `character-terms` and `pairing-terms` lines.  The defaults take
about half a minute on one core.
"""

import argparse
import hashlib
import random

from mahler.heckechar import characters, class_group, pairing, twisted_pairing

EXTRA_DISCS = (-1999999,)


def discriminants(limit: int) -> list:
    return [D for D in range(-3, -limit - 1, -1) if D % 4 in (0, 1)]


def stored(value) -> bytes:
    return repr((value.d, value.m, tuple(value.terms.items()))).encode()


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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
