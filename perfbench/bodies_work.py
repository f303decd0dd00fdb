"""The valuation-bodies workload: pairs of random monomial subspaces.

The base pairs are drawn the way acceptance criterion 10 draws them: the
origin plus four random exponent vectors in a box, redrawn until the set is
full-dimensional, with k_max from 2 to 6.  Each pair runs
minkowski_inclusion_check and brunn_minkowski_check, and both must pass,
because both are theorems for monomial subspaces.

The cost of a random pair varies several-fold with its exponents, so a seed
that drew fresh pairs would change the amount of work by a quarter from one
seed to the next, and the time to verdict would measure the seed.  Instead
the base pairs come from a fixed generator seed, and the workload seed picks,
for every pair, a permutation of the coordinates and the order of the two
subspaces.  Neither changes the mathematics: the volumes, the comparison sign
and the inclusion verdict must come out the same, so every pair's canonical
result is checked against the reference at every seed.

Run as a script, it generates the pairs for --seed, checks them and writes a
JSON result file to --out:

    PYTHONPATH=src python3 perfbench/bodies_work.py --seed 1 --out bodies.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import time
from fractions import Fraction

from logcave.bodies import brunn_minkowski_check, minkowski_inclusion_check, monomial_subspace
from logcave.geometry import affine_rank

BASE_SEED = 1
# (dimension, exponent box, k_max range, pairs); dimension 3 runs the exact LP
BASE_CLASSES = (
    (1, 3, (2, 6), 6),
    (2, 3, (2, 4), 14),
    (3, 1, (2, 2), 2),
)
EXPONENTS_PER_SUBSPACE = 4


def _random_exponents(rng: random.Random, dim: int, box: int) -> list[tuple[int, ...]]:
    while True:
        exps = {(0,) * dim}
        for _ in range(EXPONENTS_PER_SUBSPACE):
            exps.add(tuple(rng.randint(0, box) for _ in range(dim)))
        if affine_rank([tuple(map(Fraction, e)) for e in exps]) == dim:
            return sorted(exps)


def base_pairs() -> list[tuple[int, int, list, list]]:
    """The fixed pair list: (dim, k_max, exponents of s1, exponents of s2)."""
    rng = random.Random(BASE_SEED)
    pairs = []
    for dim, box, (k_lo, k_hi), count in BASE_CLASSES:
        for _ in range(count):
            k_max = rng.randint(k_lo, k_hi)
            pairs.append((dim, k_max, _random_exponents(rng, dim, box), _random_exponents(rng, dim, box)))
    return pairs


def make_pairs(seed: int) -> list[tuple[int, int, list, list]]:
    """The base pairs with seeded coordinate permutations and operand order."""
    rng = random.Random(seed)
    pairs = []
    for dim, k_max, e1, e2 in base_pairs():
        perm = rng.sample(range(dim), dim)
        e1, e2 = ([tuple(e[i] for i in perm) for e in es] for es in (e1, e2))
        if rng.random() < 0.5:
            e1, e2 = e2, e1
        pairs.append((dim, k_max, e1, e2))
    return pairs


def check_pair(pair) -> dict:
    """Run both checks on one pair; returns the record the digest covers.

    The record holds only what the seed's symmetries leave unchanged: the
    verdicts, the comparison sign, the product's volume and the two factor
    volumes as an unordered pair.
    """
    dim, k_max, e1, e2 = pair
    s1 = monomial_subspace(dim, e1)
    s2 = monomial_subspace(dim, e2)
    inclusion, _ = minkowski_inclusion_check(s1, s2, k_max)
    bm = brunn_minkowski_check(s1, s2, k_max)
    v1, v2, v12 = bm.volumes
    return {
        "dim": dim,
        "k_max": k_max,
        "minkowski_inclusion": inclusion,
        "brunn_minkowski": bm.passed,
        "comparison_sign": bm.comparison_sign,
        "product_volume": str(v12),
        "factor_volumes": sorted([str(v1), str(v2)]),
    }


def record_digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode("ascii")).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    pairs = make_pairs(args.seed)
    outcomes = []
    t0 = time.perf_counter()
    for pair in pairs:
        try:
            record = check_pair(pair)
        except Exception as exc:  # one failing pair must not hide the others
            outcomes.append({"passed": False, "error": repr(exc), "digest": None})
            continue
        outcomes.append(
            {
                "passed": record["minkowski_inclusion"] and record["brunn_minkowski"],
                "digest": record_digest(record),
            }
        )
    work_s = time.perf_counter() - t0
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump({"work_s": work_s, "pairs": outcomes}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
