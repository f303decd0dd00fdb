"""Two independent routes to the same values, at sizes beyond the tests;
the oracles come from tests/, which must be on the path."""

import hashlib
import json
import os
from itertools import accumulate

import pytest

from logcave import bodies, concavity, lr
from logcave.partitions import dominant_weights, pad
from test_concavity import _midpoint_pairs, _oracle_midpoint_scan, _packed_midpoint_scan
from test_concavity import _pairs_against_classes, _scan_class_differences

# the triple invariants are counted here, not read from a cache file
os.environ.pop("LOGCAVE_CACHE_DIR", None)


def test_rank4_bound3_triple_invariants():
    """conj1 reads triple invariants from pair decompositions, while triple_invariant
    counts LR tableaux; this builds the whole rank-4 bound-3 value table both ways."""
    ws = list(dominant_weights(4, -3, 3))
    triples = list(concavity._sum_zero_triples(ws, ws, ws))
    box, tableaux = lr.slice_invariants(triples), [lr.triple_invariant(t) for t in triples]
    assert box == tableaux and (len(box), len(box) - box.count(0)) == (447360, 191971)


def _digest(records):
    """The number of records and the sha256 of their JSON."""
    return len(records), hashlib.sha256(json.dumps(records).encode()).hexdigest()


# the violation records of each (p, q), 187,747 in all
PAIR_ENGINE_RECORDS = {(1, 1): 156588, (1, 2): 26836, (1, 3): 3425, (1, 4): 444, (2, 3): 454}


@pytest.mark.parametrize("p, q", PAIR_ENGINE_RECORDS)
def test_pair_engine(p, q):
    """The pair engine compares packed integer keys, while the oracle in the tests builds
    one midpoint tuple per pair; this runs both over the conj1 rank-3 bound-3 support
    with scrambled values, which leave thousands of violation records."""
    ws = list(dominant_weights(3, -3, 3))
    triples = list(concavity._sum_zero_triples(ws, ws, ws))
    support = sorted(a + b + c for (a, b, c), v in zip(triples, lr.slice_invariants(triples)) if v)
    values = {x: 1 + sum(w * e for w, e in zip((7, 3, 5, 2, 11, 13, 1, 4, 6), x)) % 5 for x in support}
    routes = ((_oracle_midpoint_scan, ()), (_packed_midpoint_scan, (-3, 3)))
    # one route's records at a time, as digests: at (1, 1) they take ~150 MB
    oracle, packed = (_digest(route(support, values, p, q, str, {"p": p, "q": q}, *box)) for route, box in routes)
    assert oracle == packed and oracle[0] == PAIR_ENGINE_RECORDS[p, q]


@pytest.mark.parametrize("rank, bound, pairs", [(6, 3, 12159), (5, 4, 34140), (None, 10, 26128), (None, 12, 141012)])
def test_packed_pair_walk(rank, bound, pairs):
    """logv and the skew-pair scans take their pairs from packed residue classes, while the
    oracle in the tests buckets tuples; this compares the pairs, in order, and the counts
    on logv domains (rank given) and on skew-shape layouts (rank None)."""
    if rank:
        points, box = list(dominant_weights(rank, -bound, bound)), concavity._Packing(rank, -bound, bound)
    else:
        shapes = concavity.skew_shapes_up_to(bound)
        rows = max(len(lam) for lam, _ in shapes)
        points, box = [pad(lam, rows) + pad(mu, rows) for lam, mu in shapes], concavity._Packing(2 * rows, 0, bound)
    keys = [box.pack(x) for x in points]
    packed = [(box.unpack(a), box.unpack(b)) for a, b in concavity._unordered_pairs(box, keys)]
    tuples = [(a, b) for a, b in _midpoint_pairs(points, 1, 1) if a != b]
    assert packed == tuples and len(tuples) == pairs
    assert concavity._midpoint_count(box, keys, 1, 1) == pairs + len(points)


@pytest.mark.parametrize("bound, schur, pairs", [(9, False, 10043), (8, True, 4300)], ids=["theorem1", "slm"])
def test_skew_pair_classes(bound, schur, pairs):
    """The skew-pair scans compute each class of pairs once from its _skew_class keys, while
    theorem1_verify and slm_schur_positivity compute a pair's own difference from its three
    shapes; this compares the two for every off-diagonal pair, in the Schur basis too for slm."""
    mismatched, counted = _pairs_against_classes(_scan_class_differences(bound), bound, schur)
    assert (mismatched[:3], counted) == ([], pairs)


def _eliminated(s1, s2):
    """subspace_product through the elimination alone."""
    s = object.__new__(bodies.PolynomialSubspace)
    s.dim = s1.dim
    s._pivots = bodies._echelon(bodies._product(f, g) for f in s1._pivots.values() for g in s2._pivots.values())
    return s


@pytest.mark.parametrize("dim, degree", [(2, 4), (3, 3)])
def test_monomial_power_towers(dim, degree):
    """subspace_product forms the products of monomial subspaces from exponent sums and
    eliminates every other product; this builds the towers to k = 6 both ways."""
    s = bodies.degree_bounded_monomials(dim, degree)
    routes = (bodies.subspace_product, _eliminated)
    # the pivots of s, s**2, ..., s**6
    towers = [[repr(list(sk._pivots.items())) for sk in accumulate([s] * 6, route)] for route in routes]
    assert towers[0] == towers[1]
