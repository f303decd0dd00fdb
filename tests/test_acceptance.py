"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance here is exact (integer or rational equality); the scans
are exhaustive over their stated ranges.  Run with `pytest -v -s
tests/test_acceptance.py` to see the per-criterion lines as they finish.
"""

import json
import random
import time
from fractions import Fraction
from math import comb, factorial, gcd
from multiprocessing import cpu_count

from logcave.cli import _SCANNERS, canonical_payload, main
from logcave.concavity import (
    alpha_scan,
    conjecture1_scan,
    convolution_random_suite,
    logv_scan,
    saturation_scan_all,
    theorem1_scan,
    weyl_logconcavity_scan,
)
from logcave.geometry import affine_rank
from logcave.lr import tensor_product_multiplicities, triple_invariant
from logcave.bodies import (
    MultiPolynomial,
    PolynomialSubspace,
    body_approximation,
    brunn_minkowski_check,
    constant_one,
    degree_bounded_monomials,
    degree_estimate,
    minkowski_inclusion_check,
    monomial_subspace,
    normalized_volume,
)
from logcave.partitions import (
    SkewShape,
    dominant_weights,
    pad,
    partition,
    partitions_up_to,
    subdiagrams,
    weyl_dimension,
)
from logcave.symfunc import (
    MonomialExpansion,
    multiply,
    skew_schur,
    to_schur_basis,
)
from logcave.toeplitz import FiniteSequence, toeplitz_minor, toeplitz_schur_coefficient

JOBS = min(8, cpu_count())


def report(criterion: int, passed: bool, detail: str):
    line = f"ACCEPTANCE {criterion:02d}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert passed, line


def test_criterion_01_theorem1_exhaustive():
    t0 = time.monotonic()
    rep = theorem1_scan(6, jobs=JOBS)
    dt = time.monotonic() - t0
    report(
        1,
        rep.clean and dt < 600,
        f"squared-midpoint nonnegativity on {rep.checked} skew pairs "
        f"(|outer| <= 6), {len(rep.violations)} violations, {dt:.1f}s",
    )


def test_criterion_02_schur_toeplitz_oracle():
    checked = 0
    for n in range(1, 5):
        h_values = {k: Fraction(comb(n + k - 1, k)) for k in range(0, 14)}
        x = FiniteSequence(h_values)
        for lam in partitions_up_to(8):
            for mu in subdiagrams(lam):
                ell = len(lam) if lam else 1
                mu_p = pad(mu, ell)
                rows = sorted(mu_p[a] - (a + 1) for a in range(ell))
                cols = sorted(lam[b] - (b + 1) if b < len(lam) else -(b + 1) for b in range(ell))
                minor = toeplitz_minor(x, rows, cols)
                tableaux = skew_schur(SkewShape(lam, mu), n).evaluate_ones()
                assert minor == tableaux, (lam, mu, n, minor, tableaux)
                checked += 1
        # straight shapes also agree with the Weyl formula
        for lam in partitions_up_to(8, max_parts=n):
            assert skew_schur(SkewShape(lam, ()), n).evaluate_ones() == weyl_dimension(
                pad(lam, n)
            )
    report(2, True, f"tableau route == Toeplitz minor route on {checked} (shape, n) cases")


def test_criterion_03_lr_oracle_equivalence():
    checked = 0
    for rank in range(1, 5):
        parts = [p for p in partitions_up_to(8, max_parts=rank)]
        for mu in parts:
            for nu in parts:
                if sum(mu) + sum(nu) > 8:
                    continue
                w_mu, w_nu = pad(mu, rank), pad(nu, rank)
                tableau = tensor_product_multiplicities(w_mu, w_nu)
                prod = multiply(
                    skew_schur(SkewShape(mu, ()), rank),
                    skew_schur(SkewShape(nu, ()), rank),
                )
                peel = to_schur_basis(prod)
                assert {partition(k): v for k, v in tableau.items()} == dict(
                    peel.terms
                ), (mu, nu, rank)
                total = sum(m * weyl_dimension(w) for w, m in tableau.items())
                assert total == weyl_dimension(w_mu) * weyl_dimension(w_nu)
                checked += 1
    report(3, True, f"tableau counts == Schur peel and dimensions balance on {checked} pairs")


def test_criterion_04_triple_symmetry():
    from itertools import permutations

    checked = 0
    for rank in range(1, 4):
        for lam in dominant_weights(rank, -2, 2):
            for mu in dominant_weights(rank, -2, 2):
                for nu in dominant_weights(rank, -2, 2):
                    base = triple_invariant((lam, mu, nu))
                    for p in permutations((lam, mu, nu)):
                        assert triple_invariant(p) == base, (lam, mu, nu, p)
                    checked += 1
    report(4, True, f"triple invariant symmetric under all 6 permutations on {checked} triples")


def test_criterion_05_saturation():
    rep = saturation_scan_all(4, 3, 3)
    sat = [v for v in rep.violations if v["kind"] == "saturation"]
    power = [v for v in rep.violations if v["kind"] == "power_bound"]
    # the power bound is conjectural: findings are reported, not asserted
    report(
        5,
        not sat,
        f"saturation holds on {rep.checked} stretch rows "
        f"({len(power)} power-bound findings reported separately)",
    )


def test_criterion_06_conjecture_scanners_run_clean():
    c1 = conjecture1_scan(3, 2, 2)
    lv = logv_scan(2, 3)
    al = alpha_scan(2, 3, 2)
    clean = c1.clean and lv.clean and al.clean
    report(
        6,
        clean,
        "conjecture evidence: "
        f"conj1 {c1.checked} instances, logv {lv.checked} pairs, "
        f"alpha {al.checked} triples, all clean",
    )


def test_criterion_07_weyl_logconcavity():
    rep = weyl_logconcavity_scan(4, 5)
    report(7, rep.clean, f"Weyl dimension log-concavity on {rep.checked} instances")


def test_criterion_08_toeplitz_identity_random():
    rng = random.Random(2024)
    checked = 0
    for _ in range(100):
        n = rng.randint(1, 3)
        support = {}
        for k in range(rng.randint(1, 5)):
            if rng.random() < 0.75:
                support[k] = Fraction(rng.randint(0, 5), rng.randint(1, 4))
        if not support:
            support[0] = Fraction(1)
        denom = 1
        for v in support.values():
            denom = denom * v.denominator // gcd(denom, v.denominator)
        scaled = {k: int(v * denom) for k, v in support.items()}
        polys = {(): 1}
        for _ in range(n):
            nxt = {}
            for e, c in polys.items():
                for k, v in scaled.items():
                    nxt[e + (k,)] = nxt.get(e + (k,), 0) + c * v
            polys = nxt
        orbit_terms = {
            partition(e): c
            for e, c in polys.items()
            if c and tuple(sorted(e, reverse=True)) == e
        }
        expansion = to_schur_basis(MonomialExpansion(n, orbit_terms))
        for lam in partitions_up_to(6, n):
            det = toeplitz_schur_coefficient(scaled, lam, n)
            assert det == expansion.coefficient(lam), (support, lam, n)
        checked += 1
    report(8, checked == 100, f"Toeplitz determinant == product expansion on {checked} sequences")


def test_criterion_09_convolution_log_concavity():
    rep = convolution_random_suite(200, 12, seed=424242)
    report(9, rep.clean, f"convolution preserves log-concavity on {rep.checked} random pairs")


def _random_full_dim_monomials(rng, dim, box=3, count=4):
    while True:
        exps = {(0,) * dim}
        for _ in range(count):
            exps.add(tuple(rng.randint(0, box) for _ in range(dim)))
        if affine_rank([tuple(map(Fraction, e)) for e in exps]) == dim:
            return monomial_subspace(dim, exps)


def test_criterion_10_valuation_bodies():
    t0 = time.monotonic()
    rng = random.Random(77)
    # (a) valuation set size equals dimension on constructed subspaces
    for _ in range(30):
        dim = rng.randint(1, 2)
        polys = [constant_one(dim)]
        for _ in range(rng.randint(1, 5)):
            terms = {
                tuple(rng.randint(0, 3) for _ in range(dim)): Fraction(
                    rng.randint(-4, 4), rng.randint(1, 3)
                )
                for _ in range(rng.randint(1, 4))
            }
            poly = MultiPolynomial(dim, terms)
            if not poly.is_zero():
                polys.append(poly)
        s = PolynomialSubspace(dim, polys)
        assert len(s.valuation_set()) == s.dimension
    # (b) degree-bounded monomial subspaces: degree = e^d = d! * volume
    for dim, degree in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        s = degree_bounded_monomials(dim, degree)
        de = degree_estimate(s, dim + 1)
        vol = normalized_volume(body_approximation(s, 1))
        assert de.degree == degree**dim == factorial(dim) * vol, (dim, degree)
    # (c) random monomial subspaces: Minkowski inclusion and Brunn-Minkowski
    for case in range(50):
        k_max = rng.randint(2, 6)
        s1 = _random_full_dim_monomials(rng, rng.randint(1, 2))
        s2 = _random_full_dim_monomials(rng, s1.dim)
        ok, bad = minkowski_inclusion_check(s1, s2, k_max)
        assert ok, (case, bad)
        r = brunn_minkowski_check(s1, s2, k_max)
        assert r.passed, (case, r.volumes)
    dt = time.monotonic() - t0
    report(10, dt < 300, f"valuation bodies: dimv, monomial degrees, 50 BM pairs in {dt:.1f}s")


def test_criterion_11_determinism_across_worker_counts(tmp_path, monkeypatch):
    monkeypatch.setattr("logcave.concavity._POOL_MIN_CLASSES", 1)  # a real pool at these sizes
    scans = [
        ["verify", "theorem1", "--bound", "5"],
        ["verify", "slm", "--bound", "4"],
        ["verify", "weyl", "--rank", "3", "--bound", "4"],
        ["verify", "conj1", "--rank", "2", "--bound", "2"],
        ["verify", "saturation", "--rank", "2", "--bound", "3", "--kmax", "3"],
        ["verify", "logv", "--rank", "2", "--bound", "3"],
        ["verify", "alpha", "--rank", "2", "--bound", "2", "--pq", "3"],
        ["verify", "restriction", "--n", "4", "--k", "2", "--bound", "4"],
        ["verify", "convolution", "--cases", "20", "--bound", "6", "--seed", "1"],
    ]
    # one scan per scanner, so that a new scanner adds one here
    assert {argv[1] for argv in scans} == set(_SCANNERS)
    for i, argv in enumerate(scans):
        payloads = []
        for jobs in ("1", "8"):
            out = tmp_path / f"r{i}_{jobs}.json"
            code = main(argv + ["--jobs", jobs, "--out", str(out)])
            assert code == 0
            doc = json.loads(out.read_text())
            payloads.append(
                (
                    canonical_payload(
                        {k: doc[k] for k in ("subcommand", "params", "checked", "violations")}
                    ),
                    doc["manifest"]["output_digest"],
                )
            )
        assert payloads[0] == payloads[1], argv
    report(11, True, f"reports byte-identical at worker counts 1 and 8 for {len(scans)} scans")
