import random
from fractions import Fraction
from math import comb, gcd

import pytest

from logcave.partitions import SkewShape, pad, partition, partitions_of, partitions_up_to, subdiagrams
from logcave.symfunc import (
    MonomialExpansion,
    skew_schur,
    to_schur_basis,
)
from logcave.toeplitz import (
    FiniteSequence,
    character_positivity_check,
    convolve,
    first_logconcavity_failure,
    toeplitz_minor,
    toeplitz_schur_coefficient,
    two_by_two_scan,
)


def test_sequence_validation():
    with pytest.raises(ValueError):
        FiniteSequence({0: -1})
    s = FiniteSequence({0: 1, 1: 0, 2: Fraction(1, 2)})
    assert s.support == {0: 1, 2: Fraction(1, 2)}  # zeros dropped


def test_toeplitz_minor_examples():
    x = FiniteSequence({0: 1, 1: 1})
    assert toeplitz_minor(x, [0], [1]) == x[1]
    assert toeplitz_minor(x, (0, 1), (0, 1)) == 1
    sq = FiniteSequence({0: 1, 1: 2, 2: 1})
    assert toeplitz_minor(sq, (0, 1), (1, 2)) == 3
    with pytest.raises(ValueError):
        toeplitz_minor(x, (0, 1), (0,))
    with pytest.raises(ValueError):
        toeplitz_minor(x, (1, 0), (0, 1))


def test_two_by_two_examples():
    assert two_by_two_scan(FiniteSequence({0: 1, 1: 1})) == (True, None)
    assert two_by_two_scan(FiniteSequence({0: 1, 1: 2, 2: 1})) == (True, None)
    ok, n = two_by_two_scan(FiniteSequence({0: 1, 1: 1, 2: 3}))
    assert not ok and n == 1


def brute_first_failure(values, indices):
    """First index n with x_n^2 < x_{n-1} x_{n+1}, reading x as 0 off the list."""
    at = dict(zip(indices, values))
    for n in indices:
        if at.get(n, 0) ** 2 < at.get(n - 1, 0) * at.get(n + 1, 0):
            return n
    return None


def test_first_logconcavity_failure_matches_brute_force():
    assert first_logconcavity_failure([]) is None
    assert first_logconcavity_failure([5]) is None
    assert first_logconcavity_failure([1, 1, 2]) == 1
    assert first_logconcavity_failure([4, 2, 1, 1]) == 2
    assert first_logconcavity_failure([1, 0, 1]) == 1
    rng = random.Random(41)
    for _ in range(400):
        seq = [rng.choice((0, 1, 2, 3, Fraction(1, 2))) for _ in range(rng.randint(0, 7))]
        assert first_logconcavity_failure(seq) == brute_first_failure(seq, range(len(seq))), seq


def test_two_by_two_scan_matches_brute_force():
    cases = [
        FiniteSequence({0: 1, 2: 1}),  # internal zero
        FiniteSequence({-2: 1, -1: 1, 0: 2, 1: 1}),  # fails at the first interior index
        FiniteSequence({5: 4, 6: 2, 7: 1, 8: 1}),  # fails at the last interior index
        FiniteSequence({-3: 1, -2: 1, -1: 5}),
        FiniteSequence({-4: 1, -1: 3}),
        FiniteSequence({3: 2}),
        FiniteSequence(),
    ]
    rng = random.Random(43)
    for _ in range(300):
        offset = rng.randint(-6, 3)
        cases.append(random_sequence(rng, max_index=6, offset=offset))
    failures = 0
    for x in cases:
        indices = range(min(x.support, default=0) - 2, max(x.support, default=0) + 3)
        bad = brute_first_failure([x[n] for n in indices], indices)
        assert two_by_two_scan(x) == (bad is None, bad), x.support
        failures += bad is not None
    assert failures >= 20


def test_toeplitz_minor_reads_plain_mappings():
    rng = random.Random(47)
    for _ in range(60):
        x = random_sequence(rng, offset=rng.randint(-2, 2))
        size = rng.randint(1, 3)
        rows = sorted(rng.sample(range(-3, 4), size))
        cols = sorted(rng.sample(range(-3, 4), size))
        assert toeplitz_minor(dict(x.support), rows, cols) == toeplitz_minor(x, rows, cols)
    # a plain mapping may carry signed values: det [[1, -1], [2, 1]] = 3
    assert toeplitz_minor({0: 1, 1: -1, -1: 2}, (0, 1), (0, 1)) == 3


def test_toeplitz_schur_coefficient_rejects_increasing_lam():
    with pytest.raises(ValueError):
        toeplitz_schur_coefficient({0: 1, 1: 1}, (1, 2), 2)
    with pytest.raises(ValueError):
        toeplitz_schur_coefficient({0: 1}, (1, 1, 1), 2)


def test_sequence_convolution_matches_list_convolution():
    rng = random.Random(53)
    for _ in range(60):
        a = random_sequence(rng, offset=rng.randint(-3, 3))
        b = random_sequence(rng, offset=rng.randint(-3, 3))
        product = a.convolve(b)
        direct = {}
        for i, x in a.support.items():
            for j, y in b.support.items():
                direct[i + j] = direct.get(i + j, 0) + x * y
        assert product == FiniteSequence(direct)
    assert FiniteSequence().convolve(FiniteSequence({0: 1})) == FiniteSequence()
    assert convolve([1, 0, 1], [1, 1]) == [1, 1, 1, 1]


def test_character_positivity_examples():
    ok, _ = character_positivity_check(FiniteSequence({0: 1}), 2, 4)
    assert ok
    # binomial coefficients: restriction of an elementary-symmetric product
    for m in (1, 2, 3, 4):
        seq = FiniteSequence({k: comb(m, k) for k in range(m + 1)})
        ok, bad = character_positivity_check(seq, 2, 6)
        assert ok, (m, bad)
    ok, bad = character_positivity_check(FiniteSequence({0: 1, 2: 1}), 2, 4)
    assert not ok and bad == (1, 1)


def test_character_positivity_negative_support():
    ok, bad = character_positivity_check(FiniteSequence({-1: 1, 0: 2, 1: 1}), 2, 4)
    assert ok, bad
    ok, bad = character_positivity_check(FiniteSequence({-1: 1, 1: 1}), 2, 4)
    assert not ok and bad == (0, 0)


def random_sequence(rng, max_index=4, max_num=4, offset=0):
    support = {}
    for k in range(rng.randint(1, max_index)):
        if rng.random() < 0.7:
            support[k + offset] = Fraction(rng.randint(0, max_num), rng.randint(1, 3))
    if not support:
        support[offset] = Fraction(1)
    return FiniteSequence(support)


def test_two_by_two_follows_from_schur_positivity_at_rank_two():
    # the 2x2 condition is the contiguous-minor specialization at n = 2
    rng = random.Random(23)
    for _ in range(40):
        x = random_sequence(rng)
        ok_schur, _ = character_positivity_check(x, 2, 8)
        if ok_schur:
            assert two_by_two_scan(x)[0], x.support


def test_consistency_with_schur_route_on_random_sequences():
    # scale to integers, expand the 3-fold product, compare every coefficient
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 3)
        x = random_sequence(rng)
        denom = 1
        for v in x.support.values():
            denom = denom * v.denominator // gcd(denom, v.denominator)
        scaled = {k: int(v * denom) for k, v in x.support.items()}
        polys = {(): 1}
        for _ in range(n):
            out = {}
            for e, c in polys.items():
                for k, v in scaled.items():
                    out[e + (k,)] = out.get(e + (k,), 0) + c * v
            polys = out
        orbit_terms = {
            partition(e): c
            for e, c in polys.items()
            if c and tuple(sorted(e, reverse=True)) == e
        }
        expansion = to_schur_basis(MonomialExpansion(n, orbit_terms))
        for lam in partitions_up_to(6, n):
            assert toeplitz_schur_coefficient(scaled, lam, n) == expansion.coefficient(lam)


def test_product_closure_spot_checks():
    rng = random.Random(29)
    found = 0
    for _ in range(60):
        a = random_sequence(rng, max_index=3)
        b = random_sequence(rng, max_index=3)
        if (
            character_positivity_check(a, 2, 6)[0]
            and character_positivity_check(b, 2, 6)[0]
        ):
            found += 1
            ok, bad = character_positivity_check(a.convolve(b), 2, 6)
            assert ok, (a.support, b.support, bad)
    assert found >= 5


def test_toeplitz_minors_match_tableau_counts_at_weight_9_and_10():
    # Jacobi-Trudi: s_{lam/mu}(1^n) is the minor with rows mu_a - a and
    # columns lam_b - b of the Toeplitz matrix of h_k(1^n) = C(n+k-1, k);
    # the tableau route counts SSYT of lam/mu with entries <= n
    rng = random.Random(31)
    checked = 0
    for n in (5, 6):
        x = FiniteSequence({k: comb(n + k - 1, k) for k in range(11)})
        for size in (9, 10):
            for lam in partitions_of(size):
                mus = list(subdiagrams(lam))
                for mu in rng.sample(mus, min(8, len(mus))):
                    ell = len(lam)
                    rows = sorted(m - a for a, m in enumerate(pad(mu, ell), start=1))
                    cols = sorted(p - b for b, p in enumerate(lam, start=1))
                    minor = toeplitz_minor(x, rows, cols)
                    assert minor == skew_schur(SkewShape(lam, mu), n).evaluate_ones(), (lam, mu, n)
                    checked += 1
    assert checked >= 1000


@pytest.mark.parametrize(
    "fn,args",
    [
        (toeplitz_schur_coefficient, ({0: 1}, (), 0)),
        (character_positivity_check, (FiniteSequence({0: 1}), 0, 2)),
    ],
)
def test_toeplitz_rejects_too_few_variables(fn, args):
    with pytest.raises(ValueError, match="n must be >= 1") as info:
        fn(*args)
    # character_positivity_check would meet the same error one call deeper
    assert info.traceback[-1].name == fn.__name__
