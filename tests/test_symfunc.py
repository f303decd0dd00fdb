import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from logcave import symfunc
from logcave.partitions import (
    SkewShape,
    iter_ssyt_rows,
    pad,
    partition,
    partitions_of,
    partitions_up_to,
    subdiagrams,
    weyl_dimension,
)
from logcave.symfunc import (
    MonomialExpansion,
    kostka_table,
    monomial_product_row,
    multiply,
    skew_schur,
    subtract_and_min_coefficient,
    to_schur_basis,
)
from logcave.toeplitz import toeplitz_schur_coefficient


def dense(expn):
    """Expand an orbit map into a full monomial dict (independent oracle)."""
    out = {}
    n = expn.num_variables
    for orb, c in expn.terms.items():
        for perm in set(permutations(pad(orb, n))):
            out[perm] = out.get(perm, 0) + c
    return out


def dense_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def brute_force_skew_schur(outer, inner, n):
    """Monomial dict of the skew Schur polynomial by filtering raw fillings."""
    shape = SkewShape(outer, inner)
    bounds = shape.row_bounds()
    cells = [(r, c) for r, (lo, hi) in enumerate(bounds) for c in range(lo, hi)]
    out = {}
    for filling in product(range(1, n + 1), repeat=len(cells)):
        grid = dict(zip(cells, filling))
        ok = True
        for (r, c), v in grid.items():
            if (r, c - 1) in grid and grid[(r, c - 1)] > v:
                ok = False
                break
            if (r - 1, c) in grid and grid[(r - 1, c)] >= v:
                ok = False
                break
        if ok:
            content = [0] * n
            for v in filling:
                content[v - 1] += 1
            key = tuple(content)
            out[key] = out.get(key, 0) + 1
    return out


def enumerated_kostka_table(outer, inner, max_entry):
    """Oracle: enumerate every SSYT and keep the weakly decreasing contents."""
    table = Counter()
    for rows in iter_ssyt_rows(SkewShape(outer, inner), max_entry):
        content = [0] * max_entry
        for row in rows:
            for v in row:
                content[v - 1] += 1
        if all(content[i] >= content[i + 1] for i in range(max_entry - 1)):
            table[partition(content)] += 1
    return dict(table)


def test_kostka_table_matches_enumeration_up_to_weight_6():
    checked = 0
    for lam in partitions_up_to(6):
        for mu in subdiagrams(lam):
            size = sum(lam) - sum(mu)
            for n in range(8):
                assert kostka_table(lam, mu, n) == enumerated_kostka_table(lam, mu, n), (
                    lam,
                    mu,
                    n,
                )
                # a table asked beyond the shape's size is the table at its size
                if n > size:
                    assert kostka_table(lam, mu, n) is kostka_table(lam, mu, size)
                checked += 1
    assert checked == 1840


_WEIGHT_7_AND_8 = [lam for w in (7, 8) for lam in partitions_of(w)]


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_kostka_table_matches_enumeration_at_weight_7_and_8(data):
    lam = data.draw(st.sampled_from(_WEIGHT_7_AND_8))
    mu = data.draw(st.sampled_from(list(subdiagrams(lam))))
    n = data.draw(st.integers(0, 6))
    assert kostka_table(lam, mu, n) == enumerated_kostka_table(lam, mu, n)


def test_kostka_table_rejects_inner_outside_outer():
    with pytest.raises(ValueError):
        kostka_table((1,), (2,), 2)


@pytest.mark.parametrize(
    "outer,inner,n",
    [((2, 1), (), 2), ((2, 1), (1,), 3), ((3, 1), (1,), 2), ((2, 2), (1,), 3)],
)
def test_skew_schur_against_brute_force(outer, inner, n):
    assert dense(skew_schur(SkewShape(outer, inner), n)) == brute_force_skew_schur(
        outer, inner, n
    )


def test_skew_schur_examples():
    assert skew_schur(SkewShape((2, 1), ()), 2).terms == {(2, 1): 1}
    assert skew_schur(SkewShape((3, 2), (3, 2)), 5).terms == {(): 1}
    assert skew_schur(SkewShape((1,), ()), 3).terms == {(1,): 1}
    assert skew_schur(SkewShape((1, 1), ()), 1).is_zero()


def test_skew_schur_all_ones_is_weyl_dimension():
    for lam in [(2, 1), (3, 1), (2, 2, 1)]:
        for n in (3, 4):
            assert skew_schur(SkewShape(lam, ()), n).evaluate_ones() == weyl_dimension(
                pad(lam, n)
            )


def test_multiply_examples():
    one = MonomialExpansion(2, {(): 1})
    e1 = skew_schur(SkewShape((1,), ()), 2)
    assert multiply(e1, one) == e1
    assert multiply(e1, e1).terms == {(2,): 1, (1, 1): 2}
    s1 = skew_schur(SkewShape((1,), ()), 2)
    s11 = skew_schur(SkewShape((1, 1), ()), 2)
    assert multiply(s1, s11).terms == {(2, 1): 1}


def test_multiply_rank_mismatch():
    with pytest.raises(ValueError):
        multiply(MonomialExpansion(2, {(): 1}), MonomialExpansion(3, {(): 1}))


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 4), st.data())
def test_multiply_against_dense_oracle(n, data):
    shapes = [((1,), ()), ((2,), ()), ((1, 1), ()), ((2, 1), (1,)), ((2, 2), (1,))]
    o1, i1 = data.draw(st.sampled_from(shapes))
    o2, i2 = data.draw(st.sampled_from(shapes))
    a = skew_schur(SkewShape(o1, i1), n)
    b = skew_schur(SkewShape(o2, i2), n)
    assert dense(multiply(a, b)) == dense_mul(dense(a), dense(b))


def _fit_and_nonzero(e):
    return all(c and len(k) <= e.num_variables for k, c in e.terms.items())


def _random_expansion(rng, n, max_degree, terms):
    orbits = [lam for lam in partitions_up_to(max_degree) if len(lam) <= n]
    chosen = rng.sample(orbits, min(terms, len(orbits)))
    return MonomialExpansion(n, {lam: rng.choice((-3, -2, -1, 1, 2, 3)) for lam in chosen})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multiply_square_reads_each_unordered_pair_of_terms_once(n, monkeypatch):
    """multiply(a, a) equals the product with an equal copy of a and the
    dense oracle, also for n below the degree, where orbits are dropped,
    and reads one row per unordered pair of terms."""
    rng = random.Random(n)
    cases = [skew_schur(SkewShape(o, i), n) for o, i in [((2, 1), ()), ((3, 2), (1,)), ((2, 2, 1), (1,))]]
    cases += [_random_expansion(rng, n, 4, 5) for _ in range(6)]
    read = monomial_product_row
    reads = []

    def recording(alpha, beta):
        reads.append((alpha, beta))
        return read(alpha, beta)

    monkeypatch.setattr(symfunc, "monomial_product_row", recording)
    for a in cases:
        copy = MonomialExpansion(n, dict(a.terms))
        with_copy = multiply(a, copy)  # fills the memo both ways round
        reads.clear()
        square = multiply(a, a)
        assert square == with_copy and _fit_and_nonzero(square)
        assert dense(square) == dense_mul(dense(a), dense(a))
        k = len(a.terms)
        assert len(reads) == k * (k + 1) // 2
        assert {frozenset(pair) for pair in reads} == {frozenset((x, y)) for x in a.terms for y in a.terms}


def test_products_and_differences_store_no_zero_and_no_long_orbit():
    """Terms that cancel are dropped and orbits longer than n are not
    stored, by multiply, by its square path and by
    subtract_and_min_coefficient, which build their results unchecked."""
    for n in (2, 3):
        # m_1 (m_2 - m_11) = m_3 - 3 m_111: m_21 cancels, m_111 needs 3 variables
        a = MonomialExpansion(n, {(2,): 1, (1, 1): -1})
        got = multiply(MonomialExpansion(n, {(1,): 1}), a)
        assert got.terms == ({(3,): 1} if n == 2 else {(3,): 1, (1, 1, 1): -3})
        # (m_2 - m_11)^2 = m_4 - 2 m_31 + 3 m_22 + 6 m_1111: m_211 cancels
        assert multiply(a, a).terms == {(4,): 1, (3, 1): -2, (2, 2): 3}
        diff, low, witness = subtract_and_min_coefficient(a, MonomialExpansion(n, {(2,): 1, (1, 1): 2}))
        assert diff.terms == {(1, 1): -3} and (low, witness) == (-3, (1, 1))
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        a, b = (_random_expansion(rng, n, 3, 4) for _ in range(2))
        for prod in (multiply(a, b), multiply(a, a)):
            assert _fit_and_nonzero(prod)
            diff, low, _ = subtract_and_min_coefficient(prod, multiply(b, a))
            assert _fit_and_nonzero(diff) and low == min(diff.terms.values(), default=0)
            want = dense(prod)
            for k, v in dense(multiply(b, a)).items():
                want[k] = want.get(k, 0) - v
            assert dense(diff) == {k: v for k, v in want.items() if v}
        assert subtract_and_min_coefficient(multiply(a, b), multiply(b, a))[0].is_zero()


def test_monomial_product_row_symmetry():
    assert monomial_product_row((2, 1), (1,)) == monomial_product_row((1,), (2, 1))


def _multiset_perms(values):
    """Distinct permutations of a multiset of ints."""
    items = sorted(Counter(values).items())
    n = len(values)
    out = [0] * n

    def rec(k):
        if k == n:
            yield tuple(out)
            return
        for i, (v, c) in enumerate(items):
            if c == 0:
                continue
            items[i] = (v, c - 1)
            out[k] = v
            yield from rec(k + 1)
            items[i] = (v, c)

    yield from rec(0)


def _stabilizer_order(v):
    out = 1
    for c in Counter(v).values():
        out *= factorial(c)
    return out


def permutation_product_row(alpha, beta):
    """Oracle: symmetrize z^pad(alpha) * m_beta over len(alpha)+len(beta) slots.

    Every distinct rearrangement c of pad(beta) contributes stab(v) at the
    orbit of v = pad(alpha) + c; the sum is stab(pad(alpha)) * m_alpha * m_beta.
    """
    L = len(alpha) + len(beta)
    base = pad(alpha, L)
    row = Counter()
    for c in _multiset_perms(pad(beta, L)):
        v = tuple(base[i] + c[i] for i in range(L))
        row[partition(sorted(v, reverse=True))] += _stabilizer_order(v)
    stab = _stabilizer_order(base)
    assert all(total % stab == 0 for total in row.values())
    return {gamma: total // stab for gamma, total in row.items()}


def test_monomial_product_row_matches_permutation_oracle_up_to_weight_11():
    checked = 0
    for w in range(12):
        for wa in range(w + 1):
            for alpha in partitions_of(wa):
                for beta in partitions_of(w - wa):
                    expected = permutation_product_row(alpha, beta)
                    assert monomial_product_row(alpha, beta) == expected, (alpha, beta)
                    checked += 1
    assert checked == 1967


_WEIGHT_4_TO_9 = [lam for lam in partitions_up_to(9, 5) if sum(lam) >= 4]


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_monomial_product_row_matches_permutation_oracle_at_larger_weights(data):
    alpha = data.draw(st.sampled_from(_WEIGHT_4_TO_9))
    beta = data.draw(st.sampled_from(_WEIGHT_4_TO_9))
    assert monomial_product_row(alpha, beta) == permutation_product_row(alpha, beta)


def test_subtract_and_min_coefficient():
    a = skew_schur(SkewShape((2, 1), ()), 3)
    diff, mc, witness = subtract_and_min_coefficient(a, a)
    assert diff.is_zero() and mc == 0 and witness is None

    lin = MonomialExpansion(2, {(1,): 1})
    sq = MonomialExpansion(2, {(2,): 1})
    diff, mc, witness = subtract_and_min_coefficient(lin, sq)
    assert mc == -1 and witness == (2,)


def test_squared_midpoint_difference_is_nonnegative():
    n = 6
    s21 = skew_schur(SkewShape((2, 1), ()), n)
    s31 = skew_schur(SkewShape((3, 1), ()), n)
    s11 = skew_schur(SkewShape((1, 1), ()), n)
    _, mc, _ = subtract_and_min_coefficient(multiply(s21, s21), multiply(s31, s11))
    assert mc >= 0


def dominated_by(a, b):
    """True if a is dominated by b: same weight, prefix sums of a <= those of b."""
    pa, pb = pad(a, max(len(a), len(b))), pad(b, max(len(a), len(b)))
    return sum(a) == sum(b) and all(
        sum(pa[: i + 1]) <= sum(pb[: i + 1]) for i in range(len(pa))
    )


def test_dominance_implies_lex_order_up_to_weight_9():
    # why the Schur peel may take the lex-largest orbit of the top degree:
    # nothing of the same degree dominates it
    for w in range(10):
        lams = list(partitions_of(w))
        for a in lams:
            for b in lams:
                if a != b and dominated_by(a, b):
                    assert a < b, (a, b)


def test_to_schur_basis_examples():
    s21 = skew_schur(SkewShape((2, 1), ()), 3)
    assert to_schur_basis(s21).terms == {(2, 1): 1}
    prod = multiply(
        skew_schur(SkewShape((1,), ()), 3), skew_schur(SkewShape((1, 1), ()), 3)
    )
    assert to_schur_basis(prod).terms == {(2, 1): 1, (1, 1, 1): 1}
    sq = multiply(skew_schur(SkewShape((2, 1), ()), 4), skew_schur(SkewShape((2, 1), ()), 4))
    assert to_schur_basis(sq).terms == {
        (4, 2): 1,
        (4, 1, 1): 1,
        (3, 3): 1,
        (3, 2, 1): 2,
        (3, 1, 1, 1): 1,
        (2, 2, 2): 1,
        (2, 2, 1, 1): 1,
    }


def schur_to_monomials(e, n):
    """Re-expand a Schur expansion into the monomial basis."""
    out = Counter()
    for lam, c in e.terms.items():
        for alpha, k in skew_schur(SkewShape(lam, ()), n).terms.items():
            out[alpha] += c * k
    return MonomialExpansion(n, {k: v for k, v in out.items() if v})


def test_to_schur_basis_rejects_orbits_that_are_not_partitions():
    for orbit in ((1, 2), (2, 1, 0)):
        with pytest.raises(ValueError):
            to_schur_basis(MonomialExpansion(3, {orbit: 1}))


def test_to_schur_basis_round_trip():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(2, 4)
        terms = {}
        for lam in partitions_up_to(5, n):
            if rng.random() < 0.3:
                c = rng.randint(-3, 3)
                if c:
                    terms[lam] = c
        poly = MonomialExpansion(n, {})
        for lam, c in terms.items():
            contrib = skew_schur(SkewShape(lam, ()), n)
            scaled = MonomialExpansion(n, {k: c * v for k, v in contrib.terms.items()})
            poly, _, _ = subtract_and_min_coefficient(
                poly, MonomialExpansion(n, {k: -v for k, v in scaled.terms.items()})
            )
        expansion = to_schur_basis(poly)
        assert expansion.terms == terms
        # peel order: the lex-largest orbit of the top degree first
        assert list(expansion.terms) == sorted(terms, key=lambda k: (sum(k), k), reverse=True)
        assert schur_to_monomials(expansion, n) == poly


def test_skew_schur_expands_nonnegatively_in_schur_basis():
    for lam in [(3, 1), (2, 2), (3, 2, 1)]:
        for mu in subdiagrams(partition(lam)):
            exp = to_schur_basis(skew_schur(SkewShape(lam, mu), 4))
            assert all(c >= 0 for c in exp.terms.values())


def test_toeplitz_schur_coefficient_examples():
    assert toeplitz_schur_coefficient({0: 1}, (), 3) == 1
    assert toeplitz_schur_coefficient({0: 1, 1: 1}, (1, 1), 2) == 1
    assert toeplitz_schur_coefficient({0: 1, 1: 1}, (2,), 2) == 0


def expand_product(x: dict, n: int):
    """Coefficient dict of prod_i sum_k x_k z_i^k, one variable at a time."""
    polys = {(): 1}
    for _ in range(n):
        out = {}
        for e, c in polys.items():
            for k, v in x.items():
                out[e + (k,)] = out.get(e + (k,), 0) + c * v
        polys = out
    return polys


def test_toeplitz_identity_on_random_integer_sequences():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 3)
        support = {}
        for k in range(rng.randint(1, 5)):
            if rng.random() < 0.8:
                support[k] = rng.randint(0, 4)
        if not any(support.values()):
            support[0] = 1
        raw = expand_product(support, n)
        # the product is symmetric: each orbit coefficient is the dense
        # coefficient at the sorted representative
        orbit_terms = {
            partition(e): c
            for e, c in raw.items()
            if c and tuple(sorted(e, reverse=True)) == e
        }
        poly = MonomialExpansion(n, orbit_terms)
        expansion = to_schur_basis(poly)
        for lam in partitions_up_to(6, n):
            assert toeplitz_schur_coefficient(support, lam, n) == expansion.coefficient(
                lam
            ), (support, lam, n)


def test_toeplitz_identity_rational_sequences_scale():
    # rational sequences: scaling x by D multiplies every coefficient by D^n
    x = {0: Fraction(1, 2), 1: Fraction(1, 3)}
    n = 2
    scaled = {k: v * 6 for k, v in x.items()}
    for lam in [(), (1,), (1, 1), (2, 1)]:
        assert toeplitz_schur_coefficient(x, lam, n) * 36 == toeplitz_schur_coefficient(
            scaled, lam, n
        )


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: MonomialExpansion(1, {(1, 1): 1}), r"orbit \(1, 1\) needs more than 1 variables"),
        (lambda: MonomialExpansion(2, {(1,): 0}), "zero coefficient stored"),
        (lambda: skew_schur(SkewShape((1,), ()), -1), "number of variables must be >= 0"),
        (
            lambda: subtract_and_min_coefficient(MonomialExpansion(1), MonomialExpansion(2)),
            "variable count mismatch: 1 != 2",
        ),
    ],
)
def test_symfunc_rejects_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
