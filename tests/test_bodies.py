import random
from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import comb, factorial, gcd, lcm

import pytest

from logcave import bodies
from logcave.geometry import DegenerateBodyError, hull_vertices, in_convex_hull, minkowski_sum
from logcave.bodies import (
    MultiPolynomial,
    PolynomialSubspace,
    body_approximation,
    brunn_minkowski_check,
    constant_one,
    degree_bounded_monomials,
    degree_estimate,
    flag_valuation,
    minkowski_inclusion_check,
    monomial,
    monomial_subspace,
    normalized_volume,
    power_subspace,
    subspace_product,
)


def binomial_dimension(degree: int, dim: int, k: int) -> int:
    """dim of the k-th power of the degree-bounded monomial subspace: C(k*e+d, d)."""
    return comb(k * degree + dim, dim)


def rand_poly(rng: random.Random, dim: int, max_deg=3, max_terms=4) -> MultiPolynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(dim))
        terms[e] = F(rng.randint(-5, 5), rng.randint(1, 3))
    p = MultiPolynomial(dim, terms)
    return p if not p.is_zero() else constant_one(dim)


def test_flag_valuation_examples():
    assert flag_valuation(constant_one(2)) == (0, 0)
    f = MultiPolynomial(2, {(2, 1): F(1), (3, 0): F(1)})
    assert flag_valuation(f) == (2, 1)
    x, y = monomial(2, (1, 0)), monomial(2, (0, 1))
    assert flag_valuation(x * y) == (1, 1)
    with pytest.raises(ValueError):
        flag_valuation(MultiPolynomial(2, {}))


def test_valuation_is_additive_on_products():
    rng = random.Random(7)
    for _ in range(200):
        dim = rng.randint(1, 3)
        f, g = rand_poly(rng, dim), rand_poly(rng, dim)
        assert flag_valuation(f * g) == tuple(
            a + b for a, b in zip(flag_valuation(f), flag_valuation(g))
        )


def test_valuation_of_sums():
    rng = random.Random(8)
    for _ in range(200):
        dim = rng.randint(1, 3)
        f, g = rand_poly(rng, dim), rand_poly(rng, dim)
        terms = dict(f.terms)
        for e, c in g.terms.items():
            terms[e] = terms.get(e, 0) + c
        s = MultiPolynomial(dim, terms)
        if s.is_zero():
            continue
        assert flag_valuation(s) >= min(flag_valuation(f), flag_valuation(g))


def test_subspace_requires_constant():
    x = monomial(1, (1,))
    with pytest.raises(ValueError):
        PolynomialSubspace(1, [x])
    s = PolynomialSubspace(1, [constant_one(1), x])
    assert s.dimension == 2


def test_valuation_set_examples():
    x, y = monomial(2, (1, 0)), monomial(2, (0, 1))
    s = PolynomialSubspace(2, [constant_one(2), x, y])
    assert s.valuation_set() == {(0, 0), (1, 0), (0, 1)}
    # {1, x, x + x^2} reduces to pivots {1, x, x^2}
    x_plus_x2 = MultiPolynomial(1, {(1,): 1, (2,): 1})
    s = PolynomialSubspace(1, [constant_one(1), monomial(1, (1,)), x_plus_x2])
    assert s.valuation_set() == {(0,), (1,), (2,)}


def test_valuation_set_size_is_dimension():
    rng = random.Random(9)
    for _ in range(40):
        dim = rng.randint(1, 2)
        polys = [constant_one(dim)] + [rand_poly(rng, dim) for _ in range(rng.randint(1, 5))]
        s = PolynomialSubspace(dim, polys)
        assert len(s.valuation_set()) == s.dimension


def test_power_subspace_examples():
    one_only = PolynomialSubspace(1, [constant_one(1)])
    assert power_subspace(one_only, 5).dimension == 1
    x = monomial(1, (1,))
    s = PolynomialSubspace(1, [constant_one(1), x])
    assert power_subspace(s, 3).valuation_set() == {(0,), (1,), (2,), (3,)}
    for d in (1, 2, 3):
        for e in (1, 2):
            sub = degree_bounded_monomials(d, e)
            for k in (1, 2, 3):
                assert power_subspace(sub, k).dimension == binomial_dimension(e, d, k)


def _dict_product(f: dict, g: dict) -> dict:
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _rank(rows: list[dict]) -> int:
    """Rank of the dense coefficient matrix, by Fraction Gaussian elimination."""
    cols = sorted({e for row in rows for e in row})
    m = [[F(row.get(e, 0)) for e in cols] for row in rows]
    rank = 0
    for j in range(len(cols)):
        piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][j]:
                f = m[i][j] / m[rank][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_power_dimensions_match_rank_of_all_products():
    # dim s^k is the rank of the coefficient matrix of all k-fold products
    # of a spanning set; checked on non-monomial subspaces with Fractions
    rng = random.Random(14)
    for _ in range(12):
        dim = rng.randint(1, 3)
        gens = [{(0,) * dim: 1}]
        while len(gens) < rng.randint(2, 4):
            g = rand_poly(rng, dim, max_deg=2, max_terms=3)
            gens.append(dict(g.terms))
        s = PolynomialSubspace(dim, [MultiPolynomial(dim, g) for g in gens])
        for k in (1, 2, 3):
            products = []
            for combo in combinations_with_replacement(gens, k):
                prod = {(0,) * dim: 1}
                for g in combo:
                    prod = _dict_product(prod, g)
                products.append(prod)
            assert power_subspace(s, k).dimension == _rank(products), (gens, k)


def _is_primitive_integral(terms: dict) -> bool:
    """Integer coefficients, content 1 and a positive lead coefficient."""
    return (
        all(type(c) is int for c in terms.values())
        and gcd(*terms.values()) == 1
        and terms[min(terms)] > 0
    )


def test_coefficients_stay_exact_through_every_operation():
    f = MultiPolynomial(2, {(0, 0): F(4, 2), (1, 0): F(1, 3), (0, 1): 2.5})
    assert f.terms == {(0, 0): 2, (1, 0): F(1, 3), (0, 1): F(5, 2)}
    g = MultiPolynomial(2, {(1, 0): 3, (0, 2): F(-3, 2)})
    # the rational input type stores Fractions, never a float or an int
    for h in (f, g, f * g, g * g):
        assert all(type(c) is F for c in h.terms.values()), h.terms
    # pivots are primitive integer multiples: x + 3y stays 3y + x, and
    # -y/2 + x/3 becomes 3y - 2x
    s = PolynomialSubspace(2, [constant_one(2), g, MultiPolynomial(2, {(1, 0): 1, (0, 1): 3})])
    assert MultiPolynomial(2, {(0, 1): 3, (1, 0): 1}) in s.basis
    s = PolynomialSubspace(2, [constant_one(2), MultiPolynomial(2, {(0, 1): F(-1, 2), (1, 0): F(1, 3)})])
    assert [b.terms for b in s.basis] == [{(0, 0): 1}, {(0, 1): 3, (1, 0): -2}]
    rng = random.Random(15)
    for _ in range(100):
        dim = rng.randint(1, 3)
        h = rand_poly(rng, dim) * rand_poly(rng, dim)
        assert all(type(c) is F for c in h.terms.values()), h.terms


def _random_subspace(rng: random.Random, dim: int) -> tuple[list, PolynomialSubspace]:
    gens = [constant_one(dim)] + [rand_poly(rng, dim, max_deg=2, max_terms=3) for _ in range(3)]
    return gens, PolynomialSubspace(dim, gens)


def test_pivots_are_primitive_integer_polynomials():
    rng = random.Random(16)
    for _ in range(30):
        dim = rng.randint(1, 3)
        _, s = _random_subspace(rng, dim)
        for k in (1, 2, 3):
            sk = power_subspace(s, k)
            for v, p in sk._pivots.items():
                assert min(p) == v and _is_primitive_integral(p), (k, p)
            assert [b.terms for b in sk.basis] == list(sk._pivots.values())


def test_scaling_generators_leaves_the_subspace_unchanged():
    rng = random.Random(17)
    for _ in range(30):
        dim = rng.randint(1, 3)
        gens, s = _random_subspace(rng, dim)
        scaled = []
        for g in gens:
            c = F(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))
            scaled.append(MultiPolynomial(dim, {e: c * v for e, v in g.terms.items()}))
        t = PolynomialSubspace(dim, scaled)
        assert t.valuation_set() == s.valuation_set()
        assert t.dimension == s.dimension
        assert t.basis == s.basis


def test_body_approximation_examples():
    s = monomial_subspace(2, [(1, 0), (0, 1)])
    b = body_approximation(s, 3)
    # the unit simplex at scale lcm(1, 2, 3) = 6
    assert b.scale == 6
    assert b.hull == [(0, 0), (0, 6), (6, 0)]
    assert b.stable
    # span{1, x^2}: the segment [0, 2] with lattice 2Z, at scale 2
    s2 = monomial_subspace(1, [(2,)])
    b2 = body_approximation(s2, 2)
    assert b2.scale == 2 and b2.hull == [(0,), (4,)]
    assert normalized_volume(b2) == 1


def test_body_stable_equals_the_two_hull_comparison():
    """stable, read off the first level of each hull vertex, equals comparing
    the hulls of the points up to level k_max and up to level k_max - 1."""
    rng = random.Random(24)
    seen = set()
    for trial in range(200):
        dim = rng.randint(1, 3)
        if trial % 2:
            s = _random_subspace(rng, dim)[1]
        else:
            s = monomial_subspace(dim, [tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(rng.randint(1, 4))])
        k_max = rng.randint(1, 5)
        b = body_approximation(s, k_max)
        prev = {
            tuple(x * (b.scale // k) for x in v)
            for k in range(1, k_max)
            for v in power_subspace(s, k).valuation_set()
        }
        assert b.stable == (k_max > 1 and b.hull == hull_vertices(prev)), (s.basis, k_max)
        seen.add(b.stable)
    assert seen == {True, False}


def test_bodies_are_monotone_in_level():
    rng = random.Random(10)
    for _ in range(10):
        exps = {(0, 0)}
        for _ in range(rng.randint(2, 4)):
            exps.add((rng.randint(0, 3), rng.randint(0, 3)))
        s = monomial_subspace(2, exps)
        b2 = body_approximation(s, 2)
        b4 = body_approximation(s, 4)
        ratio = b4.scale // b2.scale
        for p in b2.hull:
            assert in_convex_hull(tuple(ratio * x for x in p), b4.hull)


def test_value_semigroup_closed_under_addition():
    rng = random.Random(11)
    for _ in range(6):
        exps = {(0, 0), (rng.randint(0, 2), rng.randint(0, 2)), (rng.randint(0, 2), rng.randint(0, 2))}
        s = monomial_subspace(2, exps)
        levels = {k: power_subspace(s, k).valuation_set() for k in (1, 2, 3, 4)}
        for k1, k2 in [(1, 1), (1, 2), (2, 2), (1, 3)]:
            for v1 in levels[k1]:
                for v2 in levels[k2]:
                    combined = tuple(a + b for a, b in zip(v1, v2))
                    assert combined in levels[k1 + k2], (v1, v2, k1, k2)


def test_normalized_volume_degenerate():
    s = PolynomialSubspace(2, [constant_one(2), monomial(2, (1, 0))])
    with pytest.raises(DegenerateBodyError):
        normalized_volume(body_approximation(s, 2))


def test_degree_estimate_examples():
    de = degree_estimate(degree_bounded_monomials(2, 1), 4)
    assert de.degree == 1 and de.stable
    assert all(r[2] == 0 for r in de.residuals)
    de = degree_estimate(degree_bounded_monomials(2, 2), 5)
    assert de.degree == 4
    de = degree_estimate(degree_bounded_monomials(3, 2), 5)
    assert de.degree == 8
    with pytest.raises(ValueError):
        degree_estimate(degree_bounded_monomials(2, 1), 2)


def test_degree_is_factorial_times_volume_for_monomials():
    for d in (1, 2, 3):
        for e in (1, 2):
            s = degree_bounded_monomials(d, e)
            vol = normalized_volume(body_approximation(s, 1))
            de = degree_estimate(s, d + 1)
            assert de.degree == factorial(d) * vol == e**d


def test_degree_estimate_flags_unstable_growth():
    # {1, x, x^5}: gaps fill in slowly, so early windows disagree
    s = monomial_subspace(1, [(1,), (5,)])
    de = degree_estimate(s, 3)
    assert not de.stable


def fit_degree_oracle(dims: list[int], d: int):
    """The separate-pass fit: each window's d-th difference on its own, and a
    Newton forward fit through the trailing d+1 samples rebuilt for every k."""
    k_max = len(dims)

    def finite_difference(samples):
        vals = [F(x) for x in samples]
        for _ in range(d):
            vals = [b - a for a, b in zip(vals, vals[1:])]
        return vals[0]

    degree = finite_difference(dims[k_max - d - 1 : k_max])
    stable = True
    if k_max >= d + 2:
        stable = finite_difference(dims[k_max - d - 2 : k_max - 1]) == degree
    ks = list(range(k_max - d, k_max + 1))
    ys = [F(dims[k - 1]) for k in ks]

    def fitted(k):
        total = F(0)
        diffs = ys[:]
        for j in range(d + 1):
            basis = F(1)
            for i in range(j):
                basis *= F(k - ks[i], i + 1)
            total += diffs[0] * basis
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        return total

    residuals = [(k, dims[k - 1], F(dims[k - 1]) - fitted(k)) for k in range(1, k_max + 1)]
    return degree, stable, residuals


def test_fit_degree_matches_the_separate_pass_oracle():
    rng = random.Random(17)
    seen = set()
    for _ in range(300):
        d = rng.randint(1, 4)
        k_max = rng.randint(d + 1, d + 8)
        if rng.random() < 0.5:  # polynomial growth, where the windows agree
            coeffs = [rng.randint(0, 5) for _ in range(d + 1)]
            dims = [sum(c * k**i for i, c in enumerate(coeffs)) for k in range(1, k_max + 1)]
        else:
            dims = sorted(rng.randint(1, 400) for _ in range(k_max))
        got = bodies._fit_degree(dims, d)
        degree, stable, residuals = fit_degree_oracle(dims, d)
        assert (got.degree, got.stable, got.residuals) == (degree, stable, residuals), (dims, d)
        assert type(got.degree) is F and all(type(r[2]) is F for r in got.residuals)
        seen.add(got.stable)
    assert seen == {True, False}


def test_body_dims_are_power_dimensions():
    s = monomial_subspace(2, [(1, 0), (0, 2)])
    dims = [power_subspace(s, k).dimension for k in range(1, 5)]
    assert body_approximation(s, 4).dims == dims == degree_estimate(s, 4).dims


def test_brunn_minkowski_reports_degree_stability_of_all_three():
    slow = monomial_subspace(1, [(1,), (5,)])
    line = monomial_subspace(1, [(1,)])
    for s1, s2, k_max in ((slow, line, 3), (line, line, 3), (slow, slow, 4), (slow, line, 2)):
        r = brunn_minkowski_check(s1, s2, k_max)
        expected = tuple(
            k_max >= 3 and degree_estimate(s, k_max).stable
            for s in (s1, s2, subspace_product(s1, s2))
        )
        assert r.degrees_stable == expected
    assert brunn_minkowski_check(slow, line, 3).degrees_stable == (False, True, True)


def _over_scale(points, scale):
    return [tuple(F(x, scale) for x in p) for p in points]


# k_max 2..5 gives the scales 2, 6, 12 and 60; k_max 6 (scale 60 again)
# only on the line, because the LP filter is cubic in the point count
@pytest.mark.parametrize(
    "dim,k_max", [(d, k) for d in (1, 2, 3) for k in range(2, 7) if k < 6 or d == 1]
)
def test_integer_hull_over_scale_matches_lp_oracle(dim, k_max):
    from test_geometry import lp_hull_vertices

    rng = random.Random(10 * dim + k_max)
    box = 3 if dim == 1 else 1
    s = monomial_subspace(dim, [tuple(rng.randint(0, box) for _ in range(dim)) for _ in range(3)])
    b = body_approximation(s, k_max)
    assert b.scale == lcm(*range(1, k_max + 1))
    # the points v/k, rebuilt from each power on its own
    rational = sorted({
        tuple(F(x, k) for x in v)
        for k in range(1, k_max + 1)
        for v in power_subspace(s, k).valuation_set()
    })
    assert _over_scale(b.points, b.scale) == rational
    assert _over_scale(b.hull, b.scale) == lp_hull_vertices(rational)


@pytest.mark.parametrize(
    "product",
    # a product body at the same k_max that real sums leave, and how many
    # sums stay in it: every body holds the origin, so the sum of the two
    # origins never escapes; s1's own body also holds its vertices plus
    # s2's origin
    [lambda s1: (monomial_subspace(2, []), 1), lambda s1: (s1, 3)],
)
def test_minkowski_inclusion_failure_returns_first_escaping_sum(product, monkeypatch):
    s1 = monomial_subspace(2, [(1, 0), (0, 2)])
    s2 = monomial_subspace(2, [(1, 1), (2, 0)])
    smaller, inside = product(s1)
    b1, b2, b12 = (body_approximation(s, 3) for s in (s1, s2, smaller))
    sums = minkowski_sum(b1.hull, b2.hull)
    escaping = [p for p in sums if not in_convex_hull(p, b12.hull)]
    assert len(sums) - len(escaping) == inside
    monkeypatch.setattr(bodies, "_pair_bodies", lambda *args: (b1, b2, b12))
    ok, bad = minkowski_inclusion_check(s1, s2, 3)
    assert not ok and bad == tuple(F(x, b12.scale) for x in escaping[0])
    assert all(type(x) is F for x in bad)


def test_minkowski_inclusion_examples():
    s = monomial_subspace(2, [(1, 0), (0, 1)])
    assert minkowski_inclusion_check(s, s, 3) == (True, None)
    sa = monomial_subspace(1, [(1,)])
    sb = monomial_subspace(1, [(1,), (2,)])
    assert minkowski_inclusion_check(sa, sb, 2) == (True, None)
    with pytest.raises(ValueError, match="dimension mismatch"):
        minkowski_inclusion_check(sa, s, 2)


def test_brunn_minkowski_equality_for_equal_factors():
    s = monomial_subspace(2, [(1, 0), (0, 1)])
    r = brunn_minkowski_check(s, s, 3)
    assert r.passed and r.comparison_sign == 0
    with pytest.raises(ValueError, match="dimension mismatch"):
        brunn_minkowski_check(s, monomial_subspace(1, [(1,)]), 3)


def test_brunn_minkowski_simplex_and_square():
    s = monomial_subspace(2, [(1, 0), (0, 1)])
    sq = monomial_subspace(2, [(1, 0), (0, 1), (1, 1)])
    r = brunn_minkowski_check(s, sq, 3)
    assert r.passed
    assert r.volumes == (F(1, 2), F(1), F(7, 2))


def test_brunn_minkowski_on_random_monomial_subspaces():
    rng = random.Random(12)
    for _ in range(15):
        exps1 = {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(4)}
        exps2 = {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(4)}
        s1 = monomial_subspace(2, exps1)
        s2 = monomial_subspace(2, exps2)
        try:
            r = brunn_minkowski_check(s1, s2, 3)
        except DegenerateBodyError:
            continue
        assert r.passed, (exps1, exps2, r.volumes)


def test_product_dimension_growth():
    # deg Y_{S^2} = 2^d deg Y_S on monomial subspaces, via volumes
    for d in (1, 2):
        s = degree_bounded_monomials(d, 1)
        s2 = subspace_product(s, s)
        v1 = normalized_volume(body_approximation(s, 1))
        v2 = normalized_volume(body_approximation(s2, 1))
        assert v2 == 2**d * v1


def _eliminated_product(s1, s2) -> PolynomialSubspace:
    """The product by the elimination route, as the oracle."""
    s = object.__new__(PolynomialSubspace)
    s.dim = s1.dim
    s._pivots = bodies._echelon(
        bodies._product(f, g) for f in s1._pivots.values() for g in s2._pivots.values()
    )
    return s


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_monomial_products_match_the_elimination_route(dim):
    rng = random.Random(20 + dim)
    box = {1: 6, 2: 3, 3: 2}[dim]
    for _ in range(8):
        s, t = (
            monomial_subspace(
                dim, [tuple(rng.randint(0, box) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
            )
            for _ in range(2)
        )
        assert subspace_product(s, t).basis == _eliminated_product(s, t).basis
        # each level of the oracle tower multiplies the oracle's own previous level
        tower, oracle = bodies._power_tower(s, 5), s
        for k, sk in enumerate(tower[1:], start=2):
            oracle = _eliminated_product(oracle, s)
            assert sk.basis == oracle.basis, (k, sorted(s._pivots))
            assert all(p == {v: 1} for v, p in sk._pivots.items())


def test_a_two_term_pivot_takes_the_elimination_route(monkeypatch):
    gens = [{(0, 0): 1}, {(1, 0): 1, (0, 1): 2}, {(0, 2): 1}]
    mixed = PolynomialSubspace(2, [MultiPolynomial(2, g) for g in gens])
    square = monomial_subspace(2, [(1, 0), (0, 1), (1, 1)])
    eliminations = []
    real = bodies._echelon
    monkeypatch.setattr(bodies, "_echelon", lambda rows: eliminations.append(1) or real(rows))
    for s1, s2 in ((mixed, square), (square, mixed)):
        product = subspace_product(s1, s2)
        assert product.basis == _eliminated_product(s1, s2).basis
        products = [_dict_product(f, g) for f in gens for g in square._pivots.values()]
        assert product.dimension == _rank(products)
    assert len(eliminations) == 4  # two products, two oracle runs
    subspace_product(square, square)
    assert len(eliminations) == 4


def test_pair_bodies_are_built_once_and_never_stale(monkeypatch):
    calls = []
    real = bodies.body_approximation
    monkeypatch.setattr(
        bodies, "body_approximation", lambda s, k: calls.append((s, k)) or real(s, k)
    )
    bodies._pair_bodies.cache_clear()
    s1 = monomial_subspace(2, [(1, 0), (0, 2)])
    s2 = monomial_subspace(2, [(1, 1), (2, 0)])
    assert minkowski_inclusion_check(s1, s2, 3) == (True, None)
    r = brunn_minkowski_check(s1, s2, 3)
    assert r.passed and len(calls) == 3

    def cold(a, b, k):
        return tuple(real(s, k) for s in (a, b, subspace_product(a, b)))

    # another k_max, swapped operands, an equal but new subspace, and the
    # first pair again once the memo has moved on: each a fresh build
    twin = monomial_subspace(2, [(1, 0), (0, 2)])
    for a, b, k in ((s1, s2, 4), (s2, s1, 4), (twin, s2, 4), (s1, s2, 3)):
        del calls[:]
        got = bodies._pair_bodies(a, b, k)
        assert len(calls) == 3 and calls[:2] == [(a, k), (b, k)]
        assert got == cold(a, b, k)


_LINE = MultiPolynomial(1, {(1,): 1})
_SPAN = PolynomialSubspace(1, [constant_one(1), _LINE])


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: MultiPolynomial(2, {(1,): 1}), r"exponent \(1,\) does not have 2 entries"),
        (lambda: MultiPolynomial(1, {(-1,): 1}), r"negative exponent in \(-1,\)"),
        (lambda: _LINE * MultiPolynomial(2, {(0, 1): 1}), r"^dimension mismatch$"),
        (lambda: PolynomialSubspace(2, [_LINE]), r"dimension mismatch in basis"),
        (lambda: power_subspace(_SPAN, 0), r"k must be >= 1"),
        (lambda: body_approximation(_SPAN, 0), r"k_max must be >= 1"),
    ],
)
def test_bodies_reject_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
