"""Flag valuations on polynomial subspaces and their convex bodies.

The function field is modeled by polynomials in d variables over the
rationals.  The valuation attached to the coordinate flag at the origin is
the lexicographically minimal exponent; it is additive on products and
realizes dim S = |v(S \\ 0)| once a basis is triangularized against the
lex order (fraction-free, on primitive integer polynomials).  Powers,
value semigroups, inner hull approximations, lattice-normalized volumes,
degree estimates and the Brunn-Minkowski comparison all build on that.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add

from ._records import Record
from .geometry import (
    DegenerateBodyError,
    Point,
    compare_root_sum,
    hermite_basis,
    hull_vertices,
    hull_volume,
    in_convex_hull,
    lattice_covolume,
    minkowski_sum,
)

Exponent = tuple[int, ...]


class MultiPolynomial(Record, frozen=True):
    """A polynomial in d variables: exponent vector -> nonzero rational coefficient.

    The rational input type of `PolynomialSubspace`: the constructor checks
    every term and stores each coefficient as a Fraction.
    """

    __slots__ = ("dim", "terms")
    dim: int
    terms: dict[Exponent, Fraction]

    def __init__(self, dim: int, terms: dict | None = None):
        clean = {}
        for e, c in (terms or {}).items():
            if len(e) != dim:
                raise ValueError(f"exponent {e} does not have {dim} entries")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            c = Fraction(c)
            if c:
                clean[tuple(int(x) for x in e)] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "MultiPolynomial") -> "MultiPolynomial":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return MultiPolynomial(self.dim, _product(self.terms, other.terms))


def _product(f: dict, g: dict) -> dict:
    """The product of two term dicts, without the cancelled terms."""
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def constant_one(dim: int) -> MultiPolynomial:
    return MultiPolynomial(dim, {(0,) * dim: Fraction(1)})


def monomial(dim: int, exponent: Exponent) -> MultiPolynomial:
    return MultiPolynomial(dim, {tuple(exponent): Fraction(1)})


def flag_valuation(f: MultiPolynomial) -> Exponent:
    """Valuation of f for the coordinate flag at the origin.

    Orders of vanishing along x1 = 0, then x2 = 0 within that stratum, and
    so on, which is exactly the lex-minimal exponent of f.  Additive on
    products; zero polynomial is not in the domain.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no valuation")
    return min(f.terms)


class PolynomialSubspace:
    """A finite-dimensional rational subspace of polynomials containing 1.

    The basis is reduced at construction so that every element has a
    distinct lex-minimal exponent (its valuation); the pivot exponents are
    then the full valuation set of the subspace.  Pivots are primitive
    integer polynomials: int coefficients, content 1, positive lead.
    """

    def __init__(self, dim: int, polys):
        polys = list(polys)
        if any(f.dim != dim for f in polys):
            raise ValueError("dimension mismatch in basis")
        self.dim = dim
        self._pivots = _echelon(map(_integral, polys))
        if not self.contains(constant_one(dim)):
            raise ValueError("the subspace must contain the constant 1")

    @property
    def basis(self) -> list[MultiPolynomial]:
        """The primitive integer pivots, in the lex order of their valuations."""
        return [MultiPolynomial(self.dim, p) for p in self._pivots.values()]

    @property
    def dimension(self) -> int:
        return len(self._pivots)

    def contains(self, f: MultiPolynomial) -> bool:
        return not _reduce_against(_integral(f), self._pivots)

    def valuation_set(self) -> set[Exponent]:
        """The set v(S \\ 0); its size equals dim S exactly."""
        return set(self._pivots)


def _integral(f: MultiPolynomial) -> dict:
    """The terms of f times the lcm of their denominators."""
    den = lcm(*(c.denominator for c in f.terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in f.terms.items()}


def _echelon(rows) -> dict:
    """Primitive pivots of the span of integer term dicts, sorted by valuation."""
    pivots: dict[Exponent, dict] = {}
    for f in rows:
        f = _reduce_against(f, pivots)
        if f:
            v = min(f)
            pivots[v] = f if f[v] > 0 else {e: -c for e, c in f.items()}
    return dict(sorted(pivots.items()))


def _reduce_against(terms: dict, pivots: dict) -> dict:
    """An integer multiple of terms with content 1 and no pivot at its lead, or {}.

    Against the pivot p at the lead v of f, f <- a*f - b*p with a/b = p_v/f_v
    in lowest terms cancels v exactly and adds only lex-larger exponents, so
    the loop terminates; dividing out the content first keeps f small.
    """
    f = dict(terms)
    while f:
        g = gcd(*f.values())
        if g > 1:
            f = {e: c // g for e, c in f.items()}
        v = min(f)
        p = pivots.get(v)
        if p is None:
            break
        g = gcd(p[v], f[v])
        a, b = p[v] // g, f[v] // g
        if a != 1:
            f = {e: a * c for e, c in f.items()}
        for e, c in p.items():
            f[e] = f.get(e, 0) - b * c
            if not f[e]:
                del f[e]
    return f


def subspace_product(s1: PolynomialSubspace, s2: PolynomialSubspace) -> PolynomialSubspace:
    """The subspace spanned by all pairwise products of basis elements.

    The products of the pivots span 1 = 1 * 1 and, by Gauss's lemma, are
    primitive with positive leads, so they go to the elimination unchecked.
    When every pivot of both factors is a monomial, so is every product,
    and the distinct exponent sums are already the pivots.
    """
    if s1.dim != s2.dim:
        raise ValueError("dimension mismatch")
    s = object.__new__(PolynomialSubspace)
    s.dim = s1.dim
    if all(len(p) == 1 for p in (*s1._pivots.values(), *s2._pivots.values())):
        sums = {tuple(map(add, e1, e2)) for e1 in s1._pivots for e2 in s2._pivots}
        s._pivots = {e: {e: 1} for e in sorted(sums)}
    else:
        s._pivots = _echelon(_product(f, g) for f in s1._pivots.values() for g in s2._pivots.values())
    return s


def power_subspace(s: PolynomialSubspace, k: int) -> PolynomialSubspace:
    """The k-th power subspace, spanned by k-fold products of elements of s."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _power_tower(s, k)[-1]


def _power_tower(s: PolynomialSubspace, k_max: int) -> list[PolynomialSubspace]:
    tower = [s]
    for _ in range(1, k_max):
        tower.append(subspace_product(tower[-1], s))
    return tower


class BodyApprox(Record):
    """Inner approximation of the valuation body at a finite level.

    scale is lcm(1..level), and points are the integer points
    v(f) * (scale/k) for k <= level, so points/scale are the valuations
    v(f)/k; hull is the vertex list of their convex hull, in the same
    integer coordinates; lattice is a Hermite basis of the group generated
    by the semigroup points (k, v); stable records whether the hull already
    agreed at the previous level; dims[k-1] is dim s^k for k = 1..level.
    """

    __slots__ = ("level", "scale", "points", "hull", "lattice", "stable", "dims")
    level: int
    scale: int
    points: list[Point]
    hull: list[Point]
    lattice: list[tuple[int, ...]]
    stable: bool
    dims: list[int]


def body_approximation(s: PolynomialSubspace, k_max: int) -> BodyApprox:
    """Union of valuation sets of s^k scaled by 1/k, with exact hull and lattice."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    tower = _power_tower(s, k_max)
    scale = lcm(*range(1, k_max + 1))
    first: dict[Point, int] = {}  # each point and the first level it appears at
    generators: list[tuple[int, ...]] = []
    for k, sk in enumerate(tower, start=1):
        for v in sorted(sk.valuation_set()):
            first.setdefault(tuple(x * (scale // k) for x in v), k)
            generators.append((k, *v))
    hull = hull_vertices(first)
    return BodyApprox(
        level=k_max,
        scale=scale,
        points=sorted(first),
        hull=hull,
        lattice=hermite_basis(generators),
        # the hull agrees with the previous level's exactly when every vertex
        # is a previous point: a vertex of conv(P) in conv(Q), Q in P, is in Q
        stable=k_max > 1 and all(first[v] < k_max for v in hull),
        dims=[sk.dimension for sk in tower],
    )


def level_one_lattice(b: BodyApprox) -> list[tuple[int, ...]]:
    """Generators of the degree-zero slice of the lattice, inside Z^d.

    Rows of the Hermite basis with vanishing first coordinate span the
    intersection with (0, Z^d); translating the level-one coset there is
    the volume normalization.
    """
    return [row[1:] for row in b.lattice if row[0] == 0]


def normalized_volume(b: BodyApprox) -> Fraction:
    """Exact hull volume measured against the lattice slice.

    The hull's integer volume is divided by scale^d and by the covolume.
    Raises DegenerateBodyError when the hull is lower-dimensional or the
    lattice slice does not have full rank (the subspace does not yet
    generate in the sampled range).
    """
    if not b.hull:
        raise DegenerateBodyError("empty body")
    d = len(b.hull[0])
    return hull_volume(b.hull) / (b.scale**d * lattice_covolume(level_one_lattice(b), d))


class DegreeEstimate(Record):
    __slots__ = ("degree", "residuals", "stable", "dims")
    degree: Fraction
    residuals: list[tuple[int, int, Fraction]]
    stable: bool
    dims: list[int]


def degree_estimate(s: PolynomialSubspace, k_max: int) -> DegreeEstimate:
    """Growth degree of dim s^k, from finite differences of the last window.

    For polynomial growth dim s^k ~ deg * k^d / d!, the d-th finite
    difference over the trailing d+1 samples equals deg exactly.  The
    residuals report actual minus fitted dimension at every sampled k;
    stable is False when the last two windows disagree (non-polynomial
    range, reported rather than fatal).
    """
    d = s.dim
    if k_max < d + 1:
        raise ValueError(f"need k_max >= d+1 = {d + 1}")
    return _fit_degree([sk.dimension for sk in _power_tower(s, k_max)], d)


def _fit_degree(dims: list[int], d: int) -> DegreeEstimate:
    """The degree estimate from dims[k-1] = dim s^k, k = 1..len(dims) >= d+1.

    One difference table over the trailing d+2 samples (d+1 if there are
    no more) gives everything: row d ends in the degree and starts with
    the previous window's degree, and the last entries of rows 0..d are
    the backward differences at k_max, with which Newton's backward
    formula fits the trailing d+1 samples at every k.
    """
    k_max = len(dims)
    rows = [dims[max(0, k_max - d - 2) :]]
    for _ in range(d):
        rows.append([b - a for a, b in zip(rows[-1], rows[-1][1:])])
    tails = [row[-1] for row in rows]

    def fitted(k: int) -> Fraction:
        total, basis = Fraction(0), Fraction(1)
        for j, tail in enumerate(tails):
            total += tail * basis
            basis *= Fraction(k - k_max + j, j + 1)
        return total

    residuals = [(k, y, y - fitted(k)) for k, y in enumerate(dims, 1)]
    return DegreeEstimate(
        degree=Fraction(tails[d]), residuals=residuals, stable=rows[d][0] == tails[d], dims=dims
    )


@lru_cache(maxsize=1)
def _pair_bodies(
    s1: PolynomialSubspace, s2: PolynomialSubspace, k_max: int
) -> tuple[BodyApprox, BodyApprox, BodyApprox]:
    """The level-k_max bodies of s1, s2 and their product, at one scale.

    Memoised for the last pair, so that the two checks on one pair build
    the bodies once.  Subspaces compare by identity, and the memo holds
    them, so a new subspace object never meets a stale entry.
    """
    b1 = body_approximation(s1, k_max)
    b2 = body_approximation(s2, k_max)
    b12 = body_approximation(subspace_product(s1, s2), k_max)
    return b1, b2, b12


def minkowski_inclusion_check(
    s1: PolynomialSubspace, s2: PolynomialSubspace, k_max: int
) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Vertex sums of the two level-k_max hulls against the product's hull.

    Exact tests on the integer hulls, which share one scale.  A sum outside
    the product's hull would be a vertex of the hull of both, so one hull
    of all the sums decides; only on failure are the sums tested one by
    one.  Returns the first escaping sum point, divided by the scale, on
    failure (possible for unconverged approximations of general
    subspaces; for monomial subspaces the hulls are Newton polytopes and
    the inclusion is exact at every level).
    """
    b1, b2, b12 = _pair_bodies(s1, s2, k_max)
    sums = minkowski_sum(b1.hull, b2.hull)
    if hull_vertices(b12.hull + sums) != b12.hull:
        for p in sums:
            if not in_convex_hull(p, b12.hull):
                return False, tuple(Fraction(x, b12.scale) for x in p)
    return True, None


class BrunnMinkowskiResult(Record):
    __slots__ = ("passed", "comparison_sign", "volumes", "degrees_stable")
    passed: bool
    comparison_sign: int
    volumes: tuple[Fraction, Fraction, Fraction]
    degrees_stable: tuple[bool, bool, bool]


def brunn_minkowski_check(
    s1: PolynomialSubspace, s2: PolynomialSubspace, k_max: int
) -> BrunnMinkowskiResult:
    """d-th root superadditivity of volumes under the subspace product.

    All three bodies are normalized against the lattice of the product
    subspace (the finest of the three), and the d-th root comparison is
    exact rational arithmetic.  Stability flags of the three degree
    estimates are reported alongside.
    """
    d = s1.dim
    b1, b2, b12 = _pair_bodies(s1, s2, k_max)
    covol = b12.scale**d * lattice_covolume(level_one_lattice(b12), d)
    v1 = hull_volume(b1.hull) / covol
    v2 = hull_volume(b2.hull) / covol
    v12 = hull_volume(b12.hull) / covol
    sign = compare_root_sum(v12, v1, v2, d)
    stable = tuple(
        _fit_degree(b.dims, d).stable if k_max >= d + 2 else False
        for b in (b1, b2, b12)
    )
    return BrunnMinkowskiResult(
        passed=sign >= 0,
        comparison_sign=sign,
        volumes=(v1, v2, v12),
        degrees_stable=stable,  # type: ignore[arg-type]
    )


def monomial_subspace(dim: int, exponents) -> PolynomialSubspace:
    """Subspace spanned by the given monomials (the origin is added if missing)."""
    exps = {tuple(int(x) for x in e) for e in exponents}
    exps.add((0,) * dim)
    return PolynomialSubspace(dim, (monomial(dim, e) for e in sorted(exps)))


def degree_bounded_monomials(dim: int, degree: int) -> PolynomialSubspace:
    """All monomials of total degree at most `degree` in dim variables."""
    def gen(rem, slots):
        if slots == 0:
            yield ()
            return
        for first in range(rem + 1):
            for rest in gen(rem - first, slots - 1):
                yield (first,) + rest

    return monomial_subspace(dim, gen(degree, dim))

