"""Exact rational convex geometry and integer lattice utilities.

Everything here runs over Fraction coordinates: hull vertex extraction by
exact LP feasibility, facet enumeration over vertex subsets, pyramid
volume decomposition, Hermite reduction of integer lattices, and exact
comparison of d-th root sums.  Supports ambient dimension d <= 3, which
covers every consumer in this package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from .symfunc import det_fraction

Point = tuple[Fraction, ...]


class DegenerateBodyError(ValueError):
    """A polytope is lower-dimensional than its ambient space requires."""


def _frac_point(p) -> Point:
    return tuple(Fraction(x) for x in p)


def in_convex_hull(point, points) -> bool:
    """Exact membership of a point in the convex hull of a finite set.

    Phase-1 simplex with Bland's rule over Fractions: feasibility of
    sum t_i q_i = p, sum t_i = 1, t >= 0.
    """
    p = _frac_point(point)
    pts = [_frac_point(q) for q in points]
    if not pts:
        return False
    d = len(p)
    rows = d + 1
    ncols = len(pts)
    # constraint matrix [q_i; 1], rhs [p; 1]
    a = [[pts[j][i] for j in range(ncols)] for i in range(d)]
    a.append([Fraction(1)] * ncols)
    b = [*p, Fraction(1)]
    # make rhs nonnegative
    for i in range(rows):
        if b[i] < 0:
            b[i] = -b[i]
            a[i] = [-x for x in a[i]]
    # tableau with artificial variables; minimize their sum
    width = ncols + rows
    tab = [a[i] + [Fraction(1) if j == i else Fraction(0) for j in range(rows)] + [b[i]] for i in range(rows)]
    basis = list(range(ncols, ncols + rows))
    cost = [Fraction(0)] * (width + 1)
    for i in range(rows):
        for j in range(width + 1):
            col = tab[i][j]
            if j < ncols or j == width:
                cost[j] -= col
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(rows):
            if tab[i][enter] > 0:
                ratio = tab[i][width] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return False  # unbounded phase-1 cannot happen, defensive
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(rows):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    return -cost[width] == 0


def affine_rank(points) -> int:
    """Dimension of the affine span of a finite point set (-1 if empty)."""
    pts = [_frac_point(p) for p in points]
    if not pts:
        return -1
    base = pts[0]
    vecs = [tuple(x - y for x, y in zip(p, base)) for p in pts[1:]]
    return _matrix_rank(vecs)


def _matrix_rank(vecs) -> int:
    rows = [list(v) for v in vecs if any(v)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / Fraction(rows[rank][col])
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def hull_vertices(points) -> list[Point]:
    """Vertex set of the convex hull, sorted, exact.

    Dimensions 1 and 2 use direct extreme-point extraction (monotone
    chain); higher dimensions filter through exact LP membership tests.
    """
    pts = sorted(set(_frac_point(p) for p in points))
    if len(pts) <= 1:
        return pts
    d = len(pts[0])
    if d == 1:
        return [pts[0], pts[-1]] if pts[0] != pts[-1] else [pts[0]]
    if d == 2:
        ring = _order_polygon([(p[0], p[1]) for p in pts])
        return sorted(ring)
    # seed with coordinate extremes for fast early rejection
    seed: set[Point] = set()
    for i in range(d):
        seed.add(min(pts, key=lambda p: (p[i], p)))
        seed.add(max(pts, key=lambda p: (p[i], p)))
    cand: list[Point] = sorted(seed)
    for p in pts:
        if p not in seed and not in_convex_hull(p, cand):
            cand.append(p)
    return sorted(
        v for v in cand if not in_convex_hull(v, [u for u in cand if u != v])
    )


def _primitive(ints: list[int]) -> tuple[int, ...]:
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints) if g else tuple(ints)


def facet_hyperplanes(vertices: list[Point]):
    """Supporting hyperplanes of the facets, as (normal, offset) pairs.

    The normal is an outward primitive integer vector with normal . x <=
    offset on the polytope.  Assumes the vertex set is full-dimensional.
    """
    d = len(vertices[0])
    if d == 1:
        xs = [v[0] for v in vertices]
        return [((1,), max(xs)), ((-1,), -min(xs))]
    planes = {}
    for subset in combinations(vertices, d):
        normal = _normal_vector(subset, d)
        if normal is None:
            continue
        offset = sum(n * x for n, x in zip(normal, subset[0]))
        sides = [sum(n * x for n, x in zip(normal, v)) - offset for v in vertices]
        if all(s <= 0 for s in sides):
            planes[(normal, offset)] = True
        elif all(s >= 0 for s in sides):
            normal = tuple(-x for x in normal)
            planes[(normal, -offset)] = True
    return sorted(planes)


def _normal_vector(subset, d):
    """Primitive integer normal of the hyperplane through d points, or None."""
    base = subset[0]
    vecs = [[p[i] - base[i] for i in range(d)] for p in subset[1:]]
    # cofactor expansion: normal_i = (-1)^i det(minor_i) of the (d-1) x d matrix
    normal = []
    for i in range(d):
        minor = [[row[j] for j in range(d) if j != i] for row in vecs]
        normal.append((-1) ** i * det_fraction(minor))
    if not any(normal):
        return None
    # clear denominators, reduce to primitive integers
    denoms = [x.denominator for x in map(Fraction, normal)]
    lcm = 1
    for q in denoms:
        lcm = lcm * q // gcd(lcm, q)
    ints = [int(Fraction(x) * lcm) for x in normal]
    return _primitive(ints)


def _order_polygon(points_2d: list[tuple[Fraction, Fraction]]):
    """Hull vertices of a 2d point set in boundary order (monotone chain).

    Collinear boundary points are dropped, so the result is the strict
    vertex cycle.
    """
    pts = sorted(set(points_2d))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def hull_volume(vertices: list[Point]) -> Fraction:
    """Euclidean volume of a full-dimensional polytope given by its vertices.

    d = 1: length; d = 2: shoelace over the ordered boundary; d = 3:
    pyramids from the vertex centroid over triangulated facets.  Raises
    DegenerateBodyError when the vertices do not span dimension d.
    """
    if not vertices:
        raise DegenerateBodyError("empty vertex set")
    d = len(vertices[0])
    if affine_rank(vertices) < d:
        raise DegenerateBodyError(f"vertices span less than dimension {d}")
    if d == 1:
        xs = [v[0] for v in vertices]
        return max(xs) - min(xs)
    if d == 2:
        ring = _order_polygon([(v[0], v[1]) for v in vertices])
        area = Fraction(0)
        for i in range(len(ring)):
            x1, y1 = ring[i]
            x2, y2 = ring[(i + 1) % len(ring)]
            area += x1 * y2 - x2 * y1
        return abs(area) / 2
    if d == 3:
        o = tuple(sum(v[i] for v in vertices) / len(vertices) for i in range(3))
        total = Fraction(0)
        for normal, offset in facet_hyperplanes(vertices):
            face = [
                v
                for v in vertices
                if sum(n * x for n, x in zip(normal, v)) == offset
            ]
            drop = max(range(3), key=lambda i: abs(normal[i]))
            keep = [i for i in range(3) if i != drop]
            ring2d = _order_polygon([(v[keep[0]], v[keep[1]]) for v in face])
            lift = {(v[keep[0]], v[keep[1]]): v for v in face}
            ring = [lift[p] for p in ring2d]
            for i in range(1, len(ring) - 1):
                mat = [
                    [ring[i][c] - ring[0][c] for c in range(3)],
                    [ring[i + 1][c] - ring[0][c] for c in range(3)],
                    [o[c] - ring[0][c] for c in range(3)],
                ]
                total += abs(det_fraction(mat))
        return total / 6
    raise NotImplementedError("volumes implemented for ambient dimension <= 3")


def minkowski_sum(a: list[Point], b: list[Point]) -> list[Point]:
    """Pointwise sums, deduplicated and sorted."""
    return sorted({tuple(x + y for x, y in zip(p, q)) for p in a for q in b})


# ---------------------------------------------------------------------------
# integer lattices
# ---------------------------------------------------------------------------


def hermite_basis(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Row-echelon integer basis of the lattice spanned by the rows.

    Column-by-column Euclidean elimination; pivots positive, zero rows
    dropped.  The row span over the integers is preserved exactly.
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        while True:
            live = [i for i in range(r, len(mat)) if mat[i][c] != 0]
            if not live:
                break
            piv = min(live, key=lambda i: abs(mat[i][c]))
            mat[r], mat[piv] = mat[piv], mat[r]
            done = True
            for i in range(r + 1, len(mat)):
                if mat[i][c] != 0:
                    f = mat[i][c] // mat[r][c]
                    mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
                    if mat[i][c] != 0:
                        done = False
            if done:
                break
        if r < len(mat) and mat[r][c] != 0:
            if mat[r][c] < 0:
                mat[r] = [-x for x in mat[r]]
            r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r] if any(row)]


def lattice_covolume(rows: list[tuple[int, ...]], rank: int) -> int:
    """Covolume of a lattice of the given rank inside Z^rank.

    The generators must span a full-rank sublattice; its covolume is the
    product of the Hermite pivots.
    """
    basis = hermite_basis(rows)
    if len(basis) != rank:
        raise DegenerateBodyError(
            f"lattice rank {len(basis)} < {rank}; generators do not span"
        )
    cov = 1
    used = set()
    for row in basis:
        piv = next(i for i, x in enumerate(row) if x != 0)
        if piv in used:
            raise DegenerateBodyError("lattice basis not triangular")
        used.add(piv)
        cov *= abs(row[piv])
    return cov


# ---------------------------------------------------------------------------
# exact d-th root comparisons
# ---------------------------------------------------------------------------


def compare_root_sum(a: Fraction, b: Fraction, c: Fraction, d: int) -> int:
    """Sign of a**(1/d) - (b**(1/d) + c**(1/d)) for nonnegative rationals.

    Pure rational arithmetic.  d = 2 squares out the cross term.  For
    d = 3 write u = a^(1/3), v = -b^(1/3), w = -c^(1/3) and m = a - b - c;
    then u^3 + v^3 + w^3 - 3uvw = (u + v + w) * Q with Q > 0 when b, c > 0,
    so the sign of u + v + w is that of m - 3(abc)^(1/3), which is the
    sign of m^3 - 27abc.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if min(a, b, c) < 0:
        raise ValueError("root comparison needs nonnegative inputs")
    if b == 0 and c == 0:
        return (a > 0) - (a < 0)
    if b == 0 or c == 0:
        other = b + c
        return (a > other) - (a < other)
    if d == 1:
        t = a - b - c
        return (t > 0) - (t < 0)
    if d == 2:
        m = a - b - c
        if m < 0:
            return -1
        t = m * m - 4 * b * c
        return (t > 0) - (t < 0)
    if d == 3:
        m = a - b - c
        n = m**3 - 27 * a * b * c
        return (n > 0) - (n < 0)
    raise NotImplementedError("root comparison implemented for d <= 3")
