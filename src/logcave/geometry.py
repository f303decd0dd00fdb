"""Exact rational convex geometry and integer lattice utilities.

Hulls scale their points by the lcm of the denominators and run on
integers: a monotone chain in the plane and gift wrapping over facets in
space.  Membership in a hull is itself a hull computation, so no linear
program is solved.  Volumes (facet enumeration over vertex subsets and
pyramid decomposition), Hermite reduction of integer lattices and exact
comparison of d-th root sums run over Fractions and integers.  Supports
ambient dimension d <= 3, which covers every consumer in this package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .symfunc import det_fraction

Point = tuple[Fraction, ...]


class DegenerateBodyError(ValueError):
    """A polytope is lower-dimensional than its ambient space requires."""


def _frac_point(p) -> Point:
    return tuple(Fraction(x) for x in p)


def in_convex_hull(point, points) -> bool:
    """Exact membership of a point in the convex hull of a finite set.

    A point outside the hull of Q is a vertex of the hull of Q plus that
    point, and a point inside it is not, so p is in the hull of Q exactly
    when p is in Q or hull_vertices(Q | {p}) == hull_vertices(Q).
    """
    p = _frac_point(point)
    pts = {_frac_point(q) for q in points}
    return p in pts or p not in hull_vertices(pts | {p})


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
    """Vertex set of the convex hull, sorted, exact; ambient dimension <= 3.

    The points are scaled by the lcm of their denominators, the hull is
    found on those integers, and the vertices are returned as Fraction
    points.  Raises NotImplementedError in dimension d > 3.
    """
    pts = {_frac_point(p) for p in points}
    if not pts:
        return []
    d = len(next(iter(pts)))
    if d > 3:
        raise NotImplementedError("hulls implemented for ambient dimension <= 3")
    scale = lcm(*(x.denominator for p in pts for x in p))
    back = {tuple(x.numerator * (scale // x.denominator) for x in p): p for p in pts}
    return [back[v] for v in sorted(_int_hull_vertices(sorted(back)))]


def _int_hull_vertices(pts: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Hull vertices of distinct, lex-sorted integer points, d <= 3."""
    if len(pts) <= 2:
        return pts
    if len(pts[0]) == 1:
        return [pts[0], pts[-1]]
    if len(pts[0]) == 2:
        return _order_polygon(pts)
    # the lex extremes are vertices; the rank decides the rest
    u, w = pts[0], pts[-1]
    e = _sub(w, u)
    normal = next((n for n in (_cross(e, _sub(q, u)) for q in pts) if any(n)), None)
    if normal is None:
        return [u, w]
    if all(_dot(normal, _sub(q, u)) == 0 for q in pts):
        return _planar_ring(pts, normal)
    return _wrap_vertices(pts)


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _planar_ring(pts, normal):
    """Boundary cycle of coplanar 3d points: the monotone chain on their
    projection along the axis where the plane normal is largest."""
    drop = max(range(3), key=lambda i: abs(normal[i]))
    lift = {p[:drop] + p[drop + 1 :]: p for p in pts}
    return [lift[q] for q in _order_polygon(list(lift))]


def _wrap_vertices(pts):
    """Vertices of full-dimensional 3d integer points by gift wrapping.

    A first facet comes from an edge of the 2d hull of the projection to
    the first two coordinates, which lifts to a supporting plane through a
    face of dimension 1 or 2.  From each facet, a plane turned about each
    boundary edge meets the neighbouring facet.  The facet graph of a
    polytope is connected, so the walk meets every facet, and the vertices
    are the union of the facet rings.
    """
    # the ring runs counterclockwise, so (b - a) turned clockwise points out
    (a0, a1), (b0, b1) = _order_polygon([p[:2] for p in pts])[:2]
    normal = (b1 - a1, a0 - b0, 0)
    offset = _dot(normal, (a0, a1, 0))
    face = [p for p in pts if _dot(normal, p) == offset]
    u, w = face[0], face[-1]
    e = _sub(w, u)
    if any(any(_cross(e, _sub(q, u))) for q in face):
        start = _plane(normal, u)
    else:
        start = _turn(pts, u, w, _cross(normal, e))
    rings = {}
    edges = set()
    todo = [start]
    while todo:
        plane = todo.pop()
        if plane in rings:
            continue
        normal, offset = plane
        ring = _planar_ring([p for p in pts if _dot(normal, p) == offset], normal)
        rings[plane] = ring
        for i, w in enumerate(ring):
            u, m = ring[i - 1], ring[i - 2]
            edge = min(u, w), max(u, w)
            if edge not in edges:
                edges.add(edge)
                todo.append(_turn(pts, u, w, _sub(m, u)))
    return sorted({v for ring in rings.values() for v in ring})


def _plane(normal, at):
    """(primitive normal, offset) of the plane through `at`."""
    normal = _primitive(list(normal))
    return normal, _dot(normal, at)


def _turn(pts, u, w, ref):
    """The facet met by a supporting plane turned about the hull edge uw.

    The plane starts as the supporting plane through uw and the direction
    ref, which points from uw into the hull's side of it, and turns away
    from ref.  A point that lies beyond the current plane turns it further;
    the angles all lie in (0, pi), so one pass ends on the facet.  Returns
    its outward normal and offset.
    """
    e = _sub(w, u)
    best = None
    for q in pts:
        n = _cross(e, _sub(q, u))
        side = _dot(n, ref)
        # q on the line uw or in the starting plane
        if side == 0:
            continue
        if best is None or _dot(best, _sub(q, u)) > 0:
            best = n if side < 0 else (-n[0], -n[1], -n[2])
    return _plane(best, u)


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


def _order_polygon(points_2d: list[tuple]):
    """Hull vertices of a 2d point set in counterclockwise boundary order
    (monotone chain), on exact coordinates: ints or Fractions.

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
