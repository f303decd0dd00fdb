"""Exact integer convex geometry and integer lattice utilities.

Every hull routine takes integer points and runs on them as given: a
monotone chain in the plane and a walk over the facets in space.  The walk
returns each facet as its ring of vertices, which gives both the vertex
set and the volume (pyramids from one hull vertex over a triangle fan of
each ring).  Affine ranks come from the Hermite reduction of the
difference vectors.  Membership in a hull is itself a hull computation,
so no linear program is solved.  A caller with rational points scales
them to integers first.  Exact comparison of d-th root sums runs over
Fractions.  Supports ambient dimension d <= 3, which covers every
consumer in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Point = tuple[int, ...]


class DegenerateBodyError(ValueError):
    """A polytope is lower-dimensional than its ambient space requires."""


def in_convex_hull(point: Point, points) -> bool:
    """Exact membership of a point in the convex hull of a finite set.

    A point outside the hull of Q is a vertex of the hull of Q plus that
    point, and a point inside it is not, so p is in the hull of Q exactly
    when p is in Q or hull_vertices(Q | {p}) == hull_vertices(Q).
    """
    pts = set(points)
    return point in pts or point not in hull_vertices(pts | {point})


def affine_rank(points) -> int:
    """Dimension of the affine span of a finite point set (-1 if empty).

    The rank of the differences to one point, read off their Hermite basis.
    """
    pts = list(points)
    if not pts:
        return -1
    return len(hermite_basis([_sub(p, pts[0]) for p in pts[1:]]))


def hull_vertices(points) -> list[Point]:
    """Vertex set of the convex hull of integer points, sorted; d <= 3.

    Raises NotImplementedError in ambient dimension d > 3.
    """
    pts = sorted(set(points))
    if pts and len(pts[0]) > 3:
        raise NotImplementedError("hulls implemented for ambient dimension <= 3")
    if len(pts) <= 2:
        return pts
    if len(pts[0]) == 1:
        return [pts[0], pts[-1]]
    if len(pts[0]) == 2:
        return sorted(_order_polygon(pts))
    # the lex extremes are vertices; the rank decides the rest
    u, w = pts[0], pts[-1]
    e = _sub(w, u)
    normal = next((n for n in (_cross(e, _sub(q, u)) for q in pts) if any(n)), None)
    if normal is None:
        return [u, w]
    if all(_dot(normal, _sub(q, u)) == 0 for q in pts):
        return sorted(_planar_ring(pts, normal))
    return sorted({v for ring in _facet_rings(pts) for v in ring})


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


def _facet_rings(pts):
    """Facet rings of full-dimensional 3d integer points by gift wrapping.

    A first facet comes from an edge of the 2d hull of the projection to
    the first two coordinates, which lifts to a supporting plane through a
    face of dimension 1 or 2.  From each facet, a plane turned about each
    boundary edge meets the neighbouring facet.  The facet graph of a
    polytope is connected, so the walk meets every facet.  Each ring is
    the boundary cycle of a facet's vertices.
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
    return list(rings.values())


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
    """ints divided by their gcd; not all of them may be zero."""
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def _order_polygon(points_2d: list[tuple[int, int]]):
    """Hull vertices of a 2d integer point set in counterclockwise boundary
    order (monotone chain).

    Collinear boundary points are dropped, so the result is the strict
    vertex cycle.  Needs at least two distinct points.
    """
    pts = sorted(set(points_2d))

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
    """Exact volume of the convex hull of a full-dimensional integer point set.

    For d = 1 the length; for d = 2 twice the area, the shoelace sum over
    the monotone chain, halved; for d = 3 six times the volume, the sum of
    |det| over the pyramids from the lex-least point, a hull vertex, to a
    triangle fan of each facet ring, divided by 6.  Raises
    DegenerateBodyError when the points do not span dimension d.
    """
    if not vertices:
        raise DegenerateBodyError("empty vertex set")
    d = len(vertices[0])
    if affine_rank(vertices) < d:
        raise DegenerateBodyError(f"vertices span less than dimension {d}")
    if d > 3:
        raise NotImplementedError("volumes implemented for ambient dimension <= 3")
    pts = sorted(set(vertices))
    if d == 1:
        return Fraction(pts[-1][0] - pts[0][0])
    if d == 2:
        ring = _order_polygon(pts)
        twice = sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(ring, ring[1:] + ring[:1]))
        return Fraction(twice, 2)
    o = pts[0]
    six = 0
    for ring in _facet_rings(pts):
        a = ring[0]
        for b, c in zip(ring[1:], ring[2:]):
            six += abs(_dot(_cross(_sub(b, a), _sub(c, a)), _sub(o, a)))
    return Fraction(six, 6)


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
    return [tuple(row) for row in mat[:r]]


def lattice_covolume(rows: list[tuple[int, ...]], rank: int) -> int:
    """Covolume of a lattice of the given rank inside Z^rank.

    The generators must span a full-rank sublattice; its covolume is the
    product of the Hermite pivots, each the first nonzero entry of its row.
    """
    basis = hermite_basis(rows)
    if len(basis) != rank:
        raise DegenerateBodyError(
            f"lattice rank {len(basis)} < {rank}; generators do not span"
        )
    cov = 1
    for row in basis:
        cov *= next(x for x in row if x)
    return cov


# ---------------------------------------------------------------------------
# exact d-th root comparisons
# ---------------------------------------------------------------------------


def compare_root_sum(a: Fraction, b: Fraction, c: Fraction, d: int) -> int:
    """Sign of a**(1/d) - (b**(1/d) + c**(1/d)) for nonnegative rationals.

    Pure rational arithmetic, zero inputs included.  d = 2 squares out the
    cross term.  For d = 3 write u = a^(1/3), v = -b^(1/3), w = -c^(1/3)
    and m = a - b - c; then u^3 + v^3 + w^3 - 3uvw = (u + v + w) * Q with
    Q = ((u - v)^2 + (v - w)^2 + (w - u)^2) / 2 >= 0, and Q = 0 only when
    u = v = w, which here means a = b = c = 0.  So the sign of u + v + w
    is that of m - 3(abc)^(1/3), which is the sign of m^3 - 27abc.
    Raises NotImplementedError for d > 3.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if min(a, b, c) < 0:
        raise ValueError("root comparison needs nonnegative inputs")
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
