import random
from fractions import Fraction as F
from itertools import permutations
from math import lcm

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from logcave.geometry import (
    DegenerateBodyError,
    affine_rank,
    compare_root_sum,
    hermite_basis,
    hull_vertices,
    hull_volume,
    in_convex_hull,
    lattice_covolume,
    minkowski_sum,
)

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


# ---------------------------------------------------------------------------
# oracle: exact phase-1 simplex membership and the LP vertex filter, the
# route hull_vertices and in_convex_hull took before they ran on integers
# ---------------------------------------------------------------------------


def lp_in_hull(point, points) -> bool:
    """Feasibility of sum t_i q_i = p, sum t_i = 1, t >= 0 (Bland's rule)."""
    p = tuple(map(F, point))
    pts = [tuple(map(F, q)) for q in points]
    if not pts:
        return False
    rows, ncols = len(p) + 1, len(pts)
    a = [[q[i] for q in pts] for i in range(len(p))] + [[F(1)] * ncols]
    b = [*p, F(1)]
    for i in range(rows):
        if b[i] < 0:
            b[i], a[i] = -b[i], [-x for x in a[i]]
    width = ncols + rows
    tab = [a[i] + [F(int(j == i)) for j in range(rows)] + [b[i]] for i in range(rows)]
    basis = list(range(ncols, width))
    cost = [-sum(tab[i][j] for i in range(rows)) if j < ncols or j == width else F(0)
            for j in range(width + 1)]
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            return cost[width] == 0
        leave = None
        for i in range(rows):
            if tab[i][enter] > 0:
                ratio = tab[i][width] / tab[i][enter]
                if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(rows):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter


def lp_hull_vertices(points):
    """The points that are not in the hull of the others."""
    pts = sorted({tuple(map(F, p)) for p in points})
    return [v for v in pts if not lp_in_hull(v, [u for u in pts if u != v])]


# ---------------------------------------------------------------------------
# the geometry takes integer points: rational inputs, with their queries,
# are scaled by the lcm of their denominators, and the oracles run on the
# rational originals
# ---------------------------------------------------------------------------


def _scale_of(*point_sets):
    return lcm(*(F(x).denominator for ps in point_sets for p in ps for x in p))


def _times(points, s):
    return [tuple(int(F(x) * s) for x in p) for p in points]


def _hull(points):
    s = _scale_of(points)
    return [tuple(F(x, s) for x in v) for v in hull_vertices(_times(points, s))]


def _in_hull(q, points):
    s = _scale_of(points, [q])
    return in_convex_hull(_times([q], s)[0], _times(points, s))


def _volume(points):
    s = _scale_of(points)
    return hull_volume(_times(points, s)) / s ** len(points[0])


def _rank(points):
    return affine_rank(_times(points, _scale_of(points)))


def _coord(rng):
    return F(rng.randint(-7, 7), rng.choice([1, 2, 3, 5]))


def _cloud(rng, base, directions, count):
    """Random rational combinations of the directions around base, with repeats."""
    pts = [
        tuple(b + sum(t * v[i] for t, v in zip(ts, directions)) for i, b in enumerate(base))
        for ts in ([_coord(rng) for _ in directions] for _ in range(count))
    ]
    return pts + rng.sample(pts, 2)


def _check_against_oracle(rng, pts):
    assert _hull(pts) == lp_hull_vertices(pts), pts
    d = len(pts[0])
    queries = pts[:2]
    queries += [tuple((x + y) / 2 for x, y in zip(p, q)) for p, q in zip(pts, pts[1:4])]
    queries += [tuple(_coord(rng) for _ in range(d)) for _ in range(4)]
    for q in queries:
        assert _in_hull(q, pts) == lp_in_hull(q, pts), (q, pts)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [21, 22])
def test_hull_and_membership_match_lp_oracle_at_every_rank(d, seed):
    rng = random.Random(seed)
    for rank in range(d + 1):
        for _ in range(6):
            base = tuple(_coord(rng) for _ in range(d))
            while True:
                dirs = [tuple(F(rng.randint(-4, 4)) for _ in range(d)) for _ in range(rank)]
                pts = _cloud(rng, base, dirs, rng.randint(3, 9))
                if _rank(pts) == rank:
                    break
            _check_against_oracle(rng, pts)


@pytest.mark.parametrize(
    "normal",
    # a planar hull projects along the axis of the largest component:
    # x for the first two (a tie goes to x), y for the third, z for the
    # last two; where a component is 0, projecting along it would collapse
    [(1, 1, 1), (3, -1, 2), (0, 3, 1), (-1, 2, -4), (0, 0, 1)],
)
def test_tilted_planes_match_lp_oracle(normal):
    rng = random.Random(sum(normal) + 40)
    axis = max(range(3), key=lambda i: abs(normal[i]))
    # normal x e for the two other unit vectors e span the plane normal . x = 0
    a, b, c = normal
    dirs = [v for j, v in enumerate([(0, c, -b), (-c, 0, a), (b, -a, 0)]) if j != axis]
    for _ in range(5):
        base = tuple(_coord(rng) for _ in range(3))
        pts = _cloud(rng, base, dirs, rng.randint(4, 10))
        assert _rank(pts) == 2
        _check_against_oracle(rng, pts)
        # the same plane as a facet of a full-dimensional body
        apex = tuple(x + n for x, n in zip(base, normal))
        _check_against_oracle(rng, pts + [apex])


def test_hull_4d_raises():
    tesseract = [tuple((m >> i) & 1 for i in range(4)) for m in range(16)]
    with pytest.raises(NotImplementedError):
        hull_vertices(tesseract)
    with pytest.raises(NotImplementedError):
        _in_hull((F(1, 2),) * 4, tesseract)


def test_in_convex_hull_basics():
    assert _in_hull((F(1, 2), F(1, 2)), SQUARE)
    assert _in_hull((1, 0), SQUARE)
    assert _in_hull((F(1, 3), 0), SQUARE)
    assert not _in_hull((2, 0), SQUARE)
    assert not _in_hull((F(-1, 1000), 0), SQUARE)
    assert not _in_hull((0, 0), [])


def test_hull_vertices_drops_non_extreme_points():
    pts = SQUARE + [(F(1, 2), F(1, 2)), (F(1, 2), 0), (0, F(1, 2))]
    assert _hull(pts) == sorted(tuple(map(F, p)) for p in SQUARE)


def test_affine_rank():
    assert affine_rank([(0, 0)]) == 0
    assert affine_rank([(0, 0), (1, 1), (2, 2)]) == 1
    assert affine_rank(SQUARE) == 2


def test_volumes_of_reference_bodies():
    assert hull_volume([(0,), (2,)]) == 2
    assert hull_volume(hull_vertices([(0, 0), (1, 0), (0, 1)])) == F(1, 2)
    assert hull_volume(hull_vertices(SQUARE)) == 1
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert hull_volume(hull_vertices(cube)) == 1
    simplex = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert hull_volume(hull_vertices(simplex)) == F(1, 6)


def test_volume_degenerate_raises():
    with pytest.raises(DegenerateBodyError):
        hull_volume([(0, 0), (1, 1), (2, 2)])


def _low_rank_cloud(rng, d, rank, count):
    """Rational points spanning an affine space of dimension <= rank in Q^d."""
    base = tuple(_coord(rng) for _ in range(d))
    dirs = [tuple(_coord(rng) for _ in range(d)) for _ in range(rank)]
    return _cloud(rng, base, dirs, count)


def test_volume_degenerate_3d_raises():
    rng = random.Random(31)
    for rank in (0, 1, 2):
        for _ in range(5):
            pts = _low_rank_cloud(rng, 3, rank, rng.randint(3, 12))
            assert _rank(pts) <= rank
            with pytest.raises(DegenerateBodyError):
                _volume(pts)
    # a cube face and a cube edge, as given and as hull vertices
    face = [(x, y, 1) for x in (0, 1) for y in (0, 1)]
    for pts in (face, face[:2], hull_vertices(face)):
        with pytest.raises(DegenerateBodyError):
            hull_volume(pts)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [32, 33])
def test_volume_invariant_under_permutation_translation_and_dilation(d, seed):
    rng = random.Random(seed)
    checked = 0
    while checked < 8:
        pts = [tuple(_coord(rng) for _ in range(d)) for _ in range(rng.randint(d + 1, 12))]
        if _rank(pts) < d:
            continue
        checked += 1
        vol = _volume(pts)
        assert vol == _volume(_hull(pts)) > 0
        shift = tuple(_coord(rng) for _ in range(d))
        assert _volume([tuple(x + t for x, t in zip(p, shift)) for p in pts]) == vol
        # a permutation of the coordinates changes the axis each facet
        # ring is projected along
        for perm in ([1, 0],) if d == 2 else ([1, 2, 0], [2, 0, 1], [0, 2, 1]):
            assert _volume([tuple(p[i] for i in perm) for p in pts]) == vol
        for k in (F(2), F(3, 7)):
            assert _volume([tuple(k * x for x in p) for p in pts]) == k**d * vol


@pytest.mark.parametrize("seed", [34, 35])
def test_random_rational_3d_volumes_match_float_hull(seed):
    rng = random.Random(seed)
    checked = 0
    while checked < 6:
        pts = [tuple(_coord(rng) for _ in range(3)) for _ in range(rng.randint(4, 20))]
        if _rank(pts) < 3:
            continue
        checked += 1
        vol = _volume(pts)
        h = ConvexHull(np.array(pts, dtype=float))
        assert abs(float(vol) - h.volume) < 1e-9, pts


@pytest.mark.parametrize("d", [1, 2, 3])
def test_affine_rank_matches_numpy(d):
    rng = random.Random(36 + d)
    assert affine_rank([]) == -1
    for rank in range(d + 1):
        for count in (2, 3, 5, 9):
            pts = _low_rank_cloud(rng, d, rank, count)
            diffs = np.array([[float(x - y) for x, y in zip(p, pts[0])] for p in pts])
            assert _rank(pts) == np.linalg.matrix_rank(diffs), pts


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_2d_volumes_match_float_hull(seed):
    rng = random.Random(seed)
    for _ in range(10):
        pts = [
            (F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4)))
            for _ in range(12)
        ]
        if _rank(pts) < 2:
            continue
        vol = _volume(_hull(pts))
        h = ConvexHull(np.array([[float(a), float(b)] for a, b in pts]))
        assert abs(float(vol) - h.volume) < 1e-9


@pytest.mark.parametrize("seed", [4, 5])
def test_random_3d_volumes_match_float_hull(seed):
    rng = random.Random(seed)
    for _ in range(6):
        pts = [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(14)]
        if affine_rank(pts) < 3:
            continue
        vol = hull_volume(hull_vertices(pts))
        h = ConvexHull(np.array(pts, dtype=float))
        assert abs(float(vol) - h.volume) < 1e-9


def test_minkowski_sum():
    seg = [(0,), (1,)]
    assert minkowski_sum(seg, seg) == [(0,), (1,), (2,)]


def test_hermite_basis_and_covolume():
    assert hermite_basis([(1, 0), (1, 2)]) == [(1, 0), (0, 2)]
    assert hermite_basis([(0, 0)]) == []
    assert lattice_covolume([(2, 0), (0, 3), (2, 3)], 2) == 6
    assert lattice_covolume([(2,)], 1) == 2
    with pytest.raises(DegenerateBodyError):
        lattice_covolume([(1, 1)], 2)


def _exact_det(m: list[tuple[int, ...]]) -> int:
    """Leibniz sum over permutations, signed by their inversion counts."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def test_hermite_basis_is_echelon_with_positive_pivots():
    rng = random.Random(23)
    full_rank_squares = 0
    for _ in range(400):
        ncols = rng.randint(1, 4)
        rows = [tuple(rng.randint(-6, 6) for _ in range(ncols)) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:  # a dependent row
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append(tuple(rng.randint(-2, 2) * x + rng.randint(-2, 2) * y for x, y in zip(a, b)))
        if rng.random() < 0.2:
            rows.insert(rng.randrange(len(rows) + 1), (0,) * ncols)
        basis = hermite_basis(rows)
        assert len(basis) == np.linalg.matrix_rank(np.array(rows, dtype=float)), rows
        last = -1
        for row in basis:
            piv = next(i for i, x in enumerate(row) if x)
            assert piv > last and row[piv] > 0, (rows, basis)
            last = piv
        if len(rows) == ncols and len(basis) == ncols:
            full_rank_squares += 1
            assert lattice_covolume(rows, ncols) == abs(_exact_det(rows)), rows
    assert full_rank_squares > 20


def test_hermite_preserves_span():
    rows = [(2, 4, 6), (3, 5, 7), (1, 1, 1)]
    basis = hermite_basis(rows)
    # every original row reduces to zero against the basis
    for row in rows:
        r = list(row)
        for b in basis:
            piv = next(i for i, x in enumerate(b) if x)
            if r[piv] % b[piv] == 0:
                f = r[piv] // b[piv]
                r = [x - f * y for x, y in zip(r, b)]
        assert all(x == 0 for x in r), (row, basis)


def test_root_comparisons_exact_cases():
    assert compare_root_sum(F(4), F(1), F(1), 2) == 0
    assert compare_root_sum(F(9), F(1), F(1), 2) == 1
    assert compare_root_sum(F(3), F(1), F(1), 2) == -1
    assert compare_root_sum(F(8), F(1), F(1), 3) == 0
    assert compare_root_sum(F(27, 8), F(1, 8), F(1), 3) == 0  # 3/2 = 1/2 + 1
    assert compare_root_sum(F(7), F(1), F(1), 3) == -1
    assert compare_root_sum(F(5), F(5), F(0), 3) == 0
    assert compare_root_sum(F(0), F(0), F(0), 2) == 0


def test_root_comparisons_with_zero_inputs():
    # a = x^d, b = y^d, c = z^d: the sign is that of x - y - z
    for d in (1, 2, 3):
        for x in range(4):
            for y in range(4):
                for z in (F(0), F(1, 2), F(2)):
                    for b, c in ((y**d, z**d), (z**d, y**d)):
                        if b and c:
                            continue
                        t = x - y - z
                        want = (t > 0) - (t < 0)
                        assert compare_root_sum(x**d, b, c, d) == want, (x, b, c, d)
    for a in (0, 2):
        with pytest.raises(NotImplementedError):
            compare_root_sum(a, 0, 0, 4)


def test_root_comparisons_match_floats():
    rng = random.Random(9)
    for _ in range(300):
        a, b, c = (F(rng.randint(0, 60), rng.randint(1, 9)) for _ in range(3))
        for d in (1, 2, 3):
            sign = compare_root_sum(a, b, c, d)
            x = float(a) ** (1 / d) - float(b) ** (1 / d) - float(c) ** (1 / d)
            if abs(x) > 1e-9:
                assert sign == (1 if x > 0 else -1), (a, b, c, d)


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda: hull_volume([]), DegenerateBodyError, "empty vertex set"),
        (
            lambda: hull_volume([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
            NotImplementedError,
            "ambient dimension <= 3",
        ),
        (lambda: compare_root_sum(F(-1), F(0), F(0), 2), ValueError, "nonnegative inputs"),
    ],
)
def test_geometry_rejects_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()
