import multiprocessing
import random
from collections import Counter
from itertools import product
from operator import itemgetter

import pytest

from logcave import concavity
from logcave import lr as lrmod
from logcave import symfunc
from logcave.concavity import (
    SequencePreconditionError,
    SquareComparison,
    alpha_matrix_check,
    alpha_scan,
    conjecture1_scan,
    convolution_logconcavity_check,
    convolution_random_suite,
    logv_inclusion_check,
    logv_scan,
    random_logconcave_sequence,
    restriction_logconcavity_scan,
    saturation_scan,
    saturation_scan_all,
    skew_shapes_up_to,
    slm_schur_positivity,
    slm_scan,
    theorem1_scan,
    theorem1_verify,
    weyl_logconcavity_scan,
)
from logcave.partitions import (
    SkewShape,
    contains,
    dominant_weights,
    dual_weight,
    fmt_weight,
    pad,
    partitions_up_to,
    shift_to_partition,
)
from logcave.symfunc import (
    SchurExpansion,
    multiply,
    skew_schur,
    subtract_and_min_coefficient,
    to_schur_basis,
)
from logcave.toeplitz import convolve


def test_theorem1_verify_examples():
    r = theorem1_verify((2, 1), (), (2, 1), ())
    assert r.passed and r.min_coeff == 0
    r = theorem1_verify((3, 1), (), (1, 1), ())
    assert r.passed and (r.mid_outer, r.mid_inner) == ((2, 1), ())
    r = theorem1_verify((2, 2), (1,), (2,), (1,))
    assert r.passed and (r.mid_outer, r.mid_inner) == ((2, 1), (1,))
    assert r.num_variables == 4  # sum of the two skew sizes


def test_theorem1_verify_errors():
    with pytest.raises(ValueError):
        theorem1_verify((3,), (), (2,), ())  # midpoint not integral
    with pytest.raises(ValueError):
        theorem1_verify((1,), (2,), (1,), ())  # invalid skew shape


def test_slm_schur_positivity_examples():
    ok, expansion, _ = slm_schur_positivity((2, 1), (), (2, 1), ())
    assert ok and not expansion.terms
    ok, expansion, _ = slm_schur_positivity((3, 1), (), (1, 1), ())
    assert ok and all(c >= 0 for c in expansion.terms.values())
    ok, expansion, _ = slm_schur_positivity((4,), (), (2,), ())
    assert ok


def test_skew_shape_enumeration():
    shapes = skew_shapes_up_to(2)
    assert ((), ()) in shapes
    assert ((2,), (1,)) in shapes and ((1, 1), (1,)) in shapes
    assert len(shapes) == len(set(shapes)) == 9


def test_theorem1_scan_small_clean():
    rep = theorem1_scan(3)
    assert rep.clean and rep.checked > 0


def test_theorem1_scan_deterministic_across_jobs(monkeypatch):
    monkeypatch.setattr(concavity, "_POOL_MIN_CLASSES", 1)  # a real pool at this size
    a = theorem1_scan(4, jobs=1)
    b = theorem1_scan(4, jobs=4)
    assert a.checked == b.checked and a.violations == b.violations


def test_slm_scan_small_clean():
    rep = slm_scan(3)
    assert rep.clean


@pytest.mark.parametrize("scan", [theorem1_scan, slm_scan])
def test_skew_pair_scans_reject_a_negative_bound(scan):
    with pytest.raises(ValueError, match=r"max_weight must be >= 0, got -1"):
        scan(-1)
    # bound 0 has the empty shape alone, one diagonal instance
    assert scan(0).checked == 1


def test_conjecture1_scan_counts_and_cleanliness():
    rep = conjecture1_scan(1, 1)
    # rank 1, entries in [-1,1]: triples are integers (a,b,c); count classes
    assert rep.clean
    ws = [-1, 0, 1]
    triples = [(a, b, c) for a in ws for b in ws for c in ws]
    classes = {}
    for t in triples:
        classes.setdefault(tuple(x % 2 for x in t), []).append(t)
    expected = sum(len(g) * (len(g) + 1) // 2 for g in classes.values())
    assert rep.checked == expected


def test_conjecture1_scan_rank2_clean():
    rep = conjecture1_scan(2, 2)
    assert rep.clean


def test_saturation_scan_examples():
    rows = saturation_scan(((0, 0, 0),) * 3, 3)
    assert [r.value for r in rows] == [1, 1, 1]
    assert all(r.saturation_ok and r.power_bound_ok for r in rows)
    t = (dual_weight((2, 1, 0)), (2, 1, 0), (0, 0, 0))
    rows = saturation_scan(t, 2)
    assert rows[0].value == 1 and rows[1].saturation_ok


def test_saturation_scan_looks_up_each_stretch_once(monkeypatch, tmp_path):
    # only a cache file goes through LRCache, so the lookups are counted there
    keys = []
    real = lrmod.LRCache.get_or_compute

    def counted(cache, key, compute):
        keys.append(key)
        return real(cache, key, compute)

    monkeypatch.setattr(lrmod.LRCache, "get_or_compute", counted)
    monkeypatch.setenv("LOGCAVE_CACHE_DIR", str(tmp_path))
    lrmod.reset_default_cache()
    try:
        t = (dual_weight((2, 1, 0)), (2, 1, 0), (0, 0, 0))
        rows = saturation_scan(t, 4)
        assert [r.value for r in rows] == [1, 1, 1, 1]
        assert [key[1] for key in keys] == [(2, 1, 0), (4, 2, 0), (6, 3, 0), (8, 4, 0)]
        keys.clear()
        saturation_scan_all(2, 2, 3)
        slice_triples = sum(
            sum(lam) == sum(mu) + sum(nu)
            for lam in partitions_up_to(2, max_parts=2)
            for mu in partitions_up_to(2, max_parts=2)
            for nu in partitions_up_to(2, max_parts=2)
        )
        assert len(keys) == 3 * slice_triples
    finally:
        lrmod.reset_default_cache()


def test_saturation_scan_all_small():
    rep = saturation_scan_all(2, 2, 2)
    assert not [v for v in rep.violations if v["kind"] == "saturation"]


def test_logv_inclusion_examples():
    assert logv_inclusion_check((2, 0), (2, 0)) == (True, None)
    assert logv_inclusion_check((2, 0), (0, 0)) == (True, None)
    assert logv_inclusion_check((2, 0), (0, -2)) == (True, None)
    with pytest.raises(ValueError):
        logv_inclusion_check((1, 0), (0, 0))


def test_logv_inclusion_reports_the_least_excess(monkeypatch):
    # V^(2,0) (x) V^(2,0) is (4,0) + (3,1) + (2,2); two of them in excess
    planted = {(4, 0): 2, (3, 1): 1, (2, 2): 2}
    monkeypatch.setattr(concavity, "tensor_product_multiplicities", lambda mu, nu: planted)
    assert logv_inclusion_check((2, 0), (2, 0)) == (False, (2, 2))


def test_logv_scan_clean():
    assert logv_scan(2, 2).clean


def test_alpha_matrix_check():
    t = ((1, 0, -1), (1, 0, -1), (1, 0, -1))
    ok, v2, v1 = alpha_matrix_check(t, 1, 1)
    assert ok and v1 == 2
    # alpha = 1: identity
    ok, v2, v1 = alpha_matrix_check(t, 1, 0)
    assert ok and v1 == v2
    # alpha = 0: cyclic rotation, equal by symmetry
    ok, v2, v1 = alpha_matrix_check(t, 0, 1)
    assert ok and v1 == v2
    with pytest.raises(ValueError):
        alpha_matrix_check(((1, 0), (0, 0), (0, 0)), 1, 1)


def test_alpha_matrix_check_rejects_rank_mismatch(monkeypatch):
    def no_image(*args):
        raise AssertionError("image computed")

    monkeypatch.setattr(concavity, "_circulant_image", no_image)
    with pytest.raises(ValueError, match="rank mismatch"):
        alpha_matrix_check(((1, 0), (0,), (-1,)), 1, 1)


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 5), (0, 1), (1, 0)])
def test_mean_matches_brute_force(p, q):
    m = p + q
    entries = range(-6, 7)
    # the integer z with (p+q)*z == p*x + q*y, found by search
    brute = {
        (x, y): next((z for z in entries if m * z == p * x + q * y), None)
        for x in entries
        for y in entries
    }
    for (x, y), z in brute.items():
        assert concavity._mean((x,), (y,), p, q) == (None if z is None else (z,))
    rng = random.Random(m * 10 + p)
    for _ in range(200):
        xs = [rng.choice(entries) for _ in range(3)]
        ys = [rng.choice(entries) for _ in range(3)]
        zs = [brute[x, y] for x, y in zip(xs, ys)]
        want = None if None in zs else tuple(zs)
        assert concavity._mean(xs, ys, p, q) == want
    assert concavity._mean((3, -1), (1, -3)) == (2, -2)
    assert concavity._mean((3, -1), (0, -3)) is None


def test_alpha_scan_clean():
    assert alpha_scan(2, 2).clean


def test_convolution_examples():
    assert convolve([1, 1], [1, 1]) == [1, 2, 1]
    assert convolution_logconcavity_check([1, 1], [1, 1]) == (True, None)
    assert convolution_logconcavity_check([1], [1, 3, 3, 1]) == (True, None)
    # binomial * binomial = binomial
    assert convolve([1, 2, 1], [1, 2, 1]) == [1, 4, 6, 4, 1]


def test_convolution_precondition_errors():
    with pytest.raises(SequencePreconditionError):
        convolution_logconcavity_check([1, 0, 1], [1])
    with pytest.raises(SequencePreconditionError):
        convolution_logconcavity_check([1, 1, 3], [1])
    with pytest.raises(SequencePreconditionError):
        convolution_logconcavity_check([0, 0], [1])


def test_random_logconcave_generator_is_valid():
    rng = random.Random(5)
    for _ in range(60):
        seq = random_logconcave_sequence(rng, 12)
        assert all(x > 0 for x in seq)
        for i in range(1, len(seq) - 1):
            assert seq[i] ** 2 >= seq[i - 1] * seq[i + 1]


def test_convolution_random_suite_clean():
    assert convolution_random_suite(60, 10, seed=1).clean


def test_convolution_random_suite_records_a_failed_case(monkeypatch):
    seen = []

    def planted(a, b):
        seen.append((a, b))
        return (False, 3) if len(seen) == 2 else (True, None)

    monkeypatch.setattr(concavity, "convolution_logconcavity_check", planted)
    rep = convolution_random_suite(4, 10, seed=1)
    assert rep.checked == 4 and len(seen) == 4
    a, b = seen[1]
    assert rep.violations == [
        {"case": 1, "a": [str(x) for x in a], "b": [str(x) for x in b], "index": 3}
    ]


def test_weyl_scan_examples():
    rep = weyl_logconcavity_scan(1, 4)
    assert rep.clean  # rank 1 dimensions are constant
    rep = weyl_logconcavity_scan(2, 3)
    assert rep.clean


def test_weyl_scan_catches_seeded_example():
    # the instance a=(2,0), b=(0,0), c=(1,0): 2^2 >= 3*1
    from logcave.partitions import weyl_dimension

    assert weyl_dimension((2, 0)) == 3
    assert weyl_dimension((1, 0)) ** 2 >= weyl_dimension((2, 0)) * weyl_dimension((0, 0))


def test_restriction_scan_clean():
    rep = restriction_logconcavity_scan(3, 1, 4)
    assert rep.clean
    rep = restriction_logconcavity_scan(4, 2, 6)
    assert rep.clean and rep.checked > 3000
    with pytest.raises(ValueError, match="need k < n, got k=2, n=2"):
        restriction_logconcavity_scan(2, 2, 3)


def test_restriction_scan_rejects_a_negative_bound():
    with pytest.raises(ValueError, match=r"weight_bound must be >= 0, got -1"):
        restriction_logconcavity_scan(3, 1, -1)
    # with k >= n as well, the scan raises rather than report nothing
    with pytest.raises(ValueError, match=r"weight_bound must be >= 0, got -2"):
        restriction_logconcavity_scan(2, 2, -2)


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 3)])
def test_midpoint_engine_matches_brute_force(p, q):
    m = p + q
    points = [(x, y) for x in range(-2, 4) for y in range(5)]
    rng = random.Random(10 * p + q)
    values = {pt: v for pt in points if (v := rng.choice([0, 1, 2, 3, 5]))}
    pairs = [
        (a, b)
        for i, a in enumerate(points)
        for b in (points[i:] if p == q else points)
        if all((p * x + q * y) % m == 0 for x, y in zip(a, b))
    ]
    assert sorted(_midpoint_pairs(points, p, q)) == sorted(pairs)
    expected = []
    for a, b in pairs:
        c = tuple((p * x + q * y) // m for x, y in zip(a, b))
        fa, fb, fc = (values.get(x, 0) for x in (a, b, c))
        if fc**m < fa**p * fb**q:
            expected.append(
                {"p": p, "a": str(a), "b": str(b), "c": str(c), "values": [str(fa), str(fb), str(fc)]}
            )
    # one byte per digit, then two bytes per digit, where residues come from unpacking
    for hi in (4, 300):
        box = concavity._Packing(2, -2, hi)
        assert concavity._midpoint_count(box, [box.pack(x) for x in points], p, q) == len(pairs)
    violations = _packed_midpoint_scan(points, values, p, q, str, {"p": p}, -2, 4)
    key = itemgetter("a", "b")
    assert expected and sorted(violations, key=key) == sorted(expected, key=key)


def _midpoint_pairs(points, p, q):
    """Yield every pair (A, B) of points whose midpoint (pA + qB)/(p+q) is integral.

    p and q are coprime and positive, so pA + qB = p(A - B) + (p+q)B is
    divisible by p+q exactly when A = B mod p+q entrywise.  Points are
    bucketed by x mod p+q and the classes are visited in sorted
    residue order.  For p == q (that is, p = q = 1) pairs are unordered
    and each comes once, as (members[i], members[j]) with j >= i in input
    order.  Otherwise pairs are ordered, every pair within a class.
    """
    m = p + q
    classes = {}
    for x in points:
        classes.setdefault(tuple(e % m for e in x), []).append(x)
    for r in sorted(classes):
        members = classes[r]
        for i, a in enumerate(members):
            for b in members[i:] if p == q else members:
                yield a, b


def _oracle_midpoint_scan(points, values, p, q, fmt, fixed):
    """The pair engine on tuple keys, one midpoint tuple per pair, diagonal included."""
    m = p + q
    support = [x for x in points if values.get(x)]
    violations = []
    for a, b in _midpoint_pairs(support, p, q):
        fa, fb = values[a], values[b]
        c = tuple((p * x + q * y) // m for x, y in zip(a, b))
        fc = values.get(c, 0)
        if fc**m < fa**p * fb**q:
            violations.append(
                dict(fixed, a=fmt(a), b=fmt(b), c=fmt(c), values=[str(fa), str(fb), str(fc)])
            )
    return violations


def _packed_midpoint_scan(points, values, p, q, fmt, fixed, lo, hi):
    box = concavity._Packing(len(points[0]), lo, hi)
    packed = {box.pack(x): v for x, v in values.items()}
    return concavity._midpoint_scan(box, [box.pack(x) for x in points], packed, p, q, fmt, fixed)


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (1, 4), (2, 3)])
@pytest.mark.parametrize("dim", range(1, 10))
def test_packed_engine_matches_tuple_oracle(dim, p, q):
    """Same records in the same order as the tuple-keyed engine, on random
    domains in boxes with negative entries and with entries past one byte,
    random values with zeros, and a planted zero midpoint."""
    m = p + q
    rng = random.Random(100 * dim + 10 * p + q)
    for lo, hi in ((-3, 3), (0, 12), (-20, -9), (-5, 300)):
        # A and B = A + m*s share their class; their midpoint A + q*s is zero
        a = tuple(rng.randint(lo, hi - m) for _ in range(dim))
        s = [1] + [rng.randint(0, 1) for _ in range(dim - 1)]
        b = tuple(x + m * y for x, y in zip(a, s))
        c = tuple(x + q * y for x, y in zip(a, s))
        randoms = [tuple(rng.randint(lo, hi) for _ in range(dim)) for _ in range(60)]
        points = list(dict.fromkeys([c, *randoms[:30], b, *randoms[30:], a]))
        rng.shuffle(points)
        # few distinct values, so that many pairs are compared
        values = {x: v for x in points if (v := rng.choice([0, 1, 2, 3, 3, 4, 9]))}
        values[a], values[b] = rng.randint(1, 9), rng.randint(1, 9)
        values.pop(c, None)
        fixed = {"dim": dim}
        want = _oracle_midpoint_scan(points, values, p, q, str, fixed)
        assert want
        assert _packed_midpoint_scan(points, values, p, q, str, fixed, lo, hi) == want
        if p == q:
            box = concavity._Packing(dim, lo, hi)
            pairs = concavity._unordered_pairs(box, [box.pack(x) for x in points])
            assert [(box.unpack(a), box.unpack(b)) for a, b in pairs] == [
                (a, b) for a, b in _midpoint_pairs(points, 1, 1) if a != b
            ]


@pytest.mark.parametrize(
    "lo, hi", [(0, 0), (-3, 3), (0, 255), (-1, 255), (-300, 17), (-70000, 70000)]
)
def test_packing_round_trip_at_box_corners(lo, hi):
    """Round trips, key order and residues mod m, at the corners of the box
    and at random points inside it; m = 257 and m = 300 take the unpacking
    path even with one byte per digit."""
    rng = random.Random(lo * 7 + hi)
    for dim in (1, 2, 5):
        box = concavity._Packing(dim, lo, hi)
        corners = [tuple(x) for x in product((lo, hi), repeat=dim)]
        keys = [box.pack(x) for x in corners]
        assert [box.unpack(k) for k in keys] == corners
        assert box.pack((lo,) * dim) == 0
        # keys sort as their vectors do
        assert sorted(keys) == [box.pack(x) for x in sorted(corners)]
        points = corners + [tuple(rng.randint(lo, hi) for _ in range(dim)) for _ in range(40)]
        for m in (2, 3, 7, 256, 257, 300):
            residues = list(box.residues([box.pack(x) for x in points], m))
            tuples = [tuple(e % m for e in x) for x in points]
            assert [tuple(r) for r in residues] == tuples
            # equal, and ordered, as the residue tuples are
            order = sorted(range(len(points)), key=residues.__getitem__)
            assert order == sorted(range(len(points)), key=tuples.__getitem__)


@pytest.fixture
def recording_pool(monkeypatch):
    """A stand-in for multiprocessing.Pool that records the worker counts it
    is started with and the tasks it is given, and runs them in this process."""

    class RecordingPool:
        started: list = []
        tasks: list = []

        def __init__(self, processes):
            self.started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            assert chunksize == 1
            self.tasks.append(list(tasks))
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return RecordingPool


def test_skew_pair_pool_caps_workers_at_usable_cpus(recording_pool, monkeypatch):
    monkeypatch.setattr(concavity, "_POOL_MIN_CLASSES", 1)
    started = recording_pool.started
    serial = theorem1_scan(4)
    monkeypatch.delattr(concavity.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(concavity.os, "cpu_count", lambda: 3)
    rep = theorem1_scan(4, jobs=64)
    assert started == [3]
    assert (rep.checked, rep.violations) == (serial.checked, serial.violations)
    monkeypatch.setattr(concavity.os, "cpu_count", lambda: None)
    theorem1_scan(4, jobs=64)
    assert started == [3]  # unknown CPU count: serial, no pool
    # where the affinity mask is known it wins over the machine's count
    monkeypatch.setattr(concavity.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(concavity.os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    rep = theorem1_scan(4, jobs=64)
    assert started == [3, 2]
    assert (rep.checked, rep.violations) == (serial.checked, serial.violations)
    monkeypatch.setattr(concavity.os, "sched_getaffinity", lambda pid: {1})
    theorem1_scan(4, jobs=64)
    assert started == [3, 2]  # one usable CPU: serial, no pool


@pytest.mark.parametrize("scan", [theorem1_scan, slm_scan])
def test_skew_pair_scan_pools_from_its_class_count(scan, recording_pool, monkeypatch):
    """Below _POOL_MIN_CLASSES classes of pairs --jobs 2 starts no pool and
    reports as --jobs 1 does; from there on the pool runs min(jobs, usable
    CPUs, degree groups) workers."""
    started = recording_pool.started
    monkeypatch.setattr(concavity, "_usable_cpus", lambda: 2)
    serial = scan(4)
    classes = len({cls for _, cls in _pair_classes(4)})
    assert serial.workers == 1 and classes < concavity._POOL_MIN_CLASSES
    assert scan(4, jobs=2) == serial
    monkeypatch.setattr(concavity, "_POOL_MIN_CLASSES", classes + 1)
    assert scan(4, jobs=2) == serial
    assert started == []
    monkeypatch.setattr(concavity, "_POOL_MIN_CLASSES", classes)
    rep = scan(4, jobs=2)
    assert started == [2] and rep.workers == 2
    assert sum(map(_task_classes, recording_pool.tasks[-1])) == classes
    assert (rep.checked, rep.violations, rep.params) == (serial.checked, serial.violations, serial.params)
    monkeypatch.setattr(concavity, "_usable_cpus", lambda: 64)
    assert scan(4, jobs=3).workers == 3
    rep = scan(4, jobs=64)
    groups = len(recording_pool.tasks[-1])
    assert started == [2, 3, groups] and rep.workers == groups < 64
    assert (rep.checked, rep.violations, rep.params) == (serial.checked, serial.violations, serial.params)


def test_skew_pair_pool_floor_lies_between_bounds_7_and_8(recording_pool, monkeypatch):
    """1,426 pairs in 351 classes (72 midpoint units) at bound 7 run
    serially at --jobs 2, and 4,300 pairs in 1,001 classes (135 units) at
    bound 8 on the pool.  The worker is a stand-in: only the class count
    decides."""
    calls = []

    def stand_in(group):
        calls.append(group)
        return [None] * _task_classes(group)

    def counts(bound, rep, groups):
        units = sum(map(len, groups))
        return rep.checked - len(skew_shapes_up_to(bound)), sum(map(_task_classes, groups)), units, rep.workers

    monkeypatch.setattr(concavity, "_theorem1_group", stand_in)
    monkeypatch.setattr(concavity, "_usable_cpus", lambda: 2)
    rep = theorem1_scan(7, jobs=2)
    assert counts(7, rep, calls) == (1426, 351, 72, 1)
    serial = len(calls)
    rep = theorem1_scan(8, jobs=2)
    (tasks,) = recording_pool.tasks
    assert counts(8, rep, tasks) == (4300, 1001, 135, 2)
    assert recording_pool.started == [2] and calls[serial:] == tasks


def _key_degree(key):
    """The degree of a skew Schur function from its _skew_class key."""
    return sum(key[0][0])


def _task_classes(group):
    """The number of classes in a degree group of units (mid key, n, factor pairs)."""
    return sum(len(factors) for _, _, factors in group)


def _unit_classes(group):
    """The classes of a degree group, in order, each as (mid key, factor keys, n)."""
    return [(mid, pair, n) for mid, n, factors in group for pair in factors]


@pytest.mark.parametrize("scan", [theorem1_scan, slm_scan])
def test_skew_pair_pool_tasks_are_degree_pure_with_disjoint_rows(scan, recording_pool, monkeypatch):
    """One pool task per degree, the largest first, and no monomial product
    row read by two tasks: the workers fill disjoint memos."""
    monkeypatch.setattr(concavity, "_POOL_MIN_CLASSES", 1)
    serial = scan(5)
    read = symfunc.monomial_product_row
    keys = []

    def recording_row(alpha, beta):
        keys[-1].add((alpha, beta))
        return read(alpha, beta)

    def run_each_cold(self, fn, tasks, chunksize=1):
        self.tasks.append(list(tasks))
        out = []
        for t in tasks:
            read.cache_clear()
            keys.append(set())
            out.append(fn(t))
            # the recorded keys are exactly what the task left in the memo
            assert read.cache_info().currsize == len(keys[-1])
        return out

    monkeypatch.setattr(concavity, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(symfunc, "monomial_product_row", recording_row)
    recording_pool.map = run_each_cold
    rep = scan(5, jobs=2)
    assert recording_pool.started == [2]
    assert (rep.checked, rep.violations) == (serial.checked, serial.violations)
    (tasks,) = recording_pool.tasks
    degrees = []
    for task, rows in zip(tasks, keys, strict=True):
        (d,) = {sum(map(_key_degree, pair)) for _, pair, _ in _unit_classes(task)}
        degrees.append(d)
        assert rows and all(sum(a) + sum(b) == d for a, b in rows)
    assert degrees == sorted(set(degrees), reverse=True)
    assert sum(map(_task_classes, tasks)) == len({cls for _, cls in _pair_classes(5)})
    assert sum(map(len, keys)) == len(set().union(*keys))


def _function_key(shape):
    """The shape's Kostka table at its size, sorted: equal exactly for equal skew Schur functions."""
    lam, mu = shape
    return tuple(sorted(symfunc.kostka_table(lam, mu, sum(lam) - sum(mu)).items()))


def _pair_classes(bound):
    """Each off-diagonal pair up to the bound, in _midpoint_pairs order, as
    ((shape1, shape3), the class its scan hands the worker): (the midpoint's
    function key, the two shapes' keys sorted, max(1, pair degree))."""
    shapes = skew_shapes_up_to(bound)
    rows = max(len(lam) for lam, _ in shapes)
    shape_of = {pad(lam, rows) + pad(mu, rows): (lam, mu) for lam, mu in shapes}
    out = []
    for a, b in _midpoint_pairs(list(shape_of), 1, 1):
        if a != b:
            pair = shape_of[a], shape_of[b]
            degree = sum(sum(lam) - sum(mu) for lam, mu in pair)
            factors = tuple(sorted(map(_function_key, pair)))
            out.append((pair, (_function_key(shape_of[concavity._mean(a, b)]), factors, max(1, degree))))
    return out


def test_skew_class_keys_are_equal_exactly_for_equal_functions():
    """449 shapes up to bound 7 have 88 skew Schur functions, told apart by
    their Kostka tables at their size."""
    shapes = skew_shapes_up_to(7)
    keys = [concavity._skew_class(lam, mu) for lam, mu in shapes]
    tables = [_function_key(shape) for shape in shapes]
    assert len(shapes) == 449 and len(set(tables)) == 88
    # each key goes with one table and each table with one key
    assert len(set(keys)) == len(set(zip(keys, tables))) == len(set(tables))


def test_differences_answer_in_the_variables_asked_for():
    """One midpoint function met in several numbers of variables is squared
    in each unit's own."""
    ones, twos = SkewShape((1, 1), ()), SkewShape((2,), ())
    mid, other = (concavity._skew_class(s.outer, s.inner) for s in (ones, twos))
    group = [(mid, n, [tuple(sorted((mid, other))), (mid, mid)]) for n in (2, 4, 3)]
    want = []
    for n in (2, 4, 3):
        square = multiply(skew_schur(ones, n), skew_schur(ones, n))
        for factor in (twos, ones):
            product = multiply(skew_schur(ones, n), skew_schur(factor, n))
            want.append(subtract_and_min_coefficient(square, product))
    assert list(concavity._differences(group)) == want


def _scan_class_differences(bound):
    """What _differences gives each class the skew-pair scan forms at the
    bound, keyed (mid key, factor keys, n); the scan runs on one worker."""
    out = {}

    def record(group):
        classes = _unit_classes(group)
        out.update(zip(classes, concavity._differences(group), strict=True))
        return [None] * len(classes)

    concavity._skew_pair_scan(record, bound, 1)
    return out


def _pairs_against_classes(classes, bound, schur):
    """The off-diagonal pairs up to the bound whose own difference, from
    the per-pair API, is not their class's in classes (also in the Schur
    basis when schur is set), and the number of pairs."""
    peeled = {}
    bad = []
    pairs = _pair_classes(bound)
    for ((l1, m1), (l3, m3)), cls in pairs:
        diff, min_coeff, witness = classes[cls]
        own, got = concavity._square_minus_product(l1, m1, l3, m3)
        same = own == diff and (got.min_coeff, got.witness) == (min_coeff, witness)
        if schur:
            if cls not in peeled:
                peeled[cls] = to_schur_basis(diff)
            same = same and to_schur_basis(own) == peeled[cls]
        if not same:
            bad.append(((l1, m1), (l3, m3)))
    return bad, len(pairs)


def test_skew_pair_classes_match_a_direct_computation_per_pair(monkeypatch):
    """Every off-diagonal pair at bound 6: the per-pair API gives what the
    pair's own skew Schur polynomials give, reading no class key, and the
    scan's class gives each pair the same difference, least coefficient,
    witness and Schur expansion."""
    classes = _scan_class_differences(6)
    assert len(classes) == 148

    def no_class_key(*args):
        raise AssertionError("the per-pair API read a class key")

    monkeypatch.setattr(concavity, "_skew_class", no_class_key)
    shapes = skew_shapes_up_to(6)
    rows = max(len(lam) for lam, _ in shapes)
    pairs = _pair_classes(6)
    assert len(pairs) == 572
    for ((l1, m1), (l3, m3)), _ in pairs:
        sh1, sh3 = SkewShape(l1, m1), SkewShape(l3, m3)
        n = max(1, sh1.size + sh3.size)
        mid = SkewShape(
            concavity._mean(pad(l1, rows), pad(l3, rows)), concavity._mean(pad(m1, rows), pad(m3, rows))
        )
        square = multiply(skew_schur(mid, n), skew_schur(mid, n))
        diff, min_coeff, witness = subtract_and_min_coefficient(
            square, multiply(skew_schur(sh1, n), skew_schur(sh3, n))
        )
        expected = SquareComparison(min_coeff >= 0, min_coeff, witness, mid.outer, mid.inner, n)
        assert concavity._square_minus_product(l1, m1, l3, m3) == (diff, expected)
        assert theorem1_verify(l1, m1, l3, m3) == expected
        ok, expansion, got = slm_schur_positivity(l1, m1, l3, m3)
        assert expansion == to_schur_basis(diff) and got == expected
        assert ok == expansion.is_nonnegative()
    assert _pairs_against_classes(classes, 6, schur=True) == ([], 572)


def test_skew_pair_scan_squares_each_midpoint_once(monkeypatch):
    """multiply(mid, mid) runs once per midpoint function, one product runs
    per class of pairs, slm peels each class once, and the reports equal
    the pool's."""
    monkeypatch.setattr(concavity, "_POOL_MIN_CLASSES", 1)
    pooled = [theorem1_scan(6, jobs=4), slm_scan(6, jobs=4)]
    shapes = skew_shapes_up_to(6)
    rows = max(len(lam) for lam, _ in shapes)
    shape_of = {pad(lam, rows) + pad(mu, rows): (lam, mu) for lam, mu in shapes}
    pairs = [(a, b) for a, b in _midpoint_pairs(list(shape_of), 1, 1) if a != b]
    function = {point: _function_key(shape) for point, shape in shape_of.items()}
    midpoints = {function[concavity._mean(a, b)] for a, b in pairs}
    classes = {(function[concavity._mean(a, b)], frozenset((function[a], function[b]))) for a, b in pairs}
    assert (len(pairs), len(midpoints), len(classes)) == (572, 40, 148)
    real_multiply, real_peel = concavity.multiply, concavity.to_schur_basis
    for scan, want, peels in zip((theorem1_scan, slm_scan), pooled, (0, len(classes))):
        calls = Counter()

        def counting(a, b):
            calls["square" if a is b else "product"] += 1
            return real_multiply(a, b)

        def peel(a):
            calls["peel"] += 1
            return real_peel(a)

        monkeypatch.setattr(concavity, "multiply", counting)
        monkeypatch.setattr(concavity, "to_schur_basis", peel)
        rep = scan(6, jobs=1)
        assert calls == Counter(square=len(midpoints), product=len(classes), peel=peels)
        assert (rep.checked, rep.violations, rep.params) == (want.checked, want.violations, want.params)


# Deterministic stand-ins that are positive and affine on a convex support,
# except for planted zeros, so every violation has a planted zero as its
# midpoint.  The real multiplicities scan clean at these sizes, so only the
# stand-ins exercise the violation records.

def _fake_weyl_dimension(w):
    return 0 if w == (3, 2, 1) else 1 + w[0]


def _fake_restriction_multiplicity(lam, mu, n, k):
    if not contains(lam, mu) or (lam, mu) == ((3, 1), (1,)):
        return 0
    return 1 + sum(mu)


_PLANTED_TRIPLE_ZEROS = {((1,), (0,), (-1,)), ((1, 0), (0, -1), (0, 0))}


def _fake_triple_invariant(t):
    flat = t[0] + t[1] + t[2]
    if sum(flat) != 0 or max(flat) > 1 or t in _PLANTED_TRIPLE_ZEROS:
        return 0
    return 7 + t[0][0] + 2 * t[2][-1]


def _fake_slice_invariants(triples):
    return [_fake_triple_invariant(t) for t in triples]


def _weyl_record(a, b, da, db):
    return {"rank": 3, "a": a, "b": b, "c": "3,2,1", "values": [da, db, "0"]}


def _conj1_record(rank, p, q, a, b, c, fa, fb):
    return {"rank": rank, "p": p, "q": q, "a": a, "b": b, "c": c, "values": [fa, fb, "0"]}


def _restriction_record(a, b, fa, fb):
    return {"a": a, "b": b, "c": "3,1/1", "values": [fa, fb, "0"]}


def test_midpoint_scanner_violation_records(monkeypatch):
    """Counts, record format and pair orientation of three midpoint scanners.

    conj1 orients each unordered (1, 1) pair with a <= b as tuples, weyl and
    restriction by enumeration order; ordered (p, q) pairs keep p on a.
    """
    monkeypatch.setattr(concavity, "weyl_dimension", _fake_weyl_dimension)
    monkeypatch.setattr(
        concavity, "restriction_multiplicity", _fake_restriction_multiplicity
    )
    monkeypatch.setattr(concavity, "triple_invariant", _fake_triple_invariant)
    monkeypatch.setattr(concavity, "slice_invariants", _fake_slice_invariants)

    rep = weyl_logconcavity_scan(3, 4)
    assert rep.checked == 164
    assert rep.violations == [
        _weyl_record("4,4,2", "2,0,0", "5", "3"),
        _weyl_record("4,2,2", "2,2,0", "5", "3"),
        _weyl_record("4,2,0", "2,2,2", "5", "3"),
        _weyl_record("4,2,1", "2,2,1", "5", "3"),
        _weyl_record("4,3,2", "2,1,0", "5", "3"),
        _weyl_record("4,3,1", "2,1,1", "5", "3"),
        _weyl_record("3,2,2", "3,2,0", "4", "4"),
        _weyl_record("3,3,2", "3,1,0", "4", "4"),
        _weyl_record("3,3,1", "3,1,1", "4", "4"),
    ]

    rep = conjecture1_scan(2, 2, 5)
    assert rep.checked == 181142
    mid = "1,0 0,-1 0,0"
    assert rep.violations == [
        _conj1_record(1, 1, 1, "1 -1 0", "1 1 -2", "1 0 -1", "8", "4"),
        _conj1_record(1, 1, 2, "1 -2 1", "1 1 -2", "1 0 -1", "10", "4"),
        _conj1_record(2, 1, 1, "1,-1 -1,-1 1,1", "1,1 1,-1 -1,-1", mid, "10", "6"),
        _conj1_record(2, 1, 1, "1,-1 0,-2 1,1", "1,1 0,0 -1,-1", mid, "10", "6"),
        _conj1_record(2, 1, 1, "1,-1 0,0 0,0", "1,1 0,-2 0,0", mid, "8", "8"),
        _conj1_record(2, 1, 1, "1,-1 1,-1 0,0", "1,1 -1,-1 0,0", mid, "8", "8"),
        _conj1_record(2, 1, 1, "1,0 -1,-2 1,1", "1,0 1,0 -1,-1", mid, "10", "6"),
    ]

    rep = restriction_logconcavity_scan(4, 2, 5)
    assert rep.checked == 1068
    assert rep.violations == [
        _restriction_record("4", "2,2/2", "1", "3"),
        _restriction_record("4/2", "2,2", "3", "1"),
        _restriction_record("4/1", "2,2/1", "2", "2"),
        _restriction_record("2,1", "4,1/2", "1", "3"),
        _restriction_record("2,1/2", "4,1", "3", "1"),
        _restriction_record("2,1/1", "4,1/1", "2", "2"),
        _restriction_record("3", "3,2/2", "1", "3"),
        _restriction_record("3/2", "3,2", "3", "1"),
        _restriction_record("3/1", "3,2/1", "2", "2"),
        _restriction_record("3,1", "3,1/2", "1", "3"),
    ]


def _fake_difference(mid, factors, n):
    # fails when the factors' degrees are 2 and 4, with the degree-4 one's
    # largest orbit as witness: symmetric in the factors, so the failing
    # pairs come in both orientations
    low, high = sorted(factors, key=_key_degree)
    if (_key_degree(low), _key_degree(high)) != (2, 4):
        return None, 0, None
    return None, -len(mid), high[-1][0]


def _fake_schur_difference(mid, factors, n):
    # fails when the factors are distinct functions of equal degree, with two
    # negative coefficients of which the record reports the least partition
    k1, k3 = factors
    if k1 == k3 or _key_degree(k1) != _key_degree(k3):
        return SchurExpansion({(n,): 1})
    return SchurExpansion({(n + 1,): 1, (n,): -len(k3), (1,) * n: -len(k1)})


def _theorem1_record(shape1, shape3, coefficient, witness):
    return {"shape1": shape1, "shape3": shape3, "min_coefficient": coefficient, "witness": witness}


def _slm_record(shape1, shape3, lam, coefficient):
    return {"shape1": shape1, "shape3": shape3, "partition": lam, "coefficient": coefficient}


def _planted_differences(fake):
    """A stand-in for _differences that yields fake(mid, factors, n) per class."""

    def differences(group):
        for mid, factors, n in _unit_classes(group):
            yield fake(mid, factors, n)

    return differences


@pytest.mark.parametrize("jobs", [1, 2])
def test_skew_pair_scanner_violation_records(jobs, monkeypatch):
    """Count, record format and order of theorem1 and slm violations planted
    by class: one record per pair of a failing class, each pair in
    _midpoint_pairs order and orientation, at one worker and on the pool
    alike.  slm's difference stands for its class, which the peel's
    stand-in expands."""
    monkeypatch.setattr(concavity, "_POOL_MIN_CLASSES", 1)
    monkeypatch.setattr(concavity, "_differences", _planted_differences(_fake_difference))
    rep = theorem1_scan(4, jobs=jobs)
    assert rep.checked == 111
    assert rep.violations == [
        _theorem1_record("2", "4", "-3", "4"),
        _theorem1_record("2", "2,2", "-2", "2,2"),
        _theorem1_record("4/2", "4", "-3", "4"),
        _theorem1_record("4/2", "2,2", "-3", "2,2"),
        _theorem1_record("4", "2,2/2", "-3", "4"),
        _theorem1_record("2,2/2", "2,2", "-2", "2,2"),
        _theorem1_record("2,1,1/2", "2,1,1", "-2", "2,1,1"),
        _theorem1_record("1,1", "3,1", "-2", "3,1"),
        _theorem1_record("3,1/2", "3,1", "-3", "3,1"),
    ]
    pairs = _pair_classes(4)
    assert rep.violations == [
        _theorem1_record(str(SkewShape(*p)), str(SkewShape(*q)), str(c), fmt_weight(w))
        for (p, q), cls in pairs
        for _, c, w in [_fake_difference(*cls)]
        if c < 0
    ]
    monkeypatch.setattr(concavity, "_differences", _planted_differences(lambda *cls: (cls, 0, None)))
    monkeypatch.setattr(concavity, "to_schur_basis", lambda cls: _fake_schur_difference(*cls))
    rep = slm_scan(4, jobs=jobs)
    assert rep.checked == 111
    assert rep.violations == [
        _slm_record("4", "2,2", "1,1,1,1,1,1,1,1", "-5"),
        _slm_record("4/1", "2,2/1", "1,1,1,1,1,1", "-3"),
        _slm_record("1,1", "3,1/2", "1,1,1,1", "-1"),
    ]
    assert rep.violations == [
        _slm_record(str(SkewShape(*p)), str(SkewShape(*q)), fmt_weight(lam), str(c))
        for (p, q), cls in pairs
        for lam, c in sorted((lam, c) for lam, c in _fake_schur_difference(*cls).terms.items() if c < 0)[:1]
    ]
    # every class fails with itself as witness, so each pair's record names
    # the class its result came from, in every degree group
    monkeypatch.setattr(concavity, "_differences", _planted_differences(lambda *cls: (None, -1, cls)))
    monkeypatch.setattr(concavity, "fmt_weight", repr)
    rep = theorem1_scan(4, jobs=jobs)
    assert rep.workers == jobs
    assert [(r["shape1"], r["shape3"], r["witness"]) for r in rep.violations] == [
        (str(SkewShape(*p)), str(SkewShape(*q)), repr(cls)) for (p, q), cls in pairs
    ]


@pytest.mark.parametrize("scan, worker", [(theorem1_scan, "_theorem1_group"), (slm_scan, "_slm_group")])
def test_skew_pair_scan_computes_each_class_once(scan, worker, monkeypatch):
    """148 classes of the 572 off-diagonal pairs at bound 6, each computed
    once, in one worker call per pair degree, and no call of the per-pair
    API.  A shape paired with itself always passes, so the classes met
    only on the diagonal are not computed."""
    real_worker, real_differences = getattr(concavity, worker), concavity._differences
    groups, calls = [], []

    def recording_worker(group):
        groups.append(group)
        return real_worker(group)

    def recording_differences(group):
        calls.extend(_unit_classes(group))
        return real_differences(group)

    def per_pair(*args):
        raise AssertionError("the scan called the per-pair API")

    monkeypatch.setattr(concavity, worker, recording_worker)
    monkeypatch.setattr(concavity, "_differences", recording_differences)
    for name in ("theorem1_verify", "slm_schur_positivity", "_square_minus_product"):
        monkeypatch.setattr(concavity, name, per_pair)
    rep = scan(6)
    shapes = skew_shapes_up_to(6)
    pairs = _pair_classes(6)
    classes = {cls for _, cls in pairs}
    assert rep.clean and rep.checked == len(pairs) + len(shapes) == 572 + len(shapes)
    assert len(calls) == len(set(calls)) == len(classes) == 148
    assert set(calls) == classes
    assert len(groups) == len({sum(map(_key_degree, pair)) for _, pair, _ in classes})
    diagonal = {(_function_key(s), (_function_key(s),) * 2, max(1, 2 * (sum(s[0]) - sum(s[1])))) for s in shapes}
    assert diagonal - classes and not (diagonal - classes) & set(calls)


def _fake_saturation_invariant(t):
    # zero at every triple with top entry 1 and nonzero at its stretches
    # (a saturation record), and growing linearly rather than as a power
    # under stretching (power-bound records)
    flat = t[0] + t[1] + t[2]
    return max(flat) // 2 if sum(flat) == 0 else 0


def _alpha_record(triple, v1, v2):
    return {"rank": 2, "p": 1, "q": 1, "triple": triple, "values": [v1, v2]}


def _saturation_record(kind, triple, k, base, value):
    return {"kind": kind, "triple": triple, "k": k, "values": [base, value]}


def test_alpha_and_saturation_violation_records(monkeypatch):
    """Counts and record format of the alpha and saturation scanners.

    alpha records the original value before the image value; saturation
    emits a "saturation" record before a "power_bound" record of one row.
    """
    monkeypatch.setattr(concavity, "triple_invariant", _fake_triple_invariant)
    rep = alpha_scan(2, 1, 5)
    assert rep.checked == 111
    assert rep.violations == [
        _alpha_record("1,1 1,-1 -1,-1", "6", "5"),
        _alpha_record("1,-1 -1,-1 1,1", "10", "0"),
        _alpha_record("-1,-1 1,-1 1,1", "8", "7"),
    ]

    monkeypatch.setattr(concavity, "triple_invariant", _fake_saturation_invariant)
    rep = saturation_scan_all(2, 1, 2)
    assert rep.checked == 54
    sat, power = "saturation", "power_bound"
    assert rep.violations == [
        _saturation_record(sat, "-1 0 1", 2, "0", "1"),
        _saturation_record(power, "-1 0 1", 2, "0", "1"),
        _saturation_record(sat, "-1 1 0", 2, "0", "1"),
        _saturation_record(power, "-1 1 0", 2, "0", "1"),
        _saturation_record(power, "-2 0 2", 2, "1", "2"),
        _saturation_record(sat, "-2 1 1", 2, "0", "1"),
        _saturation_record(power, "-2 1 1", 2, "0", "1"),
        _saturation_record(power, "-2 2 0", 2, "1", "2"),
    ]


# ---------------------------------------------------------------------------
# ws**3 oracles: the triple scans as they were before they were restricted
# to the sum-zero slice, every triple visited and every instance enumerated
# ---------------------------------------------------------------------------


def _oracle_weight_triples(rank, bound):
    ws = list(dominant_weights(rank, -bound, bound))
    return [(a, b, c) for a in ws for b in ws for c in ws]


def _oracle_conj1_count(sizes, p, q):
    """Integral-midpoint pairs from the class sizes of the flattened triples."""
    if p == q:
        return sum(n * (n + 1) // 2 for n in sizes.values())
    m = p + q
    # the residue y with p*x + q*y = 0 mod m, found by search
    partner = {x: next(y for y in range(m) if (p * x + q * y) % m == 0) for x in range(m)}
    return sum(n * sizes[tuple(partner[x] for x in r)] for r, n in sizes.items())


def _oracle_triple_sizes(triples, m):
    return Counter(tuple(x % m for w in t for x in w) for t in triples)


def _oracle_alpha_count(triples, p, q):
    return sum(concavity._circulant_image(t, p, q) is not None for t in triples)


def _oracle_conjecture1_scan(weight_bound, rank_bound, pq_bound):
    checked, violations = 0, []
    for rank in range(1, rank_bound + 1):
        triples = _oracle_weight_triples(rank, weight_bound)
        values = {}
        for t in triples:
            if sum(map(sum, t)) == 0 and (v := concavity.triple_invariant(t)):
                values[t] = v
        support = sorted(values)
        flats = {t: sum(t, ()) for t in support}
        for p, q in concavity._primitive_pq(pq_bound):
            if p > q:
                continue
            m = p + q
            checked += _oracle_conj1_count(_oracle_triple_sizes(triples, m), p, q)
            for a in support:
                for b in support:
                    if (p == q and b < a) or any(
                        (p * x + q * y) % m for x, y in zip(flats[a], flats[b])
                    ):
                        continue
                    c = tuple(
                        tuple((p * x + q * y) // m for x, y in zip(u, w))
                        for u, w in zip(a, b)
                    )
                    fa, fb, fc = values[a], values[b], values.get(c, 0)
                    if fc**m < fa**p * fb**q:
                        a_s, b_s, c_s = map(concavity.fmt_triple, (a, b, c))
                        violations.append(
                            {"rank": rank, "p": p, "q": q, "a": a_s, "b": b_s, "c": c_s,
                             "values": [str(fa), str(fb), str(fc)]}
                        )
    violations.sort(key=lambda v: (v["rank"], v["p"], v["q"], v["a"], v["b"]))
    return checked, violations


def _oracle_alpha_scan(rank_bound, entry_bound, pq_bound):
    checked, violations = 0, []
    for rank in range(1, rank_bound + 1):
        triples = _oracle_weight_triples(rank, entry_bound)
        for p, q in concavity._primitive_pq(pq_bound):
            for t in triples:
                t2 = concavity._circulant_image(t, p, q)
                if t2 is None:
                    continue
                checked += 1
                v1 = concavity.triple_invariant(t)
                if v1 == 0:
                    continue
                v2 = concavity.triple_invariant(t2)
                if v2 < v1:
                    violations.append(
                        {
                            "rank": rank,
                            "p": p,
                            "q": q,
                            "triple": concavity.fmt_triple(t),
                            "values": [str(v1), str(v2)],
                        }
                    )
    return checked, violations


@pytest.mark.parametrize("rank, bound", [(r, b) for r in (1, 2, 3) for b in (1, 2)])
def test_triple_scan_counts_match_ws3_oracle(rank, bound):
    """conj1's product formula and alpha's 3-cycle formula against ws**3."""
    ws = list(dominant_weights(rank, -bound, bound))
    triples = _oracle_weight_triples(rank, bound)
    sizes = {m: _oracle_triple_sizes(triples, m) for m in range(2, 8)}
    # the box [-bound, 300] has two bytes per digit: its residues come from unpacking
    for box in (concavity._Packing(rank, -bound, bound), concavity._Packing(rank, -bound, 300)):
        keys = [box.pack(w) for w in ws]
        for p, q in concavity._primitive_pq(7):
            assert concavity._midpoint_count(box, keys, p, q, 3) == _oracle_conj1_count(
                sizes[p + q], p, q
            ), (p, q)
    # alpha_scan counts every rank up to its bound
    assert concavity.alpha_scan(rank, bound, 7).checked == sum(
        _oracle_alpha_count(_oracle_weight_triples(r, bound), p, q)
        for r in range(1, rank + 1)
        for p, q in concavity._primitive_pq(7)
    )
    assert list(concavity._sum_zero_triples(ws, ws, ws)) == [
        t for t in triples if sum(map(sum, t)) == 0
    ]


@pytest.mark.parametrize("fake", [False, True])
def test_triple_scans_match_ws3_oracle_scans(fake, monkeypatch):
    """conj1 reads pair decompositions and its oracle counts LR tableaux,
    so unfaked this compares the two routes on whole reports."""
    if fake:
        monkeypatch.setattr(concavity, "triple_invariant", _fake_triple_invariant)
        monkeypatch.setattr(concavity, "slice_invariants", _fake_slice_invariants)
    for bound, rank, pq in ((2, 2, 7), (1, 4, 4)):
        rep = conjecture1_scan(bound, rank, pq)
        assert (rep.checked, rep.violations) == _oracle_conjecture1_scan(bound, rank, pq)
        assert bool(rep.violations) == fake
    for rank, bound, pq in ((2, 2, 7), (4, 1, 4), (1, 4, 4)):
        rep = alpha_scan(rank, bound, pq)
        assert (rep.checked, rep.violations) == _oracle_alpha_scan(rank, bound, pq)


def _lr_cache_bytes(tmp_path, monkeypatch, name, *runs):
    """The LR cache file that runs write, each with a fresh default cache."""
    monkeypatch.setenv("LOGCAVE_CACHE_DIR", str(tmp_path / name))
    try:
        for run in runs:
            lrmod.reset_default_cache()
            run()
    finally:
        lrmod.reset_default_cache()
    return (tmp_path / name / "lr_cache.txt").read_bytes()


def test_triple_scans_write_lr_cache_in_ws3_order(tmp_path, monkeypatch):
    """The LR cache file's lines come in the order of the ws**3 scans."""

    def cache_bytes(name, *runs):
        return _lr_cache_bytes(tmp_path, monkeypatch, name, *runs)

    def oracle_fill():
        for rank in (1, 2, 3):
            for t in _oracle_weight_triples(rank, 1):
                if sum(map(sum, t)) == 0:
                    concavity.triple_invariant(t)

    scans = cache_bytes(
        "scans", lambda: conjecture1_scan(1, 3, 5), lambda: alpha_scan(3, 1, 5)
    )
    assert scans and scans == cache_bytes("oracle", oracle_fill)
    # alone, alpha also looks up images, in the order of the ws**3 loop
    alpha = cache_bytes("alpha", lambda: alpha_scan(2, 2, 5))
    assert alpha == cache_bytes("alpha-oracle", lambda: _oracle_alpha_scan(2, 2, 5))


# ---------------------------------------------------------------------------
# logv and saturation oracles: each scan as it was before it moved onto a
# shared walk, logv's i <= j parity loop and saturation's full cube
# ---------------------------------------------------------------------------


def _oracle_logv_scan(rank_bound, entry_bound):
    checked, violations = 0, []
    for rank in range(1, rank_bound + 1):
        ws = list(dominant_weights(rank, -entry_bound, entry_bound))
        for i, mu in enumerate(ws):
            for nu in ws[i:]:
                if any((x + y) % 2 for x, y in zip(mu, nu)):
                    continue
                checked += 1
                left = concavity.tensor_product_multiplicities(mu, nu)
                right = lrmod.tensor_square_multiplicities(
                    tuple((x + y) // 2 for x, y in zip(mu, nu))
                )
                bad = [lam for lam in left if left[lam] > right.get(lam, 0)]
                if bad:
                    violations.append(
                        {"rank": rank, "mu": fmt_weight(mu), "nu": fmt_weight(nu),
                         "lam": fmt_weight(min(bad))}
                    )
    return checked, violations


def _oracle_saturation_scan_all(max_weight, rank, k_max):
    parts = list(partitions_up_to(max_weight, max_parts=rank))
    checked, violations = 0, []
    for lam in parts:
        for mu in parts:
            for nu in parts:
                t = (dual_weight(pad(lam, rank)), pad(mu, rank), pad(nu, rank))
                rows = saturation_scan(t, k_max)
                checked += len(rows)
                for row in rows:
                    for kind, ok in (
                        ("saturation", row.saturation_ok),
                        ("power_bound", row.power_bound_ok),
                    ):
                        if not ok:
                            violations.append(
                                _saturation_record(
                                    kind, concavity.fmt_triple(t), row.k,
                                    str(rows[0].value), str(row.value),
                                )
                            )
    return checked, violations


_true_pair_decomposition = lrmod._pair_decomposition


def _split_weight(split, n):
    """The weight of rank n that shift_to_partition splits into split."""
    p, s = split
    return tuple(x + s for x in pad(p, n))


def _fake_pair_decomposition(a, b, n):
    # the true decomposition with its top constituent mu + nu doubled when
    # the first entries differ by 2, planted in the pair's shifted frame;
    # the tensor squares stay true
    dec, shift = _true_pair_decomposition(a, b, n)
    mu, nu = _split_weight(a, n), _split_weight(b, n)
    if abs(mu[0] - nu[0]) == 2:
        dec = dict(dec)
        dec[tuple(x + y - shift for x, y in zip(mu, nu))] += 1
    return dec, shift


def _patch_pair_seam(monkeypatch, fake):
    """Replace the pair decomposition logv_scan reads, and the one behind
    tensor_product_multiplicities, which the oracle reads."""
    monkeypatch.setattr(concavity, "_pair_decomposition", fake)
    monkeypatch.setattr(lrmod, "_pair_decomposition", fake)


def _logv_key(v):
    return v["rank"], v["mu"], v["nu"]


@pytest.mark.parametrize("fake", [False, True])
def test_logv_scan_matches_parity_loop_oracle(fake, monkeypatch):
    """Same instances and violations as the i <= j loop, in pair-engine order."""
    if fake:
        _patch_pair_seam(monkeypatch, _fake_pair_decomposition)
    for rank, bound in ((1, 3), (2, 2), (3, 1), (2, 3)):
        rep = logv_scan(rank, bound)
        checked, violations = _oracle_logv_scan(rank, bound)
        assert rep.checked == checked
        assert sorted(rep.violations, key=_logv_key) == sorted(violations, key=_logv_key)
        assert bool(rep.violations) == fake


def _logv_record(rank, mu, nu, lam):
    return {"rank": rank, "mu": mu, "nu": nu, "lam": lam}


def test_logv_scan_violation_records(monkeypatch):
    """Count, record format and order of planted logv violations.

    Within a rank the records follow _midpoint_pairs: residue classes of
    mu mod 2 in sorted order, then the i <= j order of the weights.
    """
    _patch_pair_seam(monkeypatch, _fake_pair_decomposition)
    rep = logv_scan(2, 2)
    assert rep.checked == 48
    assert rep.violations == [
        _logv_record(1, "2", "0", "2"),
        _logv_record(1, "0", "-2", "-2"),
        _logv_record(1, "1", "-1", "0"),
        _logv_record(2, "2,2", "0,0", "2,2"),
        _logv_record(2, "2,2", "0,-2", "2,0"),
        _logv_record(2, "2,0", "0,0", "2,0"),
        _logv_record(2, "2,0", "0,-2", "2,-2"),
        _logv_record(2, "2,-2", "0,0", "2,-2"),
        _logv_record(2, "2,-2", "0,-2", "2,-4"),
        _logv_record(2, "0,0", "-2,-2", "-2,-2"),
        _logv_record(2, "0,-2", "-2,-2", "-2,-4"),
        _logv_record(2, "2,1", "0,-1", "2,0"),
        _logv_record(2, "2,-1", "0,-1", "2,-2"),
        _logv_record(2, "1,0", "-1,-2", "0,-2"),
        _logv_record(2, "1,-2", "-1,-2", "0,-4"),
        _logv_record(2, "1,1", "-1,-1", "0,0"),
        _logv_record(2, "1,-1", "-1,-1", "0,-2"),
    ]


def test_logv_scan_counts_but_does_not_evaluate_the_diagonal(monkeypatch):
    """V^mu (x) V^mu is the tensor square of mu, so no (mu, mu) pair is decomposed.

    Each weight's square goes through the seam once, as its (a, a) call;
    every other call is an off-diagonal pair.
    """
    bound = 2
    checked = [logv_scan(rank, bound).checked for rank in range(4)]
    calls = []

    def recording(a, b, n):
        calls.append((a, b, n))
        return _true_pair_decomposition(a, b, n)

    _patch_pair_seam(monkeypatch, recording)
    rep = logv_scan(3, bound)
    assert rep.checked == checked[3] and calls
    for rank in (1, 2, 3):
        ws = list(dominant_weights(rank, -bound, bound))
        squares = sorted(a for a, b, n in calls if n == rank and a == b)
        assert squares == sorted(shift_to_partition(w) for w in ws), rank
        evaluated = sum(n == rank and a != b for a, b, n in calls)
        assert evaluated == checked[rank] - checked[rank - 1] - len(ws), rank


def test_logv_scan_splits_each_weight_once_per_rank(monkeypatch):
    splits = Counter()

    def recording(w):
        splits[w] += 1
        return shift_to_partition(w)

    # the pair decompositions take splits, so lr splits no weight of its own
    monkeypatch.setattr(concavity, "shift_to_partition", recording)
    monkeypatch.setattr(lrmod, "shift_to_partition", recording)
    assert logv_scan(3, 2).clean
    ws = [w for rank in (1, 2, 3) for w in dominant_weights(rank, -2, 2)]
    assert splits == Counter(ws)


def test_logv_scan_unpacks_no_key_when_clean(monkeypatch):
    calls = []
    unpack = concavity._Packing.unpack

    def recording(self, key):
        calls.append(key)
        return unpack(self, key)

    monkeypatch.setattr(concavity._Packing, "unpack", recording)
    assert logv_scan(3, 2).clean
    assert calls == []


@pytest.mark.parametrize("fake", [False, True])
def test_saturation_scan_matches_full_cube_oracle(fake, monkeypatch):
    """Same report as the loop over every partition triple, slice or not.

    The fake, like the true invariant, vanishes off the sum-zero slice.
    """
    if fake:
        monkeypatch.setattr(concavity, "triple_invariant", _fake_saturation_invariant)
    for bound, rank, k_max in ((2, 1, 2), (3, 2, 3), (2, 3, 2), (4, 2, 2)):
        rep = saturation_scan_all(bound, rank, k_max)
        assert (rep.checked, rep.violations) == _oracle_saturation_scan_all(bound, rank, k_max)
        assert bool(rep.violations) == fake


def test_saturation_scan_writes_lr_cache_in_cube_order(tmp_path, monkeypatch):
    def cache_bytes(name, run):
        return _lr_cache_bytes(tmp_path, monkeypatch, name, run)

    scan = cache_bytes("scan", lambda: saturation_scan_all(3, 3, 3))
    assert scan and scan == cache_bytes("oracle", lambda: _oracle_saturation_scan_all(3, 3, 3))


_SMALL_TRIPLE = ((1, 0, -1), (1, 0, -1), (1, 0, -1))


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda: saturation_scan(_SMALL_TRIPLE, 0), ValueError, "k_max must be >= 1"),
        (lambda: alpha_matrix_check(_SMALL_TRIPLE, -1, 1), ValueError, r"need p, q >= 0"),
        (
            lambda: convolution_logconcavity_check([1, -1], [1]),
            SequencePreconditionError,
            "first sequence has a negative entry",
        ),
    ],
)
def test_concavity_rejects_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()
