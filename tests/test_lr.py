import os
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from logcave import lr as lrmod
from logcave.lr import (
    LRCache,
    lr_coefficient,
    lr_coefficient_schur_peel,
    lr_skew_count,
    restriction_multiplicity,
    tensor_product_multiplicities,
    tensor_square_multiplicities,
    triple_invariant,
)
from logcave.concavity import _sum_zero_triples
from logcave.partitions import (
    SkewShape,
    contains,
    count_ssyt,
    dominant_weights,
    dual_weight,
    pad,
    partitions_of,
    partitions_up_to,
    shift_to_partition,
    weyl_dimension,
)
from test_concavity import _midpoint_pairs


def test_lr_examples():
    assert lr_coefficient((2, 1, 0), (2, 1, 0), (0, 0, 0)) == 1
    assert lr_coefficient((2, 1, 0), (1, 0, 0), (1, 1, 0)) == 1
    assert lr_coefficient((3, 2, 1), (2, 1, 0), (2, 1, 0)) == 2


def test_lr_rank_and_dominance_errors():
    with pytest.raises(ValueError):
        lr_coefficient((1, 0), (1, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        lr_coefficient((0, 1), (0, 0), (0, 0))


def test_lr_shift_invariance():
    for a in (-2, 0, 1):
        for b in (-1, 0, 2):
            assert lr_coefficient(
                tuple(x + a + b for x in (3, 2, 1)),
                tuple(x + a for x in (2, 1, 0)),
                tuple(x + b for x in (2, 1, 0)),
            ) == 2


def test_lr_zero_outside_cone():
    assert lr_coefficient((3, 0, 0), (1, 0, 0), (1, 0, 0)) == 0
    assert lr_coefficient((0, 0, -3), (1, 0, 0), (1, 1, 0)) == 0


def test_lr_tableau_count_matches_schur_peel():
    rank = 3
    for mu in partitions_up_to(4, rank):
        for nu in partitions_up_to(4, rank):
            for lam in partitions_up_to(sum(mu) + sum(nu), rank):
                if sum(lam) != sum(mu) + sum(nu):
                    continue
                a = lr_coefficient(pad(lam, rank), pad(mu, rank), pad(nu, rank))
                b = lr_coefficient_schur_peel(
                    pad(lam, rank), pad(mu, rank), pad(nu, rank)
                )
                assert a == b, (lam, mu, nu)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_lr_routes_agree_beyond_weight_8_under_shifts(data):
    # the tableau count and the Schur peel are independent routes; weights
    # with negative entries come from shifting mu, nu and lam together
    rank = data.draw(st.integers(4, 5))
    size = data.draw(st.integers(9, 11))
    k = data.draw(st.integers(0, size))
    mu = data.draw(st.sampled_from(list(partitions_of(k, rank))))
    nu = data.draw(st.sampled_from(list(partitions_of(size - k, rank))))
    lams = [l for l in partitions_of(size, rank) if contains(l, mu) and contains(l, nu)]
    lam = data.draw(st.sampled_from(lams))
    a = data.draw(st.integers(-3, 3))
    b = data.draw(st.integers(-3, 3))
    lam, mu, nu = pad(lam, rank), pad(mu, rank), pad(nu, rank)
    value = lr_coefficient(lam, mu, nu)
    lam_s = tuple(x + a + b for x in lam)
    mu_s = tuple(x + a for x in mu)
    nu_s = tuple(x + b for x in nu)
    assert lr_coefficient(lam_s, mu_s, nu_s) == value
    assert lr_coefficient_schur_peel(lam_s, mu_s, nu_s) == value


def test_lr_dimension_bookkeeping():
    for mu in [(2, 1, 0), (1, 1, 0), (2, 0, 0)]:
        for nu in [(1, 0, 0), (2, 1, 0)]:
            dec = tensor_product_multiplicities(mu, nu)
            assert sum(m * weyl_dimension(w) for w, m in dec.items()) == weyl_dimension(
                mu
            ) * weyl_dimension(nu)


def test_triple_invariant_examples():
    assert triple_invariant(((0, 0), (0, 0), (0, 0))) == 1
    lam = (3, 1, 0)
    assert triple_invariant((lam, dual_weight(lam), (0, 0, 0))) == 1
    assert triple_invariant(((1, 0), (1, 0), (1, 0))) == 0  # entries sum to 3


def test_triple_invariant_checks_each_weight_once(monkeypatch):
    checked = []
    real = lrmod.weight
    monkeypatch.setattr(lrmod, "weight", lambda w: checked.append(w) or real(w))
    t = ((1, 0, -1), (1, 0, -1), (1, 0, -1))
    lrmod.reset_default_cache()
    assert triple_invariant(t) == 2
    assert checked == list(t)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_triple_invariant_symmetry(data):
    entries = st.lists(st.integers(-2, 2), min_size=2, max_size=2).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )
    t = (data.draw(entries), data.draw(entries), data.draw(entries))
    base = triple_invariant(t)
    assert triple_invariant((t[1], t[2], t[0])) == base
    assert triple_invariant((t[0], t[2], t[1])) == base


def test_restriction_multiplicity_examples():
    assert restriction_multiplicity((2, 1), (), 3, 1) == 2
    assert restriction_multiplicity((2, 1), (2, 1), 5, 3) == 1
    assert restriction_multiplicity((2,), (1, 1), 4, 2) == 0
    with pytest.raises(ValueError):
        restriction_multiplicity((1,), (), 2, 2)


def test_restriction_matches_direct_tableau_count():
    # n - k is the largest tableau entry, so the branching recursion runs n - k levels deep
    for n, k in ((4, 2), (5, 2), (6, 2)):
        for lam in partitions_up_to(5, n):
            for mu in partitions_up_to(3, k):
                m = n - k
                expected = count_ssyt(SkewShape(lam, mu), m) if contains(lam, mu) else 0
                assert restriction_multiplicity(lam, mu, n, k) == expected, (lam, mu, n, k)


def test_skew_schur_decomposes_with_lr_coefficients():
    # the Schur expansion of a skew Schur polynomial is the row of
    # tensor-product multiplicities with the same outer weight
    from logcave.symfunc import skew_schur, to_schur_basis

    n = 3
    for lam in partitions_up_to(5, n):
        for mu in partitions_up_to(3, n):
            if not contains(lam, mu):
                continue
            expansion = to_schur_basis(skew_schur(SkewShape(lam, mu), n))
            for nu in partitions_up_to(sum(lam) - sum(mu), n):
                expected = lr_coefficient(pad(lam, n), pad(mu, n), pad(nu, n))
                assert expansion.coefficient(nu) == expected, (lam, mu, nu)


def test_lr_cache_env_variable(tmp_path, monkeypatch):
    import logcave.lr as lrmod

    monkeypatch.setenv("LOGCAVE_CACHE_DIR", str(tmp_path))
    lrmod.reset_default_cache()
    try:
        assert triple_invariant(((1, 0, -1),) * 3) == 2
        cache_file = tmp_path / "lr_cache.txt"
        assert cache_file.exists() and "2" in cache_file.read_text()
    finally:
        lrmod.reset_default_cache()


def test_without_a_cache_dir_lr_skew_count_is_the_only_memo(monkeypatch):
    monkeypatch.delenv("LOGCAVE_CACHE_DIR", raising=False)
    lrmod.reset_default_cache()
    assert lrmod._default_cache() is None
    ws = list(dominant_weights(2, -2, 2))
    nonzero = 0
    for lam in ws:
        for mu in ws:
            for nu in ws:
                if sum(lam) + sum(mu) + sum(nu):
                    continue
                got = triple_invariant((lam, mu, nu))
                assert got == lr_coefficient(dual_weight(lam), mu, nu), (lam, mu, nu)
                assert got == lr_coefficient(dual_weight(mu), nu, lam), (lam, mu, nu)
                nonzero += got > 0
    assert nonzero


def test_tensor_square_examples():
    assert tensor_square_multiplicities((0, 0)) == {(0, 0): 1}
    assert tensor_square_multiplicities((1, 0)) == {(2, 0): 1, (1, 1): 1}
    ts = tensor_square_multiplicities((2, 1, 0))
    assert sum(m * weyl_dimension(w) for w, m in ts.items()) == 64


def test_tensor_product_with_positive_minimum_entries():
    # the shift is min(w) also when it is positive: a det twist of each factor
    mu, nu = (4, 4, 2), (3, 1, 1)
    got = tensor_product_multiplicities(mu, nu)
    translated = tensor_product_multiplicities((2, 2, 0), (2, 0, 0))
    assert got == {tuple(x + 3 for x in lam): m for lam, m in translated.items()}
    assert sum(m * weyl_dimension(lam) for lam, m in got.items()) == weyl_dimension(
        mu
    ) * weyl_dimension(nu)
    for lam, m in got.items():
        assert m == lr_coefficient_schur_peel(lam, mu, nu), lam
    for a, b in (((5, 3, 3), (2, 2, 1)), ((1, 1), (3, 2)), ((2, 2, 2), (1, 1, 1))):
        for lam, m in tensor_product_multiplicities(a, b).items():
            assert m == lr_coefficient_schur_peel(lam, a, b), (a, b, lam)


def lr_route_decomposition(w1, w2):
    """Oracle: V^w1 (x) V^w2 from one LR tableau count per partition that fits.

    A lam with lam_1 > p1_1 + p2_1 needs more 1s in the first row of
    lam/p1 than p2 has, so its count is 0 and it is skipped.
    """
    n = len(w1)
    p1, s1 = shift_to_partition(w1)
    p2, s2 = shift_to_partition(w2)
    out = {}
    for lam in partitions_of(sum(p1) + sum(p2), max_parts=n):
        c = lr_skew_count(lam, p1, p2)
        if c:
            out[tuple(x + s1 + s2 for x in pad(lam, n))] = c
    return out


@pytest.mark.parametrize("rank, bound", [(1, 3), (2, 3), (3, 3), (4, 2)])
def test_brauer_klimyk_matches_lr_route_on_every_ordered_pair(rank, bound):
    lrmod.reset_default_cache()
    ws = list(dominant_weights(rank, -bound, bound))
    for mu in ws:
        for nu in ws:
            assert tensor_product_multiplicities(mu, nu) == lr_route_decomposition(mu, nu), (mu, nu)


def test_brauer_klimyk_matches_lr_route_on_logv_pairs_at_rank_5():
    lrmod.reset_default_cache()
    ws = list(dominant_weights(5, -2, 2))
    for w in ws:
        assert tensor_square_multiplicities(w) == lr_route_decomposition(w, w), w
    for mu, nu in _midpoint_pairs(ws, 1, 1):
        assert tensor_product_multiplicities(mu, nu) == lr_route_decomposition(mu, nu), (mu, nu)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_brauer_klimyk_matches_lr_route_on_signed_weights(data):
    rank = data.draw(st.integers(1, 4))
    entries = st.lists(st.integers(-4, 4), min_size=rank, max_size=rank)
    mu = tuple(sorted(data.draw(entries), reverse=True))
    nu = tuple(sorted(data.draw(entries), reverse=True))
    assert tensor_product_multiplicities(mu, nu) == lr_route_decomposition(mu, nu)
    assert tensor_product_multiplicities(nu, mu) == lr_route_decomposition(mu, nu)


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("rank, bound", [(3, 3), (4, 2)])
def test_slice_invariants_match_triple_invariant_on_every_slice_triple(
    rank, bound, cached, tmp_path, monkeypatch
):
    """The slice_invariants fill, which reads pair decompositions, against LR tableau
    counts, one value per slice triple."""
    ws = list(dominant_weights(rank, -bound, bound))
    triples = list(_sum_zero_triples(ws, ws, ws))
    monkeypatch.delenv("LOGCAVE_CACHE_DIR", raising=False)
    lrmod.reset_default_cache()
    expected = {t: triple_invariant(t) for t in triples}
    if cached:
        monkeypatch.setenv("LOGCAVE_CACHE_DIR", str(tmp_path))
    lrmod.reset_default_cache()
    try:
        assert dict(zip(triples, lrmod.slice_invariants(triples))) == expected
    finally:
        lrmod.reset_default_cache()
    assert sum(map(bool, expected.values())) > len(triples) // 3
    if cached:
        stored = LRCache(str(tmp_path / "lr_cache.txt"))
        assert stored._memory == expected


def test_tensor_product_returns_a_fresh_dict():
    mu, nu = (2, 0, -1), (1, 1, 0)
    first = tensor_product_multiplicities(mu, nu)
    expected = dict(first)
    first[(3, 1, -1)] += 5
    first[(9, 9, 9)] = 1
    assert tensor_product_multiplicities(mu, nu) == expected
    assert tensor_product_multiplicities(nu, mu) == expected
    square = tensor_square_multiplicities((1, 0))
    square.clear()
    assert tensor_square_multiplicities((1, 0)) == {(2, 0): 1, (1, 1): 1}


def test_reset_default_cache_empties_the_decomposition_memos():
    tensor_product_multiplicities((3, 1, 0), (2, 2, 1))
    assert lrmod._brauer_klimyk.cache_info().currsize
    assert lrmod._weights.cache_info().currsize
    lrmod.reset_default_cache()
    assert lrmod._brauer_klimyk.cache_info().currsize == 0
    assert lrmod._weights.cache_info().currsize == 0


def test_lr_skew_count_lattice_condition():
    # shape (2,1)/(), content (2,1): single LR tableau (rows 1 1 / 2)
    assert lr_skew_count((2, 1), (), (2, 1)) == 1
    # content not dominated: no lattice word
    assert lr_skew_count((2, 1), (), (1, 2)) == 0


def test_cache_round_trip(tmp_path, monkeypatch):
    path = os.path.join(tmp_path, "lr_cache.txt")
    monkeypatch.setenv("LOGCAVE_CACHE_DIR", str(tmp_path))
    lrmod.reset_default_cache()
    t = ((1, 0, -1), (1, 0, -1), (1, 0, -1))
    try:
        v = triple_invariant(t)
    finally:
        lrmod.reset_default_cache()
    assert v == 2
    # new cache instance reads the stored value instead of recomputing
    c2 = LRCache(path)
    assert c2.get_or_compute(t, lambda: -999) == v
    with open(path) as fh:
        line = fh.read().strip()
    assert line == "1,0,-1;1,0,-1;1,0,-1;3;2"


def test_cache_torn_tail_is_ignored_and_closed(tmp_path):
    path = os.path.join(tmp_path, "lr_cache.txt")
    key = ((1, 0, -1), (1, 0, -1), (1, 0, -1))
    whole = "2,0,0;0,0,-1;0,0,-1;3;5\n\n"  # a blank line loads nothing
    # "...;3;12" cut short after its first digit and before its newline
    with open(path, "w", encoding="ascii") as fh:
        fh.write(whole + "1,0,-1;1,0,-1;1,0,-1;3;1")
    c1 = LRCache(path)
    assert len(c1) == 1
    assert c1.get_or_compute(key, lambda: 12) == 12
    c1.close()
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    assert text == whole + "1,0,-1;1,0,-1;1,0,-1;3;1#\n1,0,-1;1,0,-1;1,0,-1;3;12\n"
    # the closed fragment never loads; the appended line does
    c2 = LRCache(path)
    assert len(c2) == 2
    assert c2.get_or_compute(key, lambda: -999) == 12


def test_cache_closed_fragment_without_recompute_stays_unloaded(tmp_path):
    path = os.path.join(tmp_path, "lr_cache.txt")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("1,0,-1;1,0,-1;1,0,-1;3;1")
    c1 = LRCache(path)
    c1.get_or_compute(((0,), (0,), (0,)), lambda: 1)
    c1.close()
    c2 = LRCache(path)
    assert len(c2) == 1
    t = ((1, 0, -1), (1, 0, -1), (1, 0, -1))
    assert c2.get_or_compute(t, lambda: 2) == 2
    c2.close()


def test_cache_concurrent_access(tmp_path, monkeypatch):
    path = os.path.join(tmp_path, "lr_cache.txt")
    monkeypatch.setenv("LOGCAVE_CACHE_DIR", str(tmp_path))
    lrmod.reset_default_cache()
    lrmod._default_cache()  # the threads share this one cache
    results = []

    def worker(i):
        t = ((1, 0, -1), (1, 0, -1), (1, 0, -1))
        results.append(triple_invariant(t))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        lrmod.reset_default_cache()
    assert results == [2] * 8
    # file only ever contains whole lines
    with open(path) as fh:
        for line in fh:
            assert line.endswith("\n") and len(line.strip().split(";")) == 5


def test_cache_opens_its_file_once(tmp_path, monkeypatch):
    path = str(tmp_path / "lr_cache.txt")
    opened = []

    def counted_open(*args, **kwargs):
        opened.append(args)
        return open(*args, **kwargs)

    monkeypatch.setattr(lrmod, "open", counted_open, raising=False)
    cache = LRCache(path)
    assert opened == []  # no file yet, and nothing is opened until an append
    for v in range(50):
        assert cache.get_or_compute(((v,), (0,), (-v,)), lambda: v) == v
    cache.close()
    assert opened == [(path, "a+b")]
    lines = (tmp_path / "lr_cache.txt").read_text().splitlines()
    assert lines == [f"{v};0;{-v};1;{v}" for v in range(50)]


def test_cache_threads_share_one_handle_without_losing_a_line(tmp_path):
    path = tmp_path / "lr_cache.txt"
    cache = LRCache(str(path))
    keys = [((i,), (j,), (-i - j,)) for i in range(8) for j in range(100)]

    def worker(i):
        for key in keys[100 * i : 100 * (i + 1)]:
            cache.get_or_compute(key, lambda: key[0][0] + 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        cache.close()
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == len(keys) and all(line.endswith("\n") for line in lines)
    reloaded = LRCache(str(path))
    assert reloaded._memory == {key: key[0][0] + 1 for key in keys}


def test_cache_closes_a_tail_torn_between_two_appends(tmp_path):
    path = tmp_path / "lr_cache.txt"
    cache = LRCache(str(path))
    cache.get_or_compute(((1,), (0,), (-1,)), lambda: 1)
    # a second writer dies mid-line while the first keeps its handle open
    with open(path, "a", encoding="ascii") as fh:
        fh.write("2;0;-2;1;")
    cache.get_or_compute(((3,), (0,), (-3,)), lambda: 1)
    cache.close()
    assert path.read_text() == "1;0;-1;1;1\n2;0;-2;1;#\n3;0;-3;1;1\n"
    assert len(LRCache(str(path))) == 2


def test_cache_batch_after_a_torn_tail_starts_on_a_fresh_line(tmp_path):
    path = tmp_path / "lr_cache.txt"
    path.write_text("1;0;-1;1;1\n2;0;-2;1;")
    cache = LRCache(str(path))
    keys = [((v,), (0,), (-v,)) for v in (3, 4, 5)]
    cache.append(keys, [1, 1, 1])
    cache.close()
    assert path.read_text() == "1;0;-1;1;1\n2;0;-2;1;#\n3;0;-3;1;1\n4;0;-4;1;1\n5;0;-5;1;1\n"
    assert LRCache(str(path))._memory == dict.fromkeys([((1,), (0,), (-1,)), *keys], 1)


def test_cache_empty_batch_opens_nothing(tmp_path, monkeypatch):
    path = tmp_path / "lr_cache.txt"
    path.write_text("1;0;-1;1;1\n")
    opened = []

    def counted_open(*args, **kwargs):
        opened.append(args)
        return open(*args, **kwargs)

    cache = LRCache(str(path))
    monkeypatch.setattr(lrmod, "open", counted_open, raising=False)
    cache.append([], [])
    assert cache.get_or_compute_all([((1,), (0,), (-1,))], lambda keys: [-999] * len(keys)) == [1]
    assert opened == [] and cache._fh is None
    assert path.read_text() == "1;0;-1;1;1\n"


def test_two_caches_on_one_file_append_batches_in_turn(tmp_path):
    path = str(tmp_path / "lr_cache.txt")
    first, second = LRCache(path), LRCache(path)
    keys = [((i,), (j,), (-i - j,)) for i in range(4) for j in range(5)]
    for i, cache in enumerate([first, second] * 2):
        cache.append(keys[5 * i : 5 * (i + 1)], [i] * 5)
    first.close()
    second.close()
    expected = {key: i // 5 for i, key in enumerate(keys)}
    assert LRCache(path)._memory == expected


def test_cache_writes_a_large_batch_whole_and_in_order(tmp_path):
    path = tmp_path / "lr_cache.txt"
    cache = LRCache(str(path))
    keys = [((i,), (j,), (-i - j,)) for i in range(100) for j in range(100)]
    cache.append(keys, range(len(keys)))
    cache.close()
    assert path.read_text().splitlines() == [f"{i};{j};{-i - j};1;{100 * i + j}" for i in range(100) for j in range(100)]
    assert LRCache(str(path))._memory == {key: v for v, key in enumerate(keys)}


def test_cache_skips_a_negative_value(tmp_path, monkeypatch):
    """Multiplicities are >= 0, so a line with a negative value is foreign."""
    (tmp_path / "lr_cache.txt").write_text("2;0;-2;1;-5\n1;0;-1;1;1\n")
    assert LRCache(str(tmp_path / "lr_cache.txt"))._memory == {((1,), (0,), (-1,)): 1}
    monkeypatch.setenv("LOGCAVE_CACHE_DIR", str(tmp_path))
    lrmod.reset_default_cache()
    try:
        assert triple_invariant(((2,), (0,), (-2,))) == 1
        assert lrmod.slice_invariants([((2,), (0,), (-2,))]) == [1]
    finally:
        lrmod.reset_default_cache()


def test_cache_skips_a_line_that_is_not_ascii(tmp_path):
    (tmp_path / "lr_cache.txt").write_bytes("2;0;-2;1;٥\n1;0;-1;1;1\n".encode())
    assert LRCache(str(tmp_path / "lr_cache.txt"))._memory == {((1,), (0,), (-1,)): 1}


def test_cache_skips_a_line_whose_rank_field_is_not_the_weights_length(tmp_path, monkeypatch):
    """The rank field must be the length of all three weights, so a line from
    another rank never serves a value."""
    (tmp_path / "lr_cache.txt").write_text("1;0;-1;2;7\n2;0;-2;1;1\n")
    assert LRCache(str(tmp_path / "lr_cache.txt"))._memory == {((2,), (0,), (-2,)): 1}
    monkeypatch.setenv("LOGCAVE_CACHE_DIR", str(tmp_path))
    lrmod.reset_default_cache()
    try:
        assert triple_invariant(((1,), (0,), (-1,))) == 1
    finally:
        lrmod.reset_default_cache()


def test_slice_invariants_read_hits_and_append_misses_in_order(tmp_path, monkeypatch):
    """Stored values come from the loaded memory; the misses are appended after them
    in input order."""
    ws = list(dominant_weights(2, -1, 1))
    triples = list(_sum_zero_triples(ws, ws, ws))
    stored = triples[3]
    monkeypatch.delenv("LOGCAVE_CACHE_DIR", raising=False)
    lrmod.reset_default_cache()
    expected = [7 if t == stored else triple_invariant(t) for t in triples]
    path = tmp_path / "lr_cache.txt"
    path.write_text(";".join(map(lrmod.fmt_weight, stored)) + ";2;7\n")
    monkeypatch.setenv("LOGCAVE_CACHE_DIR", str(tmp_path))
    lrmod.reset_default_cache()
    try:
        got = lrmod.slice_invariants(triples)
    finally:
        lrmod.reset_default_cache()
    assert got == expected
    lines = path.read_text().splitlines()
    assert lines[1:] == [";".join([*map(lrmod.fmt_weight, t), "2", str(v)]) for t, v in zip(triples, expected) if t != stored]


def test_reset_default_cache_closes_the_file(tmp_path, monkeypatch):
    monkeypatch.setenv("LOGCAVE_CACHE_DIR", str(tmp_path))
    lrmod.reset_default_cache()
    try:
        assert triple_invariant(((1, 0, -1),) * 3) == 2
        handle = lrmod._default_cache()._fh
        assert not handle.closed
    finally:
        lrmod.reset_default_cache()
    assert handle.closed


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: restriction_multiplicity((1, 1, 1), (), 2, 1), r"\(1, 1, 1\) has more than 2 parts"),
        (lambda: restriction_multiplicity((2, 1), (1, 1), 3, 1), r"\(1, 1\) has more than 1 parts"),
        (lambda: restriction_multiplicity((2,), (), 2, -1), r"need k >= 0, got k=-1$"),
        (lambda: tensor_product_multiplicities((1, 0), (1,)), "rank mismatch"),
    ],
)
def test_lr_rejects_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
