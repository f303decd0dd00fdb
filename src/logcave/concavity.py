"""Log-concavity checking over integer semigroups, and the exhaustive scanners.

The normative inequality is multiplicative and exact: an instance
(p+q)C = pA + qB passes for a multiplicity function F when

    F(C)**(p+q) >= F(A)**p * F(B)**q

as arbitrary-precision integers.  Zero values are legal and handled by the
same comparison; no logarithms are ever taken.

Scanners enumerate bounded instance families deterministically and return
reports whose content is independent of the worker count.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from itertools import chain, groupby
from math import comb, gcd
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, Sequence

from ._records import Record
from .lr import (
    WeightTriple,
    _check_triple,
    _pair_decomposition,
    restriction_multiplicity,
    slice_invariants,
    tensor_product_multiplicities,
    tensor_square_multiplicities,
    triple_invariant,
)
from .partitions import (
    GLWeight,
    Partition,
    SkewShape,
    dominant_weights,
    dual_weight,
    fmt_weight,
    pad,
    partitions_up_to,
    shift_to_partition,
    subdiagrams,
    weyl_dimension,
)
from .symfunc import (
    MonomialExpansion,
    SchurExpansion,
    kostka_table,
    multiply,
    skew_schur,
    subtract_and_min_coefficient,
    to_schur_basis,
)


class ConcavityReport(Record):
    """Outcome of an exhaustive scan: instance count, violations, parameters, workers."""

    __slots__ = ("checked", "violations", "params", "workers")
    _defaults = {"workers": 1}
    checked: int
    violations: list[dict]
    params: dict
    workers: int  # the worker processes it ran on, outside the findings

    @property
    def clean(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# integral-midpoint pairing, shared by the midpoint scanners
# ---------------------------------------------------------------------------


class _Packing:
    """Integer vectors of one length with entries in [lo, hi], each packed into one integer.

    x packs to K(x) = sum((x_i - lo) * base**(length - 1 - i)), base the
    least power of 256 above hi - lo, so x_0 is the most significant digit
    and keys sort as their vectors do.  K is affine, so for A = B mod
    m = p+q entrywise and C = (p*A + q*B) / m, p*K(A) + q*K(B) = m*K(C)
    exactly, carries or not: the midpoint's key is (p*kA + q*kB) // m, and
    C is again in the box.
    """

    def __init__(self, length: int, lo: int, hi: int):
        self.length, self.lo = length, lo
        self.width = max(1, ((hi - lo).bit_length() + 7) // 8)  # bytes per digit
        base = 256**self.width
        self._weights = [base ** (length - 1 - i) for i in range(length)]
        self._offset = lo * sum(self._weights)

    def pack(self, x: Sequence[int]) -> int:
        return sum(map(mul, x, self._weights)) - self._offset

    def unpack(self, key: int) -> tuple[int, ...]:
        w, lo = self.width, self.lo
        raw = key.to_bytes(self.length * w, "big")
        return tuple(int.from_bytes(raw[i : i + w], "big") + lo for i in range(0, len(raw), w))

    def residues(self, keys: Iterable[int], m: int) -> Iterator:
        """Each key's vector mod m entrywise, comparing as the tuple of residues does."""
        if self.width == 1 and m <= 256:
            # one byte per digit: the residues are the key's bytes, translated
            table = bytes((d + self.lo) % m for d in range(256))
            return (k.to_bytes(self.length, "big").translate(table) for k in keys)
        return (tuple(x % m for x in self.unpack(k)) for k in keys)

    def classes(self, keys: Sequence[int], m: int) -> list[list[int]]:
        """keys bucketed by their vectors mod m entrywise.

        Classes come in sorted residue order, members in input order.
        """
        classes: dict = {}
        for k, r in zip(keys, self.residues(keys, m)):
            classes.setdefault(r, []).append(k)
        return [classes[r] for r in sorted(classes)]


def _unordered_pairs(box: _Packing, keys: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The unordered pairs of distinct keys with an integral midpoint (A + B)/2.

    Classes mod 2 come in sorted residue order, pairs within a class as
    (members[i], members[j]) with i < j in input order.
    """
    for members in box.classes(keys, 2):
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                yield a, b


def _midpoint_count(box: _Packing, keys: Sequence[int], p: int, q: int, power: int = 1) -> int:
    """Number of pairs (A, B) with (pA + qB)/(p+q) integral over the domain points**power.

    keys are the domain's points packed by box.  p and q are coprime, so
    pA + qB = p(A - B) + (p+q)B is divisible by p+q exactly when A = B mod
    p+q entrywise.  A member of points**power is a power-tuple of points,
    read as the concatenation of its entries, and its class mod p+q is the
    tuple of its entries' classes.  So class sizes multiply, and nothing
    beyond points itself is enumerated: with n_r the size of class r of
    points, the ordered pairs within classes number ordered**power, where
    ordered = sum_r n_r**2.  For p == q pairs are unordered, diagonal
    included: (ordered**power + len(keys)**power)/2 in all.
    """
    ordered = sum(len(c) ** 2 for c in box.classes(keys, p + q))
    if p == q:
        return (ordered**power + len(keys) ** power) // 2
    return ordered**power


def _midpoint_scan(
    box: _Packing,
    keys: Sequence[int],
    values: dict[int, int],
    p: int,
    q: int,
    fmt: Callable,
    fixed: dict,
) -> list[dict]:
    """Check F(C)**(p+q) >= F(A)**p * F(B)**q over the integral-midpoint pairs.

    Points are integer vectors, each scanner laying out its own domain,
    and keys are the domain's points packed by box.  values is the
    complete table of F keyed the same way, absent keys reading as zero.
    Every midpoint C = (p*A + q*B) / (p+q) lies in the box, so
    values.get(K(C), 0) is exact.  Only pairs of points with two nonzero
    values are evaluated: the others pass outright, so keys may be just
    the support of F, and _midpoint_count counts the instances.  The pairs
    with A == B pass too, F(A)**(p+q) being F(A)**p * F(A)**q, so a class
    of one point is skipped, and for p == q so is the diagonal of every
    class.  F**p and F**q are computed once per class member.  Returns
    the violation records class by class in sorted residue order, and
    within a class by A, then B, each in input order (for p == q, B only
    after A).  A record holds the caller's fixed keys, then A, B and C
    unpacked and formatted by fmt, then "values" [F(A), F(B), F(C)] as
    decimal strings.
    """
    m = p + q
    get = values.get
    violations = []
    for members in box.classes([k for k in keys if get(k)], m):
        if len(members) < 2:
            continue
        a_pows = [values[k] ** p for k in members]
        b_pows = a_pows if p == q else [values[k] ** q for k in members]
        b_keys = [q * k for k in members]
        for i, (k, a_pow) in enumerate(zip(members, a_pows)):
            a_key, start = p * k, i + 1 if p == q else 0
            bad = [
                b_key
                for b_key, b_pow in zip(b_keys[start:], b_pows[start:])
                if get((a_key + b_key) // m, 0) ** m < a_pow * b_pow
            ]
            for b_key in bad:
                kb, kc = b_key // q, (a_key + b_key) // m
                violations.append(
                    dict(
                        fixed,
                        a=fmt(box.unpack(k)),
                        b=fmt(box.unpack(kb)),
                        c=fmt(box.unpack(kc)),
                        values=[str(values[k]), str(values[kb]), str(get(kc, 0))],
                    )
                )
    return violations


def _mean(x: Sequence[int], y: Sequence[int], p: int = 1, q: int = 1) -> tuple[int, ...] | None:
    """(p*x + q*y) / (p+q) entrywise, or None when an entry is not integral."""
    m = p + q
    out = []
    for a, b in zip(x, y):
        entry, rem = divmod(p * a + q * b, m)
        if rem:
            return None
        out.append(entry)
    return tuple(out)


# ---------------------------------------------------------------------------
# skew-shape midpoints and the square/product comparison
# ---------------------------------------------------------------------------


class SquareComparison(Record):
    """Result of comparing s_mid^2 against s_1 * s_3 for skew shapes."""

    __slots__ = ("passed", "min_coeff", "witness", "mid_outer", "mid_inner", "num_variables")
    passed: bool
    min_coeff: int
    witness: Partition | None
    mid_outer: Partition
    mid_inner: Partition
    num_variables: int


def _skew_class(outer: Partition, inner: Partition) -> tuple:
    """A key two skew shapes share exactly when their skew Schur functions are equal.

    The key is the content of the shape's Kostka table at its size, sorted.
    A symmetric function of degree d is fixed by its expansion in d
    variables, and in n >= d variables the expansion is this same table,
    so the key is the monomial expansion in any such n.
    """
    return tuple(sorted(kostka_table(outer, inner, sum(outer) - sum(inner)).items()))


def _square_minus_product(l1, m1, l3, m3) -> tuple[MonomialExpansion, SquareComparison]:
    """The pair's s_mid^2 - s_{l1/m1} s_{l3/m3} and its comparison.

    Both come from the skew Schur polynomials of the pair's own three
    shapes in n = max(1, |l1/m1| + |l3/m3|) variables, with no class key,
    so the scan's classes can be checked against them.
    """
    sh1, sh3 = SkewShape(l1, m1), SkewShape(l3, m3)
    # inner shapes have no more rows than their outer ones
    rows = max(len(sh1.outer), len(sh3.outer))
    l2 = _mean(pad(sh1.outer, rows), pad(sh3.outer, rows))
    m2 = _mean(pad(sh1.inner, rows), pad(sh3.inner, rows))
    if l2 is None or m2 is None:
        raise ValueError("midpoint is not integral")
    sh2 = SkewShape(l2, m2)
    n = max(1, sh1.size + sh3.size)
    s2 = skew_schur(sh2, n)
    diff, min_coeff, witness = subtract_and_min_coefficient(
        multiply(s2, s2), multiply(skew_schur(sh1, n), skew_schur(sh3, n))
    )
    return diff, SquareComparison(min_coeff >= 0, min_coeff, witness, sh2.outer, sh2.inner, n)


def theorem1_verify(l1, m1, l3, m3) -> SquareComparison:
    """Check coefficientwise nonnegativity of s_mid^2 - s_{l1/m1} s_{l3/m3}.

    The comparison runs in n = |l1/m1| + |l3/m3| variables, which decides
    the statement in any number of variables since no monomial of that
    degree involves more distinct variables.  A failure here would be a
    bug: the nonnegativity is a theorem.
    """
    return _square_minus_product(l1, m1, l3, m3)[1]


def slm_schur_positivity(l1, m1, l3, m3) -> tuple[bool, SchurExpansion, SquareComparison]:
    """Schur expansion of the same difference, and whether it is nonnegative.

    Schur positivity of the difference is a theorem (Lam, Postnikov and
    Pylyavskyy, Amer. J. Math. 129, 2007), so a negative Schur coefficient
    would be a bug.
    """
    diff, result = _square_minus_product(l1, m1, l3, m3)
    expansion = to_schur_basis(diff)
    return expansion.is_nonnegative(), expansion, result


def skew_shapes_up_to(max_weight: int) -> list[tuple[Partition, Partition]]:
    """All skew shapes (outer, inner) with |outer| <= max_weight, fixed order."""
    return [
        (lam, mu)
        for lam in partitions_up_to(max_weight)
        for mu in subdiagrams(lam)
    ]


def _differences(group: Sequence) -> Iterator[tuple[MonomialExpansion, int, Partition | None]]:
    """s_mid**2 - s_1 * s_3, its least coefficient and a witness, class by class.

    group is a list of units (mid, n, [(k1, k3), ...]), one per midpoint
    function, each pair (k1, k3) a class's factors; mid, k1 and k3 are
    _skew_class keys, which are monomial expansions in n variables.  Each
    midpoint is squared once.
    """
    for mid, n, factors in group:
        s = MonomialExpansion(n, dict(mid))
        square = multiply(s, s)
        for k1, k3 in factors:
            product = multiply(MonomialExpansion(n, dict(k1)), MonomialExpansion(n, dict(k3)))
            yield subtract_and_min_coefficient(square, product)


def _theorem1_group(group: Sequence) -> list[dict | None]:
    """For each class of the group, the record fields if it fails, or None."""
    return [
        None if min_coeff >= 0 else {"min_coefficient": str(min_coeff), "witness": fmt_weight(witness)}
        for _, min_coeff, witness in _differences(group)
    ]


def _slm_group(group: Sequence) -> list[dict | None]:
    """For each class of the group, the record fields at the least partition
    with a negative Schur coefficient, or None."""
    out = []
    for diff, _, _ in _differences(group):
        terms = to_schur_basis(diff).terms
        bad = min((k for k, v in terms.items() if v < 0), default=None)
        out.append(None if bad is None else {"partition": fmt_weight(bad), "coefficient": str(terms[bad])})
    return out


def _usable_cpus() -> int:
    """The number of CPUs this process may run on, 1 when unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Below this many classes of pairs a pool costs more than it saves.  In
# 9-run command-line batches on 2 CPUs, with each class computed once, the
# pool won about half the runs of theorem1 at bound 7 (351 classes) and
# most of them from bound 8 (1,001 classes) on, for theorem1 and slm alike.
_POOL_MIN_CLASSES = 600


def _run_groups(worker, groups: Sequence, jobs: int) -> tuple[list, int]:
    """worker mapped over groups; returns the results in order and the worker count.

    A pool of min(jobs, usable CPUs, groups) workers runs one group per
    task when that is above 1, handing out the groups one at a time in the
    order given, so the caller puts the largest first.
    """
    workers = min(jobs, _usable_cpus(), len(groups))
    if workers <= 1:
        return list(map(worker, groups)), 1
    from multiprocessing import Pool  # only a scan that starts a pool pays for it

    with Pool(processes=workers) as pool:
        return pool.map(worker, groups, chunksize=1), workers


def _skew_pair_scan(worker, max_weight: int, jobs: int) -> ConcavityReport:
    """Check every class of unordered integral-midpoint pairs of skew shapes once.

    The verdict depends only on the pair's class: the skew Schur functions
    of its midpoint and of its two shapes (see _skew_class), and n =
    max(1, |l1/m1| + |l3/m3|).  The classes are grouped by degree, the
    largest first, and within a degree by midpoint function.  The worker
    takes one degree group, a list of units as _differences reads them,
    and returns for each class, in order, the fields a failing class adds
    to each of its pairs' records, or None.  A pool runs one degree group
    per task from _POOL_MIN_CLASSES classes on.  Every monomial product row
    a class of degree d reads is m_alpha * m_beta with |alpha| + |beta| =
    d, and so is every Schur peel table of slm, so the workers fill
    disjoint memos.  Violations come in _unordered_pairs order, one per
    pair of a failing class.
    """
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    shapes = skew_shapes_up_to(max_weight)
    rows = max(len(lam) for lam, _ in shapes)
    box = _Packing(2 * rows, 0, max_weight)
    layout = {box.pack(pad(lam, rows) + pad(mu, rows)): (lam, mu) for lam, mu in shapes}
    size = {k: sum(lam) - sum(mu) for k, (lam, mu) in layout.items()}
    # each shape's skew Schur function, numbered in order of first appearance
    numbers: dict = {}
    function = {k: numbers.setdefault(_skew_class(*sh), len(numbers)) for k, sh in layout.items()}
    keys = list(numbers)
    # a diagonal pair compares multiply(x, x) with itself, so it always passes
    pairs = list(_unordered_pairs(box, list(layout)))
    pair_classes = [
        (-size[a] - size[b], function[(a + b) // 2], *sorted((function[a], function[b])))
        for a, b in pairs
    ]
    classes = sorted(set(pair_classes))
    groups = [
        [
            (keys[mid], max(1, -d), [tuple(sorted((keys[low], keys[high]))) for *_, low, high in unit])
            for (d, mid), unit in groupby(group, key=itemgetter(0, 1))
        ]
        for _, group in groupby(classes, key=itemgetter(0))
    ]
    done, workers = _run_groups(worker, groups, jobs if len(classes) >= _POOL_MIN_CLASSES else 1)
    failing = {c: r for c, r in zip(classes, chain.from_iterable(done), strict=True) if r is not None}
    violations = [
        {"shape1": str(SkewShape(*layout[a])), "shape3": str(SkewShape(*layout[b])), **failing[c]}
        for (a, b), c in zip(pairs, pair_classes)
        if c in failing
    ]
    return ConcavityReport(
        checked=len(pairs) + len(layout),
        violations=violations,
        params={"max_weight": max_weight, "pairs": "unordered"},
        workers=workers,
    )


def theorem1_scan(max_weight: int, jobs: int = 1) -> ConcavityReport:
    """Exhaustive squared-midpoint check over skew-shape pairs.

    Covers every unordered pair of skew shapes with outer weight at most
    max_weight whose componentwise midpoint is integral.  Expected
    violations: none, ever.
    """
    return _skew_pair_scan(_theorem1_group, max_weight, jobs)


def slm_scan(max_weight: int, jobs: int = 1) -> ConcavityReport:
    """Schur-positivity scanner for the squared-midpoint difference.

    Same pairs as theorem1_scan.  The positivity is a theorem (Lam,
    Postnikov and Pylyavskyy, 2007), so expected violations: none, ever.
    """
    return _skew_pair_scan(_slm_group, max_weight, jobs)


# ---------------------------------------------------------------------------
# triple-invariant scanners
# ---------------------------------------------------------------------------


def _primitive_pq(pq_bound: int) -> list[tuple[int, int]]:
    """Coprime (p, q) with p, q >= 1 and p + q <= pq_bound, ordered by (p+q, p).

    Non-primitive pairs are omitted: their inequality is a power of the
    primitive one.
    """
    return [
        (p, m - p)
        for m in range(2, pq_bound + 1)
        for p in range(1, m)
        if gcd(p, m - p) == 1
    ]


def _sum_zero_triples(
    xs: Sequence[GLWeight], ys: Sequence[GLWeight], zs: Sequence[GLWeight]
) -> Iterator[WeightTriple]:
    """The triples (a, b, c) in xs * ys * zs whose entries sum to zero.

    They come in the lexicographic order of their positions in the three
    lists, the order of the product restricted to the slice.  Off the
    slice the triple invariant vanishes, so the triple scanners evaluate
    nothing else.
    """
    by_sum: dict[int, list[GLWeight]] = {}
    for c in zs:
        by_sum.setdefault(sum(c), []).append(c)
    for a in xs:
        for b in ys:
            for c in by_sum.get(-sum(a) - sum(b), ()):
                yield a, b, c


def conjecture1_scan(weight_bound: int, rank_bound: int, pq_bound: int = 2) -> ConcavityReport:
    """Scan log-concavity of the triple invariant over bounded weight triples.

    For each rank r <= rank_bound, the instances are the pairs (A, B) in
    ws**3, ws the dominant weights with entries in
    [-weight_bound, weight_bound], and every coprime (p, q) with p <= q
    and p + q <= pq_bound for which the weighted midpoint C is integral;
    (q, p) is covered by swapping the endpoints.  C stays inside the box
    by convexity, so all values come from one table.

    The invariant vanishes off the sum-zero slice, so only slice triples
    are evaluated: one slice_invariants fill, in ws**3 order (which fixes
    the LR cache file's lines), reads each from the decomposition of its
    pair (a, b).  A triple (a, b, c) is the point a + b + c of the pair
    engine.
    Instances where F(A) or F(B) vanishes pass outright (the right side is
    zero and F(C)**(p+q) >= 0 exactly), so only pairs from the nonzero
    support are compared.  All instances are counted, arithmetically from
    the residue classes of ws by _midpoint_count with power 3.
    """
    violations: list[dict] = []
    checked = 0
    for rank in range(1, rank_bound + 1):
        ws = list(dominant_weights(rank, -weight_bound, weight_bound))
        wbox = _Packing(rank, -weight_bound, weight_bound)
        wkeys = [wbox.pack(w) for w in ws]
        box = _Packing(3 * rank, -weight_bound, weight_bound)
        values: dict[int, int] = {}
        # the triples are generated twice rather than held in memory
        fill = slice_invariants(_sum_zero_triples(ws, ws, ws))
        for (a, b, c), v in zip(_sum_zero_triples(ws, ws, ws), fill):
            if v:
                values[box.pack(a + b + c)] = v
        # keys sort as their vectors do: ascending order orients every
        # unordered (1, 1) pair as a <= b
        support = sorted(values)

        def fmt(x, rank=rank):
            return fmt_triple((x[:rank], x[rank : 2 * rank], x[2 * rank :]))

        for p, q in _primitive_pq(pq_bound):
            if p > q:
                continue
            checked += _midpoint_count(wbox, wkeys, p, q, 3)
            violations += _midpoint_scan(
                box, support, values, p, q, fmt, {"rank": rank, "p": p, "q": q}
            )
    violations.sort(key=lambda v: (v["rank"], v["p"], v["q"], v["a"], v["b"]))
    return ConcavityReport(
        checked=checked,
        violations=violations,
        params={
            "weight_bound": weight_bound,
            "rank_bound": rank_bound,
            "pq_bound": pq_bound,
            "pq_pairs": "coprime only",
        },
    )


def fmt_triple(t: WeightTriple) -> str:
    return " ".join(map(fmt_weight, t))


class SaturationRow(Record):
    __slots__ = ("k", "value", "saturation_ok", "power_bound_ok")
    k: int
    value: int
    saturation_ok: bool
    power_bound_ok: bool


def saturation_scan(t: WeightTriple, k_max: int) -> list[SaturationRow]:
    """Stretch a triple by k = 1..k_max and test saturation and the power bound.

    Saturation (a theorem): a nonzero invariant at k forces a nonzero
    invariant at 1.  The power bound c_k <= c_1**k is conjectural; a
    violation is a finding, not an error.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    rows = []
    for k in range(1, k_max + 1):
        stretched = tuple(tuple(k * x for x in w) for w in t)
        ck = triple_invariant(stretched)
        if k == 1:
            base = ck
        rows.append(
            SaturationRow(
                k=k,
                value=ck,
                saturation_ok=(ck == 0 or base != 0),
                power_bound_ok=(ck <= base**k),
            )
        )
    return rows


def saturation_scan_all(max_weight: int, rank: int, k_max: int) -> ConcavityReport:
    """Run saturation_scan over the triples (dual(lam), mu, nu), weights bounded.

    lam, mu and nu range over the partitions with at most rank parts and
    weight at most max_weight, padded to the rank.  Raw partition triples
    carry no invariants (the entries cannot sum to zero), so the first
    slot is dualized; this matches the tensor-product reading of the
    invariant c^lam_{mu nu}.  Off the slice |lam| = |mu| + |nu| the
    invariant vanishes at every stretch and both row checks pass, so only
    slice triples are scanned, in (lam, mu, nu) order, while checked counts
    every row of every triple.

    Violations carry a "kind" field.  "saturation" rows falsify a theorem
    (Knutson and Tao, JAMS 12, 1999), so they are bugs; "power_bound"
    rows are findings about the conjectural bound c_k <= c_1**k.
    """
    parts = [pad(lam, rank) for lam in partitions_up_to(max_weight, max_parts=rank)]
    violations = []
    for t in _sum_zero_triples([dual_weight(lam) for lam in parts], parts, parts):
        rows = saturation_scan(t, k_max)
        base = rows[0].value
        for row in rows:
            for kind, ok in (
                ("saturation", row.saturation_ok),
                ("power_bound", row.power_bound_ok),
            ):
                if not ok:
                    violations.append(
                        {
                            "kind": kind,
                            "triple": fmt_triple(t),
                            "k": row.k,
                            "values": [str(base), str(row.value)],
                        }
                    )
    return ConcavityReport(
        checked=len(parts) ** 3 * k_max,
        violations=violations,
        params={"max_weight": max_weight, "rank": rank, "k_max": k_max},
    )


def _first_excess(left: dict, right: dict) -> GLWeight | None:
    """The least lam in sorted order with left[lam] > right[lam], or None."""
    excess = [lam for lam, c in left.items() if c > right.get(lam, 0)]
    return min(excess) if excess else None


def logv_inclusion_check(mu: GLWeight, nu: GLWeight) -> tuple[bool, GLWeight | None]:
    """Componentwise inclusion of V^nu (x) V^mu inside the squared midpoint module.

    Requires mu + nu even componentwise.  Returns (passed, first failing
    highest weight) comparing multiplicities of every constituent.
    """
    left = tensor_product_multiplicities(mu, nu)  # checks the ranks and weights
    mid = _mean(mu, nu)
    if mid is None:
        raise ValueError("midpoint is not integral")
    bad = _first_excess(left, tensor_square_multiplicities(mid))
    return bad is None, bad


def logv_scan(rank_bound: int, entry_bound: int) -> ConcavityReport:
    """Scan the tensor-square inclusion over bounded dominant weight pairs.

    For each rank r <= rank_bound the instances are the unordered pairs
    (mu, nu), diagonal included, of dominant weights with entries in
    [-entry_bound, entry_bound] and mu + nu even.  The midpoint of two
    such weights is again one of them, so each tensor square is computed
    once per weight.  V^mu (x) V^mu is the tensor square of mu, so the
    diagonal pairs pass: they are counted but not evaluated.  The others
    come in classes of mu mod 2 in sorted residue order, and within a
    class as (ws[i], ws[j]) with i < j.  The inclusion is a theorem (Lam,
    Postnikov and Pylyavskyy, Amer. J. Math. 129, 2007), so expected
    violations: none, ever; one would be a bug.

    Each weight is split into partition and shift once per rank.  The
    midpoint's last entry is the mean of mu's and nu's, so a pair and its
    square carry the same det shift: their partition-pair decompositions
    compare as they are, and only a failing pair's weights are unpacked
    and its least excess shifted back.
    """
    violations = []
    checked = 0
    for rank in range(1, rank_bound + 1):
        ws = list(dominant_weights(rank, -entry_bound, entry_bound))
        box = _Packing(rank, -entry_bound, entry_bound)
        keys = [box.pack(w) for w in ws]
        splits = {k: shift_to_partition(w) for k, w in zip(keys, ws)}
        squares = {k: _pair_decomposition(sp, sp, rank)[0] for k, sp in splits.items()}
        checked += _midpoint_count(box, keys, 1, 1)
        for ka, kb in _unordered_pairs(box, keys):
            dec, shift = _pair_decomposition(splits[ka], splits[kb], rank)
            bad = _first_excess(dec, squares[(ka + kb) // 2])
            if bad is not None:
                violations.append(
                    {
                        "rank": rank,
                        "mu": fmt_weight(box.unpack(ka)),
                        "nu": fmt_weight(box.unpack(kb)),
                        "lam": fmt_weight(x + shift for x in bad),
                    }
                )
    return ConcavityReport(
        checked=checked,
        violations=violations,
        params={"rank_bound": rank_bound, "entry_bound": entry_bound},
    )


def _circulant_image(t: WeightTriple, p: int, q: int) -> WeightTriple | None:
    """(p*lam + q*nu, p*mu + q*lam, p*nu + q*mu) / (p+q), or None if not integral."""
    lam, mu, nu = t
    image = []
    for x, y in ((lam, nu), (mu, lam), (nu, mu)):
        w = _mean(x, y, p, q)
        if w is None:
            return None
        image.append(w)
    return tuple(image)


def alpha_matrix_check(t: WeightTriple, p: int, q: int) -> tuple[bool, int, int]:
    """Compare the invariant of the circulant-averaged triple with the original.

    With alpha = p/(p+q) the image triple is
        lam' = alpha*lam + (1-alpha)*nu
        mu'  = alpha*mu  + (1-alpha)*lam
        nu'  = alpha*nu  + (1-alpha)*mu
    (alpha = 1 is the identity, alpha = 0 the cyclic rotation).  Every
    component must be integral; dominance of the averages is automatic.
    Returns (passed, value at image, value at original).
    """
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need p, q >= 0 with p + q >= 1")
    _check_triple(t)
    t2 = _circulant_image(t, p, q)
    if t2 is None:
        raise ValueError("image is not an integral weight")
    v2 = triple_invariant(t2)
    v1 = triple_invariant(t)
    return v2 >= v1, v2, v1


def alpha_scan(rank_bound: int, entry_bound: int, pq_bound: int = 2) -> ConcavityReport:
    """Scan the circulant inequality over bounded triples and alpha = p/(p+q).

    Only primitive (p, q) with p, q >= 1 are enumerated (alpha in (0, 1);
    the endpoints are the identity and the rotation, both trivial).  The
    instances are the triples in ws**3 with an integral image.  For coprime
    p, q the entry p*x + q*y = p(x - y) + (p+q)y of the image is divisible
    by p+q exactly when x = y mod p+q, so the image of (lam, mu, nu) is
    integral iff lam = mu = nu mod p+q entrywise, and the instances are
    counted arithmetically as the sum of n_r**3 over the residue classes r
    of ws, n_r their sizes.  Instances with a vanishing original invariant
    pass outright, so only the sum-zero slice is visited, in ws**3 order,
    and invariants are looked up only there, for the triples whose weights
    agree mod p+q.
    """
    pq_pairs = _primitive_pq(pq_bound)
    violations = []
    checked = 0
    for rank in range(1, rank_bound + 1):
        ws = list(dominant_weights(rank, -entry_bound, entry_bound))
        box = _Packing(rank, -entry_bound, entry_bound)
        keys = [box.pack(w) for w in ws]
        triples = list(_sum_zero_triples(ws, ws, ws))
        for p, q in pq_pairs:
            residue = dict(zip(ws, box.residues(keys, p + q)))
            checked += sum(n**3 for n in Counter(residue.values()).values())
            for t in triples:
                lam, mu, nu = t
                if not residue[lam] == residue[mu] == residue[nu]:
                    continue
                v1 = triple_invariant(t)
                if v1 == 0:
                    continue
                v2 = triple_invariant(_circulant_image(t, p, q))
                if v2 < v1:
                    violations.append(
                        {
                            "rank": rank,
                            "p": p,
                            "q": q,
                            "triple": fmt_triple(t),
                            "values": [str(v1), str(v2)],
                        }
                    )
    return ConcavityReport(
        checked=checked,
        violations=violations,
        params={
            "rank_bound": rank_bound,
            "entry_bound": entry_bound,
            "pq_bound": pq_bound,
        },
    )


# ---------------------------------------------------------------------------
# sequence convolution
# ---------------------------------------------------------------------------


class SequencePreconditionError(ValueError):
    """An input sequence is not log-concave with contiguous support."""


def _validate_logconcave(seq: Sequence[int], name: str) -> None:
    # only the convolution scanner reads toeplitz, so only it loads it
    from .toeplitz import first_logconcavity_failure

    if any(x < 0 for x in seq):
        raise SequencePreconditionError(f"{name} has a negative entry")
    support = [i for i, x in enumerate(seq) if x > 0]
    if not support:
        raise SequencePreconditionError(f"{name} is identically zero")
    lo, hi = support[0], support[-1]
    if any(seq[i] == 0 for i in range(lo, hi + 1)):
        raise SequencePreconditionError(f"{name} has an internal zero")
    bad = first_logconcavity_failure(seq)
    if bad is not None:
        raise SequencePreconditionError(f"{name} is not log-concave at {bad}")


def convolution_logconcavity_check(a: Sequence[int], b: Sequence[int]) -> tuple[bool, int | None]:
    """Verify that the convolution of two log-concave sequences is log-concave.

    Both inputs must be nonnegative, log-concave, with contiguous support;
    a bad input raises SequencePreconditionError, distinct from a failing
    check.  Returns (passed, first failing index or None).
    """
    from .toeplitz import convolve, first_logconcavity_failure

    _validate_logconcave(a, "first sequence")
    _validate_logconcave(b, "second sequence")
    bad = first_logconcavity_failure(convolve(a, b))
    return bad is None, bad


def random_logconcave_sequence(rng: random.Random, max_len: int) -> list[int]:
    """A random positive log-concave integer sequence of length <= max_len.

    Built as a pointwise product of a binomial-row window and a geometric
    progression; both factors are log-concave and pointwise products of
    log-concave sequences stay log-concave.
    """
    length = rng.randint(1, max_len)
    m = rng.randint(length - 1, 2 * max_len)
    start = rng.randint(0, m - length + 1)
    t_num = rng.randint(1, 4)
    t_den = rng.randint(1, 4)
    scale = rng.randint(1, 5)
    seq = []
    for i in range(length):
        # multiply by t_num^i * t_den^(length-i) to stay integral
        seq.append(scale * comb(m, start + i) * t_num**i * t_den ** (length - i))
    return seq


def convolution_random_suite(cases: int, max_len: int, seed: int) -> ConcavityReport:
    """Seeded random convolution checks; every case is a hard assertion."""
    rng = random.Random(seed)
    violations = []
    for case in range(cases):
        a = random_logconcave_sequence(rng, max_len)
        b = random_logconcave_sequence(rng, max_len)
        ok, idx = convolution_logconcavity_check(a, b)
        if not ok:
            violations.append(
                {
                    "case": case,
                    "a": [str(x) for x in a],
                    "b": [str(x) for x in b],
                    "index": idx,
                }
            )
    return ConcavityReport(
        checked=cases,
        violations=violations,
        params={"cases": cases, "max_len": max_len, "seed": seed},
    )


# ---------------------------------------------------------------------------
# dimension and restriction scans
# ---------------------------------------------------------------------------


def weyl_logconcavity_scan(rank: int, entry_bound: int) -> ConcavityReport:
    """Exhaustive log-concavity check of the Weyl dimension over bounded weights.

    Entries range over [0, entry_bound]; shifting by a constant changes
    neither dimensions nor midpoints, so nonnegative entries lose no
    generality for a bounded window.  Expected violations: none.
    """
    violations = []
    checked = 0
    for r in range(1, rank + 1):
        ws = list(dominant_weights(r, 0, entry_bound))
        box = _Packing(r, 0, entry_bound)
        dims = {box.pack(w): weyl_dimension(w) for w in ws}
        keys = list(dims)
        checked += _midpoint_count(box, keys, 1, 1)
        violations += _midpoint_scan(box, keys, dims, 1, 1, fmt_weight, {"rank": r})
    return ConcavityReport(
        checked=checked,
        violations=violations,
        params={"rank": rank, "entry_bound": entry_bound},
    )


def restriction_logconcavity_scan(n: int, k: int, weight_bound: int) -> ConcavityReport:
    """Joint log-concavity of restriction multiplicities in the pair (lam, mu).

    Points are pairs of partitions (at most n and k parts) with weight at
    most weight_bound, embedded as integer vectors of length n + k; all
    integral-midpoint pairs are checked.  Expected violations: none.
    """
    if weight_bound < 0:
        raise ValueError(f"weight_bound must be >= 0, got {weight_bound}")
    box = _Packing(n + k, 0, weight_bound)
    values = {}
    for lam in partitions_up_to(weight_bound, max_parts=n):
        for mu in partitions_up_to(weight_bound, max_parts=k):
            values[box.pack(pad(lam, n) + pad(mu, k))] = restriction_multiplicity(lam, mu, n, k)

    def fmt(x):
        return str(SkewShape(x[:n], x[n:]))

    keys = list(values)
    checked = _midpoint_count(box, keys, 1, 1)
    # a nonzero multiplicity needs mu inside lam, and averaging keeps that
    violations = _midpoint_scan(box, keys, values, 1, 1, fmt, {})
    return ConcavityReport(
        checked=checked,
        violations=violations,
        params={"n": n, "k": k, "weight_bound": weight_bound},
    )
