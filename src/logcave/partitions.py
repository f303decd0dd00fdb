"""Partitions, GL(n) weights, skew shapes and tableau enumeration.

Partitions are plain tuples of ints, weakly decreasing, with trailing zeros
stripped.  GL weights are plain tuples of length equal to the rank; entries
are weakly decreasing and may be negative, and trailing zeros are
meaningful.  Keeping both as tuples makes them free to hash, compare and
send between processes.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Iterator

from ._records import Record

Partition = tuple[int, ...]
GLWeight = tuple[int, ...]


def partition(parts) -> Partition:
    """Normalize an iterable of ints into a partition tuple.

    Trailing zeros are stripped; raises ValueError if the entries are not
    weakly decreasing nonnegative integers.
    """
    p = tuple(int(x) for x in parts)
    for i in range(len(p) - 1):
        if p[i] < p[i + 1]:
            raise ValueError(f"not weakly decreasing at index {i}: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in partition: {p}")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def weight(entries) -> GLWeight:
    """Validate a GL weight: weakly decreasing integers, rank = length."""
    w = tuple(int(x) for x in entries)
    if not w:
        raise ValueError("a GL weight needs rank >= 1")
    for i in range(len(w) - 1):
        if w[i] < w[i + 1]:
            raise ValueError(f"not weakly decreasing at index {i}: {w}")
    return w


def pad(p: Partition, n: int) -> tuple[int, ...]:
    """Right-pad with zeros to length n (n >= len(p))."""
    if len(p) > n:
        raise ValueError(f"partition {p} has more than {n} parts")
    return p + (0,) * (n - len(p))


def contains(outer: Partition, inner: Partition) -> bool:
    """Componentwise containment of Young diagrams (both normalized)."""
    return len(inner) <= len(outer) and all(
        inner[i] <= outer[i] for i in range(len(inner))
    )


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram: result[i] = #{j : p[j] >= i+1}."""
    if not p:
        return ()
    out = [0] * p[0]
    for part in p:
        for i in range(part):
            out[i] += 1
    return tuple(out)


def dual_weight(w: GLWeight) -> GLWeight:
    """Highest weight of the dual module: reverse and negate."""
    return tuple(-x for x in reversed(w))


def shift_to_partition(w: GLWeight) -> tuple[Partition, int]:
    """Split a weight into (partition, shift) with w = partition + shift*(1,..,1).

    The shift is the minimal entry, so the partition part is nonnegative
    and as small as possible: padded to the rank, it ends in 0.
    """
    shift = min(w)
    return partition(x - shift for x in w), shift


def fmt_weight(w) -> str:
    """Comma-separated entries of a weight or partition, "" for the empty one."""
    return ",".join(map(str, w))


class SkewShape(Record, frozen=True):
    """A skew Young diagram outer/inner with inner contained in outer."""

    __slots__ = ("outer", "inner")
    outer: Partition
    inner: Partition

    def __init__(self, outer, inner):
        object.__setattr__(self, "outer", partition(outer))
        object.__setattr__(self, "inner", partition(inner))
        if not contains(self.outer, self.inner):
            raise ValueError(f"inner {self.inner} not contained in outer {self.outer}")

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def row_bounds(self) -> list[tuple[int, int]]:
        """Per row r, the half-open column range [inner_r, outer_r) of cells."""
        inner = pad(self.inner, len(self.outer))
        return [(inner[r], self.outer[r]) for r in range(len(self.outer))]

    def __str__(self):
        o = fmt_weight(self.outer) or "0"
        i = fmt_weight(self.inner)
        return f"{o}/{i}" if i else o


class SemistandardTableau(Record, frozen=True):
    """A semistandard filling of a skew shape.

    rows[r] holds the entries of row r left to right, covering the columns
    from inner[r] to outer[r]-1.  Rows weakly increase, columns strictly
    increase.
    """

    __slots__ = ("shape", "rows")
    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    def content(self, n: int) -> tuple[int, ...]:
        """Multiplicity vector of the entries 1..n."""
        c = [0] * n
        for row in self.rows:
            for v in row:
                c[v - 1] += 1
        return tuple(c)


def iter_ssyt_rows(shape: SkewShape, max_entry: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield the row tuples of every SSYT of the shape with entries <= max_entry.

    Enumeration order is lexicographic in the row-reading word (rows top to
    bottom, each left to right), which is the canonical scan order.
    """
    bounds = shape.row_bounds()
    cells = [(r, c) for r, (lo, hi) in enumerate(bounds) for c in range(lo, hi)]
    if not cells:
        yield ()
        return
    nrows = len(bounds)
    grid: dict[tuple[int, int], int] = {}
    out_rows = [[] for _ in range(nrows)]

    def fill(k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if k == len(cells):
            yield tuple(tuple(row) for row in out_rows)
            return
        r, c = cells[k]
        lo = 1
        if (r, c - 1) in grid:
            lo = max(lo, grid[(r, c - 1)])
        if (r - 1, c) in grid:
            lo = max(lo, grid[(r - 1, c)] + 1)
        for v in range(lo, max_entry + 1):
            grid[(r, c)] = v
            out_rows[r].append(v)
            yield from fill(k + 1)
            out_rows[r].pop()
            del grid[(r, c)]

    yield from fill(0)


def enumerate_ssyt(shape: SkewShape, max_entry: int) -> Iterator[SemistandardTableau]:
    """Yield every SSYT of the shape with entries <= max_entry exactly once."""
    for rows in iter_ssyt_rows(shape, max_entry):
        yield SemistandardTableau(shape, rows)


def count_ssyt(shape: SkewShape, max_entry: int) -> int:
    return sum(1 for _ in iter_ssyt_rows(shape, max_entry))


def weyl_dimension(w: GLWeight) -> int:
    """Dimension of the irreducible U(n)-module with highest weight w.

    Product over i<j of (w_i - w_j + j - i)/(j - i), evaluated exactly in
    integers.  Invariant under adding a constant to every entry.
    """
    w = weight(w)
    n = len(w)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= w[i] - w[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"Weyl product not integral for {w}")
    return q


def partitions_of(n: int, max_parts: int | None = None) -> Iterator[Partition]:
    """All partitions of n, largest part first, in descending lex order."""
    if max_parts is None:
        max_parts = n

    def gen(rem: int, cap: int, slots: int) -> Iterator[Partition]:
        if rem == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(rem, cap), 0, -1):
            for rest in gen(rem - first, first, slots - 1):
                yield (first,) + rest

    yield from gen(n, n, max_parts)


def partitions_up_to(max_weight: int, max_parts: int | None = None) -> Iterator[Partition]:
    """All partitions of weight 0..max_weight, by weight then descending lex."""
    for n in range(max_weight + 1):
        yield from partitions_of(n, max_parts=max_parts)


def _decreasing(caps: tuple[int, ...], lo: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing tuples t with lo <= t[i] <= caps[i], in descending lex order."""
    def gen(i: int, prev: int) -> Iterator[tuple[int, ...]]:
        if i == len(caps):
            yield ()
            return
        for first in range(min(caps[i], prev), lo - 1, -1):
            for rest in gen(i + 1, first):
                yield (first,) + rest

    yield from gen(0, caps[0] if caps else lo)


def subdiagrams(lam: Partition) -> Iterator[Partition]:
    """All partitions mu contained in lam, in a fixed deterministic order."""
    for raw in _decreasing(lam, 0):
        yield partition(raw)


def dominant_weights(rank: int, lo: int, hi: int) -> Iterator[GLWeight]:
    """All weakly decreasing integer tuples of the given rank with entries in [lo, hi]."""
    return _decreasing((hi,) * rank, lo)


@lru_cache(maxsize=None)
def arrangement_count(alpha: Partition, slots: int) -> int:
    """Number of distinct rearrangements of alpha padded with zeros to `slots` entries.

    This is the number of monomials in the orbit of z^alpha under permuting
    `slots` variables; 0 when alpha has more parts than slots.
    """
    if len(alpha) > slots:
        return 0
    den = factorial(slots - len(alpha))
    i = 0
    while i < len(alpha):
        j = i
        while j < len(alpha) and alpha[j] == alpha[i]:
            j += 1
        den *= factorial(j - i)
        i = j
    return factorial(slots) // den
