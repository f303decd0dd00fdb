"""Littlewood-Richardson coefficients, triple invariants and restriction multiplicities.

Single coefficients have two independent computation paths: counting LR
skew tableaux (default, fast) and peeling Schur coefficients out of a
product of monomial expansions (oracle).  Full decompositions of a tensor
product are summed by Brauer-Klimyk over the weights of one factor, read
from its Kostka table.  GL weights with negative entries are
handled by determinant shifts: adding a constant to every entry of a
weight twists the module by a power of det and leaves multiplicities
unchanged.
"""

from __future__ import annotations

import os
import threading
from functools import cache, lru_cache
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

from .partitions import (
    GLWeight,
    Partition,
    SkewShape,
    contains,
    dual_weight,
    fmt_weight,
    pad,
    partition,
    shift_to_partition,
    weight,
    weyl_dimension,
)
from .symfunc import kostka_table, multiply, skew_schur, to_schur_basis

WeightTriple = tuple[GLWeight, GLWeight, GLWeight]
Split = tuple[Partition, int]  # a weight as shift_to_partition splits it
CACHE_FILE = "lr_cache.txt"  # the default LRCache's file in $LOGCAVE_CACHE_DIR


def _check_triple(t: WeightTriple) -> int:
    lam, mu, nu = t
    n = len(lam)
    if len(mu) != n or len(nu) != n:
        raise ValueError(f"rank mismatch in triple {t}")
    for w in t:
        weight(w)
    return n


@lru_cache(maxsize=None)
def lr_skew_count(outer: Partition, inner: Partition, content: Partition) -> int:
    """Number of LR tableaux: SSYT of shape outer/inner with the given content
    whose reverse reading word (rows right to left, top to bottom) is a
    lattice word.
    """
    if not contains(outer, inner):
        return 0
    if sum(outer) - sum(inner) != sum(content):
        return 0
    shape = SkewShape(outer, inner)
    bounds = shape.row_bounds()
    # cells in reverse reading order; the ballot condition is then a
    # prefix condition checked as we fill
    cells = [
        (r, c)
        for r, (lo, hi) in enumerate(bounds)
        for c in range(hi - 1, lo - 1, -1)
    ]
    m = len(content)
    counts = [0] * (m + 1)
    grid: dict[tuple[int, int], int] = {}

    def fill(k: int) -> int:
        if k == len(cells):
            return 1
        r, c = cells[k]
        hi = m
        if (r, c + 1) in grid:
            hi = min(hi, grid[(r, c + 1)])
        lo = 1
        if (r - 1, c) in grid:
            lo = max(lo, grid[(r - 1, c)] + 1)
        found = 0
        for v in range(lo, hi + 1):
            if counts[v] >= content[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            counts[v] += 1
            grid[(r, c)] = v
            found += fill(k + 1)
            del grid[(r, c)]
            counts[v] -= 1
        return found

    return fill(0)


def _shifted_triple(lam: GLWeight, mu: GLWeight, nu: GLWeight):
    """Shift mu, nu to partitions and lam compatibly; None if lam leaves the cone."""
    mu_p, a = shift_to_partition(mu)
    nu_p, b = shift_to_partition(nu)
    lam_shifted = tuple(x - a - b for x in lam)
    if lam_shifted[-1] < 0:
        return None
    return partition(lam_shifted), mu_p, nu_p


def lr_coefficient(lam: GLWeight, mu: GLWeight, nu: GLWeight) -> int:
    """Multiplicity of V^lam in V^mu tensor V^nu for U(n), exact.

    All three weights must be dominant of equal rank.  Computed after a
    simultaneous determinant shift making everything a partition, then by
    counting LR skew tableaux of shape lam/mu with content nu.
    """
    _check_triple((lam, mu, nu))
    return _lr_count(lam, mu, nu)


def _lr_count(lam: GLWeight, mu: GLWeight, nu: GLWeight) -> int:
    """lr_coefficient on weights already checked by _check_triple."""
    shifted = _shifted_triple(lam, mu, nu)
    if shifted is None:
        return 0
    lam_p, mu_p, nu_p = shifted
    return lr_skew_count(lam_p, mu_p, nu_p)


def lr_coefficient_schur_peel(lam: GLWeight, mu: GLWeight, nu: GLWeight) -> int:
    """Oracle path: the same multiplicity via a Schur-basis peel of the product."""
    n = _check_triple((lam, mu, nu))
    shifted = _shifted_triple(lam, mu, nu)
    if shifted is None:
        return 0
    lam_p, mu_p, nu_p = shifted
    prod = multiply(
        skew_schur(SkewShape(mu_p, ()), n), skew_schur(SkewShape(nu_p, ()), n)
    )
    return to_schur_basis(prod).coefficient(lam_p)


def triple_invariant(t: WeightTriple) -> int:
    """Dimension of the invariants in V^lam tensor V^mu tensor V^nu.

    Fully symmetric in the three arguments; zero whenever the entries do
    not sum to zero (no torus invariants).
    """
    _check_triple(t)
    lam, mu, nu = t
    if sum(lam) + sum(mu) + sum(nu) != 0:
        return 0
    compute = lambda: _lr_count(dual_weight(lam), mu, nu)
    disk = _default_cache()
    return compute() if disk is None else disk.get_or_compute((lam, mu, nu), compute)


def slice_invariants(triples: Iterable[WeightTriple]) -> list[int]:
    """triple_invariant of each triple, in input order, read from pair decompositions.

    The triples must be distinct sum-zero triples of dominant weights of
    one rank, as conjecture1_scan takes them from its box; nothing is
    checked.  With a cache file, stored values are read from its memory,
    and the others are computed and appended in one batch, in input order,
    so the file gets the lines triple_invariant would write.
    """
    disk = _default_cache()
    if disk is None:
        return _read_decompositions(triples)
    return disk.get_or_compute_all(list(triples), _read_decompositions)


def _read_decompositions(triples: Iterable[WeightTriple]) -> list[int]:
    """The invariant of each triple (lam, mu, nu): the multiplicity of
    V^{dual nu} in V^lam (x) V^mu.

    Consecutive triples of one pair (lam, mu) share its decomposition, read
    once from _pair_decomposition.  Each nu is then one lookup, at dual nu
    less the pair's det shift.
    """
    splits = cache(shift_to_partition)
    shifted_duals = cache(lambda nu, shift: tuple(-x - shift for x in reversed(nu)))
    out = []
    lam = mu = dec = None
    for a, b, nu in triples:
        if a != lam or b != mu:
            lam, mu = a, b
            dec, s = _pair_decomposition(splits(lam), splits(mu), len(lam))
        out.append(dec.get(shifted_duals(nu, s), 0))
    return out


def restriction_multiplicity(lam: Partition, mu: Partition, n: int, k: int) -> int:
    """Multiplicity of V^mu of U(k) inside V^lam of U(n), for standard U(k) in U(n).

    Equals the number of SSYT of shape lam/mu with entries <= n-k, the
    skew Schur polynomial s_{lam/mu} at n-k ones; zero when mu is not
    contained in lam.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    if k >= n:
        raise ValueError(f"need k < n, got k={k}, n={n}")
    lam = partition(lam)
    mu = partition(mu)
    if len(lam) > n:
        raise ValueError(f"{lam} has more than {n} parts")
    if len(mu) > k:
        raise ValueError(f"{mu} has more than {k} parts")
    if not contains(lam, mu):
        return 0
    return skew_schur(SkewShape(lam, mu), n - k).evaluate_ones()


def tensor_product_multiplicities(w1: GLWeight, w2: GLWeight) -> dict[GLWeight, int]:
    """Full decomposition of V^w1 tensor V^w2 as a weight -> multiplicity map.

    Both weights are shifted to partitions for _pair_decomposition, and the
    det shift is added back.  The returned dict is the caller's own.
    """
    if len(w2) != len(w1):
        raise ValueError("rank mismatch")
    weight(w1)
    weight(w2)
    dec, s = _pair_decomposition(shift_to_partition(w1), shift_to_partition(w2), len(w1))
    return {tuple(x + s for x in lam): c for lam, c in dec.items()}


def _pair_decomposition(a: Split, b: Split, n: int) -> tuple[dict[tuple[int, ...], int], int]:
    """(dec, s): V^w1 tensor V^w2 is the sum of c V^(lam + s) over dec's items (lam, c).

    a and b are the shift_to_partition splits of dominant weights w1, w2
    of rank n; nothing is checked.  s is the sum of the two shifts, and
    dec is the memoised _brauer_klimyk of the unordered partition pair,
    which the caller must not change.
    """
    (p1, s1), (p2, s2) = a, b
    return _brauer_klimyk(max(p1, p2), min(p1, p2), n), s1 + s2


@lru_cache(maxsize=None)
def _brauer_klimyk(big: Partition, small: Partition, n: int) -> dict[tuple[int, ...], int]:
    """V^big (x) V^small = sum over the weights beta of V^small of
    sign(w) V^{w(big + beta + rho) - rho}, with rho = (n-1, .., 1, 0).

    The sum runs over the factor with the smaller dimension, so the two
    may swap first.  w sorts big + beta + rho into decreasing order; its
    sign is the sign of the Vandermonde product of the unsorted entries,
    which is 0 (and the weight contributes nothing) when an entry repeats.
    Terms of opposite sign cancel, so only nonzero multiplicities are kept.
    Memoised: callers must not change the returned dict.
    """
    if weyl_dimension(pad(big, n)) < weyl_dimension(pad(small, n)):
        big, small = small, big
    top = [x + n - 1 - i for i, x in enumerate(pad(big, n))]  # big + rho
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out: dict[tuple[int, ...], int] = {}
    for beta, k in _weights(small, n):
        v = [x + b for x, b in zip(top, beta)]
        vandermonde = 1
        for i, j in pairs:
            vandermonde *= v[i] - v[j]
        if vandermonde:
            lam = tuple(x - n + 1 + i for i, x in enumerate(sorted(v, reverse=True)))
            out[lam] = out.get(lam, 0) + (k if vandermonde > 0 else -k)
    return {lam: c for lam, c in out.items() if c}


@lru_cache(maxsize=None)
def _weights(p: Partition, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(beta, multiplicity) for each weight beta of V^p at rank n.

    The weights are the distinct rearrangements of each content alpha in
    kostka_table(p, (), n), with multiplicity K(p, alpha).
    """
    return tuple(
        (beta, k)
        for alpha, k in kostka_table(p, (), n).items()
        for beta in _rearrangements(pad(alpha, n))
    )


def _rearrangements(entries: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Each distinct rearrangement of a weakly decreasing tuple, once."""
    if not entries:
        yield ()
        return
    for i, x in enumerate(entries):
        if i and entries[i - 1] == x:
            continue
        for rest in _rearrangements(entries[:i] + entries[i + 1 :]):
            yield (x,) + rest


def tensor_square_multiplicities(w: GLWeight) -> dict[GLWeight, int]:
    """Decomposition of V^w tensor V^w."""
    return tensor_product_multiplicities(w, w)


class LRCache:
    """On-disk cache of triple invariants: an append-only file, loaded into memory.

    Values are keyed by the triple (lam, mu, nu).  File lines are
    "lam;mu;nu;n;value" in the comma-separated weight syntax, with n the
    rank, len(lam).  The file is read once, when the cache is made, and
    opened for appends on the first batch of new entries; it stays open
    until close().
    Each batch is one buffered write of its lines, in order, followed by a
    flush, under a lock; at worst two processes compute the same key and
    append it twice, which is harmless.

    A write cut short (a killed process, a full disk) leaves a last line
    without its newline, whose value may be a prefix of the true one.
    Loading skips such a line, and each batch first reads the file's last
    byte through its handle: if that byte is not a newline, the batch
    closes the line with "#\n".  The "#" keeps the fragment from ever
    parsing, and the batch starts on a fresh line.  Loading also skips a
    line that does not parse, one whose value is negative, and one whose
    weights are not all of length n.
    """

    def __init__(self, path: str):
        self._memory: dict[WeightTriple, int] = {}
        self._lock = threading.Lock()
        self._path = path
        self._fh = None
        if not os.path.exists(path):
            return
        # each distinct weight string is parsed once
        weights = cache(lambda s: tuple(map(int, s.split(","))))
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if not line.endswith("\n"):
                    break  # torn tail
                try:
                    lam_s, mu_s, nu_s, n_s, val_s = line.split(";")
                    lam, mu, nu = weights(lam_s), weights(mu_s), weights(nu_s)
                    n, value = int(n_s), int(val_s)
                except ValueError:
                    continue  # foreign or truncated line
                # a multiplicity at the weights' rank; anything else is foreign
                if value >= 0 and len(lam) == len(mu) == len(nu) == n:
                    self._memory[lam, mu, nu] = value

    def get_or_compute(self, key: WeightTriple, compute: Callable[[], int]) -> int:
        """The value of one key, through get_or_compute_all."""
        return self.get_or_compute_all([key], lambda _: [compute()])[0]

    def get_or_compute_all(
        self,
        keys: Sequence[WeightTriple],
        compute: Callable[[list[WeightTriple]], list[int]],
    ) -> list[int]:
        """The value of each key, in order: stored ones from memory, the
        others from one compute(missing keys), appended as one batch.
        A key repeated among the missing ones is computed and appended twice."""
        with self._lock:
            memory = self._memory
            missing = [k for k in keys if k not in memory]
        if missing:
            self.append(missing, compute(missing))
        with self._lock:
            return [memory[k] for k in keys]

    def append(self, keys: Sequence[WeightTriple], values: Sequence[int]) -> None:
        """Store the values under their keys and append their lines, in order.

        The batch is written with one torn-tail check and one flush, in
        writes of up to 4,096 lines so that a large batch is never held
        whole as text.  An empty batch opens nothing and writes nothing.
        """
        if not keys:
            return
        names = cache(fmt_weight)
        lines = (
            f"{names(lam)};{names(mu)};{names(nu)};{len(lam)};{value}\n"
            for (lam, mu, nu), value in zip(keys, values)
        )
        with self._lock:
            self._memory.update(zip(keys, values))
            if self._fh is None:
                self._fh = open(self._path, "a+b")
            fh = self._fh
            # another writer may have left a torn tail since the last append
            if fh.seek(0, os.SEEK_END) > 0:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"#\n")
            while chunk := "".join(islice(lines, 4096)):
                fh.write(chunk.encode("ascii"))
            fh.flush()

    def close(self) -> None:
        """Close the file handle; a later append opens it again."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    __del__ = close  # a cache that is dropped closes its handle

    def __len__(self):
        return len(self._memory)


def _default_cache() -> LRCache | None:
    """The cache file under $LOGCAVE_CACHE_DIR as the variable is set now; None
    when it is unset, and lr_skew_count's memo is then the only one.  An
    OSError from making the directory or reading the file propagates and
    memoises nothing; verify's option check makes the cache first and reports
    one as an input error."""
    return _cache_in(os.environ.get("LOGCAVE_CACHE_DIR", ""))


@lru_cache(maxsize=1)
def _cache_in(cache_dir: str) -> LRCache | None:
    """The LR cache of one directory, "" for none.  It is memoised until the
    variable names another directory: the cache it drops closes its handle,
    and a return to the directory loads the file again."""
    if not cache_dir:
        return None
    os.makedirs(cache_dir, exist_ok=True)
    return LRCache(os.path.join(cache_dir, CACHE_FILE))


def reset_default_cache() -> None:
    """Drop the module-level LR cache, closing its handle, and empty the
    decomposition memos.

    Used by tests and before a cold-start measurement.  The memos on
    arrangement_count, kostka_table, monomial_product_row and lr_skew_count
    stay: a cold start clears those four as well, as cold_start in
    perfbench/traced_run.py does.
    """
    _cache_in.cache_clear()
    _brauer_klimyk.cache_clear()
    _weights.cache_clear()
