"""Exact symmetric-polynomial arithmetic in the monomial-orbit basis.

A symmetric polynomial in n variables is stored as a map from exponent
orbits (weakly decreasing exponent tuples, trailing zeros stripped) to
integer coefficients.  Products are computed through the structure
constants of the monomial basis, which depend only on the orbit shapes and
not on n; that keeps the exhaustive scans cheap even in many variables.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import product
from math import factorial
from typing import Iterator

from ._records import Record
from .partitions import (
    Partition,
    SkewShape,
    arrangement_count,
    contains,
    pad,
    partition,
)


class MonomialExpansion(Record, frozen=True):
    """A symmetric polynomial: orbit exponent tuple -> nonzero integer coefficient."""

    __slots__ = ("num_variables", "terms")
    num_variables: int
    terms: dict[Partition, int]

    def __init__(self, num_variables: int, terms: dict[Partition, int] | None = None):
        terms = {} if terms is None else terms
        for k, v in terms.items():
            if len(k) > num_variables:
                raise ValueError(f"orbit {k} needs more than {num_variables} variables")
            if v == 0:
                raise ValueError("zero coefficient stored")
        object.__setattr__(self, "num_variables", num_variables)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _unchecked(cls, num_variables: int, terms: dict[Partition, int]) -> MonomialExpansion:
        """The expansion of terms the caller knows to be nonzero and to fit."""
        self = object.__new__(cls)
        object.__setattr__(self, "num_variables", num_variables)
        object.__setattr__(self, "terms", terms)
        return self

    def is_zero(self) -> bool:
        return not self.terms

    def min_coefficient(self) -> tuple[int, Partition | None]:
        """Smallest coefficient and a witness orbit; (0, None) for the zero polynomial."""
        if not self.terms:
            return 0, None
        orbit = min(self.terms, key=lambda k: (self.terms[k], k))
        return self.terms[orbit], orbit

    def evaluate_ones(self) -> int:
        """Value at z_1 = ... = z_n = 1."""
        return sum(
            c * arrangement_count(a, self.num_variables) for a, c in self.terms.items()
        )


class SchurExpansion(Record, frozen=True):
    """A virtual character: partition -> nonzero integer coefficient."""

    __slots__ = ("terms",)
    terms: dict[Partition, int]

    def __init__(self, terms: dict[Partition, int] | None = None):
        object.__setattr__(self, "terms", {} if terms is None else terms)

    def coefficient(self, lam: Partition) -> int:
        return self.terms.get(partition(lam), 0)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.terms.values())


@lru_cache(maxsize=None)
def kostka_table(outer: Partition, inner: Partition, max_entry: int) -> dict[Partition, int]:
    """Content-orbit counts of SSYT on outer/inner with entries <= max_entry.

    Entry [alpha] is the number of fillings whose content sorts to alpha
    (Kostka numbers, which are symmetric in the content).

    Computed by the branching rule (Macdonald, I.5): the cells holding the
    largest entry N form a horizontal strip outer/nu, and the rest is an
    SSYT of nu/inner with entries <= N-1.  By the symmetry, a dominant
    content with exactly N parts is alpha' + (s,) for a strip of size s and
    a dominant alpha' with N-1 parts, the last of them >= s.  Contents with
    fewer parts are the table for N-1.

    A content has at most one part per cell, so a max_entry above the
    shape's size gives the same table: the memo returns the table at the
    size itself.  The first column holds len(outer) - len(inner) cells,
    strictly increasing, so with fewer values than that the table is empty.
    """
    if not contains(outer, inner):
        raise ValueError(f"inner {inner} not contained in outer {outer}")
    size = sum(outer) - sum(inner)
    if max_entry > size:
        return kostka_table(outer, inner, size)
    if max_entry <= 0:
        return {(): 1} if outer == inner else {}
    if len(outer) - len(inner) > max_entry:
        return {}
    table = Counter(kostka_table(outer, inner, max_entry - 1))
    # every part of alpha' is >= s, so the strip takes at most |outer/inner|/N cells
    max_strip = size // max_entry
    for nu, s in _horizontal_strips(outer, inner, max_strip):
        for alpha, c in kostka_table(nu, inner, max_entry - 1).items():
            if len(alpha) == max_entry - 1 and (not alpha or alpha[-1] >= s):
                table[alpha + (s,)] += c
    return dict(table)


def _horizontal_strips(
    outer: Partition, inner: Partition, max_size: int
) -> Iterator[tuple[Partition, int]]:
    """(nu, |outer/nu|) for each nu with inner <= nu <= outer, outer/nu a
    horizontal strip of 1..max_size cells.

    A horizontal strip has at most one cell per column, which is
    outer[i+1] <= nu[i] <= outer[i] in every row.
    """
    rows = len(outer)
    inner = pad(inner, rows)
    ranges = [
        range(outer[i], max(inner[i], outer[i + 1] if i + 1 < rows else 0) - 1, -1)
        for i in range(rows)
    ]
    total = sum(outer)
    for nu in product(*ranges):
        s = total - sum(nu)
        if 0 < s <= max_size:
            # the ranges make nu weakly decreasing and nonnegative, so only
            # trailing zeros stand between nu and a partition
            k = rows
            while k and not nu[k - 1]:
                k -= 1
            yield nu[:k], s


def skew_schur(shape: SkewShape, n: int) -> MonomialExpansion:
    """The skew Schur polynomial of the shape in n variables.

    Sum over semistandard tableaux with entries <= n of their content
    monomials, collected by orbit.  A shape with a column taller than n
    gives the zero polynomial.
    """
    if n < 0:
        raise ValueError("number of variables must be >= 0")
    # no content has more than n parts; the copy keeps the memo's own dict
    # out of the caller's hands
    table = kostka_table(shape.outer, shape.inner, n)
    return MonomialExpansion(n, dict(table))


@lru_cache(maxsize=None)
def monomial_product_row(alpha: Partition, beta: Partition) -> dict[Partition, int]:
    """Structure constants of m_alpha * m_beta in the monomial basis.

    The row is independent of the number of variables as long as each
    resulting orbit fits; callers drop orbits with too many parts.

    Symmetrizing z^base * m_beta over L = len(alpha)+len(beta) slots, with
    base = pad(alpha, L), gives stab(base) * m_alpha * m_beta, where stab
    is the order of a stabilizer in S_L.  A rearrangement c of pad(beta, L)
    contributes stab(base + c) at the orbit of base + c, and both depend
    only on the contingency table t: t[b][m] counts the slots of the b-th
    value block of base that receive the m-th value of pad(beta, L).  The
    table is reached by prod_b size_b! / prod_m t[b][m]! rearrangements.
    """
    if (len(alpha), alpha) < (len(beta), beta):
        return monomial_product_row(beta, alpha)
    L = len(alpha) + len(beta)
    fact = [factorial(k) for k in range(L + 1)]
    base = pad(alpha, L)
    blocks = sorted(Counter(base).items(), reverse=True)
    columns = sorted(Counter(pad(beta, L)).items(), reverse=True)
    values = [m for m, _ in columns]
    stab_base = 1
    for _, size in blocks:
        stab_base *= fact[size]
    row: dict[Partition, int] = {}
    for table in _contingency_tables(
        tuple(size for _, size in blocks), tuple(n for _, n in columns)
    ):
        # prod_b size_b! / prod_m t[b][m]!, each division exact
        ways = stab_base
        content: dict[int, int] = {}
        for (a, _), counts in zip(blocks, table):
            for m, k in zip(values, counts):
                if k:
                    ways //= fact[k]
                    content[a + m] = content.get(a + m, 0) + k
        stab = 1
        gamma: list[int] = []
        for v in sorted(content, reverse=True):
            k = content[v]
            stab *= fact[k]
            if v:
                gamma += [v] * k
        key = tuple(gamma)
        row[key] = row.get(key, 0) + ways * stab
    out = {}
    for gamma, total in row.items():
        q, r = divmod(total, stab_base)
        if r:
            raise AssertionError("monomial structure constant not integral")
        out[gamma] = q
    return out


@lru_cache(maxsize=None)
def _contingency_tables(
    row_sums: tuple[int, ...], col_sums: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Nonnegative integer matrices with the given row and column sums."""
    if not row_sums:
        return ((),)
    return tuple(
        (first,) + tail
        for first in _bounded_compositions(row_sums[0], col_sums)
        for tail in _contingency_tables(row_sums[1:], tuple(c - k for c, k in zip(col_sums, first)))
    )


@lru_cache(maxsize=None)
def _bounded_compositions(total: int, caps: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Vectors k with 0 <= k[i] <= caps[i] summing to total."""
    if not caps:
        return ((),) if total == 0 else ()
    room = sum(caps[1:])
    return tuple(
        (k,) + tail
        for k in range(max(0, total - room), min(total, caps[0]) + 1)
        for tail in _bounded_compositions(total - k, caps[1:])
    )


def multiply(a: MonomialExpansion, b: MonomialExpansion) -> MonomialExpansion:
    """Exact product of two symmetric polynomials in the same variables.

    A square, multiply(a, a), reads each unordered pair of terms once: the
    two orders of an off-diagonal pair read the same row, so it counts twice.
    """
    if a.num_variables != b.num_variables:
        raise ValueError(
            f"variable count mismatch: {a.num_variables} != {b.num_variables}"
        )
    n = a.num_variables
    if a is b:
        terms = list(a.terms.items())
        pairs = (
            (alpha, beta, ca * cb if i == j else 2 * ca * cb)
            for i, (alpha, ca) in enumerate(terms)
            for j, (beta, cb) in enumerate(terms[i:], i)
        )
    else:
        pairs = (
            (alpha, beta, ca * cb)
            for alpha, ca in a.terms.items()
            for beta, cb in b.terms.items()
        )
    out: dict[Partition, int] = {}
    get = out.get
    for alpha, beta, c in pairs:
        # every orbit of the row has at most len(alpha)+len(beta) parts
        fits = len(alpha) + len(beta) <= n
        for gamma, m in monomial_product_row(alpha, beta).items():
            if fits or len(gamma) <= n:
                out[gamma] = get(gamma, 0) + c * m
    return MonomialExpansion._unchecked(n, {k: v for k, v in out.items() if v})


def subtract_and_min_coefficient(
    a: MonomialExpansion, b: MonomialExpansion
) -> tuple[MonomialExpansion, int, Partition | None]:
    """a - b, its smallest coefficient, and a witness orbit when negative.

    The witness is an exponent orbit achieving a negative coefficient (the
    minimal one); None when the difference is nonnegative.
    """
    if a.num_variables != b.num_variables:
        raise ValueError(
            f"variable count mismatch: {a.num_variables} != {b.num_variables}"
        )
    terms = dict(a.terms)
    for k, v in b.terms.items():
        nv = terms.get(k, 0) - v
        if nv:
            terms[k] = nv
        else:
            terms.pop(k, None)
    # a's and b's orbits fit, and a zero difference was popped
    diff = MonomialExpansion._unchecked(a.num_variables, terms)
    min_coeff, orbit = diff.min_coefficient()
    witness = orbit if min_coeff < 0 else None
    return diff, min_coeff, witness


def to_schur_basis(a: MonomialExpansion) -> SchurExpansion:
    """Expand a symmetric polynomial in the Schur basis of n variables.

    Repeatedly peels the dominance-maximal orbit of the top degree: its
    coefficient is the Schur coefficient of that partition, because every
    s_lambda contributes m-orbits only below lambda in dominance order.
    The lex-largest orbit of the top degree is such a maximum, since an
    orbit that dominates another is also lex larger; it is also the lex
    tie-break among incomparable maxima, so the order stays deterministic.
    The monomial expansion of s_lambda is read straight from its Kostka
    table.  A peeled orbit that is not a partition is not cancelled by its
    own table, and raises ValueError.  A heap keyed on (-degree, negated parts)
    yields that order; an orbit is pushed when its coefficient turns nonzero.
    """
    n = a.num_variables
    remaining = dict(a.terms)
    heap = [(-sum(k), tuple(-x for x in k), k) for k in remaining]
    heapify(heap)
    out: dict[Partition, int] = {}
    while heap:
        lam = heappop(heap)[2]
        coeff = remaining.get(lam)
        if coeff is None:
            continue
        out[lam] = coeff
        for alpha, k in kostka_table(lam, (), n).items():
            old = remaining.get(alpha, 0)
            nv = old - coeff * k
            if not nv:
                remaining.pop(alpha, None)
            else:
                remaining[alpha] = nv
                if not old:
                    heappush(heap, (-sum(alpha), tuple(-x for x in alpha), alpha))
        # K_{lam,lam} = 1 cancels lam; no table key is a non-partition
        if lam in remaining:
            raise ValueError(f"orbit {lam} is not a partition")
    return SchurExpansion(out)
