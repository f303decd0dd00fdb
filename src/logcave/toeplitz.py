"""Finitely supported sequences, Toeplitz minors and character positivity.

A two-sided nonnegative rational sequence x determines the function
z -> sum x_k z^k; its restriction to n variables expands over Schur
polynomials with coefficients given by Toeplitz determinants.  Total
positivity is only ever certified up to the finite window stated by the
caller.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from ._records import Record
from .partitions import pad, partitions_up_to


def convolve(a: Sequence, b: Sequence) -> list:
    """Coefficient list of the product of the polynomials with coefficients a and b."""
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def first_logconcavity_failure(seq: Sequence) -> int | None:
    """First index i with seq[i]^2 < seq[i-1] seq[i+1], or None; only
    interior indices can fail, as a neighbour past either end is 0."""
    for i in range(1, len(seq) - 1):
        if seq[i] ** 2 < seq[i - 1] * seq[i + 1]:
            return i
    return None


class FiniteSequence(Record, frozen=True):
    """Finitely supported map index -> nonnegative rational value."""

    __slots__ = ("support",)
    support: dict[int, Fraction]

    def __init__(self, support: Mapping[int, Fraction | int] | None = None):
        clean = {}
        for k, v in (support or {}).items():
            v = Fraction(v)
            if v < 0:
                raise ValueError(f"negative value x_{k} = {v}")
            if v:
                clean[int(k)] = v
        object.__setattr__(self, "support", clean)

    def __getitem__(self, k: int) -> Fraction:
        return self.support.get(k, Fraction(0))

    def get(self, k: int, default=Fraction(0)) -> Fraction:
        return self.support.get(k, default)

    def convolve(self, other: "FiniteSequence") -> "FiniteSequence":
        (lo_a, a), (lo_b, b) = _window(self), _window(other)
        return FiniteSequence({lo_a + lo_b + i: v for i, v in enumerate(convolve(a, b)) if v})


def _window(x: FiniteSequence) -> tuple[int, list[Fraction]]:
    """(lo, [x_lo .. x_hi]) over the support hull [lo, hi]; (0, []) for the zero sequence."""
    lo = min(x.support, default=0)
    return lo, [x.get(k, 0) for k in range(lo, max(x.support, default=-1) + 1)]


def _det(rows: list[list]) -> Fraction:
    """Exact determinant of a square matrix by fraction Gaussian elimination."""
    n = len(rows)
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] / m[col][col]
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def toeplitz_minor(x: Mapping[int, Fraction | int], rows, cols) -> Fraction:
    """Exact minor det[x_{cols[b] - rows[a]}] of the Toeplitz matrix of x.

    x is a FiniteSequence or any mapping index -> value, absent indices
    reading as zero.  rows and cols must be strictly increasing index
    lists of equal length.
    """
    rows = list(rows)
    cols = list(cols)
    if len(rows) != len(cols):
        raise ValueError("rows and cols must have equal length")
    for seq in (rows, cols):
        if any(seq[i] >= seq[i + 1] for i in range(len(seq) - 1)):
            raise ValueError("index lists must be strictly increasing")
    return _det([[x.get(c - r, 0) for c in cols] for r in rows])


def toeplitz_schur_coefficient(x: Mapping[int, Fraction | int], lam, n: int) -> Fraction:
    """Coefficient of s_lam(z_1..z_n) in prod_i sum_k x_k z_i^k.

    This is the n x n minor det[x_{lam_i - i + j}], the Toeplitz minor of
    x on rows i - lam_i and columns 0..n-1.  lam may be any weakly
    decreasing integer vector with at most n entries; missing entries are
    zero.  A lam that is not weakly decreasing gives rows that do not
    increase strictly, and raises ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    full = pad(tuple(lam), n)
    return toeplitz_minor(x, [i - full[i] for i in range(n)], range(n))


def two_by_two_scan(x: FiniteSequence) -> tuple[bool, int | None]:
    """Check x_n^2 >= x_{n-1} x_{n+1} over the support hull; (passed, first failing index)."""
    lo, window = _window(x)
    bad = first_logconcavity_failure(window)
    return (True, None) if bad is None else (False, lo + bad)


def character_positivity_check(
    x: FiniteSequence, n: int, weight_bound: int
) -> tuple[bool, tuple[int, ...] | None]:
    """Schur-coefficient nonnegativity of the n-variable restriction of x.

    Tests every partition-indexed coefficient with at most n parts up to
    the weight bound.  When the support reaches down to lo < 0, every
    tested weight moves down by -lo with it: that coefficient is the one
    at the partition for x shifted to start at 0 (a determinant twist).
    The failing weight is returned, with entries possibly negative.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    shift = min(min(x.support, default=0), 0)
    for lam in partitions_up_to(weight_bound, max_parts=n):
        w = tuple(v + shift for v in pad(lam, n))
        if toeplitz_schur_coefficient(x, w, n) < 0:
            return False, w
    return True, None
