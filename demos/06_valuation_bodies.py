"""Valuation bodies of polynomial subspaces and Brunn-Minkowski.

The lex-minimal-exponent valuation turns a subspace into lattice points;
powers of the subspace fill out a convex body whose lattice-normalized
volume measures the growth of dim S^k.  Volumes of products obey the
d-th root superadditivity, with equality for a subspace against itself.
"""

import signal
from fractions import Fraction

from logcave.bodies import (
    MultiPolynomial,
    PolynomialSubspace,
    body_approximation,
    brunn_minkowski_check,
    constant_one,
    degree_bounded_monomials,
    degree_estimate,
    flag_valuation,
    monomial,
    monomial_subspace,
    normalized_volume,
    power_subspace,
)

# a reader that stops early (`| head`) ends the demo quietly, as it ends other tools
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)


def hull_over_scale(body):
    """The hull vertices, held as integers over body.scale, as the points v/k."""
    return ", ".join(
        "(" + ", ".join(str(Fraction(x, body.scale)) for x in v) + ")" for v in body.hull
    )


f = monomial(2, (2, 1))
g = monomial(2, (1, 0))
print("valuation is additive:", flag_valuation(f), "+", flag_valuation(g), "=", flag_valuation(f * g))

S = degree_bounded_monomials(2, 1)  # span{1, x, y}
print("\ndim S^k for S = degree <= 1 monomials in 2 variables:")
print("  ", [power_subspace(S, k).dimension for k in range(1, 6)])
body = body_approximation(S, 4)
print("hull vertices:", hull_over_scale(body), "stable:", body.stable)
print("normalized volume:", normalized_volume(body))
print("growth degree:", degree_estimate(S, 4).degree)

# the segment [0, 2] against the lattice 2Z
S2 = monomial_subspace(1, [(2,)])
b2 = body_approximation(S2, 3)
print("\nspan{1, x^2}: hull", hull_over_scale(b2), "normalized volume", normalized_volume(b2))

square = monomial_subspace(2, [(1, 0), (0, 1), (1, 1)])
r = brunn_minkowski_check(S, square, 4)
print("\nsimplex against square:")
print("  volumes (v1, v2, v12):", r.volumes)
print("  d-th root comparison sign:", r.comparison_sign, "passed:", r.passed)

r = brunn_minkowski_check(S, S, 4)
print("S against itself is the equality case:", r.comparison_sign == 0)

# a subspace not spanned by monomials: v(T^3) has points outside three
# times the hull of v(T), so the body grows past level 1
T = PolynomialSubspace(2, [
    constant_one(2),
    MultiPolynomial(2, {(1, 0): 1, (0, 1): 1}),  # x + y
    MultiPolynomial(2, {(2, 0): 1, (0, 1): Fraction(-1, 2)}),  # x^2 - y/2
    MultiPolynomial(2, {(1, 1): 1, (0, 2): 1}),  # x*y + y^2
])
print("\nspan{1, x + y, x^2 - y/2, x*y + y^2}:")
print("  level-1 hull:", hull_over_scale(body_approximation(T, 1)))
print("  level-3 hull:", hull_over_scale(body_approximation(T, 3)))
r = brunn_minkowski_check(T, S, 3)
print("  against S: volumes", r.volumes, "sign", r.comparison_sign, "passed:", r.passed)
