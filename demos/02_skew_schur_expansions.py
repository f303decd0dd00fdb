"""Skew Schur polynomials: monomial orbits, Schur decompositions, products.

The central inequality behind restriction log-concavity: for shapes with
an integral componentwise midpoint, the squared midpoint skew Schur
polynomial dominates the product of the endpoints, coefficient by
coefficient.
"""

import signal

from logcave import SkewShape, multiply, skew_schur, subtract_and_min_coefficient, to_schur_basis

# a reader that stops early (`| head`) ends the demo quietly, as it ends other tools
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

s21 = skew_schur(SkewShape((2, 1), ()), 4)
print("s_(2,1) in 4 variables, monomial orbits:", s21.terms)
print("square of it in the Schur basis:", to_schur_basis(multiply(s21, s21)).terms)

sk = skew_schur(SkewShape((3, 1), (1,)), 4)
print("\nskew shape (3,1)/(1):", to_schur_basis(sk).terms)

# midpoint comparison: (3,1) and (1,1) have midpoint (2,1)
n = 6
mid = skew_schur(SkewShape((2, 1), ()), n)
left = multiply(mid, mid)
right = multiply(skew_schur(SkewShape((3, 1), ()), n), skew_schur(SkewShape((1, 1), ()), n))
diff, min_coeff, witness = subtract_and_min_coefficient(left, right)
print("\ns_(2,1)^2 - s_(3,1) s_(1,1), smallest coefficient:", min_coeff)
print("difference in the Schur basis:", to_schur_basis(diff).terms)
