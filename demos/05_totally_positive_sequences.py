"""Totally positive sequences through Toeplitz minors.

A nonnegative sequence restricts to a nonnegative combination of Schur
polynomials exactly when the minors of its Toeplitz matrix are
nonnegative; the 2x2 contiguous minors give the classical log-concavity
condition on the sequence itself.
"""

import signal
from fractions import Fraction

from logcave import FiniteSequence, character_positivity_check, toeplitz_minor, two_by_two_scan

# a reader that stops early (`| head`) ends the demo quietly, as it ends other tools
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

binomials = FiniteSequence({0: 1, 1: 3, 2: 3, 3: 1})  # (1+z)^3
print("binomial row (1,3,3,1):")
print("  2x2 condition:", two_by_two_scan(binomials))
print("  Schur positivity at rank 3 up to weight 6:",
      character_positivity_check(binomials, 3, 6))

gap = FiniteSequence({0: 1, 2: 1})  # internal zero: 1 + z^2
ok, bad = character_positivity_check(gap, 2, 4)
print("\nsequence (1, 0, 1):")
print("  failing weight:", bad)
print("  the offending minor:", toeplitz_minor(gap, (0, 1), (1, 2)))

rational = FiniteSequence({0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(1, 9)})
print("\nrational geometric-ish sequence passes both checks:",
      two_by_two_scan(rational)[0],
      character_positivity_check(rational, 2, 6)[0])
