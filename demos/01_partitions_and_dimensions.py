"""Partitions, GL weights and the Weyl dimension formula.

Two independent models of the dimension of an irreducible U(n)-module:
the product formula over pairs of entries, and a count of semistandard
tableaux.  They agree, and both are blind to determinant twists.
"""

import signal

from logcave import SkewShape, conjugate, dual_weight, enumerate_ssyt, weyl_dimension
from logcave.partitions import count_ssyt, pad

# a reader that stops early (`| head`) ends the demo quietly, as it ends other tools
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

lam = (3, 1)
print("partition:", lam)
print("conjugate diagram:", conjugate(lam))
print("dual weight of (2,1,0):", dual_weight((2, 1, 0)))

print("\ntableaux of shape (2,1) with entries <= 3:")
for t in enumerate_ssyt(SkewShape((2, 1), ()), 3):
    print("  rows:", t.rows, " content:", t.content(3))

for n in (2, 3, 4, 6):
    w = pad(lam, n)
    product = weyl_dimension(w)
    tableaux = count_ssyt(SkewShape(lam, ()), n)
    twisted = weyl_dimension(tuple(x + 5 for x in w))
    print(f"rank {n}: product formula {product}, tableau count {tableaux}, det-twisted {twisted}")
