"""Littlewood-Richardson coefficients three ways, and triple invariants.

The tableau-counting route and the Schur-basis peel agree; the triple
invariant is symmetric in its arguments and vanishes unless the entries
sum to zero.
"""

import signal
from itertools import permutations

from logcave import (
    lr_coefficient,
    lr_coefficient_schur_peel,
    restriction_multiplicity,
    tensor_square_multiplicities,
    triple_invariant,
)
from logcave.partitions import dual_weight, weyl_dimension

# a reader that stops early (`| head`) ends the demo quietly, as it ends other tools
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

lam, mu, nu = (3, 2, 1), (2, 1, 0), (2, 1, 0)
print("c^(3,2,1)_(2,1),(2,1) by tableaux:  ", lr_coefficient(lam, mu, nu))
print("c^(3,2,1)_(2,1),(2,1) by Schur peel:", lr_coefficient_schur_peel(lam, mu, nu))

print("\nV^(2,1,0) tensor V^(2,1,0) decomposes as:")
total = 0
for w, m in sorted(tensor_square_multiplicities((2, 1, 0)).items()):
    d = weyl_dimension(w)
    total += m * d
    print(f"  {m} x V^{w}  (dim {d})")
print("total dimension:", total, "=", weyl_dimension((2, 1, 0)), "squared")

t = (dual_weight((2, 1, 0)), (2, 1, 0), (0, 0, 0))
print("\ntriple invariant of (dual(2,1,0), (2,1,0), 0):", triple_invariant(t))
print("same value under every permutation:",
      {triple_invariant(p) for p in permutations(t)})

print("\nrestriction of V^(2,1) from U(3) to U(1):",
      restriction_multiplicity((2, 1), (), 3, 1), "copies of the trivial weight")
