"""Exhaustive log-concavity scans at desk scale.

Each scan enumerates every bounded instance (p+q)C = pA + qB and checks
F(C)^(p+q) >= F(A)^p F(B)^q in exact integers.  The skew-pair, dimension
and tensor-square (logv) scans check theorems, so a violation would be a
bug.  The triple-invariant scan tests a conjecture that Chindris, Derksen
and Weyman refuted, and the power bound under stretching is open, so a
violation of either would be a finding; saturation itself is a theorem.
`logcave verify --help` lists the status of every scanner.
"""

import signal

from logcave.concavity import (
    conjecture1_scan,
    convolution_logconcavity_check,
    logv_scan,
    saturation_scan,
    theorem1_scan,
    weyl_logconcavity_scan,
)
from logcave.partitions import dual_weight

# a reader that stops early (`| head`) ends the demo quietly, as it ends other tools
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

for name, rep in [
    ("squared-midpoint skew pairs, |outer| <= 5", theorem1_scan(5)),
    ("Weyl dimensions, rank <= 3, entries <= 4", weyl_logconcavity_scan(3, 4)),
    ("triple invariants, rank <= 2, entries <= 2", conjecture1_scan(2, 2)),
    ("tensor-square inclusion, rank <= 2, entries <= 2", logv_scan(2, 2)),
]:
    print(f"{name}: checked {rep.checked}, violations {len(rep.violations)}")

t = (dual_weight((2, 1, 0)), (2, 1, 0), (0, 0, 0))
print("\nstretching a triple with invariant 1:")
for row in saturation_scan(t, 4):
    print(f"  k={row.k}: value {row.value}, power bound ok: {row.power_bound_ok}")

ok, _ = convolution_logconcavity_check([1, 3, 3, 1], [1, 2, 1])
print("\nconvolution of two log-concave sequences stays log-concave:", ok)
