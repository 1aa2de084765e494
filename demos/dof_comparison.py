"""Closed-form sum-DoF of a 6-user network vs the number of single-antenna relays.

Prints the three candidate terms (neutralization-only, alignment joint,
one-way relay-aided alignment), the orthogonalize-and-forward baseline, and
the resulting inner bound. The relayed multi-way protocols beat the
baseline everywhere and hit the K/2 cut-set cap once enough relays are
present; for a handful of small relay counts the one-way alignment term
briefly leads.

Run: python demos/dof_comparison.py [--csv out.csv]
"""

import sys

from stpnc.dof import single_antenna_sweep, write_sweep_csv

K = 6
rows = single_antenna_sweep(K, 30)

print(f"K = {K} users, L single-antenna relays")
print(f"{'L':>3} {'neutral':>9} {'align':>9} {'one-way':>9} {'baseline':>9} {'value':>7}  best")
for L, r in rows:
    best = max((r.term_in, "neutralization"), (r.term_in_ia, "alignment"),
               (r.term_ia, "one-way"), key=lambda p: p[0])[1]
    capped = " (cap)" if r.value == r.cap else ""
    print(f"{L:>3} {str(r.term_in):>9} {str(r.term_in_ia):>9} {str(r.term_ia):>9} "
          f"{str(r.gof):>9} {str(r.value):>7}  {best}{capped}")

if "--csv" in sys.argv:
    path = sys.argv[sys.argv.index("--csv") + 1]
    with open(path, "w") as f:
        write_sweep_csv(rows, f)
    print(f"\nwrote {path}")
