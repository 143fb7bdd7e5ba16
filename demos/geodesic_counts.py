"""Closed geodesics with rotation over Q(sqrt(5)).

Enumerates the mixed-sign discriminant classes up to a norm window,
prints the shortest few, then compares the weighted counts against
their main terms on a growing ladder.
"""

import math

from hilbert_selberg.geodesics import enumerate_geodesics
from hilbert_selberg.quadfield import make_field
from hilbert_selberg.records import count_reports

F = make_field(5)
classes = enumerate_geodesics(F, 10.0)

print(f"{len(classes)} primitive classes with N(p) <= 100\n")
print(f"{'d':>14}  {'N(p)':>10}  {'length':>8}  {'angle':>8}  {'h_K':>4}")
for c in classes[:8]:
    print(f"{str(c.d):>14}  {c.norm:>10.4f}  {math.log(c.norm):>8.4f}  "
          f"{c.angle:>8.4f}  {c.multiplicity:>4}")
print("   ...\n")

print("counting ladder (ratios -> 1 is the analog prime geodesic trend)")
print(f"{'x':>5}  {'psi':>10}  {'2x^2':>10}  {'ratio':>6}    "
      f"{'pi':>5}  {'2 li(x^2)':>10}  {'ratio':>6}")
for r in count_reports([5.0, 10.0, 15.0, 20.0],
                       lambda x: enumerate_geodesics(F, x),
                       geodesic_scale=True):
    res = r.residuals
    print(f"{r.x:>5.0f}  {r.psi_sum:>10.2f}  {res['psi_main']:>10.2f}  "
          f"{res['psi_ratio']:>6.3f}    {r.pi_sum:>5}  "
          f"{res['pi_main']:>10.2f}  {res['pi_ratio']:>6.3f}")
