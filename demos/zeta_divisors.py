"""Euler product values and the divisor bookkeeping of the zeta."""

from hilbert_selberg.geodesics import enumerate_geodesics
from hilbert_selberg.quadfield import make_field
from hilbert_selberg.zetafun import ZetaParams, divisor_ledger, selberg_zeta

F = make_field(5)
classes = enumerate_geodesics(F, 10.0)
coverage = classes.coverage

print("truncated Euler product along Re(s), weight m = 4")
for sigma in (1.5, 2.0, 2.5, 3.0, 4.0):
    p = ZetaParams(s=sigma, m=4, trunc_norm=coverage, trunc_k=40)
    v = selberg_zeta(p, classes)
    print(f"  s = {sigma:.1f}   Z = {v.value.real:+.10f}{v.value.imag:+.1e}i"
          f"   tail <= {v.tail_bound:.2e}")

print("\ndivisor ledger of the completed weight-2 function")
led = divisor_ledger(2, F)
for e in led.entries:
    kind = "zero " if e.order > 0 else ("pole " if e.order < 0 else "none ")
    print(f"  order {e.order:+d}  {kind} {e.label}")
print(f"  imaginary lattice spacing pi/log(eps) = {led.spacing:.6f}")
