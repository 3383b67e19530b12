#!/usr/bin/env python3
"""Exact arithmetic in finite commutative rings.

Builds Z_15, GF(4) and the Galois ring GR(4,2), walks through addition,
multiplication, inversion, Teichmuller digits and lifted Frobenius maps.
"""

from matcrypt.ring import (
    RingAutomorphism,
    Zmod,
    field,
    frobenius_apply,
    galois_ring,
    ring_inv,
    teichmuller_decompose,
    teichmuller_recompose,
)

print("=== rings as direct sums of Galois rings ===")
z15 = Zmod(15)
print("Z_15 decomposes into",
      [f"GR({g.p}^{g.m},{g.r})" for g in z15.summands])

a, b = z15.from_int(9), z15.from_int(8)
print("9 + 8 mod 15 =", z15.to_int(a + b))
print("inverse of 7 mod 15 =", z15.to_int(ring_inv(z15.from_int(7))))

print("\n=== the Galois ring GR(4,2) = Z_4[x]/(x^2+x+1) ===")
gr = galois_ring(2, 2, 2, (1, 1, 1))
x = gr.element([(0, 1)])
print("x * x =", (x * x).coeffs[0], " (that is 3x+3)")
print("inverse of x =", ring_inv(x).coeffs[0], " (x^3 = 1)")
print("|GR(4,2)| =", gr.order, " units:", gr.units_count())

print("\n=== Teichmuller digits ===")
z9 = Zmod(9)
for n in (2, 5, 7):
    digits = teichmuller_decompose(z9.from_int(n))
    print(f"{n} in Z_9 has digits {digits[0]}  (t0 + 3*t1)")
    assert z9.to_int(teichmuller_recompose(z9, digits)) == n

print("\n=== lifted Frobenius ===")
frob = RingAutomorphism(gr, (1,))
print("x           ->", frobenius_apply(frob, x).coeffs[0])
print("x applied twice returns x:",
      frobenius_apply(frob, frobenius_apply(frob, x)) == x)

gf8 = field(8)
print("\nGF(8) modulus (lexicographically least):", gf8.summands[0].modulus)
