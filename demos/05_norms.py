"""Multiplicative induction on cyclic towers and the norm of the nilpotent.

The norm of an actual Burnside element is the class of the equivariant map
set, computable from fixed-point counts alone; brute-force enumeration agrees
wherever it is feasible.  The norm of the degree-zero nilpotent class x_i is
pinned down by two constraints (its restriction is x_i^q = 0, and it is
nonzero): a search over all candidate coefficient vectors leaves exactly one
survivor, x_{i+1}(1 + y_i).
"""

from kulocal import CyclicTower, derive_norm_on_x, norm_on_monomial

towers = {(q, k): CyclicTower(q, k) for q in (3, 5, 7) for k in (1, 2)}
t = towers[3, 2]

# two points normed from the trivial level to C3: 2 fixed + 2 free orbits
out = t.norm_burnside(0, 1, (2,))
print("N(2 points) from e to C3:", out, "with marks", t.ring(1).marks(out))
print("brute force agrees:      ", t.norm_burnside_bruteforce(0, 1, (2,)))
print()

for (q, k), tower in towers.items():
    for i in range(k):
        d = derive_norm_on_x(tower, i)
        bits = d.survivors[0]
        print(f"q={q} k={k} i={i}: unique survivor bits {bits}"
              f"  =>  N(x_{i}) = x_{i+1}(1 + y_{i})")
print()

# composing two tower steps: N from the bottom to C9 of x_0 stays nonzero
# the result is a pi0 vector: the Burnside part, then the x part
result = norm_on_monomial(t, 0, 2, t.ring(0).one, 1)
n = t.ring(2).n
print("N_0^2(x_0) in the C9 tower: burnside part", result[:n],
      "x-part (mod 2)", result[n:])
