"""Representation rings, exact characters, Adams operations, Euler classes.

For an abelian group every irreducible representation is one-dimensional, so
the representation ring is the group ring of the character group.  Character
values live in a cyclotomic field and are computed exactly (reduced mod the
cyclotomic polynomial); the Adams operation psi^l raises characters to their
l-th power.
"""

from kulocal import RURing, parse_group, rational_rep_lattices
from kulocal.reprings import perm_rep

g = parse_group("C3")
ru = RURing(g)

x = ru.basis_element((1,))
rho = ru.regular_rep

print("chi(1)        =", ru.character(ru.one).rational_values())
print("chi(x + x^2)  =", [v.coeffs for v in ru.character(ru.add(x, ru.basis_element((2,)))).values])
print("  (the value -1 at the generators is zeta + zeta^2, reduced exactly)")
print()

# Adams operations permute the characters; psi^2 on C3 swaps x and x^2
print("psi^2(x) =", ru.adams(2, x))
print()

# Euler class of the reduced regular representation: (x - 1)(x^2 - 1)
rho_bar = tuple(a - b for a, b in zip(rho, ru.one))
print("e(rho_bar) =", ru.euler_class(rho_bar), " # = 2 - x - x^2")
print()

# the tensor-power permutation representation has character l^(|G|/|g|)
v = perm_rep(g, 2)
print("2^{tensor C3} =", v, " with character", ru.character(v).rational_values())
print()

# the rational representation lattice, spanned by the Galois orbit sums
lat = rational_rep_lattices(parse_group("C9"))
print("rational lattice of RU(C9): rank", len(lat))
for row in lat:
    print("  basis vector", row)
