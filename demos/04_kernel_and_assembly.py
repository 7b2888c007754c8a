"""The kernel identification and the assembled degree-0/degree-1 answers.

Degree 0: the kernel of psi^l - 1 on the representation ring coincides, as a
lattice, with both the rational representation lattice and the image of the
Burnside ring under linearization; its rank is the number of cyclic
subgroups.  Tensoring the Burnside quotient with Z[x]/(2x, x^2) gives the
levelwise degree-0 answer.  Degree 2: psi^l - 1 is injective with finite
cokernel whose q-part enters the degree-1 answer; for the order-3 group that
cokernel is Z/3, and the answer is the Burnside quotient tensored with
(Z/2)^2, plus that Z/3 on the top level.
"""

from kulocal import (
    assemble_pi0,
    assemble_pi1_c3,
    group_report,
    kernel_equals_AmodJ,
    parse_group,
)
from kulocal.mackey import lewis_diagram

for spec in ["C3", "C9", "C3xC3"]:
    g = parse_group(spec)
    w = kernel_equals_AmodJ(g)
    print(f"{spec}: kernel rank {w.rank} = #cyclic subgroups {w.cyclic_count};",
          "lattices agree" if w.ok else "MISMATCH")
print()

result = assemble_pi0(parse_group("C9"))
print("degree-0 levels for C9 (ell =", result.ell, ")")
for entry in result.level_summary():
    desc = f"Z^{entry['free_rank']}" + "".join(f" + Z/{d}" for d in entry["torsion"])
    print(f"  level of order {entry['subgroup']}: {desc}")
print("cross-checked against the Adams kernel, once per isomorphism type of level:",
      result.kernel_cross_check)
print()

report = group_report(parse_group("C3"), 2)
print("degree-2 cokernel for C3: invariant factors", tuple(report["pi1_invariant_factors"]),
      "-> q-part", tuple(report["pi1_q_part"]))
print()
print("assembled degree-1 answer for C3:")
print(lewis_diagram(assemble_pi1_c3()))
