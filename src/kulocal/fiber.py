"""The degree-0 and degree-2 endomorphisms psi^ell - 1 on RU and their
kernels and cokernels.

In degree 0, psi^ell permutes the dual basis (a -> ell*a); in degree 2 the
same permutation is scaled by ell, because the Adams operation multiplies the
Bott class by ell.  So both are read off the cycles of that permutation
(``reprings.adams_cycles``), and no matrix of psi^ell - 1 is reduced: an
L-cycle contributes one orbit indicator to the degree-0 kernel, and the block
ell*C - I, with cokernel Z/|ell^L - 1| and determinant (-1)^(L+1) (ell^L - 1),
to the degree-2 cokernel.  The degree-0 kernel is compared, as a lattice,
against the image of the Burnside ring under linearization and against the
rational representation lattice; the degree-2 cokernel is finite (nonzero
determinant, checked via invertibility mod ell) and its invariant factors and
q-primary part give the degree-1 homotopy levels.  ``fiber_level_data`` reads
the degree-0 kernel, the degree-2 invariant factors and the determinant off
one cycle decomposition per level; ``group_report`` (the ``pi1`` payload)
and ``mackey.assemble_pi1_c3`` read theirs from it.  The matrix itself
(``reprings.adams_minus_one_on``) remains for the Bareiss determinant of
``determinant_mod_ell_check``, which builds it and the cycles from one dual
level; ``adams_minus_one`` exports it for the whole group.

q-completion never manipulates q-adic numbers: the cokernels are finite, so
the q-part of the torsion is the exact completed answer, and the free part of
the kernel completes levelwise to Z_q^rank (reported as integral data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .burnside import BurnsideRing
from .exact import (
    IntMatrix,
    divisibility_chain,
    is_primitive_root,
    primary_part,
    row_hnf,
    smallest_prime_factor,
    smallest_primitive_root,
)
from .groups import AbelianGroup, DualLevel, Subgroup
from .reprings import (
    adams_cycles,
    adams_kernel_basis,
    adams_minus_one_on,
    rational_rep_lattices,
)

Vector = tuple


def default_ell(group: AbelianGroup) -> int:
    """Smallest primitive root mod exponent(G); printed in all reports."""
    return smallest_primitive_root(group.exponent)


def _require_coprime(group: AbelianGroup, ell: int) -> None:
    if math.gcd(ell, group.order) != 1:
        raise ValueError(f"ell={ell} is not coprime to |G|={group.order}")


def require_primitive(group: AbelianGroup, ell: int) -> None:
    """The one admissibility rule for ell: a primitive root mod exponent(G)."""
    if not is_primitive_root(ell, group.exponent):
        raise ValueError(
            f"ell={ell} is not a primitive root mod exponent(G)={group.exponent}"
        )


SINGULAR_DEGREE2 = (
    "degree-2 psi^ell - 1 is singular; this contradicts the finiteness "
    "of the cokernel and signals an engine bug"
)


def adams_minus_one(group: AbelianGroup, ell: int, degree: int) -> IntMatrix:
    _require_coprime(group, ell)
    return adams_minus_one_on(DualLevel(group, group.full_subgroup), ell, degree)


def _cycle_determinants(cycles: tuple[tuple[int, ...], ...], ell: int) -> list[int]:
    """det(ell*C - I) = (-1)^(L+1) (ell^L - 1) for each L-cycle C; a zero one
    makes the degree-2 psi^ell - 1 singular, which contradicts the finiteness
    of its cokernel and raises."""
    dets = [(-1) ** (len(c) + 1) * (ell ** len(c) - 1) for c in cycles]
    if 0 in dets:
        raise ArithmeticError(SINGULAR_DEGREE2)
    return dets


def degree2_invariant_factors(cycles: tuple[tuple[int, ...], ...], ell: int) -> tuple[int, ...]:
    """Invariant factors of the cokernel of the degree-2 psi^ell - 1 on one
    level, from its ``adams_cycles``.  An L-cycle block ell*C - I has cyclic
    cokernel Z[x]/(x^L - 1, ell*x - 1) = Z/|ell^L - 1|, so L - 1 of its factors
    are 1, and the cyclic orders of all blocks become one divisibility chain."""
    orders = [abs(d) for d in _cycle_determinants(cycles, ell)]
    return (1,) * (sum(map(len, cycles)) - len(cycles)) + divisibility_chain(orders)


def degree2_determinant(cycles: tuple[tuple[int, ...], ...], ell: int) -> int:
    """det of the degree-2 psi^ell - 1 from one level's ``adams_cycles``: the
    product over the cycles of their block determinants; a singular one raises."""
    return math.prod(_cycle_determinants(cycles, ell))


@dataclass(frozen=True)
class KernelWitness:
    """The lattices of the degree-0 kernel identification, all in canonical
    HNF, so equal tuples are equal lattices.  Every row of ``rq`` is the
    indicator of one orbit of the units mod the exponent, so a kernel equal
    to ``rq`` is fixed by every such unit and has rational characters."""

    group: AbelianGroup
    ell: int
    kernel: tuple[Vector, ...]      # ker(psi^ell - 1)
    rq: tuple[Vector, ...]          # Galois orbit-sum lattice
    linearized: tuple[Vector, ...]  # image of the Burnside ring
    cyclic_count: int

    @property
    def rank(self) -> int:
        return len(self.kernel)

    @property
    def ok(self) -> bool:
        return (
            self.kernel == self.rq == self.linearized
            and self.rank == self.cyclic_count
        )

    def to_json(self) -> dict:
        return {
            "group": repr(self.group),
            "ell": self.ell,
            "pi0_rank": self.rank,
            "pi0_basis": [list(r) for r in self.kernel],
            "lattices_agree": self.ok,
            "cyclic_subgroups": self.cyclic_count,
        }


def kernel_equals_AmodJ(group: AbelianGroup, ell: int | None = None) -> KernelWitness:
    """Compare ker(psi^ell - 1) with the linearized Burnside ring and the
    rational lattice, instance by instance.

    The containment image(A) <= kernel holds for any coprime ell; the reverse
    containment (the image is the whole kernel) is the prime-power phenomenon
    this computation certifies per group.
    """
    if ell is None:
        ell = default_ell(group)
    _require_coprime(group, ell)
    require_primitive(group, ell)

    ring = BurnsideRing(group)
    return KernelWitness(
        group=group,
        ell=ell,
        kernel=adams_kernel_basis(adams_cycles(ring.dual, ell)),
        rq=rational_rep_lattices(group),
        linearized=row_hnf(ring.linearize_matrix.entries, group.order),
        cyclic_count=len(group.cyclic_subgroups()),
    )


def determinant_mod_ell_check(group: AbelianGroup, ell: int | None = None) -> tuple[bool, int]:
    """det(ell*P - I), by Bareiss elimination on the matrix, is +-1 mod ell,
    hence nonzero, and equals the cycle product of ``degree2_determinant``;
    returns the exact det."""
    if ell is None:
        ell = default_ell(group)
    _require_coprime(group, ell)
    dual = DualLevel(group, group.full_subgroup)
    det = adams_minus_one_on(dual, ell, 2).det()
    ok = (
        det % ell in (1 % ell, (ell - 1) % ell)
        and det != 0
        and det == degree2_determinant(adams_cycles(dual, ell), ell)
    )
    return ok, det


@dataclass(frozen=True)
class FiberLevelData:
    """Degree-0 kernel lattice, degree-2 cokernel and determinant at one level."""

    subgroup: Subgroup
    pi0_basis: tuple[Vector, ...]  # HNF rows inside RU(H) coordinates
    pi1_invariant_factors: tuple[int, ...]
    pi1_q_part: tuple[int, ...]
    det_degree2: int

    @property
    def pi0_rank(self) -> int:
        return len(self.pi0_basis)


def fiber_level_data(group: AbelianGroup, ell: int | None = None) -> dict[Subgroup, FiberLevelData]:
    """Each level's data off one cycle decomposition of psi^ell, q-parts for q
    the smallest prime dividing |G|.  psi^ell commutes with restriction, and
    a primitive root mod exponent(G) stays primitive at every level.
    A singular degree-2 level means a singular top level (its permutation
    module is a quotient of the top one), which raises ArithmeticError.
    An ell that is not a primitive root is rejected after the singular
    check, so that ell = 1 reports the singular matrix."""
    if ell is None:
        ell = default_ell(group)
    _require_coprime(group, ell)
    q = smallest_prime_factor(group.order)
    out = {}
    for h in group.subgroups():
        cycles = adams_cycles(DualLevel(group, h), ell)
        factors = degree2_invariant_factors(cycles, ell)
        out[h] = FiberLevelData(
            subgroup=h,
            pi0_basis=adams_kernel_basis(cycles),
            pi1_invariant_factors=factors,
            pi1_q_part=primary_part(factors, q),
            det_degree2=degree2_determinant(cycles, ell),
        )
    require_primitive(group, ell)
    return out


def group_report(group: AbelianGroup, ell: int | None = None) -> dict:
    """The ``pi1`` report in one pass over the levels: the top level gives the
    degree-0 kernel and the degree-2 cokernel, and every level its cokernel."""
    if ell is None:
        ell = default_ell(group)
    q = smallest_prime_factor(group.order)
    levels = fiber_level_data(group, ell)
    top = levels[group.full_subgroup]
    return {
        "group": repr(group),
        "ell": ell,
        "q": q,
        "pi0_rank": top.pi0_rank,
        "pi0_basis": [list(r) for r in top.pi0_basis],
        "pi1_invariant_factors": list(top.pi1_invariant_factors),
        "pi1_q_part": list(top.pi1_q_part),
        "det_degree2": top.det_degree2,
        "levels": [
            {
                "subgroup": h.order,
                "pi1_invariant_factors": [d for d in lv.pi1_invariant_factors if d != 1],
                "pi1_q_part": list(lv.pi1_q_part),
            }
            for h, lv in levels.items()
        ],
    }


def pi1_level(group: AbelianGroup, ell: int | None = None) -> dict:
    """``group_report`` under the name that perfbench/tracer.py still wraps;
    nothing in the package calls it."""
    return group_report(group, ell)

