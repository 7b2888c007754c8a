"""The degree-0 and degree-2 endomorphisms psi^ell - 1 on RU and their
kernels and cokernels.

In degree 0, psi^ell permutes the dual basis (a -> ell*a); in degree 2 the
same permutation is scaled by ell, because the Adams operation multiplies the
Bott class by ell.  So both are read off the cycles of that permutation
(``reprings.adams_cycles``), and no matrix of psi^ell - 1 is reduced: an
L-cycle contributes one orbit indicator to the degree-0 kernel, and the block
ell*C - I, with cokernel Z/|ell^L - 1| and determinant (-1)^(L+1) (ell^L - 1),
to the degree-2 cokernel.  The degree-0 kernel is compared with the rational
representation lattice, and with the image of the Burnside ring under
linearization (Ritter-Segal), by ``spans_cycle_lattice`` on the rows of the
cyclic quotients alone, with no Hermite form.  The degree-2 cokernel is
finite, and its invariant factors and q-primary part give the degree-1
homotopy levels.  For ell a primitive root mod
exponent(G), the cycles on a level's characters are the generator sets of its
cyclic subgroups, so the cycle lengths follow from the element orders
(``counted_cycle_lengths``), which also fix the level's isomorphism type
(``AbelianGroup.level_types``).  ``group_report`` (``pi1``) and
``kernel_equals_AmodJ`` decompose the top level only, and
``mackey.assemble_pi0`` one level per type (``degree0_kernels``);
``fiber_level_data`` decomposes every level, for ``mackey.assemble_pi1_c3``.
All admit ell in one order of errors (``_admitted_cycles``).  The matrix
itself (``reprings.adams_minus_one_on``) remains for the Bareiss determinant
of ``determinant_mod_ell_check``.

q-completion never manipulates q-adic numbers: the cokernels are finite, so
the q-part of the torsion is the exact completed answer, and the free part of
the kernel completes levelwise to Z_q^rank (reported as integral data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .exact import (
    IntMatrix,
    divisibility_chain,
    euler_phi,
    is_primitive_root,
    primary_part,
    smallest_prime_factor,
    smallest_primitive_root,
)
from .groups import AbelianGroup, Subgroup
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
    """The one admissibility rule for ell: a primitive root mod exponent(G).
    An ell not coprime to |G| is reported as such, as every subcommand does."""
    _require_coprime(group, ell)
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
    return adams_minus_one_on(group.full_subgroup.dual, ell, degree)


def _cycle_determinants(lengths: Sequence[int], ell: int) -> list[int]:
    """det(ell*C - I) = (-1)^(L+1) (ell^L - 1) for each L-cycle C; a zero one
    makes the degree-2 psi^ell - 1 singular, which contradicts the finiteness
    of its cokernel and raises."""
    dets = [(-1) ** (n + 1) * (ell ** n - 1) for n in lengths]
    if 0 in dets:
        raise ArithmeticError(SINGULAR_DEGREE2)
    return dets


def _factors_of_lengths(lengths: Sequence[int], ell: int) -> tuple[int, ...]:
    orders = [abs(d) for d in _cycle_determinants(lengths, ell)]
    return (1,) * (sum(lengths) - len(lengths)) + divisibility_chain(orders)


def degree2_invariant_factors(cycles: tuple[tuple[int, ...], ...], ell: int) -> tuple[int, ...]:
    """Invariant factors of the cokernel of the degree-2 psi^ell - 1 on one
    level, from its ``adams_cycles``.  An L-cycle block ell*C - I has cyclic
    cokernel Z[x]/(x^L - 1, ell*x - 1) = Z/|ell^L - 1|, so L - 1 of its factors
    are 1, and the cyclic orders of all blocks become one divisibility chain.
    Only the cycle lengths matter."""
    return _factors_of_lengths([len(c) for c in cycles], ell)


def degree2_determinant(cycles: tuple[tuple[int, ...], ...], ell: int) -> int:
    """det of the degree-2 psi^ell - 1 from one level's ``adams_cycles``: the
    product over the cycles of their block determinants; a singular one raises."""
    return math.prod(_cycle_determinants([len(c) for c in cycles], ell))


def counted_cycle_lengths(h: Subgroup) -> tuple[int, ...]:
    """The lengths of the psi^ell cycles on the characters of H, ascending,
    for any ell that is a primitive root mod exponent(G), read off the
    element orders of H.

    Such an ell generates the units mod every order d of a character a, so
    the cycle of a is the set of generators of <a>: one cycle of length
    phi(d) per cyclic subgroup of order d.  The characters of H form a group
    isomorphic to H, so H has count/phi(d) of them, count being the number of
    elements of H of order d (``Subgroup.order_counts``).
    """
    lengths = []
    for d, count in h.order_counts:
        phi = euler_phi(d)
        lengths += [phi] * (count // phi)
    return tuple(sorted(lengths))


def spans_cycle_lattice(rows: Sequence[Sequence[int]], kernel: Sequence[Vector]) -> bool:
    """Whether ``rows`` span exactly the lattice of ``kernel``, disjoint cycle
    indicators that partition the indices (as ``adams_kernel_basis`` returns
    them), with no elimination and no integer larger than 1.

    Two rules decide it.  Every row must be constant on every cycle, so it
    is an integer combination of the indicators.  Call the last row that is
    nonzero on a cycle its last cover: every cycle needs one, and no two
    cycles may share one.  A last cover is then nonzero on no cycle whose last
    cover comes earlier, so the last covers, each +-1 on its own cycle, are
    unitriangular over the indicators and form a basis of their lattice.

    The callers pass only the cyclic rows of the linearization
    (``DualLevel.cyclic_rows``).  Row K of the linearization at H is the
    indicator of K^perp, the characters of H trivial on K.  First, for any
    ell coprime to |G|, a -> ell*a is an automorphism of the character group,
    which maps each subgroup onto itself: every row is constant on the
    cycles, so the rows left out lie in the kernel.  Second, K^perp is cyclic
    when H/K is, and the indicator of a cyclic C is the sum of the generator
    sets of the cyclic subgroups of C: unitriangular in C, and for a
    primitive ell those generator sets are the cycles.  So the cyclic rows
    span the kernel; fed largest first, each cycle's last cover is its own
    subgroup's row.
    """
    cycles = [[i for i, x in enumerate(k) if x] for k in kernel]
    after = list(range(sum(map(len, cycles))))  # the next index round its cycle
    for cycle in cycles:
        for i, j in zip(cycle, cycle[1:] + cycle[:1], strict=True):
            after[i] = j
    last: dict[int, tuple[int, int]] = {}  # cycle -> (last cover, its value)
    for r, row in enumerate(rows):
        if [row[j] for j in after] != [*row]:
            return False
        for c, cycle in enumerate(cycles):
            if row[cycle[0]]:
                last[c] = r, row[cycle[0]]
    covers = last.values()
    return len({r for r, _ in covers}) == len(cycles) and all(v in (1, -1) for _, v in covers)


@dataclass(frozen=True)
class KernelWitness:
    """The degree-0 kernel identification on the top level.  ``kernel`` and
    ``rq`` are lattices in canonical HNF, so equal tuples are equal lattices.
    Every row of ``rq`` is the indicator of one orbit of the units mod the
    exponent, so a kernel equal to ``rq`` is fixed by every such unit and
    has rational characters.  ``linearized`` is ``spans_cycle_lattice`` on
    the masks of the cyclic subgroups of G, the cyclic rows of the
    linearization: whether the image of the Burnside ring is the kernel."""

    group: AbelianGroup
    ell: int
    kernel: tuple[Vector, ...]      # ker(psi^ell - 1)
    rq: tuple[Vector, ...]          # Galois orbit-sum lattice
    linearized: bool                # image of the Burnside ring == kernel
    cyclic_count: int

    @property
    def rank(self) -> int:
        return len(self.kernel)

    @property
    def failures(self) -> list[str]:
        """The comparisons that fail: rational lattice, linearized lattice, rank."""
        checks = (
            (self.kernel == self.rq, "the rational lattice is not the kernel"),
            (self.linearized, "the linearized Burnside lattice is not the kernel"),
            (self.rank == self.cyclic_count, f"kernel rank {self.rank} != {self.cyclic_count} cyclic subgroups"),
        )
        return [failure for ok, failure in checks if not ok]

    @property
    def ok(self) -> bool:
        return not self.failures

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
    """Compare ker(psi^ell - 1) on the top level with the linearized Burnside
    ring and the rational lattice, enumerating no subgroup lattice.

    The containment image(A) <= kernel holds for any coprime ell; the reverse
    containment (the image is the whole kernel) is the prime-power phenomenon
    this computation certifies per group (``spans_cycle_lattice``).
    """
    if ell is None:
        ell = default_ell(group)
    top = group.full_subgroup
    kernel = degree0_kernels(group, ell, [top])[top]
    return KernelWitness(group=group, ell=ell, kernel=kernel, rq=rational_rep_lattices(group),
                         linearized=spans_cycle_lattice(top.dual.cyclic_rows, kernel),
                         cyclic_count=len(counted_cycle_lengths(top)))


def determinant_mod_ell_check(group: AbelianGroup, ell: int | None = None) -> tuple[bool, int]:
    """det(ell*P - I), by Bareiss elimination on the matrix, is +-1 mod ell,
    hence nonzero, and equals the cycle product of ``degree2_determinant``;
    returns the exact det."""
    if ell is None:
        ell = default_ell(group)
    _require_coprime(group, ell)
    dual = group.full_subgroup.dual
    det = adams_minus_one_on(dual, ell, 2).det()
    ok = (
        det % ell in (1 % ell, (ell - 1) % ell)
        and det != 0
        and det == degree2_determinant(adams_cycles(dual, ell), ell)
    )
    return ok, det


@dataclass(frozen=True)
class FiberLevelData:
    """Degree-0 kernel lattice and degree-2 cokernel at one level."""

    pi0_basis: tuple[Vector, ...]  # HNF rows inside RU(H) coordinates
    pi1_invariant_factors: tuple[int, ...]
    pi1_q_part: tuple[int, ...]


def _admitted_cycles(group: AbelianGroup, ell: int, levels: Iterable[Subgroup]) -> dict[Subgroup, tuple[tuple[int, ...], ...]]:
    """The ``adams_cycles`` of each of ``levels``, ell admitted in one order
    of errors: an ell not coprime to |G|, then a singular degree-2
    psi^ell - 1 (so ell = 1 reports the singular matrix), then an ell that is
    not a primitive root.  Singularity is read off the top level, decomposed
    first: a level's permutation module is a quotient of the top one."""
    _require_coprime(group, ell)
    top = group.full_subgroup
    top_cycles = adams_cycles(top.dual, ell)
    degree2_determinant(top_cycles, ell)
    require_primitive(group, ell)
    return {h: top_cycles if h == top else adams_cycles(h.dual, ell) for h in levels}


def degree0_kernels(group: AbelianGroup, ell: int, levels: Iterable[Subgroup]) -> dict[Subgroup, tuple[Vector, ...]]:
    """The degree-0 kernel of each of ``levels``, its ``adams_kernel_basis``
    (the cycle indicators), with no degree-2 factor computed."""
    return {h: adams_kernel_basis(c) for h, c in _admitted_cycles(group, ell, levels).items()}


def fiber_level_data(group: AbelianGroup, ell: int | None = None) -> dict[Subgroup, FiberLevelData]:
    """Each level's data off one cycle decomposition of psi^ell, q-parts for q
    the smallest prime dividing |G|, ell admitted as ``_admitted_cycles``
    says."""
    if ell is None:
        ell = default_ell(group)
    q = smallest_prime_factor(group.order)
    out = {}
    for h, cycles in _admitted_cycles(group, ell, group.subgroups()).items():
        factors = degree2_invariant_factors(cycles, ell)
        out[h] = FiberLevelData(adams_kernel_basis(cycles), factors, primary_part(factors, q))
    return out


def group_report(group: AbelianGroup, ell: int | None = None) -> dict:
    """The ``pi1`` report.  Only the top level is decomposed: its
    ``adams_cycles`` give the degree-0 kernel, the degree-2 cokernel and its
    determinant.  Every level's cokernel comes from ``counted_cycle_lengths``,
    once per isomorphism type (``AbelianGroup.level_types``).  The top
    level's cycle lengths must be the counted ones; if they are not, the
    report lists the mismatch under ``failures``.  ell is admitted as
    ``_admitted_cycles`` says; the count needs a primitive root.
    """
    if ell is None:
        ell = default_ell(group)
    q = smallest_prime_factor(group.order)
    top = group.full_subgroup
    cycles = _admitted_cycles(group, ell, [top])[top]
    top_factors = degree2_invariant_factors(cycles, ell)
    kernel = adams_kernel_basis(cycles)
    entry_of = {}  # type -> the level entry without its order
    for key, hs in group.level_types.items():
        factors = _factors_of_lengths(counted_cycle_lengths(hs[0]), ell)
        entry_of[key] = {
            "pi1_invariant_factors": [d for d in factors if d != 1],
            "pi1_q_part": list(primary_part(factors, q)),
        }
    levels = [{"subgroup": h.order} | entry_of[h.order_counts] for h in group.subgroups()]
    report = {
        "group": repr(group),
        "ell": ell,
        "q": q,
        "pi0_rank": len(kernel),
        "pi0_basis": [list(r) for r in kernel],
        "pi1_invariant_factors": list(top_factors),
        "pi1_q_part": list(primary_part(top_factors, q)),
        "det_degree2": degree2_determinant(cycles, ell),
        "levels": levels,
    }
    explicit, counted = sorted(map(len, cycles)), list(counted_cycle_lengths(top))
    if explicit != counted:
        report["failures"] = [
            f"the top level's psi^{ell} cycle lengths {explicit} are not the element-order count {counted}"
        ]
    return report


def pi1_level(group: AbelianGroup, ell: int | None = None) -> dict:
    """``group_report`` under the name that perfbench/tracer.py still wraps;
    nothing in the package calls it."""
    return group_report(group, ell)

