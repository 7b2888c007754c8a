"""Burnside rings of finite abelian groups via tables of marks.

A Burnside element is an integer vector over the orbit basis [G/K], K running
over the canonical subgroup list.  The table of marks M[K][H] = |(G/K)^H|
(= [G:K] when H <= K, else 0, in the abelian case) embeds the ring into a
product of copies of Z.  Row K is [G:K] on K's down-set (``Subgroup.subgroups``)
and 0 elsewhere, so the marks map adds each nonzero coefficient over one
down-set.  Subgroups come in (order, ...) order, so the table is triangular,
and its inverse is an integer back-substitution from the largest subgroup
down, which refuses a vector that is not integral.  Multiplication is the
pointwise product of marks, carried back.  The p-local idempotent e_H is
(1/|G|) times the inverse of |G| times the indicator of H, integral by
Gluck's denominator bound.  The ideal J of cyclically-vanishing virtual sets
is the kernel of the marks on the cyclic subgroups; the quotient A/J is their
image, in those coordinates, spanned by the rows of the orbits [level/K]:
[level : K] at the cyclic subgroups of K.

``BurnsideRing(G, level)`` works inside a subgroup ``level`` so that Mackey
functor levels can reuse everything; the default level is the whole group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .exact import (
    IntMatrix,
    hnf_coordinates,
    is_prime,
    kernel_lattice,
    row_hnf,
)
from .groups import AbelianGroup, DualLevel, Subgroup

Vector = tuple


class BurnsideRing:
    def __init__(self, group: AbelianGroup, level: Subgroup | None = None):
        self.group = group
        self.level = level if level is not None else group.full_subgroup
        self.subgroups = self.level.subgroups
        self._sub_index = {k.mask: i for i, k in enumerate(self.subgroups)}
        self.n = len(self.subgroups)

    def sub_index(self, k: Subgroup) -> int:
        return self._sub_index[k.mask]

    # -- marks ---------------------------------------------------------------

    @cached_property
    def table_of_marks(self) -> IntMatrix:
        return IntMatrix([self.marks(self.basis_element(k)) for k in self.subgroups], cols=self.n)

    @cached_property
    def _below(self) -> tuple[tuple[int, ...], ...]:
        """For each K, the indices of its down-set, the H <= K; the last is K."""
        return tuple(tuple(self._sub_index[h.mask] for h in k.subgroups) for k in self.subgroups)

    @cached_property
    def _indices(self) -> tuple[int, ...]:
        """[level:K], the one nonzero mark of [level/K]."""
        return tuple(self.level.order // k.order for k in self.subgroups)

    def marks(self, coeffs: Sequence[int]) -> Vector:
        """Each nonzero c [level/K] adds c [level:K] at every H <= K."""
        out = [0] * self.n
        for c, index, below in zip(coeffs, self._indices, self._below, strict=True):
            if c:
                for j in below:
                    out[j] += c * index
        return tuple(out)

    def element_from_marks(self, marks: Sequence[int]) -> Vector:
        """Invert the marks map by back-substitution from the largest subgroup
        down: K's coefficient is its mark, less the marks taken by the larger
        subgroups, over [level:K]; its marks are then taken from K's down-set.
        Refuses a vector that is not integral over the orbit basis."""
        coeffs, taken = [0] * self.n, [0] * self.n
        steps = enumerate(zip(marks, self._indices, self._below, strict=True))
        for i, (mark, index, below) in reversed(list(steps)):
            coeffs[i], rem = divmod(mark - taken[i], index)
            if rem:
                raise ValueError(f"marks vector {marks} is not integral over the orbit basis")
            if coeffs[i]:
                for j in below:
                    taken[j] += coeffs[i] * index
        return tuple(coeffs)

    # -- ring structure --------------------------------------------------------

    @property
    def one(self) -> Vector:
        return self.basis_element(self.level)

    def basis_element(self, k: Subgroup) -> Vector:
        out = [0] * self.n
        out[self.sub_index(k)] = 1
        return tuple(out)

    def scale(self, c: int, a: Sequence[int]) -> Vector:
        return tuple(c * x for x in a)

    def multiply(self, a: Sequence[int], b: Sequence[int]) -> Vector:
        ma, mb = self.marks(a), self.marks(b)
        return self.element_from_marks([x * y for x, y in zip(ma, mb, strict=True)])

    # -- linearization and the cyclically-vanishing ideal ------------------------

    @property
    def dual(self) -> DualLevel:
        return self.level.dual

    @cached_property
    def linearize_matrix(self) -> IntMatrix:
        """Row K = the permutation character of [level/K] over the dual basis.

        [G/K] linearizes to the sum of the characters trivial on K: the dual
        representatives in the annihilator of K.
        """
        reps = [self.group.index_of(a) for a in self.dual.reps]
        return IntMatrix(
            [[k.annihilator.mask >> i & 1 for i in reps] for k in self.subgroups],
            cols=len(reps),
        )

    def linearize(self, coeffs: Sequence[int]) -> Vector:
        return tuple(
            sum(c * x for c, x in zip(coeffs, col, strict=True))
            for col in zip(*self.linearize_matrix.entries, strict=True)
        )

    @cached_property
    def ideal_j_rows(self) -> tuple[Vector, ...]:
        """Z-basis (saturated) of J, the kernel of the marks on the cyclic
        subgroups."""
        image = IntMatrix(self._cyclic_marks_rows, cols=len(self.level.cyclic_subgroups))
        ker = kernel_lattice(image.transpose())
        return tuple(ker.column(j) for j in range(ker.cols))

    @cached_property
    def _cyclic_marks_rows(self) -> tuple[Vector, ...]:
        """Row K = the marks of [level/K] on the cyclic subgroups C of the
        level: [level : K] at the cyclic C <= K (K's own), else 0."""
        column = {c.mask: j for j, c in enumerate(self.level.cyclic_subgroups)}
        rows = [[0] * len(column) for _ in self.subgroups]
        for row, k, index in zip(rows, self.subgroups, self._indices, strict=True):
            for c in k.cyclic_subgroups:
                row[column[c.mask]] = index
        return tuple(map(tuple, rows))

    def a_mod_j(self) -> "AModJ":
        """A/J presented as the image of marks restricted to cyclic columns.

        A method over a per-instance cache, so perfbench/tracer.py can wrap
        it as a function on the class."""
        return self._a_mod_j

    @cached_property
    def _a_mod_j(self) -> "AModJ":
        cyc = self.level.cyclic_subgroups
        return AModJ(ring=self, cyclic_subgroups=cyc, basis=row_hnf(self._cyclic_marks_rows, len(cyc)))

    # -- p-local idempotents -----------------------------------------------------

    def idempotent(self, h: Subgroup, p: int) -> tuple[Fraction, ...]:
        """The p-local idempotent whose marks vector is the indicator of H.

        Requires p coprime to the group order.  |level| * e_H is integral
        (Gluck's denominator bound), so e_H is (1/|level|) times the element
        with marks |level| on H and 0 elsewhere; ``element_from_marks`` raises
        if that element is not integral.
        """
        if not is_prime(p):
            raise ValueError(f"p={p} is not a prime")
        if self.level.order % p == 0:
            raise ValueError(
                f"no integral idempotents at p={p}: p divides the group order {self.level.order}"
            )
        order = self.level.order
        scaled = [0] * self.n
        scaled[self.sub_index(h)] = order
        return tuple(Fraction(c, order) for c in self.element_from_marks(scaled))

    def idempotent_table(self, p: int) -> dict[Subgroup, tuple[Fraction, ...]]:
        return {h: self.idempotent(h, p) for h in self.subgroups}


@dataclass(frozen=True)
class AModJ:
    """The quotient of the Burnside ring by the cyclically-vanishing ideal.

    Presented by its marks image on cyclic-subgroup columns: a full-rank
    sublattice of Z^{#cyclic} with pointwise multiplication, whose canonical
    basis is the row Hermite form ``basis``.
    """

    ring: BurnsideRing
    cyclic_subgroups: tuple[Subgroup, ...]
    basis: tuple[Vector, ...]

    def coordinates(self, marks_vec: Sequence[int]) -> Vector | None:
        """Coefficients over the canonical basis, or None if not in the lattice."""
        return hnf_coordinates(self.basis, marks_vec)


def marks_json(group: AbelianGroup) -> dict:
    """The documented table-of-marks serialization."""
    ring = BurnsideRing(group)
    return {
        "group": repr(group),
        "subgroup_orders": [k.order for k in ring.subgroups],
        "marks_matrix": [list(r) for r in ring.table_of_marks.entries],
    }


def marks_text(group: AbelianGroup) -> str:
    ring = BurnsideRing(group)
    lines = [f"table of marks for {group!r} (rows [G/K], columns H, canonical order)"]
    header = "        " + " ".join(f"{k.order:>5}" for k in ring.subgroups)
    lines.append(header)
    for k, row in zip(ring.subgroups, ring.table_of_marks.entries, strict=True):
        lines.append(f"[G/{k.order:>3}] " + " ".join(f"{x:>5}" for x in row))
    return "\n".join(lines)
