"""Complex representation rings of finite abelian groups.

For abelian G every irreducible is 1-dimensional, so RU(G) is the group ring
of the character group, which the self-duality pairing identifies with G
itself.  Elements are integer vectors over the dual basis; multiplication is
convolution.  The character map lands in class functions valued in exact
cyclotomic integers of conductor exponent(G), and is injective there.

Also provides Adams operations, Euler classes of honest representations, the
tensor-power permutation representation built from fixed-point counts, and
the rational representation lattice, spanned by the Galois orbit sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .burnside import BurnsideRing
from .exact import Cyclotomic, IntMatrix
from .groups import AbelianGroup, DualLevel, Subgroup

Vector = tuple


def dual_multiply(dual: DualLevel, v: Sequence[int], w: Sequence[int]) -> Vector:
    """Product in the group ring of the characters of one level: convolution
    over the dual basis, by key sums."""
    out = [0] * dual.size
    for i, x in enumerate(v):
        if x:
            for j, y in enumerate(w):
                if y:
                    out[dual.product(i, j)] += x * y
    return tuple(out)


def dual_permutation(dual: DualLevel, ell: int) -> list[int]:
    """psi^ell on the dual basis: index i -> index of the i-th character's
    key times ell (``DualLevel.psi``)."""
    return dual.psi(ell)


def permute(perm: Sequence[int], v: Sequence[int]) -> Vector:
    """The vector with v_i moved to position perm[i] (summed where perm collides)."""
    out = [0] * len(perm)
    for i, c in enumerate(v):
        if c:
            out[perm[i]] += c
    return tuple(out)


def adams_minus_one_on(dual: DualLevel, ell: int, degree: int) -> IntMatrix:
    """Matrix of psi^ell - 1 on the given dual level, degree 0 or 2; in
    degree 2 the permutation is scaled by ell (psi^ell of the Bott class)."""
    if degree not in (0, 2):
        raise ValueError("degree must be 0 or 2")
    n = dual.size
    perm = dual_permutation(dual, ell)
    scale = ell if degree == 2 else 1
    return IntMatrix(
        [
            [scale * (1 if perm[j] == i else 0) - (1 if i == j else 0) for j in range(n)]
            for i in range(n)
        ],
        cols=n,
    )


def adams_cycles(dual: DualLevel, ell: int) -> tuple[tuple[int, ...], ...]:
    """The cycles of psi^ell on the dual basis of one level, each listed from
    its smallest index, in order of smallest index.

    They determine psi^ell - 1 in both degrees: the degree-0 kernel here, the
    degree-2 cokernel and determinant in ``fiber``.  An ell that is not a unit
    mod the exponent does not permute the characters and is rejected.
    """
    perm = dual_permutation(dual, ell)
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = perm[i]
        if i != start:
            raise ValueError(f"psi^{ell} does not permute the characters of {dual.group!r}")
        cycles.append(tuple(cycle))
    return tuple(cycles)


def adams_kernel_basis(cycles: tuple[tuple[int, ...], ...]) -> tuple[Vector, ...]:
    """ker(psi^ell - 1) in degree 0 on one level, from its ``adams_cycles``: a
    vector fixed by a permutation is constant on its cycles, so the cycle
    indicators span the kernel.  Disjoint 0/1 rows listed by first index,
    they are already canonical HNF (each pivot a 1 with zeros above it)."""
    size = sum(map(len, cycles))
    return tuple(tuple(1 if i in cycle else 0 for i in range(size)) for cycle in map(set, cycles))


class RURing:
    """RU(G) for abelian G: the group ring of the dual group of G."""

    def __init__(self, group: AbelianGroup):
        self.group = group
        self.dual = group.full_subgroup.dual
        self.n = self.dual.size  # == |G|

    # -- basic ring structure

    @property
    def one(self) -> Vector:
        return self.basis_element(self.group.identity)

    def basis_element(self, a) -> Vector:
        out = [0] * self.n
        out[self.dual.index_of(a)] = 1
        return tuple(out)

    def add(self, v: Sequence[int], w: Sequence[int]) -> Vector:
        return tuple(x + y for x, y in zip(v, w, strict=True))

    def scale(self, c: int, v: Sequence[int]) -> Vector:
        return tuple(c * x for x in v)

    def multiply(self, v: Sequence[int], w: Sequence[int]) -> Vector:
        return dual_multiply(self.dual, v, w)

    @property
    def regular_rep(self) -> Vector:
        return (1,) * self.n

    # -- characters

    def character(self, v: Sequence[int]) -> "ClassFunction":
        """chi(v)(g) = sum_a v_a zeta_e^{<a,g>}, exact mod the cyclotomic
        polynomial.  The dual basis of the full level is the group's elements
        in index order, so v pairs entry by entry with ``pairing_row(g)``."""
        e = self.group.exponent
        values = []
        for g in self.group.elements:
            counts = [0] * e
            for c, p in zip(v, self.group.pairing_row(g), strict=True):
                if c:
                    counts[p] += c
            values.append(Cyclotomic.from_poly(e, tuple(counts)))
        return ClassFunction(self.group, e, tuple(values))

    # -- Adams operations

    def adams(self, ell: int, v: Sequence[int]) -> Vector:
        """psi^ell: the basis character chi_a goes to chi_{ell a}."""
        return permute(dual_permutation(self.dual, ell), v)

    # -- Euler classes

    def euler_class(self, v: Sequence[int]) -> Vector:
        """prod over the character multiset of (chi - 1); rejects virtual input."""
        if any(c < 0 for c in v):
            raise ValueError("Euler classes exist only for actual representations")
        result = self.one
        for a, c in zip(self.dual.reps, v, strict=True):
            if c:
                factor = tuple(
                    x - y for x, y in zip(self.basis_element(a), self.one, strict=True)
                )
                for _ in range(c):
                    result = self.multiply(result, factor)
        return result


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassFunction:
    """An exact class function: one cyclotomic value per group element."""

    group: AbelianGroup
    conductor: int
    values: tuple[Cyclotomic, ...]

    def value(self, g) -> Cyclotomic:
        return self.values[self.group.index_of(g)]

    def rational_values(self) -> tuple:
        return tuple(v.rational_value() for v in self.values)


# ---------------------------------------------------------------------------
# the tensor-power permutation representation (functions G -> {1..ell})


def perm_rep_orbit_counts(group: AbelianGroup, ell: int) -> dict[Subgroup, int]:
    """Orbit decomposition of the G-set of functions G -> {1..ell}.

    Computed from the fixed-point counts: a function fixed by H factors
    through G/H, so the marks vector is ell^[G:H]; the table of marks then
    gives the orbit multiplicities exactly.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    ring = BurnsideRing(group)
    marks = [ell ** (group.order // h.order) for h in ring.subgroups]
    coeffs = ring.element_from_marks(marks)
    if any(c < 0 for c in coeffs):
        raise ArithmeticError(f"orbit counts {coeffs} of the map set are not all nonnegative")
    return {h: c for h, c in zip(ring.subgroups, coeffs, strict=True) if c}


def perm_rep(group: AbelianGroup, ell: int) -> Vector:
    """ell^{tensor G} in RU(G): the linearization of the function G-set, from
    its orbit counts (``perm_rep_orbit_counts``).  Its character value at g is
    ell^{|G|/|g|}."""
    ring = BurnsideRing(group)
    counts = perm_rep_orbit_counts(group, ell)
    return ring.linearize([counts.get(h, 0) for h in ring.subgroups])


# ---------------------------------------------------------------------------
# the rational representation lattice


def rational_rep_lattices(group: AbelianGroup) -> tuple[Vector, ...]:
    """The rational representation lattice of RU(G), as canonical HNF rows.

    It is spanned by the Galois orbit sums: one indicator per orbit of the
    units acting by key -> u*key on the dual basis.  The orbit of a character
    is taken over the units mod its order d alone: u*key depends only on u mod
    d, and the units mod the exponent map onto those mod d.  Found from their
    lowest indices, these disjoint rows are already canonical HNF.
    """
    dual = group.full_subgroup.dual
    units: dict[int, list[int]] = {}
    seen = set()
    sums = []
    for i in range(dual.size):
        if i in seen:
            continue
        d = dual.order(i)
        if d not in units:
            units[d] = [u for u in range(1, max(d, 2)) if math.gcd(u, d) == 1]
        orbit = set(dual.multiples(i, units[d]))
        seen |= orbit
        sums.append(tuple(1 if j in orbit else 0 for j in range(dual.size)))
    return tuple(sums)
