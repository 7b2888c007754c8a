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
from .groups import AbelianGroup, DualLevel, ExplicitHSet, Subgroup, map_set_orbits

Vector = tuple


def dual_multiply(dual: DualLevel, v: Sequence[int], w: Sequence[int]) -> Vector:
    """Product in the group ring of the characters of one level: convolution
    over the dual basis."""
    out = [0] * dual.size
    reps = dual.reps
    for i, x in enumerate(v):
        if x:
            for j, y in enumerate(w):
                if y:
                    out[dual.index_of(dual.add(reps[i], reps[j]))] += x * y
    return tuple(out)


def dual_permutation(dual: DualLevel, ell: int) -> list[int]:
    """psi^ell on the dual basis: index i -> index of ell * (i-th character)."""
    return [dual.index_of(dual.scale(ell, a)) for a in dual.reps]


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
        self.dual = DualLevel(group, group.full_subgroup)
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
        return tuple(x + y for x, y in zip(v, w))

    def scale(self, c: int, v: Sequence[int]) -> Vector:
        return tuple(c * x for x in v)

    def multiply(self, v: Sequence[int], w: Sequence[int]) -> Vector:
        return dual_multiply(self.dual, v, w)

    def power(self, v: Sequence[int], k: int) -> Vector:
        result = self.one
        base = tuple(v)
        while k > 0:
            if k & 1:
                result = self.multiply(result, base)
            base = self.multiply(base, base)
            k >>= 1
        return result

    @property
    def regular_rep(self) -> Vector:
        return (1,) * self.n

    # -- characters

    def character(self, v: Sequence[int]) -> "ClassFunction":
        """chi(v)(g) = sum_a v_a zeta_e^{<a,g>}, exact mod the cyclotomic polynomial."""
        e = self.group.exponent
        values = []
        for g in self.group.elements:
            counts = [0] * e
            for a, c in zip(self.dual.reps, v):
                if c:
                    counts[self.dual.pairing(a, g)] += c
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
        for a, c in zip(self.dual.reps, v):
            if c:
                factor = tuple(
                    x - y for x, y in zip(self.basis_element(a), self.one)
                )
                for _ in range(c):
                    result = self.multiply(result, factor)
        return result

    # -- restriction to a subgroup (character restriction)

    def restrict(self, v: Sequence[int], sub_dual: DualLevel) -> Vector:
        out = [0] * sub_dual.size
        for a, c in zip(self.dual.reps, v):
            if c:
                out[sub_dual.index_of(a)] += c
        return tuple(out)


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

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "values": [[str(c) for c in v.coeffs] for v in self.values],
        }


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
    return {h: c for h, c in zip(ring.subgroups, coeffs) if c}


def perm_rep_orbit_counts_enumerated(group: AbelianGroup, ell: int) -> dict[Subgroup, int]:
    """The same decomposition by honest enumeration (oracle; bounded by
    ``map_set_orbits``, which refuses more than MAP_SET_BOUND maps)."""
    x = ExplicitHSet.trivial_points(group.trivial_subgroup, ell)
    orbits = map_set_orbits(group.full_subgroup, group.trivial_subgroup, x)
    return {h: c for h, c in orbits.items() if c}


PERM_REP_INLINE_ENUM_BOUND = 10 ** 5


def perm_rep(group: AbelianGroup, ell: int) -> Vector:
    """ell^{tensor G} in RU(G): the linearization of the function G-set.

    Its character value at g is ell^{|G|/|g|}.  Below the enumeration bound
    the G-set is decomposed by honest enumeration and the fixed-point-count
    route is asserted to agree; above it, the count route alone is used
    (tests compare the two across the overlap as well).
    """
    ring = BurnsideRing(group)
    counts = perm_rep_orbit_counts(group, ell)
    if ell ** group.order <= PERM_REP_INLINE_ENUM_BOUND:
        enumerated = perm_rep_orbit_counts_enumerated(group, ell)
        assert enumerated == counts
    coeffs = [counts.get(h, 0) for h in ring.subgroups]
    return ring.linearize(coeffs)


# ---------------------------------------------------------------------------
# the rational representation lattice


def rational_rep_lattices(group: AbelianGroup) -> tuple[Vector, ...]:
    """The rational representation lattice of RU(G), as canonical HNF rows.

    It is spanned by the Galois orbit sums: one indicator per orbit of the
    unit group mod the exponent acting by a -> u*a on the dual basis.  Found
    from their lowest indices, these disjoint rows are already canonical HNF.
    """
    dual = DualLevel(group, group.full_subgroup)
    e = group.exponent
    units = [u for u in range(1, max(e, 2)) if math.gcd(u, e) == 1]
    seen = set()
    sums = []
    for i, a in enumerate(dual.reps):
        if i in seen:
            continue
        orbit = {dual.index_of(dual.scale(u, a)) for u in units}
        seen |= orbit
        sums.append(tuple(1 if j in orbit else 0 for j in range(dual.size)))
    return tuple(sums)


def ru_element_json(group: AbelianGroup, v: Sequence[int]) -> dict:
    ru = RURing(group)
    return {
        "group": repr(group),
        "coeffs_by_dual_element": {
            "-".join(map(str, a)) if a else "0": c
            for a, c in zip(ru.dual.reps, v)
            if c
        },
    }
