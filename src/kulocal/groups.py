"""Finite abelian groups, subgroup lattices, duality, and G-sets.

Groups are products of cyclic factors; elements are residue tuples indexed in
mixed radix (``itertools.product``: the last coordinate varies fastest).
Subgroups, cosets and H-set points are bitmasks over that index.  One
primitive shifts them: ``translate(mask, g)``, the mask of S + g, is one block
rotation per nonzero coordinate of g; ``span`` (H + <g>, by doubling),
subgroup generation, the lattice (one fold over the cyclic subgroups), joins
and cosets are built on it.  Only abelian groups are supported: every explicit
computation downstream lives on cyclic groups and products of two or three of
them, where conjugation is trivial and Weyl groups are quotients.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache, reduce
from typing import Callable, Sequence

SUBGROUP_ENUM_BOUND = 1024
MAP_SET_BOUND = 10 ** 6

Element = tuple  # residue tuple, one coordinate per cyclic factor


def parse_group(spec: str) -> "AbelianGroup":
    """Parse a group spec string like "C9" or "C3xC3" or "C1"."""
    parts = spec.strip().split("x")
    factors = []
    for part in parts:
        p = part.strip()
        if not p.upper().startswith("C") or not p[1:].isdigit():
            raise ValueError(f"bad group spec {spec!r}: expected 'C<n>' factors joined by 'x'")
        n = int(p[1:])
        if n < 1:
            raise ValueError(f"bad cyclic order {n}")
        if n > 1:
            factors.append(n)
    return abelian_group(tuple(factors))


@lru_cache(maxsize=None)
def abelian_group(factors: tuple[int, ...]) -> "AbelianGroup":
    """Shared instances so element and subgroup caches are reused."""
    return AbelianGroup(factors)


class AbelianGroup:
    """A finite abelian group given as a product of cyclic factors."""

    def __init__(self, factors: Sequence[int] = ()):
        factors = tuple(int(n) for n in factors)
        if any(n < 2 for n in factors):
            raise ValueError("cyclic factors must be >= 2")
        self.factors = factors
        self.order = math.prod(factors) if factors else 1
        self.exponent = math.lcm(*factors) if factors else 1

    # -- elements ----------------------------------------------------------

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        return tuple(itertools.product(*(range(n) for n in self.factors)))

    @cached_property
    def _index(self) -> dict[Element, int]:
        return {g: i for i, g in enumerate(self.elements)}

    def index_of(self, g: Element) -> int:
        return self._index[g]

    @property
    def identity(self) -> Element:
        return (0,) * len(self.factors)

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors, strict=True))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % n for x, n in zip(a, self.factors, strict=True))

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def scale(self, k: int, a: Element) -> Element:
        return tuple((k * x) % n for x, n in zip(a, self.factors, strict=True))

    def element_order(self, g: Element) -> int:
        return math.lcm(*(n // math.gcd(n, x) for x, n in zip(g, self.factors, strict=True)))

    def dual_pairing(self, a: Element, g: Element) -> int:
        """<a, g> mod exponent; biadditive and nondegenerate.

        Identifies the group with its own character group:
        chi_a(g) = zeta_e ** dual_pairing(a, g) with e the exponent.
        """
        e = self.exponent
        return sum((e // n) * x * y for x, y, n in zip(a, g, self.factors, strict=True)) % e

    def pairing_row(self, g: Element) -> list[int]:
        """<a, g> for every element a, in index order, built coordinate by
        coordinate (last coordinate fastest): each factor n adds
        x * (e // n) * g_i for x in range(n)."""
        e = self.exponent
        values = [0]
        for y, n in zip(g, self.factors, strict=True):
            w = (e // n) * y % e
            values = [(v + x * w) % e for v in values for x in range(n)]
        return values

    def pairing_kernel(self, g: Element) -> int:
        """The mask of {a : <a, g> = 0}: the zeros of ``pairing_row``."""
        return int("".join("0" if v else "1" for v in reversed(self.pairing_row(g))), 2)

    # -- translation -------------------------------------------------------

    @cached_property
    def _shifts(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """Per factor n: (n, stride, below), below[m] the mask of the elements
        whose coordinate is < m."""
        out, stride = [], self.order
        for n in self.factors:
            stride //= n
            blocks = range(0, self.order, n * stride)
            below = tuple(sum(((1 << m * stride) - 1) << u for u in blocks) for m in range(n + 1))
            out.append((n, stride, below))
        return tuple(out)

    def translate(self, mask: int, g: Element) -> int:
        """The mask of S + g for S the subset ``mask``: coordinate by
        coordinate, blocks below n - c move up by c, the rest wrap down."""
        for c, (n, stride, below) in zip(g, self._shifts, strict=True):
            c %= n
            if c:
                keep = mask & below[n - c]
                mask = keep << c * stride | (mask ^ keep) >> (n - c) * stride
        return mask

    def span(self, mask: int, g: Element) -> int:
        """H + <g> for the subgroup mask H: add the shifts by 2^t g until
        the mask stops growing."""
        while True:
            grown = mask | self.translate(mask, g)
            if grown == mask:
                return mask
            mask, g = grown, self.add(g, g)

    def cosets(self, sub: int, within: int) -> list[int]:
        """The cosets of the subgroup mask ``sub`` that make up ``within``,
        ordered by their lowest element index."""
        out = []
        while within:
            out.append(self.translate(sub, self.elements[_lowest_index(within)]))
            within ^= out[-1]
        return out

    # -- subgroups ----------------------------------------------------------

    @property
    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, 1)  # identity has index 0

    @cached_property
    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, (1 << self.order) - 1)

    def subgroups(self) -> tuple["Subgroup", ...]:
        """All subgroups, in the canonical (order, element-index-tuple) order.

        A fold over the cyclic subgroups, of which every subgroup is a join:
        after the i-th, the set holds every join of the first i.
        """
        if self.order > SUBGROUP_ENUM_BOUND:
            raise ValueError(f"group of order {self.order} exceeds subgroup "
                             f"enumeration bound {SUBGROUP_ENUM_BOUND}")
        return self._subgroups_cached

    @cached_property
    def _cyclics(self) -> dict[int, Element]:
        """Each cyclic subgroup's mask, with a generator (index 0 is the identity)."""
        return {1: self.identity} | {self.span(1, g): g for g in self.elements[1:]}

    @cached_property
    def _subgroups_cached(self) -> tuple["Subgroup", ...]:
        masks = {1}
        for c, g in self._cyclics.items():
            masks |= {self.span(h, g) for h in masks if c & ~h}
        subs = [Subgroup(self, m) for m in masks]
        subs.sort(key=lambda h: h.sort_key)
        return tuple(subs)

    def cyclic_subgroups(self) -> tuple["Subgroup", ...]:
        return tuple(h for h in self.subgroups() if h.is_cyclic)

    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self) -> str:
        if not self.factors:
            return "C1"
        return "x".join(f"C{n}" for n in self.factors)


def _lowest_index(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


class Subgroup:
    """A subgroup stored as a bitmask over the ambient element enumeration."""

    def __init__(self, group: AbelianGroup, mask: int):
        self.group = group
        self.mask = mask
        self._hash = hash((group.factors, mask))

    @cached_property
    def element_indices(self) -> tuple[int, ...]:
        return tuple(i for i, bit in enumerate(bin(self.mask)[:1:-1]) if bit == "1")

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        els = self.group.elements
        return tuple(els[i] for i in self.element_indices)

    @property
    def order(self) -> int:
        return len(self.element_indices)

    @cached_property
    def sort_key(self) -> tuple:
        return (self.order, self.element_indices)

    @property
    def is_cyclic(self) -> bool:
        return self.mask in self.group._cyclics

    def contains(self, other: "Subgroup") -> bool:
        return other.mask & ~self.mask == 0

    def intersect(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.group, self.mask & other.mask)

    def join(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.group, reduce(self.group.span, other.elements, self.mask))

    @cached_property
    def annihilator(self) -> "Subgroup":
        """{a : <a, h> = 0 for all h in H} under the self-duality pairing.

        It is enough to pair with generators of H, picked greedily: the
        lowest element of H outside their span, until the span is H.  The
        annihilator is the AND of their ``pairing_kernel`` masks.
        """
        g = self.group
        gens, span = [], 1
        while span != self.mask:
            gens.append(g.elements[_lowest_index(self.mask & ~span)])
            span = g.span(span, gens[-1])
        return Subgroup(g, reduce(int.__and__, map(g.pairing_kernel, gens), g.full_subgroup.mask))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.group.factors == other.group.factors
            and self.mask == other.mask
        )

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.group!r})"


class DualLevel:
    """The character group of a subgroup H <= G, in coordinates inside G.

    Characters of H are cosets of the annihilator of H (shifts of its mask);
    each coset is stored by its minimal-index representative.  For H = G this
    recovers the whole self-dual group with representatives the elements
    themselves, so the representation ring of G and its levels share one
    mechanism.
    """

    def __init__(self, group: AbelianGroup, subgroup: Subgroup):
        self.group = group
        self.subgroup = subgroup
        self.ann = subgroup.annihilator
        self.reps = tuple(
            group.elements[_lowest_index(c)]
            for c in group.cosets(self.ann.mask, group.full_subgroup.mask)
        )
        self._rep_index = {a: i for i, a in enumerate(self.reps)}
        self._canon_cache: dict[Element, Element] = {}

    @property
    def size(self) -> int:
        return len(self.reps)  # == |H|

    def canon(self, a: Element) -> Element:
        cached = self._canon_cache.get(a)
        if cached is None:
            g = self.group
            cached = g.elements[_lowest_index(g.translate(self.ann.mask, a))]
            self._canon_cache[a] = cached
        return cached

    def index_of(self, a: Element) -> int:
        return self._rep_index[self.canon(a)]

    def add(self, a: Element, b: Element) -> Element:
        return self.canon(self.group.add(a, b))

    def scale(self, k: int, a: Element) -> Element:
        return self.canon(self.group.scale(k, a))


# ---------------------------------------------------------------------------
# explicit H-sets and the brute-force multiplicative induction oracle


class ExplicitHSet:
    """A finite H-set with explicit points, H a subgroup of the ambient group.

    Points are opaque hashables; the action is a function.  A coset point
    of ``from_orbits`` is (orbit, copy, coset mask), acted on by translation.
    """

    def __init__(self, subgroup: Subgroup, points: Sequence, act: Callable):
        self.subgroup = subgroup
        self.points = tuple(points)
        self._act = act

    @classmethod
    def from_orbits(cls, subgroup: Subgroup, orbits: Sequence[tuple[Subgroup, int]]) -> "ExplicitHSet":
        """Disjoint union of coset spaces H/J with multiplicities (all >= 0)."""
        group = subgroup.group
        points = []
        for orbit_id, (stab, mult) in enumerate(orbits):
            if mult < 0:
                raise ValueError("virtual sets have no explicit points")
            if not subgroup.contains(stab):
                raise ValueError("stabilizer must lie in the acting subgroup")
            cosets = group.cosets(stab.mask, subgroup.mask)
            for copy in range(mult):
                points.extend((orbit_id, copy, coset) for coset in cosets)

        def act(h, point):
            orbit_id, copy, coset = point
            return (orbit_id, copy, group.translate(coset, h))

        return cls(subgroup, points, act)

    def act(self, h: Element, point):
        return self._act(h, point)

    def size(self) -> int:
        return len(self.points)


def map_set_orbits(
    ambient: Subgroup,
    h: Subgroup,
    x: ExplicitHSet,
) -> dict[Subgroup, int]:
    """Decompose the K-set of H-equivariant maps K -> X into orbits.

    K = ``ambient`` acts by right translation: (g . f)(k) = f(k + g).  Returns
    {stabilizer subgroup: number of orbits with that stabilizer}; the class of
    the map set is then sum of count * [K/stab].  Brute force by enumeration;
    this is the oracle the marks formula for multiplicative induction is
    checked against.
    """
    group = ambient.group
    if not ambient.contains(h):
        raise ValueError("H must be contained in the ambient subgroup")
    k_els = ambient.elements
    npoints = len(x.points)
    point_index = {p: i for i, p in enumerate(x.points)}

    # coset representatives of H in K, and k = h + rep decompositions
    reps: list[Element] = []
    decomp: dict[Element, tuple[int, Element]] = {}
    for k in k_els:
        if k in decomp:
            continue
        reps.append(k)
        i = len(reps) - 1
        for hh in h.elements:
            decomp[group.add(hh, k)] = (i, hh)
    n_reps = len(reps)

    total = npoints ** n_reps
    if total > MAP_SET_BOUND:
        raise ValueError(f"map-set enumeration of size {total} exceeds bound {MAP_SET_BOUND}")

    def extend(assignment: tuple[int, ...]) -> tuple[int, ...]:
        out = []
        for k in k_els:
            i, hh = decomp[k]
            out.append(point_index[x.act(hh, x.points[assignment[i]])])
        return tuple(out)

    el_index = {k: i for i, k in enumerate(k_els)}
    translate_tables = {
        g: [el_index[group.add(k, g)] for k in k_els] for g in k_els
    }

    maps = {extend(a) for a in itertools.product(range(npoints), repeat=n_reps)}
    assert len(maps) == total

    orbits: dict[Subgroup, int] = {}
    remaining = set(maps)
    while remaining:
        f = remaining.pop()
        orbit = {f}
        stab_mask = 0
        for g in k_els:
            table = translate_tables[g]
            gf = tuple(f[table[i]] for i in range(len(k_els)))
            if gf == f:
                stab_mask |= 1 << group.index_of(g)
            orbit.add(gf)
        remaining -= orbit
        stab = Subgroup(group, stab_mask)
        assert len(orbit) * stab.order == ambient.order
        orbits[stab] = orbits.get(stab, 0) + 1
    return orbits
