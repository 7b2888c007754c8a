"""Finite abelian groups, subgroup lattices, duality, and G-sets.

Groups are products of cyclic factors; elements are residue tuples indexed in
mixed radix (``itertools.product``: the last coordinate varies fastest).
Subgroups, cosets and H-set points are bitmasks over that index.  One
primitive shifts them: ``translate(mask, g)``, the mask of S + g, is one block
rotation per nonzero coordinate of g; ``span`` (H + <g>, by doubling),
subgroup generation, the lattice, joins and cosets are built on it.  The
lattice lists each subgroup once, by the row Hermite normal form of its
preimage in Z^r, and spans its mask from the form's rows: one span per
nontrivial subgroup; each subgroup keeps its down-set (``Subgroup.subgroups``).
A subgroup's character group (``DualLevel``) names the character that an
element a restricts to by its key, the pairings <a, x> mod exp(G) over the
generators x of H, so powers, products and orbits of characters are
arithmetic on keys.  Only abelian groups are supported, so
conjugation is trivial and Weyl groups are quotients.
"""

from __future__ import annotations

import bisect
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

    @cached_property
    def order_masks(self) -> dict[int, int]:
        """{d: the mask of the elements of order d}, the orders built factor
        by factor in index order, as in ``pairing_row``."""
        orders = [1]
        for n in self.factors:
            orders = [math.lcm(o, n // math.gcd(n, x)) for o in orders for x in range(n)]
        return {d: int("".join("1" if o == d else "0" for o in reversed(orders)), 2) for d in dict.fromkeys(orders)}

    @cached_property
    def level_types(self) -> dict[tuple[tuple[int, int], ...], list["Subgroup"]]:
        """The subgroups in canonical order, grouped by isomorphism type, which
        ``Subgroup.order_counts`` fixes (Macdonald, *Symmetric Functions and
        Hall Polynomials*, ch. II, one prime at a time)."""
        types: dict[tuple[tuple[int, int], ...], list[Subgroup]] = {}
        for h in self.subgroups():
            types.setdefault(h.order_counts, []).append(h)
        return types

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

        Each subgroup is enumerated once, as a row Hermite normal form
        (``_hermite_masks``).  Among subgroups of one order, the one holding
        the lowest element where two differ comes first: the larger mask
        once its |G| bits are read in reverse.
        """
        if self.order > SUBGROUP_ENUM_BOUND:
            raise ValueError(f"group of order {self.order} exceeds subgroup "
                             f"enumeration bound {SUBGROUP_ENUM_BOUND}")
        return self._subgroups_cached

    @cached_property
    def _subgroups_cached(self) -> tuple["Subgroup", ...]:
        n = self.order
        masks = sorted(self._hermite_masks(), key=lambda m: (m.bit_count(), -int(f"{m:0{n}b}"[::-1], 2)))
        # the last is G, the one ``full_subgroup``, so its caches are shared
        return tuple(Subgroup(self, m) for m in masks[:-1]) + (self.full_subgroup,)

    def _hermite_masks(self) -> list[int]:
        """The mask of every subgroup, once each.

        A subgroup is L/N for one lattice N <= L <= Z^r, N = (+) n_i Z, and L
        has one row Hermite normal form (H. Cohen, GTM 138, 2.4).  Its rows
        are built from the last one up: row i is (0..0, d_i, a_i,i+1 ..
        a_i,r-1) with d_i | n_i and 0 <= a_ij < d_j, kept when n_i e_i lies in
        the span of rows i.. (which is then L's part with zeros before i).
        When d_i = n_i the row is n_i e_i itself, which adds nothing mod N;
        any other row adds one span to the mask of the rows below it, so each
        subgroup but the trivial one costs one span.
        """
        forms = [((), 1)]  # (rows i.. from their pivots on, their subgroup's mask)
        for i in reversed(range(len(self.factors))):
            n = self.factors[i]
            grown = []
            for rows, mask in forms:
                grown.append((((n,) + (0,) * len(rows), *rows), mask))
                for d in range(1, n):
                    if n % d:
                        continue
                    for tail in itertools.product(*(range(row[0]) for row in rows)):
                        if _in_span([-(n // d) * a for a in tail], rows):
                            grown.append((((d, *tail), *rows), self.span(mask, (0,) * i + (d, *tail))))
            forms = grown
        return [mask for _, mask in forms]

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


def _in_span(v: list[int], rows: Sequence[tuple[int, ...]]) -> bool:
    """Whether v is in the lattice of Hermite rows, one row per coordinate of
    v, each given from its pivot on: clear v coordinate by coordinate."""
    for k, row in enumerate(rows):
        q, rem = divmod(v[k], row[0])
        if rem:
            return False
        for m in range(1, len(row)):
            v[k + m] -= q * row[m]
    return True


class Subgroup:
    """A subgroup stored as a bitmask over the ambient element enumeration."""

    def __init__(self, group: AbelianGroup, mask: int):
        self.group = group
        self.mask = mask
        self._hash = hash((group.factors, mask))

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        els = self.group.elements
        return tuple(els[i] for i, bit in enumerate(bin(self.mask)[:1:-1]) if bit == "1")

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    @cached_property
    def is_cyclic(self) -> bool:
        return any(d == self.order and count for d, count in self.order_counts)

    def contains(self, other: "Subgroup") -> bool:
        return other.mask & ~self.mask == 0

    @cached_property
    def order_counts(self) -> tuple[tuple[int, int], ...]:
        """(d, how many elements of H have order d) for each order d in G."""
        return tuple((d, (self.mask & m).bit_count()) for d, m in self.group.order_masks.items())

    @cached_property
    def subgroups(self) -> tuple["Subgroup", ...]:
        """The K <= H in canonical order, found by one mask test each over the
        group's subgroups of order at most |H|, a prefix of that order."""
        subs, outside = self.group.subgroups(), ~self.mask
        prefix = subs[:bisect.bisect_right(subs, self.order, key=lambda k: k.order)]
        return tuple(k for k in prefix if not k.mask & outside)

    @cached_property
    def cyclic_subgroups(self) -> tuple["Subgroup", ...]:
        return tuple(k for k in self.subgroups if k.is_cyclic)

    def intersect(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.group, self.mask & other.mask)

    def join(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.group, reduce(self.group.span, other.elements, self.mask))

    @cached_property
    def generators(self) -> tuple[Element, ...]:
        """Generators picked greedily: the lowest element of H outside the
        span of those before it, until the span is H."""
        g = self.group
        gens, span = [], 1
        while span != self.mask:
            gens.append(g.elements[_lowest_index(self.mask & ~span)])
            span = g.span(span, gens[-1])
        return tuple(gens)

    @cached_property
    def dual(self) -> "DualLevel":
        """The character group of H (``DualLevel``), built once per subgroup
        and shared by every reader of the level."""
        return DualLevel(self.group, self)

    @cached_property
    def annihilator(self) -> "Subgroup":
        """{a : <a, h> = 0 for all h in H} under the self-duality pairing:
        the AND of the ``pairing_kernel`` masks of the generators of H."""
        g = self.group
        kernels = map(g.pairing_kernel, self.generators)
        return Subgroup(g, reduce(int.__and__, kernels, g.full_subgroup.mask))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.group.factors == other.group.factors
            and self.mask == other.mask
        )

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        gens = ", ".join(map(str, self.generators))
        return f"Subgroup(order={self.order} of {self.group!r}, <{gens}>)"


class DualLevel:
    """The character group of a subgroup H <= G, in coordinates inside G.

    The element a of G restricts to the character of H named by its key: the
    tuple of pairings <a, x> mod exp(G) over the generators x of H
    (``pairing_row`` gives every element's key at once).  Two elements share
    a key exactly when they differ by an element of ann(H).  Characters
    multiply as their keys add, coordinatewise mod exp(G): chi^k has key
    k * key and chi * chi' has key key + key'.  Each character is stored by its
    minimal-index representative, the first element with its key in index
    order.  For H = G the representatives are the elements themselves, so the
    representation ring of G and its levels share one mechanism.
    """

    def __init__(self, group: AbelianGroup, subgroup: Subgroup):
        self.group = group
        self.subgroup = subgroup
        rows = self._pairing_rows()
        keys = list(zip(*rows, strict=True))  # in element index order
        # read from the end, each key keeps the index written last: its lowest
        lowest = dict(zip(reversed(keys), range(group.order - 1, -1, -1), strict=True))
        at = sorted(lowest.values())
        self.reps = tuple(group.elements[i] for i in at)
        self.keys = tuple(keys[i] for i in at)
        self.key_index = {key: n for n, key in enumerate(self.keys)}
        self._key_columns = [[row[i] for i in at] for row in rows]

    def _pairing_rows(self) -> list[list[int]]:
        """One ``pairing_row`` per generator of H, so every element's key is
        read down the rows; the trivial subgroup pairs through its identity,
        so that every key is (0,)."""
        g = self.group
        return [g.pairing_row(x) for x in self.subgroup.generators or (g.identity,)]

    @cached_property
    def _index(self) -> dict[Element, int]:
        """The character index of every element, built on the first ``index_of``."""
        keys = zip(*self._pairing_rows(), strict=True)
        return dict(zip(self.group.elements, map(self.key_index.__getitem__, keys), strict=True))

    @property
    def size(self) -> int:
        return len(self.reps)  # == |H|

    def index_of(self, a: Element) -> int:
        """The index of the character that a restricts to."""
        return self._index[a]

    def canon(self, a: Element) -> Element:
        return self.reps[self._index[a]]

    def order(self, i: int) -> int:
        """The order of the i-th character: exp(G) over the gcd of its key."""
        e = self.group.exponent
        return e // math.gcd(e, *self.keys[i])

    def psi(self, k: int) -> list[int]:
        """psi^k on the characters: the index of k * key for each key, taken
        one key coordinate at a time."""
        e = self.group.exponent
        scaled = ([k * c % e for c in column] for column in self._key_columns)
        return list(map(self.key_index.__getitem__, zip(*scaled, strict=True)))

    def multiples(self, i: int, ks: Sequence[int]) -> list[int]:
        """The index of k * key for each k in ks, key the i-th character's."""
        e = self.group.exponent
        scaled = ([k * c % e for k in ks] for c in self.keys[i])
        return list(map(self.key_index.__getitem__, zip(*scaled, strict=True)))

    def product(self, i: int, j: int) -> int:
        """The index of the product of the i-th and j-th characters: the sum
        of their keys."""
        e = self.group.exponent
        return self.key_index[tuple((c + d) % e for c, d in zip(self.keys[i], self.keys[j], strict=True))]

    @cached_property
    def cyclic_rows(self) -> tuple[tuple[int, ...], ...]:
        """The indicator over ``reps`` of each cyclic subgroup of the
        character group, largest first (on the top level, the masks of the
        cyclic subgroups of G), each taken from its first rep only: the
        multiples of its key.  Its generators, the multiples by k prime to
        its order, are skipped."""
        rows, generated = [], set()
        for i in range(self.size):
            if i in generated:
                continue
            d = self.order(i)
            multiples = self.multiples(i, range(d))
            generated.update(j for k, j in enumerate(multiples) if math.gcd(k, d) == 1)
            row = [0] * self.size
            for j in multiples:
                row[j] = 1
            rows.append(tuple(row))
        return tuple(sorted(rows, key=sum, reverse=True))


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
    if len(maps) != total:
        raise ValueError(f"{total} assignments extend to {len(maps)} maps: X is not an H-set")

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
        if len(orbit) * stab.order != ambient.order:
            raise ArithmeticError(f"an orbit of {len(orbit)} maps has a stabilizer of order {stab.order}")
        orbits[stab] = orbits.get(stab, 0) + 1
    return orbits
