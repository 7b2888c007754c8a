"""Mackey and Green functors over a finite abelian group.

A functor is stored levelwise: one finitely generated abelian group per
subgroup, a direct sum of cyclic groups given by the order of each generator
(0 for Z, d for Z/d), with restriction and transfer matrices for every
containment.  A functor is built whole: every map, unit and product table
is a plain dict filled at construction.  A level reads its free rank and
torsion off its orders, and two elements are equal when their difference is
0 modulo each order.  ``pi0`` (``assemble_pi0``) builds no functor at all: it
reads and certifies one level per isomorphism type.
Because the ambient group is abelian there is no conjugation data, Weyl
groups are quotients, and the double-coset law collapses to

    res^H_K o tr^H_L = [H : KL] * tr^K_{K&L} o res^L_{K&L}.

A Green functor is given by the products of basis vectors at each level
(``basis_product``), stored once as their nonzero (index, coefficient)
pairs; every functor here is commutative, and ``multiply`` is the one
bilinear extension of those products.

The axiom checks test a generating set of identities: the identity laws and
the well-definedness of every map and product everywhere, and the other laws
only on the covers K < H (prime index), or on the K, L with K + L = H for the
double-coset law.  By induction on the index along chains of covers, these
imply each law on every pair and triple (the Green ones given transitivity).

Provided functors: the Burnside functor and its levelwise quotient A/J by the
cyclically-vanishing ideal, both lattices of marks vectors built by one
construction (``_marks_functor``: a level's rank is its column count and its
basis has one row per column, restriction keeps the marks at the subgroups
of K, transfer scales them by [H : K], the product is pointwise), which keeps
the Burnside ring of each level (``MarksFunctor.rings``) for every reader; the
representation-ring functor (``linearization_check`` takes a Burnside and a
representation-ring functor already built and returns the identities that
the linearization between them violates, as the axiom checks do); and two
answers built by one construction, A/J tensored with a sum of cyclic groups
(``_tensor``): the degree-0 homotopy of the K-theoretic localization
(``adjoin_x``: A/J tensored with the ring Z[x]/(2x, x^2);
``tambara.CyclicTower`` applies it to the Burnside functor of a cyclic group,
where J = 0) and the degree-1 answer for the order-3 cyclic group (A/J
tensored with (Z/2)^2, plus the q-part of the degree-2 cokernel that
``fiber.fiber_level_data`` computes at each level).  The geometric piece at
a subgroup (level modulo transfers from proper subgroups) and its rank
bookkeeping against the idempotent splitting are computed for any functor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .burnside import BurnsideRing
from .exact import (
    IntMatrix,
    divisibility_chain,
    is_prime,
    kernel_lattice,
    lattice_equal,
    primary_part,
    prime_factors,
    prime_power_part,
    smith_normal_form,
)
from .fiber import counted_cycle_lengths, default_ell, degree0_kernels, fiber_level_data, spans_cycle_lattice
from .groups import AbelianGroup, Subgroup

Vector = tuple
Pairs = tuple  # the nonzero (index, coefficient) pairs of a vector, by index


@dataclass(frozen=True)
class Level:
    """One level: the direct sum over its generators of Z/orders[i], order 0
    meaning Z."""

    subgroup: Subgroup
    orders: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.orders)

    @cached_property
    def structure(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion invariant factors): the count of zero orders,
        and the divisibility chain of the nonzero ones without its 1s."""
        chain = divisibility_chain(d for d in self.orders if d)
        return self.orders.count(0), tuple(d for d in chain if d != 1)

    @property
    def free_rank(self) -> int:
        return self.structure[0]

    @property
    def torsion(self) -> tuple[int, ...]:
        """Invariant factors of the torsion subgroup (divisibility chain)."""
        return self.structure[1]

    @property
    def primary_torsion(self) -> tuple[int, ...]:
        """The same torsion split into prime powers, sorted."""
        return tuple(sorted(
            prime_power_part(d, p) for d in self.torsion for p in prime_factors(d)
        ))

    def elements_equal(self, a: Sequence[int], b: Sequence[int]) -> bool:
        """a == b in the level: equal vectors are equal at once; otherwise
        each coordinate of a - b must be 0 modulo its generator's order.
        Vectors of unequal length raise ValueError."""
        if a == b:
            return True
        diff = [x - y for x, y in zip(a, b, strict=True)]
        return all(x % d == 0 if d else x == 0 for x, d in zip(diff, self.orders, strict=True))

    def maps_equal(self, a: Sequence[Vector], b: Sequence[Vector]) -> bool:
        """Two maps into the level, given as their columns, are equal."""
        return a == b or all(self.elements_equal(x, y) for x, y in zip(a, b, strict=True))


def _relations(lvl: Level) -> list[Pairs]:
    """The relations d*e_i of a level, one per nonzero order d, as pairs."""
    return [((i, d),) for i, d in enumerate(lvl.orders) if d]


def _containment_maps(levels: dict, res: Callable, tr: Callable) -> tuple[dict, dict]:
    """Every restriction ``res(h, k)`` keyed (H, K) and transfer ``tr(k, h)``
    keyed (K, H), over the containments K <= H of the levels."""
    pairs = [(h, k) for h in levels for k in h.subgroups]
    return {(h, k): res(h, k) for h, k in pairs}, {(k, h): tr(k, h) for h, k in pairs}


class MackeyFunctor:
    def __init__(
        self,
        group: AbelianGroup,
        levels: dict[Subgroup, Level],
        res: dict[tuple[Subgroup, Subgroup], IntMatrix],
        tr: dict[tuple[Subgroup, Subgroup], IntMatrix],
        name: str = "",
    ):
        """``res`` and ``tr`` are dicts mapping (H, K) and (K, H) to the
        matrices for every containment K <= H; any other pair is no key, and
        reading it raises KeyError."""
        self.group = group
        self.levels = levels
        self._res = res
        self._tr = tr
        self.name = name

    @property
    def subgroups(self) -> tuple[Subgroup, ...]:
        return tuple(self.levels)

    def level(self, h: Subgroup) -> Level:
        return self.levels[h]

    def res(self, h: Subgroup, k: Subgroup) -> IntMatrix:
        """Restriction M(H) -> M(K) for K <= H."""
        return self._res[(h, k)]

    def tr(self, k: Subgroup, h: Subgroup) -> IntMatrix:
        """Transfer M(K) -> M(H) for K <= H."""
        return self._tr[(k, h)]

    # -- axiom validation ----------------------------------------------------

    def check_mackey_axioms(self) -> list[str]:
        """The Mackey axioms on a generating set of identities: res(H, H) =
        tr(H, H) = id; every res and tr well defined (each relation d*e_i of
        its source maps to 0 in its target); on each cover
        K < H, transitivity along L <= K < H and res^H_K o tr^H_K = [H : K] id;
        and the double-coset law at H for proper K, L with |K| |L| = |H| |K & L|,
        that is K + L = H.  These imply every identity between the quotient
        levels.  By induction on [H : K], through a cover K' of H above K,
        res^K_L o res^H_K = res^K_L o res^{K'}_K o res^H_{K'} = res^H_L, and so
        for tr; then res^H_J o tr^H_J = [H : J] id along covers, and
        res^H_K o tr^H_L = res^J_K o (res^H_J o tr^H_J) o tr^J_L gives the law
        for any K, L from the one at J = K + L.  Each map is split once into
        the nonzero pairs of its columns, and composites are sums over those
        pairs (``_compose``).  Returns the violated identities (empty = none).
        """
        failures: list[str] = []
        subs, rank = self.subgroups, {h: self.level(h).rank for h in self.subgroups}
        maps = {("res", h, k): self.res(h, k) for h in subs for k in h.subgroups}
        maps |= {("tr", k, h): self.tr(k, h) for h in subs for k in h.subgroups}
        dense = {key: [m.column(j) for j in range(m.cols)] for key, m in maps.items()}
        cols = {key: [_pairs(v) for v in vs] for key, vs in dense.items()}
        for (kind, src, dst), columns in cols.items():
            n, lvl = rank[dst], self.level(dst)
            if src == dst and not lvl.maps_equal(dense[kind, src, dst], [_unit_vec(n, i) for i in range(n)]):
                failures.append(f"{kind} identity at {src!r}")
            relations = _relations(self.level(src))
            if not lvl.maps_equal(_compose(n, columns, relations), [(0,) * n] * len(relations)):
                failures.append(f"{kind} not well defined {src!r}->{dst!r}")
        for h in subs:
            for k in maximal_proper_subgroups(h):
                for l in k.subgroups:
                    lhs = _compose(rank[l], cols["res", k, l], cols["res", h, k])
                    if not self.level(l).maps_equal(lhs, dense["res", h, l]):
                        failures.append(f"res transitivity {h!r}>{k!r}>{l!r}")
                    lhs = _compose(rank[h], cols["tr", k, h], cols["tr", l, k])
                    if not self.level(h).maps_equal(lhs, dense["tr", l, h]):
                        failures.append(f"tr transitivity {h!r}>{k!r}>{l!r}")
                index = [_unit_vec(rank[k], i, h.order // k.order) for i in range(rank[k])]
                if not self.level(k).maps_equal(_compose(rank[k], cols["res", h, k], cols["tr", k, h]), index):
                    failures.append(f"double coset at {h!r}: K={k!r} L={k!r}")
            for k in h.subgroups[:-1]:
                for l in h.subgroups[:-1]:
                    if k.order * l.order != h.order * (k.mask & l.mask).bit_count():
                        continue
                    meet = k.intersect(l)
                    lhs = _compose(rank[k], cols["res", h, k], cols["tr", l, h])
                    rhs = _compose(rank[k], cols["tr", meet, k], cols["res", l, meet])
                    if not self.level(k).maps_equal(lhs, rhs):
                        failures.append(f"double coset at {h!r}: K={k!r} L={l!r}")
        return failures


def _unit_vec(n: int, i: int, c: int = 1) -> Vector:
    v = [0] * n
    v[i] = c
    return tuple(v)


def _pairs(v: Sequence[int]) -> Pairs:
    return tuple((i, c) for i, c in enumerate(v) if c)


def _apply_sparse(n: int, terms: Iterable[tuple[int, Pairs]]) -> Vector:
    """sum of c * v over (c, v) in ``terms``, each v given by its pairs, as a
    vector of length n; ``_apply_sparse(n, [(1, v)])`` is v itself."""
    out = [0] * n
    for c, v in terms:
        for t, z in v:
            out[t] += c * z
    return tuple(out)


def _columns(m: IntMatrix) -> list[Pairs]:
    return [_pairs(m.column(j)) for j in range(m.cols)]


def _compose(n: int, outer: Sequence[Pairs], inner: Sequence[Pairs]) -> list[Vector]:
    """The columns (vectors of length n) of outer o inner, maps given by the
    nonzero pairs of their columns: column j sums c * outer[t] over inner[j]."""
    return [_apply_sparse(n, ((c, outer[t]) for t, c in col)) for col in inner]


class GreenFunctor(MackeyFunctor):
    """A Mackey functor with a commutative unital product at each level, given
    by the products of basis vectors: ``basis_product(h, i, j)`` is e_i * e_j
    at level H, as its nonzero (index, coefficient) pairs."""

    def __init__(
        self,
        group: AbelianGroup,
        levels: dict[Subgroup, Level],
        res: dict,
        tr: dict,
        units: dict[Subgroup, Vector],
        basis_product: Callable[[Subgroup, int, int], Pairs],
        name: str = "",
    ):
        """``units`` is a dict holding every level's unit.  Every level's
        product table is built here, from ``basis_product`` for i <= j and
        mirrored."""
        super().__init__(group, levels, res, tr, name)
        self._units = units
        self._products = {}
        for h, lvl in levels.items():
            table = self._products[h] = [[()] * lvl.rank for _ in range(lvl.rank)]
            for i in range(lvl.rank):
                for j in range(i, lvl.rank):
                    table[i][j] = table[j][i] = basis_product(h, i, j)

    def unit(self, h: Subgroup) -> Vector:
        return self._units[h]

    def product_table(self, h: Subgroup) -> list[list[Pairs]]:
        """e_i * e_j for every pair of basis vectors of the level, as its
        nonzero (index, coefficient) pairs."""
        return self._products[h]

    def _product(self, h: Subgroup, a: Pairs, b: Pairs) -> Vector:
        table = self.product_table(h)
        return _apply_sparse(self.level(h).rank, ((x * y, table[i][j]) for i, x in a for j, y in b))

    def multiply(self, h: Subgroup, a: Sequence[int], b: Sequence[int]) -> Vector:
        """The bilinear extension of the basis products, summed over the
        nonzero coefficients of a and b."""
        return self._product(h, _pairs(a), _pairs(b))

    def check_green_axioms(self) -> list[str]:
        """The Green axioms on a generating set of identities: at every level
        the unit law 1 * e_i = e_i and well-definedness (each relation d*e_i
        times each basis vector is 0 in the level); on each cover
        K < H, restriction unital and multiplicative, and Frobenius
        reciprocity tr(e_i) * e_j = tr(e_i * res(e_j)).  Premises: the product
        is commutative (``product_table`` mirrors it) and res and tr are
        transitive, which ``check_mackey_axioms`` checks on the same functor.
        Then every restriction is a composite of ring maps along covers, and
        Frobenius along L < K < H, with K a cover of H, follows by induction
        on [H : L]: tr^H_L(a * res^H_L b) = tr^H_K(tr^K_L(a * res^K_L res^H_K b))
        = tr^H_K(tr^K_L(a) * res^H_K b) = tr^H_L(a) * b.  Each side is a sum
        over the nonzero pairs of map columns and stored basis products,
        compared as an element of the target level, equal vectors first.
        """
        failures: list[str] = []
        for h in self.subgroups:
            lvl_h = self.level(h)
            n_h = lvl_h.rank
            prod_h, unit_h = self.product_table(h), _pairs(self.unit(h))
            relations = _relations(lvl_h)
            for i in range(n_h):
                if not lvl_h.elements_equal(self._product(h, unit_h, ((i, 1),)), _unit_vec(n_h, i)):
                    failures.append(f"unit law fails at {h!r}: 1 * e_{i} != e_{i}")
                for t, r in enumerate(relations):
                    if not lvl_h.elements_equal(self._product(h, r, ((i, 1),)), (0,) * n_h):
                        failures.append(f"product not well defined at {h!r}: relation {t} * e_{i}")
            for k in maximal_proper_subgroups(h):
                lvl_k = self.level(k)
                n_k = lvl_k.rank
                prod_k = self.product_table(k)
                res_cols, tr_cols = _columns(self.res(h, k)), _columns(self.tr(k, h))
                unit = _apply_sparse(n_k, ((c, res_cols[i]) for i, c in unit_h))
                if not lvl_k.elements_equal(unit, self.unit(k)):
                    failures.append(f"res not unital {h!r}->{k!r}")
                for i in range(n_h):
                    for j in range(i, n_h):
                        lhs = _apply_sparse(n_k, ((c, res_cols[t]) for t, c in prod_h[i][j]))
                        rhs = self._product(k, res_cols[i], res_cols[j])
                        if not lvl_k.elements_equal(lhs, rhs):
                            failures.append(f"res not multiplicative {h!r}->{k!r} at ({i},{j})")
                for i in range(n_k):
                    for j in range(n_h):
                        lhs = _apply_sparse(n_h, ((c, prod_h[t][j]) for t, c in tr_cols[i]))
                        down = ((c * d, tr_cols[u]) for s, c in res_cols[j] for u, d in prod_k[i][s])
                        rhs = _apply_sparse(n_h, down)
                        if not lvl_h.elements_equal(lhs, rhs):
                            failures.append(f"Frobenius fails {k!r}<={h!r} at ({i},{j})")
        return failures


# ---------------------------------------------------------------------------
# lattices of marks vectors: the Burnside functor and A/J


class MarksFunctor(GreenFunctor):
    """A ``_marks_functor``; ``rings[h]`` is its one BurnsideRing of level H."""

    def __init__(self, rings: dict[Subgroup, BurnsideRing], *args):
        super().__init__(*args)
        self.rings = rings


def _marks_functor(group: AbelianGroup, columns_of: Callable, lattice: Callable, name: str) -> MarksFunctor:
    """A Green functor whose level at H is a full-rank lattice of marks
    vectors with pointwise product.

    ``columns_of(rings[H])`` gives the column subgroups, whose count is the
    rank of the level.  ``lattice(rings[H])`` gives the basis rows as marks
    vectors and a coordinates function over those rows, for every level at
    construction; a basis whose length is not the column count raises
    ArithmeticError naming the level.  Marks at a subgroup C commute
    with restriction, so res^H_K keeps the entries at K's columns (the
    columns of H inside K, in the same canonical order); tr^H_K scales them
    by [H : K] and puts 0 at the other columns of H.  The unit is the
    all-ones marks vector.
    """
    subs = group.subgroups()
    rings = {h: BurnsideRing(group, h) for h in subs}
    columns = {h: columns_of(rings[h]) for h in subs}
    levels = {h: Level(h, (0,) * len(columns[h])) for h in subs}

    lattices = {h: lattice(rings[h]) for h in subs}  # H -> (basis rows, coordinates)
    for h, (basis, _) in lattices.items():
        if len(basis) != levels[h].rank:
            raise ArithmeticError(
                f"the {name} basis at {h!r} has {len(basis)} rows for {levels[h].rank} columns"
            )

    def matrix(dst: Subgroup, images: Sequence[Sequence[int]]) -> IntMatrix:
        coordinates = lattices[dst][1]
        return IntMatrix.from_columns([coordinates(v) for v in images], nrows=levels[dst].rank)

    def inside(h: Subgroup, k: Subgroup) -> list[int]:
        at = {c.mask: i for i, c in enumerate(columns[h])}
        return [at[c.mask] for c in columns[k]]

    def res(h: Subgroup, k: Subgroup) -> IntMatrix:
        cols = inside(h, k)
        return matrix(k, [[b[i] for i in cols] for b in lattices[h][0]])

    def tr(k: Subgroup, h: Subgroup) -> IntMatrix:
        cols, index = inside(h, k), h.order // k.order
        up = []
        for b in lattices[k][0]:
            v = [0] * len(columns[h])
            for i, x in zip(cols, b, strict=True):
                v[i] = index * x
            up.append(v)
        return matrix(h, up)

    def basis_product(h: Subgroup, i: int, j: int) -> Pairs:
        basis, coordinates = lattices[h]
        return _pairs(coordinates([x * y for x, y in zip(basis[i], basis[j], strict=True)]))

    units = {h: coordinates((1,) * levels[h].rank) for h, (_, coordinates) in lattices.items()}
    return MarksFunctor(rings, group, levels, *_containment_maps(levels, res, tr), units, basis_product, name)


def burnside_mackey(group: AbelianGroup) -> MarksFunctor:
    """The Burnside functor: at H, the marks of the orbit basis [H/L] (rows of
    the table of marks) on every subgroup of H."""
    return _marks_functor(
        group,
        lambda ring: ring.subgroups,
        lambda ring: (ring.table_of_marks.entries, ring.element_from_marks),
        "burnside",
    )


def _a_mod_j_lattice(ring: BurnsideRing):
    q = ring.a_mod_j()

    def coordinates(marks: Sequence[int]) -> Vector:
        coords = q.coordinates(marks)
        if coords is None:
            raise ArithmeticError(f"marks {tuple(marks)} lie outside A/J at {ring.level!r}")
        return coords

    return q.basis, coordinates


def a_mod_j_mackey(group: AbelianGroup) -> MarksFunctor:
    """Levelwise quotient by the cyclically-vanishing ideal: at H, the image of
    the marks on the cyclic subgroups of H, in its canonical Hermite basis,
    of rank the number of cyclic subgroups of H."""
    return _marks_functor(group, lambda ring: ring.level.cyclic_subgroups, _a_mod_j_lattice, "a_mod_j")


# ---------------------------------------------------------------------------
# the representation-ring Green functor


def ru_mackey(group: AbelianGroup) -> GreenFunctor:
    subs = group.subgroups()
    levels = {h: Level(h, (0,) * h.dual.size) for h in subs}

    def res(h: Subgroup, k: Subgroup) -> IntMatrix:
        # character restriction along K <= H
        d_h, d_k = h.dual, k.dual
        cols = []
        for a in d_h.reps:
            col = [0] * d_k.size
            col[d_k.index_of(a)] = 1
            cols.append(col)
        return IntMatrix.from_columns(cols, nrows=d_k.size)

    def tr(k: Subgroup, h: Subgroup) -> IntMatrix:
        # induction: the fiber of restriction over each character
        d_h, d_k = h.dual, k.dual
        cols = [[0] * d_h.size for _ in range(d_k.size)]
        for i, a in enumerate(d_h.reps):
            cols[d_k.index_of(a)][i] = 1
        return IntMatrix.from_columns(cols, nrows=d_h.size)

    def basis_product(h: Subgroup, i: int, j: int) -> Pairs:
        return ((h.dual.product(i, j), 1),)

    units = {h: _unit_vec(h.dual.size, h.dual.index_of(group.identity)) for h in subs}
    return GreenFunctor(group, levels, *_containment_maps(levels, res, tr), units, basis_product, "ru")


# ---------------------------------------------------------------------------
# linearization as a map of Green functors, and its kernel


def linearization_check(a_fun: MarksFunctor, ru_fun: GreenFunctor) -> list[str]:
    """The levelwise permutation-representation map from the Burnside functor
    ``a_fun`` to the representation-ring functor ``ru_fun`` of the same group
    is a map of Green functors whose kernel is the cyclically-vanishing ideal.

    Returns the list of violated identities (empty = all hold).
    """
    subs, rings = a_fun.subgroups, a_fun.rings
    # column i of the linearization at H: row i of its matrix, the i-th orbit's image
    lam = {h: [_pairs(row) for row in rings[h].linearize_matrix.entries] for h in subs}
    ranks = {h: ru_fun.level(h).rank for h in subs}
    if any(len(lam[h]) != a_fun.level(h).rank or rings[h].linearize_matrix.cols != ranks[h] for h in subs):
        raise ValueError("shape mismatch: a linearization matrix is not orbits x characters")

    failures: list[str] = []
    for h in subs:
        for k in h.subgroups:
            a_res, ru_res = _columns(a_fun.res(h, k)), _columns(ru_fun.res(h, k))
            if _compose(ranks[k], lam[k], a_res) != _compose(ranks[k], ru_res, lam[h]):
                failures.append(f"does not commute with res {h!r}->{k!r}")
            a_tr, ru_tr = _columns(a_fun.tr(k, h)), _columns(ru_fun.tr(k, h))
            if _compose(ranks[h], lam[h], a_tr) != _compose(ranks[h], ru_tr, lam[k]):
                failures.append(f"does not commute with tr {k!r}->{h!r}")

    for h in subs:
        [unit] = _compose(ranks[h], lam[h], [_pairs(a_fun.unit(h))])
        if unit != ru_fun.unit(h):
            failures.append(f"not unital at {h!r}")
        products = a_fun.product_table(h)
        n = len(lam[h])
        for i in range(n):
            for j in range(i, n):
                [image] = _compose(ranks[h], lam[h], [products[i][j]])
                if image != ru_fun._product(h, lam[h][i], lam[h][j]):
                    failures.append(f"not multiplicative at {h!r} at ({i},{j})")

    for h in subs:
        ring = rings[h]
        ker = kernel_lattice(ring.linearize_matrix.transpose())
        if not lattice_equal(ring.ideal_j_rows, [ker.column(j) for j in range(ker.cols)], ring.n):
            failures.append(f"kernel is not J at {h!r}")
    return failures


# ---------------------------------------------------------------------------
# the geometric piece at a subgroup, and the splitting bookkeeping


def maximal_proper_subgroups(h: Subgroup) -> list[Subgroup]:
    """The K < H of prime index, in canonical order: in a finite abelian
    group, K is maximal in H exactly when H/K has prime order."""
    return [k for k in h.subgroups if is_prime(h.order // k.order)]


def v_h(functor: MackeyFunctor, h: Subgroup, p: int) -> tuple[int, tuple[int, ...]]:
    """The level at H modulo transfers from proper subgroups, p-localized.

    Returns (free rank, p-power torsion).  Transfers from maximal proper
    subgroups suffice by transitivity.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not a prime")
    if functor.group.order % p == 0:
        raise ValueError(f"p={p} divides the group order; the splitting needs p coprime")
    lvl = functor.level(h)
    cols: list[Vector] = []
    for k in maximal_proper_subgroups(h):
        m = functor.tr(k, h)
        cols.extend(m.column(j) for j in range(m.cols))
    cols.extend(_unit_vec(lvl.rank, i, d) for i, d in enumerate(lvl.orders) if d)
    if not cols:
        return lvl.rank, ()
    mat = IntMatrix.from_columns(cols, nrows=lvl.rank)
    free, torsion = smith_normal_form(mat).cokernel_invariants()
    return free, primary_part(torsion, p)


def idempotent_splitting_check(functor: MackeyFunctor, p: int) -> list[str]:
    """rank_p(M(G/K)) = sum over H <= K of rank_p(V_H(M)) for every level K.

    Returns the levels where the ranks differ (empty = the bookkeeping holds).
    """
    ranks = {h: v_h(functor, h, p)[0] for h in functor.subgroups}
    failures: list[str] = []
    for k in functor.subgroups:
        total = sum(ranks[h] for h in k.subgroups)
        free = functor.level(k).free_rank
        if free != total:
            failures.append(f"free rank {free} at {k!r}, but its pieces sum to {total}")
    return failures


# ---------------------------------------------------------------------------
# tensoring a functor with a finitely generated abelian group


def _tensor(
    functor: MackeyFunctor,
    orders: Sequence[int],
    extra: dict[Subgroup, Sequence[int]] | None = None,
) -> tuple[dict, dict, dict]:
    """Levels, restrictions and transfers of functor tensor (+_s Z/orders[s]),
    order 0 meaning Z, for a functor with free levels (A/J's are).  Each map
    is built from the same map of ``functor``.

    Each level has one block of generators per summand, in the order of
    ``orders``, so every map is block diagonal.  ``extra[h]`` appends cyclic
    summands (same convention) at level H; restriction and transfer between
    different levels are 0 on them, and res(H, H), tr(H, H) stay identities.
    """
    extra = extra or {}
    blocks = len(orders)
    levels = {}
    for h in functor.subgroups:
        r = functor.level(h).rank
        levels[h] = Level(h, tuple(d for d in orders for _ in range(r)) + tuple(extra.get(h, ())))

    def block_diag(m: IntMatrix, src: Subgroup, dst: Subgroup) -> IntMatrix:
        n_src, n_dst = len(extra.get(src, ())), len(extra.get(dst, ()))
        rows = [
            [0] * (s * m.cols) + list(row) + [0] * ((blocks - s - 1) * m.cols + n_src)
            for s in range(blocks)
            for row in m.entries
        ]
        rows += [
            [0] * (blocks * m.cols) + [int(src == dst and i == j) for j in range(n_src)]
            for i in range(n_dst)
        ]
        return IntMatrix(rows, cols=blocks * m.cols + n_src)

    def res(h: Subgroup, k: Subgroup) -> IntMatrix:
        return block_diag(functor.res(h, k), h, k)

    def tr(k: Subgroup, h: Subgroup) -> IntMatrix:
        return block_diag(functor.tr(k, h), k, h)

    return levels, *_containment_maps(levels, res, tr)


# ---------------------------------------------------------------------------
# assembly of the degree-0 answer


@dataclass(frozen=True)
class Pi0Result:
    """(A/J)[x]/(2x, x^2) levelwise: free rank ``ranks[H]``, the number of
    cyclic subgroups of H, with as many Z/2 classes, multiplied so x^2 = 0.
    ``cross_check_failures`` names each level whose type fails the kernel
    certificate.  ``a_mod_j`` and ``functor`` are built on first read."""

    group: AbelianGroup
    ell: int
    ranks: dict[Subgroup, int]
    cross_check_failures: tuple[str, ...]

    @cached_property
    def a_mod_j(self) -> MarksFunctor:
        return a_mod_j_mackey(self.group)

    @cached_property
    def functor(self) -> GreenFunctor:
        return adjoin_x(self.a_mod_j, "pi0")

    @property
    def kernel_cross_check(self) -> bool:
        return not self.cross_check_failures

    def level_summary(self) -> list[dict]:
        return [
            {"subgroup": h.order, "free_rank": r, "torsion": [2] * r, "cyclic_subgroups": r}
            for h, r in self.ranks.items()
        ]

    def to_json(self) -> dict:
        return {
            "group": repr(self.group),
            "ell": self.ell,
            "levels": self.level_summary(),
            "kernel_cross_check": self.kernel_cross_check,
        }


def adjoin_x(functor: GreenFunctor, name: str) -> GreenFunctor:
    """functor tensor Z[x]/(2x, x^2) = Z + Z/2, for a Green functor with free
    levels.

    Generators at each level: the basis b_0 .. b_(r-1) of ``functor``
    followed by the torsion classes x*b_0 .. x*b_(r-1), with relations
    2(x*b_i) = 0.  Restrictions and transfers act by the same integer matrix
    on both blocks; multiplication is (a + xc)(a' + xc') = aa' + x(ac' + a'c),
    so a basis product is b_i b_j, x b_i b_j or x^2 = 0.  The unit is
    (unit, 0).
    """
    ranks = {h: functor.level(h).rank for h in functor.subgroups}

    def basis_product(h: Subgroup, i: int, j: int) -> Pairs:
        r = ranks[h]
        (xi, bi), (xj, bj) = divmod(i, r), divmod(j, r)
        if xi + xj > 1:
            return ()
        shift = r * (xi + xj)
        return tuple((t + shift, c) for t, c in functor.product_table(h)[bi][bj])

    units = {h: tuple(functor.unit(h)) + (0,) * r for h, r in ranks.items()}
    return GreenFunctor(functor.group, *_tensor(functor, (0, 2)), units, basis_product, name)


def assemble_pi0(group: AbelianGroup, ell: int | None = None) -> Pi0Result:
    """A/J with x adjoined (``adjoin_x``), read and cross-checked once per
    isomorphism type of level (``AbelianGroup.level_types``), on which it all
    depends: the rank, sum of count/phi(d) (``counted_cycle_lengths``), and
    the certificate, since an isomorphism carries characters, psi^ell and
    linearization rows across.  One level per type is decomposed, certified
    from its cyclic rows (``fiber.spans_cycle_lattice``) and its cycles
    counted against the rank; a failure is named at each level of the type."""
    if group.order % 2 == 0:
        raise ValueError("the assembled answer requires a group of odd order")
    if ell is None:
        ell = default_ell(group)
    types = group.level_types
    kernels = degree0_kernels(group, ell, [hs[0] for hs in types.values()])
    ranks, wrong = {}, {}  # by type: the rank, the failures
    for key, hs in types.items():
        kernel, ranks[key] = kernels[hs[0]], len(counted_cycle_lengths(hs[0]))
        wrong[key] = [failure for ok, failure in (
            (spans_cycle_lattice(hs[0].dual.cyclic_rows, kernel), "the linearized Burnside lattice is not the kernel"),
            (len(kernel) == ranks[key], f"kernel rank {len(kernel)} != A/J rank {ranks[key]}"),
        ) if not ok]
    subs = group.subgroups()
    return Pi0Result(group=group, ell=ell, ranks={h: ranks[h.order_counts] for h in subs},
                     cross_check_failures=tuple(f"at {h!r}: {f}" for h in subs for f in wrong[h.order_counts]))


# ---------------------------------------------------------------------------
# the degree-1 answer for the cyclic group of order 3


def assemble_pi1_c3() -> MackeyFunctor:
    """A/J tensor (Z/2)^2 (for C3, A/J = A), plus at each level the q-part of
    the degree-2 cokernel at ell = 2: 0 at the bottom and Z/3 on top, which
    restriction kills.

    Generator order at the top level: b_0 @ t0, b_1 @ t0, b_0 @ t1, b_1 @ t1,
    u (b_i the A/J basis, t0 and t1 the generators of (Z/2)^2, u the q-torsion
    class).
    """
    group = AbelianGroup((3,))
    qparts = {h: lv.pi1_q_part for h, lv in fiber_level_data(group, 2).items()}
    top = qparts[group.full_subgroup]
    if len(top) != 1:
        raise ArithmeticError(
            f"the degree-2 cokernel of C3 at ell=2 has 3-part {top}; expected one cyclic factor"
        )
    return MackeyFunctor(group, *_tensor(a_mod_j_mackey(group), (2, 2), qparts), name="pi1_c3")


# ---------------------------------------------------------------------------
# text rendering for cyclic groups


def lewis_diagram(functor: MackeyFunctor) -> str:
    """Levels in a column with labeled restriction/transfer arrows; cyclic
    groups only (the subgroup lattice is then a chain)."""
    subs = sorted(functor.subgroups, key=lambda h: -h.order)
    if any(not h.is_cyclic for h in subs):
        raise ValueError("diagram rendering expects a cyclic group")
    lines = []
    for idx, h in enumerate(subs):
        lvl = functor.level(h)
        desc = f"Z^{lvl.free_rank}" if lvl.free_rank else ""
        for d in lvl.primary_torsion:
            desc += (" + " if desc else "") + f"Z/{d}"
        lines.append(f"  M(G/{'G' if h.order == functor.group.order else h.order}) = {desc or '0'}")
        if idx + 1 < len(subs):
            lines.append("    | res v   ^ tr")
    return "\n".join(lines)
