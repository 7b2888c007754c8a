"""Mackey and Green functors over a finite abelian group.

A functor is stored levelwise: one finitely generated abelian group per
subgroup, presented as Z^rank modulo a relation lattice, with restriction and
transfer matrices for every containment.  The maps are built on first use
and kept (``MapCache``), so a job that reads only the levels builds none of
them; the axiom checks read, and so build, every one.
Because the ambient group is abelian there is no conjugation data, Weyl
groups are quotients, and the double-coset law collapses to

    res^H_K o tr^H_L = [H : KL] * tr^K_{K&L} o res^L_{K&L}.

A Green functor is given by the products of basis vectors at each level
(``basis_product``), stored once as their nonzero (index, coefficient)
pairs; every functor here is commutative, and ``multiply`` is the one
bilinear extension of those products.

The axiom checks compare the cheap thing first: two maps are equal at once
when their matrices are, two elements when their vectors are; only a
difference is tested against the relation lattice of the target level.

Provided functors: the Burnside functor and its levelwise quotient A/J by the
cyclically-vanishing ideal, both lattices of marks vectors built by one
construction (``_marks_functor``: restriction keeps the marks at the subgroups
of K, transfer scales them by [H : K], the product is pointwise); the
representation-ring functor (``linearization_check`` takes a Burnside and a
representation-ring functor already built and checks the linearization
between them); and two answers built by one construction, A/J
tensored with a sum of cyclic groups (``_tensor``): the degree-0 homotopy of
the K-theoretic localization (``adjoin_x``: A/J tensored with the ring
Z[x]/(2x, x^2); ``tambara.CyclicTower`` applies it to the Burnside functor
of a cyclic group, where J = 0) and the degree-1 answer for the order-3
cyclic group (A/J tensored with (Z/2)^2, plus the q-part of the degree-2
cokernel that ``fiber.fiber_level_data`` computes at each level).  The
geometric piece at a subgroup (level modulo transfers from proper
subgroups) and its rank bookkeeping against the idempotent splitting are
computed for any functor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .burnside import BurnsideRing
from .exact import (
    IntMatrix,
    is_prime,
    kernel_lattice,
    lattice_contains,
    lattice_equal,
    primary_part,
    prime_factors,
    prime_power_part,
    row_hnf,
    smith_normal_form,
)
from .fiber import default_ell, fiber_level_data
from .groups import AbelianGroup, DualLevel, Subgroup

Vector = tuple


@dataclass(frozen=True)
class Level:
    """One level: Z^rank modulo the lattice spanned by ``relations`` rows."""

    subgroup: Subgroup
    rank: int
    relations: tuple[Vector, ...] = ()

    @cached_property
    def relation_hnf(self) -> tuple[Vector, ...]:
        return row_hnf(self.relations, self.rank)

    @cached_property
    def structure(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion invariant factors)."""
        if not self.relations:
            return self.rank, ()
        dec = smith_normal_form(IntMatrix(self.relations, cols=self.rank))
        torsion = tuple(d for d in dec.invariant_factors if d != 1)
        return self.rank - dec.rank, torsion

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
        a - b must lie in the relation lattice, so on a level without
        relations any difference answers False.  Vectors of unequal length
        raise ValueError."""
        if a == b:
            return True
        diff = tuple(x - y for x, y in zip(a, b, strict=True))
        if not any(diff):
            return True
        return bool(self.relations) and lattice_contains(self.relation_hnf, diff)


class MapCache(dict):
    """Restriction or transfer matrices keyed (source, target), each built by
    ``build(source, target)`` on first lookup and kept.

    Only a containment pair of the levels is a key: source contains target
    for restrictions, target contains source for transfers (``up``).  Any
    other key raises KeyError, as a dict holding every map would.
    """

    def __init__(self, levels: dict, build: Callable[[Subgroup, Subgroup], IntMatrix], up: bool):
        super().__init__()
        self._levels = levels
        self._build = build
        self._up = up

    def __missing__(self, key: tuple[Subgroup, Subgroup]) -> IntMatrix:
        src, dst = key
        outer, inner = (dst, src) if self._up else (src, dst)
        if outer not in self._levels or inner not in self._levels or not outer.contains(inner):
            raise KeyError(key)
        matrix = self[key] = self._build(src, dst)
        return matrix


def _lazy_maps(levels: dict, res: Callable, tr: Callable) -> tuple[MapCache, MapCache]:
    """The restriction and transfer caches of ``res(h, k)`` and ``tr(k, h)``."""
    return MapCache(levels, res, up=False), MapCache(levels, tr, up=True)


class MackeyFunctor:
    def __init__(
        self,
        group: AbelianGroup,
        levels: dict[Subgroup, Level],
        res: dict[tuple[Subgroup, Subgroup], IntMatrix],
        tr: dict[tuple[Subgroup, Subgroup], IntMatrix],
        name: str = "",
    ):
        """``res`` and ``tr`` map (H, K) and (K, H) to the matrices for
        K <= H: a ``MapCache``, or a dict holding every containment."""
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

    def maps_equal(self, target: Level, m1: IntMatrix, m2: IntMatrix) -> bool:
        """m1 == m2 as maps into ``target``: equal matrices are equal at once;
        otherwise every column must be equal as an element of the level."""
        if m1.cols != m2.cols or m1.rows != m2.rows:
            return False
        if m1.entries == m2.entries:
            return True
        return all(target.elements_equal(m1.column(j), m2.column(j)) for j in range(m1.cols))

    def check_mackey_axioms(self) -> list[str]:
        """Exhaustive identity/transitivity/double-coset validation.

        Returns the list of violated identities (empty = all axioms hold).
        """
        failures: list[str] = []
        subs = self.subgroups
        for h in subs:
            lvl_h = self.level(h)
            ident = IntMatrix.identity(lvl_h.rank)
            if not self.maps_equal(lvl_h, self.res(h, h), ident):
                failures.append(f"res identity at {h!r}")
            if not self.maps_equal(lvl_h, self.tr(h, h), ident):
                failures.append(f"tr identity at {h!r}")
        for h in subs:
            inside = [k for k in subs if h.contains(k)]
            for k in inside:
                for l in inside:
                    if k.contains(l):
                        # transitivity along L <= K <= H
                        lhs = self.res(k, l) * self.res(h, k)
                        if not self.maps_equal(self.level(l), lhs, self.res(h, l)):
                            failures.append(f"res transitivity {h!r}>{k!r}>{l!r}")
                        lhs = self.tr(k, h) * self.tr(l, k)
                        if not self.maps_equal(self.level(h), lhs, self.tr(l, h)):
                            failures.append(f"tr transitivity {h!r}>{k!r}>{l!r}")
            for k in inside:
                for l in inside:
                    meet = k.intersect(l)
                    lhs = self.res(h, k) * self.tr(l, h)
                    # [H : KL] with |KL| = |K| |L| / |K & L|
                    rhs = (self.tr(meet, k) * self.res(l, meet)).scale(
                        h.order * meet.order // (k.order * l.order)
                    )
                    if not self.maps_equal(self.level(k), lhs, rhs):
                        failures.append(f"double coset at {h!r}: K={k!r} L={l!r}")
        return failures


def _unit_vec(n: int, i: int) -> Vector:
    v = [0] * n
    v[i] = 1
    return tuple(v)


Pairs = tuple  # the nonzero (index, coefficient) pairs of a vector, by index


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


class GreenFunctor(MackeyFunctor):
    """A Mackey functor with a commutative unital product at each level, given
    by the products of basis vectors: ``basis_product(h, i, j)`` is e_i * e_j
    at level H."""

    def __init__(
        self,
        group: AbelianGroup,
        levels: dict[Subgroup, Level],
        res: dict,
        tr: dict,
        units: dict[Subgroup, Vector],
        basis_product: Callable[[Subgroup, int, int], Vector],
        name: str = "",
    ):
        super().__init__(group, levels, res, tr, name)
        self._units = units
        self._basis_product = basis_product
        self._products: dict[Subgroup, list[list[Pairs]]] = {}

    def unit(self, h: Subgroup) -> Vector:
        return self._units[h]

    def product_table(self, h: Subgroup) -> list[list[Pairs]]:
        """e_i * e_j for every pair of basis vectors of the level, as its
        nonzero (index, coefficient) pairs, computed once per level for
        i <= j and mirrored."""
        table = self._products.get(h)
        if table is None:
            n = self.level(h).rank
            table = self._products[h] = [[()] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    table[i][j] = table[j][i] = _pairs(self._basis_product(h, i, j))
        return table

    def _product(self, h: Subgroup, a: Pairs, b: Pairs) -> Vector:
        table = self.product_table(h)
        return _apply_sparse(self.level(h).rank, ((x * y, table[i][j]) for i, x in a for j, y in b))

    def multiply(self, h: Subgroup, a: Sequence[int], b: Sequence[int]) -> Vector:
        """The bilinear extension of the basis products, summed over the
        nonzero coefficients of a and b."""
        return self._product(h, _pairs(a), _pairs(b))

    def check_green_axioms(self) -> list[str]:
        """Restrictions are ring maps; transfers satisfy Frobenius reciprocity.

        Each identity is checked on basis vectors.  Maps act through their
        columns and products through the stored basis products, all as
        nonzero pairs, so each side is a sum over nonzero terms only; the two
        sides are then compared as elements of the target level, equal vectors
        first (``Level.elements_equal``).
        """
        failures: list[str] = []
        subs = self.subgroups
        for h in subs:
            lvl_h = self.level(h)
            n_h = lvl_h.rank
            prod_h = self.product_table(h)
            for k in subs:
                if not h.contains(k) or k == h:
                    continue
                lvl_k = self.level(k)
                n_k = lvl_k.rank
                prod_k = self.product_table(k)
                res, tr = self.res(h, k), self.tr(k, h)
                res_cols = [_pairs(res.column(j)) for j in range(res.cols)]
                tr_cols = [_pairs(tr.column(j)) for j in range(tr.cols)]
                unit = _apply_sparse(n_k, ((c, res_cols[i]) for i, c in _pairs(self.unit(h))))
                if not lvl_k.elements_equal(unit, self.unit(k)):
                    failures.append(f"res not unital {h!r}->{k!r}")
                for i in range(n_h):
                    for j in range(i, n_h):
                        lhs = _apply_sparse(n_k, ((c, res_cols[t]) for t, c in prod_h[i][j]))
                        rhs = self._product(k, res_cols[i], res_cols[j])
                        if not lvl_k.elements_equal(lhs, rhs):
                            failures.append(f"res not multiplicative {h!r}->{k!r} at ({i},{j})")
                # Frobenius: tr(e_i) * e_j = tr(e_i * res(e_j))
                for i in range(n_k):
                    for j in range(n_h):
                        lhs = _apply_sparse(n_h, ((c, prod_h[t][j]) for t, c in tr_cols[i]))
                        down = _apply_sparse(n_k, ((c, prod_k[i][s]) for s, c in res_cols[j]))
                        rhs = _apply_sparse(n_h, ((c, tr_cols[u]) for u, c in enumerate(down) if c))
                        if not lvl_h.elements_equal(lhs, rhs):
                            failures.append(f"Frobenius fails {k!r}<={h!r} at ({i},{j})")
        return failures


# ---------------------------------------------------------------------------
# lattices of marks vectors: the Burnside functor and A/J


def _marks_functor(group: AbelianGroup, lattice: Callable, name: str) -> GreenFunctor:
    """A Green functor whose level at H is a full-rank lattice of marks
    vectors with pointwise product.

    ``lattice(BurnsideRing(group, H))`` gives the column subgroups, the basis
    rows as marks vectors and a coordinates function over those rows.  Marks
    at a subgroup C commute with restriction, so res^H_K keeps the entries at
    K's columns (the columns of H inside K, in the same canonical order);
    tr^H_K scales them by [H : K] and puts 0 at the other columns of H.  The
    unit is the all-ones marks vector.
    """
    subs = group.subgroups()
    columns, basis, coordinates = {}, {}, {}
    for h in subs:
        columns[h], basis[h], coordinates[h] = lattice(BurnsideRing(group, h))
    levels = {h: Level(subgroup=h, rank=len(basis[h])) for h in subs}

    def matrix(dst: Subgroup, images: Sequence[Sequence[int]]) -> IntMatrix:
        return IntMatrix.from_columns([coordinates[dst](v) for v in images], nrows=levels[dst].rank)

    def inside(h: Subgroup, k: Subgroup) -> list[int]:
        return [i for i, c in enumerate(columns[h]) if k.contains(c)]

    def res(h: Subgroup, k: Subgroup) -> IntMatrix:
        cols = inside(h, k)
        return matrix(k, [[b[i] for i in cols] for b in basis[h]])

    def tr(k: Subgroup, h: Subgroup) -> IntMatrix:
        cols, index = inside(h, k), h.order // k.order
        up = []
        for b in basis[k]:
            v = [0] * len(columns[h])
            for i, x in zip(cols, b, strict=True):
                v[i] = index * x
            up.append(v)
        return matrix(h, up)

    def basis_product(h: Subgroup, i: int, j: int) -> Vector:
        return coordinates[h]([x * y for x, y in zip(basis[h][i], basis[h][j], strict=True)])

    units = {h: coordinates[h]((1,) * len(columns[h])) for h in subs}
    return GreenFunctor(group, levels, *_lazy_maps(levels, res, tr), units, basis_product, name)


def burnside_mackey(group: AbelianGroup) -> GreenFunctor:
    """The Burnside functor: at H, the marks of the orbit basis [H/L] (rows of
    the table of marks) on every subgroup of H."""
    return _marks_functor(
        group,
        lambda ring: (ring.subgroups, ring.table_of_marks.entries, ring.element_from_marks),
        "burnside",
    )


def _a_mod_j_lattice(ring: BurnsideRing):
    q = ring.a_mod_j()

    def coordinates(marks: Sequence[int]) -> Vector:
        coords = q.coordinates(marks)
        if coords is None:
            raise ArithmeticError(f"marks {tuple(marks)} lie outside A/J at {ring.level!r}")
        return coords

    return q.cyclic_subgroups, q.basis, coordinates


def a_mod_j_mackey(group: AbelianGroup) -> GreenFunctor:
    """Levelwise quotient by the cyclically-vanishing ideal: at H, the image of
    the marks on the cyclic subgroups of H, in its canonical Hermite basis."""
    return _marks_functor(group, _a_mod_j_lattice, "a_mod_j")


# ---------------------------------------------------------------------------
# the representation-ring Green functor


def ru_mackey(group: AbelianGroup) -> GreenFunctor:
    subs = group.subgroups()
    duals = {h: DualLevel(group, h) for h in subs}
    levels = {h: Level(subgroup=h, rank=duals[h].size) for h in subs}

    def res(h: Subgroup, k: Subgroup) -> IntMatrix:
        # character restriction along K <= H
        d_h, d_k = duals[h], duals[k]
        cols = []
        for a in d_h.reps:
            col = [0] * d_k.size
            col[d_k.index_of(a)] = 1
            cols.append(col)
        return IntMatrix.from_columns(cols, nrows=d_k.size)

    def tr(k: Subgroup, h: Subgroup) -> IntMatrix:
        # induction: the fiber of restriction over each character
        d_h, d_k = duals[h], duals[k]
        cols = [[0] * d_h.size for _ in range(d_k.size)]
        for i, a in enumerate(d_h.reps):
            cols[d_k.index_of(a)][i] = 1
        return IntMatrix.from_columns(cols, nrows=d_h.size)

    def basis_product(h: Subgroup, i: int, j: int) -> Vector:
        d = duals[h]
        return _unit_vec(d.size, d.index_of(d.add(d.reps[i], d.reps[j])))

    units = {h: _unit_vec(duals[h].size, duals[h].index_of(group.identity)) for h in subs}
    return GreenFunctor(group, levels, *_lazy_maps(levels, res, tr), units, basis_product, "ru")


# ---------------------------------------------------------------------------
# linearization as a map of Green functors, and its kernel


@dataclass(frozen=True)
class LinearizationCheck:
    group: AbelianGroup
    commutes_with_res: bool
    commutes_with_tr: bool
    unital: bool
    multiplicative: bool
    kernel_is_ideal_j: bool

    @property
    def ok(self) -> bool:
        return (
            self.commutes_with_res
            and self.commutes_with_tr
            and self.unital
            and self.multiplicative
            and self.kernel_is_ideal_j
        )


def linearization_check(a_fun: GreenFunctor, ru_fun: GreenFunctor) -> LinearizationCheck:
    """The levelwise permutation-representation map from the Burnside functor
    ``a_fun`` to the representation-ring functor ``ru_fun`` of the same group
    is a map of Green functors whose kernel is the cyclically-vanishing ideal."""
    group = a_fun.group
    subs = group.subgroups()
    rings = {h: BurnsideRing(group, h) for h in subs}
    lam = {h: rings[h].linearize_matrix.transpose() for h in subs}

    res_ok = tr_ok = True
    for h in subs:
        for k in subs:
            if not h.contains(k):
                continue
            lhs = lam[k] * a_fun.res(h, k)
            rhs = ru_fun.res(h, k) * lam[h]
            if lhs != rhs:
                res_ok = False
            lhs = lam[h] * a_fun.tr(k, h)
            rhs = ru_fun.tr(k, h) * lam[k]
            if lhs != rhs:
                tr_ok = False

    unital = mult_ok = True
    for h in subs:
        if lam[h].apply(a_fun.unit(h)) != ru_fun.unit(h):
            unital = False
        # row i of the linearize matrix is the image of the i-th orbit
        lin = rings[h].linearize_matrix.entries
        products = a_fun.product_table(h)
        n = len(lin)
        for i in range(n):
            for j in range(i, n):
                image = lam[h].apply(_apply_sparse(n, [(1, products[i][j])]))
                if image != ru_fun.multiply(h, lin[i], lin[j]):
                    mult_ok = False

    kernel_ok = True
    for h in subs:
        ring = rings[h]
        j_rows = ring.ideal_j_rows
        ker = kernel_lattice(lam[h])
        ker_rows = [ker.column(j) for j in range(ker.cols)]
        if not lattice_equal(j_rows, ker_rows, ring.n):
            kernel_ok = False

    return LinearizationCheck(
        group=group,
        commutes_with_res=res_ok,
        commutes_with_tr=tr_ok,
        unital=unital,
        multiplicative=mult_ok,
        kernel_is_ideal_j=kernel_ok,
    )


# ---------------------------------------------------------------------------
# the geometric piece at a subgroup, and the splitting bookkeeping


def maximal_proper_subgroups(h: Subgroup) -> list[Subgroup]:
    group = h.group
    proper = [k for k in group.subgroups() if h.contains(k) and k != h]
    return [
        k
        for k in proper
        if not any(l != k and l.contains(k) for l in proper)
    ]


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
    cols.extend(lvl.relations)
    if not cols:
        return lvl.rank, ()
    mat = IntMatrix.from_columns(cols, nrows=lvl.rank)
    free, torsion = smith_normal_form(mat).cokernel_invariants()
    return free, primary_part(torsion, p)


def idempotent_splitting_check(functor: MackeyFunctor, p: int) -> bool:
    """rank_p(M(G/K)) = sum over H <= K of rank_p(V_H(M)) for every level K."""
    ranks = {h: v_h(functor, h, p)[0] for h in functor.subgroups}
    for k in functor.subgroups:
        total = sum(r for h, r in ranks.items() if k.contains(h))
        if functor.level(k).free_rank != total:
            return False
    return True


# ---------------------------------------------------------------------------
# tensoring a functor with a finitely generated abelian group


def _tensor(
    functor: MackeyFunctor,
    orders: Sequence[int],
    extra: dict[Subgroup, Sequence[int]] | None = None,
) -> tuple[dict, dict, dict]:
    """Levels, restrictions and transfers of functor tensor (+_s Z/orders[s]),
    order 0 meaning Z, for a functor with free levels (A/J's are).  Each map
    is built on first lookup from the same map of ``functor``.

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
        cyclic = [d for d in orders for _ in range(r)] + list(extra.get(h, ()))
        n = len(cyclic)
        relations = tuple(
            tuple(d if j == i else 0 for j in range(n)) for i, d in enumerate(cyclic) if d
        )
        levels[h] = Level(subgroup=h, rank=n, relations=relations)

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

    return levels, *_lazy_maps(levels, res, tr)


# ---------------------------------------------------------------------------
# assembly of the degree-0 answer


@dataclass(frozen=True)
class Pi0Result:
    """(A/J)[x]/(2x, x^2) levelwise: free rank = number of cyclic subgroups of
    the level, with the same count of Z/2 classes, multiplied so x^2 = 0."""

    group: AbelianGroup
    ell: int
    functor: GreenFunctor
    cyclic_counts: dict[Subgroup, int]
    kernel_cross_check: bool

    def level_summary(self) -> list[dict]:
        out = []
        for h in self.functor.subgroups:
            lvl = self.functor.level(h)
            out.append(
                {
                    "subgroup": h.order,
                    "free_rank": lvl.free_rank,
                    "torsion": list(lvl.primary_torsion),
                    "cyclic_subgroups": self.cyclic_counts[h],
                }
            )
        return out

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

    def basis_product(h: Subgroup, i: int, j: int) -> Vector:
        r = ranks[h]
        (xi, bi), (xj, bj) = divmod(i, r), divmod(j, r)
        zero = (0,) * r
        if xi + xj > 1:
            return zero + zero
        prod = _apply_sparse(r, [(1, functor.product_table(h)[bi][bj])])
        return prod + zero if xi + xj == 0 else zero + prod

    units = {h: tuple(functor.unit(h)) + (0,) * r for h, r in ranks.items()}
    return GreenFunctor(functor.group, *_tensor(functor, (0, 2)), units, basis_product, name)


def assemble_pi0(group: AbelianGroup, ell: int | None = None) -> Pi0Result:
    """The quotient functor with x adjoined (``adjoin_x``), its free part
    cross-checked against the degree-0 Adams kernel at every level."""
    if group.order % 2 == 0:
        raise ValueError("the assembled answer requires a group of odd order")
    if ell is None:
        ell = default_ell(group)

    aj = a_mod_j_mackey(group)
    subs = group.subgroups()
    ranks = {h: aj.level(h).rank for h in subs}
    functor = adjoin_x(aj, "pi0")

    # cross-check: at each level the linearized Burnside lattice equals the
    # degree-0 Adams kernel in RU(H), whose cycle indicators are canonical HNF
    level_data = fiber_level_data(group, ell)
    cross = True
    for h in subs:
        ring = BurnsideRing(group, h)
        if row_hnf(ring.linearize_matrix.entries, ring.dual.size) != level_data[h].pi0_basis:
            cross = False
        if len(level_data[h].pi0_basis) != ranks[h]:
            cross = False

    return Pi0Result(
        group=group,
        ell=ell,
        functor=functor,
        cyclic_counts=ranks,
        kernel_cross_check=cross,
    )


# ---------------------------------------------------------------------------
# the degree-1 answer for the cyclic group of order 3


# Primary torsion of the bottom and top levels of the degree-1 answer for C3.
PI1_C3_TORSION = {"bottom": [2, 2], "top": [2, 2, 2, 2, 3]}


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
