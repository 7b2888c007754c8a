"""Mackey and Green functors over a finite abelian group.

A functor is stored levelwise: one finitely generated abelian group per
subgroup, presented as Z^rank modulo a relation lattice, with restriction and
transfer matrices for every containment.  Because the ambient group is
abelian there is no conjugation data, Weyl groups are quotients, and the
double-coset law collapses to

    res^H_K o tr^H_L = [H : KL] * tr^K_{K&L} o res^L_{K&L}.

Provided functors: the Burnside functor, the representation-ring functor,
their levelwise quotient by the cyclically-vanishing ideal, the degree-0
homotopy of the K-theoretic localization (the quotient tensored with
Z[x]/(2x, x^2)), and the degree-1 answer for the order-3 cyclic group.  The
geometric piece at a subgroup (level modulo transfers from proper subgroups)
and its rank bookkeeping against the idempotent splitting are computed for
any functor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .burnside import AModJ, BurnsideRing
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
from .fiber import default_ell, fiber_level_data, pi1_level
from .groups import AbelianGroup, DualLevel, Subgroup
from .reprings import dual_multiply

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
        diff = tuple(x - y for x, y in zip(a, b))
        if not any(diff):
            return True
        return lattice_contains(self.relation_hnf, diff)


def _compose(m2: IntMatrix, m1: IntMatrix) -> IntMatrix:
    """m2 o m1, exploiting column sparsity (res/tr matrices are sparse)."""
    if m2.cols != m1.rows:
        raise ValueError("shape mismatch")
    m2cols = [m2.column(j) for j in range(m2.cols)]
    cols = []
    for j in range(m1.cols):
        col = [0] * m2.rows
        for i in range(m1.rows):
            c = m1.entries[i][j]
            if c:
                src = m2cols[i]
                for r in range(m2.rows):
                    if src[r]:
                        col[r] += c * src[r]
        cols.append(col)
    return IntMatrix.from_columns(cols, nrows=m2.rows)


class MackeyFunctor:
    def __init__(
        self,
        group: AbelianGroup,
        levels: dict[Subgroup, Level],
        res: dict[tuple[Subgroup, Subgroup], IntMatrix],
        tr: dict[tuple[Subgroup, Subgroup], IntMatrix],
        name: str = "",
    ):
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
        if m1.cols != m2.cols or m1.rows != m2.rows:
            return False
        for j in range(m1.cols):
            if not target.elements_equal(m1.column(j), m2.column(j)):
                return False
        return True

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
                        lhs = _compose(self.res(k, l), self.res(h, k))
                        if not self.maps_equal(self.level(l), lhs, self.res(h, l)):
                            failures.append(f"res transitivity {h!r}>{k!r}>{l!r}")
                        lhs = _compose(self.tr(k, h), self.tr(l, k))
                        if not self.maps_equal(self.level(h), lhs, self.tr(l, h)):
                            failures.append(f"tr transitivity {h!r}>{k!r}>{l!r}")
            for k in inside:
                for l in inside:
                    meet = k.intersect(l)
                    lhs = _compose(self.res(h, k), self.tr(l, h))
                    # [H : KL] with |KL| = |K| |L| / |K & L|
                    rhs = _compose(self.tr(meet, k), self.res(l, meet)).scale(
                        h.order * meet.order // (k.order * l.order)
                    )
                    if not self.maps_equal(self.level(k), lhs, rhs):
                        failures.append(f"double coset at {h!r}: K={k!r} L={l!r}")
        return failures

    def to_json(self, include_mult: bool = False) -> dict:
        levels = []
        for h in self.subgroups:
            lvl = self.level(h)
            entry = {
                "subgroup": h.order,
                "free_rank": lvl.free_rank,
                "torsion": list(lvl.primary_torsion),
            }
            if isinstance(self, GreenFunctor):
                entry["unit"] = list(self.unit(h))
                if include_mult:
                    n = lvl.rank
                    entry["mult_tables"] = [
                        [list(self.multiply(h, _unit_vec(n, i), _unit_vec(n, j))) for j in range(n)]
                        for i in range(n)
                    ]
            levels.append(entry)
        maps = []
        for (h, k), m in self._res.items():
            if h != k:
                maps.append(
                    {"from": h.order, "to": k.order, "kind": "res", "matrix": [list(r) for r in m.entries]}
                )
        for (k, h), m in self._tr.items():
            if h != k:
                maps.append(
                    {"from": k.order, "to": h.order, "kind": "tr", "matrix": [list(r) for r in m.entries]}
                )
        return {"group": repr(self.group), "name": self.name, "levels": levels, "maps": maps}


def _unit_vec(n: int, i: int) -> Vector:
    v = [0] * n
    v[i] = 1
    return tuple(v)


def _apply_sparse(columns: Sequence[Vector], v: Sequence[int]) -> Vector:
    """sum_i v_i * columns[i], skipping zero coefficients."""
    nrows = len(columns[0]) if columns else 0
    out = [0] * nrows
    for i, c in enumerate(v):
        if c:
            col = columns[i]
            for r in range(nrows):
                if col[r]:
                    out[r] += c * col[r]
    return tuple(out)


class GreenFunctor(MackeyFunctor):
    def __init__(
        self,
        group: AbelianGroup,
        levels: dict[Subgroup, Level],
        res: dict,
        tr: dict,
        units: dict[Subgroup, Vector],
        multiply: Callable[[Subgroup, Sequence[int], Sequence[int]], Vector],
        name: str = "",
    ):
        super().__init__(group, levels, res, tr, name)
        self._units = units
        self._multiply = multiply

    def unit(self, h: Subgroup) -> Vector:
        return self._units[h]

    def multiply(self, h: Subgroup, a: Sequence[int], b: Sequence[int]) -> Vector:
        return self._multiply(h, a, b)

    def check_green_axioms(self) -> list[str]:
        """Restrictions are ring maps; transfers satisfy Frobenius reciprocity.

        Applies maps through column lookups and sparse sums so the exhaustive
        basis-pair loops stay cheap on the larger representation-ring levels.
        """
        failures: list[str] = []
        subs = self.subgroups
        for h in subs:
            lvl_h = self.level(h)
            n_h = lvl_h.rank
            for k in subs:
                if not h.contains(k) or k == h:
                    continue
                lvl_k = self.level(k)
                res = self.res(h, k)
                tr = self.tr(k, h)
                res_cols = [res.column(j) for j in range(res.cols)]
                tr_cols = [tr.column(j) for j in range(tr.cols)]
                if not lvl_k.elements_equal(_apply_sparse(res_cols, self.unit(h)), self.unit(k)):
                    failures.append(f"res not unital {h!r}->{k!r}")
                for i in range(n_h):
                    for j in range(i, n_h):
                        lhs = _apply_sparse(
                            res_cols, self.multiply(h, _unit_vec(n_h, i), _unit_vec(n_h, j))
                        )
                        rhs = self.multiply(k, res_cols[i], res_cols[j])
                        if not lvl_k.elements_equal(lhs, rhs):
                            failures.append(f"res not multiplicative {h!r}->{k!r} at ({i},{j})")
                # Frobenius: tr(a) * b = tr(a * res(b))
                n_k = lvl_k.rank
                for i in range(n_k):
                    a = _unit_vec(n_k, i)
                    for j in range(n_h):
                        b = _unit_vec(n_h, j)
                        lhs = self.multiply(h, tr_cols[i], b)
                        rhs = _apply_sparse(tr_cols, self.multiply(k, a, res_cols[j]))
                        if not lvl_h.elements_equal(lhs, rhs):
                            failures.append(f"Frobenius fails {k!r}<={h!r} at ({i},{j})")
        return failures


# ---------------------------------------------------------------------------
# the Burnside Green functor


def burnside_mackey(group: AbelianGroup) -> GreenFunctor:
    subs = group.subgroups()
    rings = {h: BurnsideRing(group, h) for h in subs}
    levels = {h: Level(subgroup=h, rank=rings[h].n) for h in subs}
    res: dict = {}
    tr: dict = {}
    for h in subs:
        ring_h = rings[h]
        for k in subs:
            if not h.contains(k):
                continue
            ring_k = rings[k]
            # res^H_K [H/L] = [H : KL] [K / (K & L)]
            cols = []
            for l in ring_h.subgroups:
                meet = k.intersect(l)
                col = [0] * ring_k.n
                col[ring_k.sub_index(meet)] = h.order * meet.order // (k.order * l.order)
                cols.append(col)
            res[(h, k)] = IntMatrix.from_columns(cols, nrows=ring_k.n)
            # tr^H_K [K/L] = [H/L]
            cols = []
            for l in ring_k.subgroups:
                col = [0] * ring_h.n
                col[ring_h.sub_index(l)] = 1
                cols.append(col)
            tr[(k, h)] = IntMatrix.from_columns(cols, nrows=ring_h.n)

    def multiply(h: Subgroup, a, b) -> Vector:
        return rings[h].multiply(a, b)

    return GreenFunctor(
        group=group,
        levels=levels,
        res=res,
        tr=tr,
        units={h: rings[h].one for h in subs},
        multiply=multiply,
        name="burnside",
    )


# ---------------------------------------------------------------------------
# the representation-ring Green functor


def ru_mackey(group: AbelianGroup) -> GreenFunctor:
    subs = group.subgroups()
    duals = {h: DualLevel(group, h) for h in subs}
    levels = {h: Level(subgroup=h, rank=duals[h].size) for h in subs}
    res: dict = {}
    tr: dict = {}
    for h in subs:
        d_h = duals[h]
        for k in subs:
            if not h.contains(k):
                continue
            d_k = duals[k]
            # restriction: character restriction along K <= H
            cols = []
            for a in d_h.reps:
                col = [0] * d_k.size
                col[d_k.index_of(a)] = 1
                cols.append(col)
            res[(h, k)] = IntMatrix.from_columns(cols, nrows=d_k.size)
            # transfer: induction; the fiber of restriction over each character
            cols = [[0] * d_h.size for _ in range(d_k.size)]
            for i, a in enumerate(d_h.reps):
                cols[d_k.index_of(a)][i] = 1
            tr[(k, h)] = IntMatrix.from_columns(cols, nrows=d_h.size)

    def multiply(h: Subgroup, v, w) -> Vector:
        return dual_multiply(duals[h], v, w)

    units = {}
    for h in subs:
        units[h] = _unit_vec(duals[h].size, duals[h].index_of(group.identity))

    return GreenFunctor(
        group=group,
        levels=levels,
        res=res,
        tr=tr,
        units=units,
        multiply=multiply,
        name="ru",
    )


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


def linearization_check(group: AbelianGroup) -> LinearizationCheck:
    """The levelwise permutation-representation map is a map of Green
    functors whose kernel is the cyclically-vanishing ideal."""
    a_fun = burnside_mackey(group)
    ru_fun = ru_mackey(group)
    subs = group.subgroups()
    rings = {h: BurnsideRing(group, h) for h in subs}
    lam = {h: rings[h].linearize_matrix.transpose() for h in subs}

    res_ok = tr_ok = True
    for h in subs:
        for k in subs:
            if not h.contains(k):
                continue
            lhs = _compose(lam[k], a_fun.res(h, k))
            rhs = _compose(ru_fun.res(h, k), lam[h])
            if lhs != rhs:
                res_ok = False
            lhs = _compose(lam[h], a_fun.tr(k, h))
            rhs = _compose(ru_fun.tr(k, h), lam[k])
            if lhs != rhs:
                tr_ok = False

    unital = mult_ok = True
    for h in subs:
        ring = rings[h]
        if lam[h].apply(ring.one) != ru_fun.unit(h):
            unital = False
        n = ring.n
        for i in range(n):
            for j in range(i, n):
                lhs = lam[h].apply(ring.multiply(_unit_vec(n, i), _unit_vec(n, j)))
                rhs = ru_fun.multiply(h, lam[h].apply(_unit_vec(n, i)), lam[h].apply(_unit_vec(n, j)))
                if lhs != tuple(rhs):
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
# the quotient functor A/J


def a_mod_j_mackey(group: AbelianGroup) -> GreenFunctor:
    """Levelwise quotient by the cyclically-vanishing ideal, in the canonical
    marks-image basis at every level.

    A/J at H is the image of the marks on the cyclic subgroups of H.  Marks
    at a subgroup C commute with restriction, so res^H_K keeps the entries at
    the cyclic subgroups of K; tr^H_K scales them by [H : K] and puts 0 at
    the other cyclic subgroups of H.
    """
    subs = group.subgroups()
    quots: dict[Subgroup, AModJ] = {h: BurnsideRing(group, h).a_mod_j() for h in subs}

    levels = {h: Level(subgroup=h, rank=quots[h].rank) for h in subs}

    def coordinates(q: AModJ, marks: Sequence[int]) -> Vector:
        coords = q.coordinates(marks)
        if coords is None:
            raise ArithmeticError(f"marks {tuple(marks)} lie outside A/J at {q.ring.level!r}")
        return coords

    def matrix(dst: Subgroup, images: Sequence[Sequence[int]]) -> IntMatrix:
        cols = [coordinates(quots[dst], v) for v in images]
        return IntMatrix.from_columns(cols, nrows=quots[dst].rank)

    res: dict = {}
    tr: dict = {}
    for h in subs:
        n_h = len(quots[h].cyclic_subgroups)
        for k in subs:
            if not h.contains(k):
                continue
            # positions of K's cyclic subgroups among H's (both canonical order)
            inside = [i for i, c in enumerate(quots[h].cyclic_subgroups) if k.contains(c)]
            res[(h, k)] = matrix(k, [[b[i] for i in inside] for b in quots[h].basis])
            index = h.order // k.order
            up = []
            for b in quots[k].basis:
                v = [0] * n_h
                for i, x in zip(inside, b):
                    v[i] = index * x
                up.append(v)
            tr[(k, h)] = matrix(h, up)

    def multiply(h: Subgroup, a, b) -> Vector:
        q = quots[h]
        va = [sum(c * row[j] for c, row in zip(a, q.basis)) for j in range(len(q.cyclic_subgroups))]
        vb = [sum(c * row[j] for c, row in zip(b, q.basis)) for j in range(len(q.cyclic_subgroups))]
        return coordinates(q, tuple(x * y for x, y in zip(va, vb)))

    units = {h: coordinates(quots[h], quots[h].one) for h in subs}

    return GreenFunctor(
        group=group,
        levels=levels,
        res=res,
        tr=tr,
        units=units,
        multiply=multiply,
        name="a_mod_j",
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


def assemble_pi0(group: AbelianGroup, ell: int | None = None) -> Pi0Result:
    """Tensor the quotient functor with Z[x]/(2x, x^2) and cross-check its
    free part against the degree-0 Adams kernel at every level.

    Generators at each level: the quotient basis b_i followed by the torsion
    classes x*b_i with relations 2(x*b_i) = 0.  Restrictions and transfers
    act by the same integer matrix on both blocks; multiplication is
    (a + xc)(a' + xc') = aa' + x(ac' + a'c).
    """
    if group.order % 2 == 0:
        raise ValueError("the assembled answer requires a group of odd order")
    if ell is None:
        ell = default_ell(group)

    aj = a_mod_j_mackey(group)
    subs = group.subgroups()
    ranks = {h: aj.level(h).rank for h in subs}

    levels = {}
    for h in subs:
        r = ranks[h]
        relations = tuple(
            tuple(2 if j == r + i else 0 for j in range(2 * r)) for i in range(r)
        )
        levels[h] = Level(subgroup=h, rank=2 * r, relations=relations)

    def block_diag(m: IntMatrix) -> IntMatrix:
        rows = []
        for row in m.entries:
            rows.append(list(row) + [0] * m.cols)
        for row in m.entries:
            rows.append([0] * m.cols + list(row))
        return IntMatrix(rows, cols=2 * m.cols)

    res = {}
    tr = {}
    for h in subs:
        for k in subs:
            if not h.contains(k):
                continue
            res[(h, k)] = block_diag(aj.res(h, k))
            tr[(k, h)] = block_diag(aj.tr(k, h))

    def multiply(h: Subgroup, a, b) -> Vector:
        r = ranks[h]
        a0, a1 = a[:r], a[r:]
        b0, b1 = b[:r], b[r:]
        free = aj.multiply(h, a0, b0)
        x_part = tuple(
            x + y for x, y in zip(aj.multiply(h, a0, b1), aj.multiply(h, a1, b0))
        )
        return tuple(free) + x_part

    units = {h: tuple(aj.unit(h)) + (0,) * ranks[h] for h in subs}

    functor = GreenFunctor(
        group=group,
        levels=levels,
        res=res,
        tr=tr,
        units=units,
        multiply=multiply,
        name="pi0",
    )

    # cross-check: at each level the linearized Burnside lattice equals the
    # degree-0 Adams kernel inside the level's representation ring
    level_data = fiber_level_data(group, ell)
    cross = True
    for h in subs:
        ring = BurnsideRing(group, h)
        if not lattice_equal(ring.linearize_matrix.entries, level_data[h].pi0_basis, ring.dual.size):
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


def assemble_pi1_c3() -> MackeyFunctor:
    """Levels: (Z/2)^2 at the bottom and A(C3) tensor (Z/2)^2 plus a Z/3 class
    on top; the Z/3 is produced by the degree-2 cokernel computation, not
    hard-coded, and dies under restriction.

    Generator order at the top level: [C3/C3] @ t0, [C3/C3] @ t1,
    [C3/e] @ t0, [C3/e] @ t1, u  (u the q-torsion class).
    """
    group = AbelianGroup((3,))
    triv = group.trivial_subgroup
    whole = group.full_subgroup

    qpart = pi1_level(group, 2).q_part
    if len(qpart) != 1:
        raise ArithmeticError(
            f"the degree-2 cokernel of C3 at ell=2 has 3-part {qpart}; expected one cyclic factor"
        )
    order_u = qpart[0]

    level_e = Level(subgroup=triv, rank=2, relations=((2, 0), (0, 2)))
    rels_top = tuple(
        tuple((2 if i < 4 else order_u) if j == i else 0 for j in range(5))
        for i in range(5)
    )
    level_top = Level(subgroup=whole, rank=5, relations=rels_top)

    ident2 = IntMatrix.identity(2)
    # res: [C3/C3] -> [e/e], [C3/e] -> 3 [e/e], u -> 0
    res_top = IntMatrix(
        [
            [1, 0, 3, 0, 0],
            [0, 1, 0, 3, 0],
        ],
        cols=5,
    )
    # tr: [e/e] @ tj -> [C3/e] @ tj
    tr_up = IntMatrix(
        [
            [0, 0],
            [0, 0],
            [1, 0],
            [0, 1],
            [0, 0],
        ],
        cols=2,
    )
    ident5 = IntMatrix.identity(5)

    return MackeyFunctor(
        group=group,
        levels={triv: level_e, whole: level_top},
        res={(whole, triv): res_top, (whole, whole): ident5, (triv, triv): ident2},
        tr={(triv, whole): tr_up, (whole, whole): ident5, (triv, triv): ident2},
        name="pi1_c3",
    )


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
            k = subs[idx + 1]
            lines.append("    | res v   ^ tr")
    return "\n".join(lines)
