"""Reference code that only the tests call.

Brute-force enumerations, element-by-element predicates and serializers that
the tests compare the package against.  No subcommand or demo runs them, so
they live beside the tests rather than in ``kulocal``.
"""

import math
from functools import reduce

from kulocal.burnside import BurnsideRing
from kulocal.exact import Cyclotomic, IntMatrix, hnf_coordinates, prime_factors, row_hnf
from kulocal.fiber import degree0_kernels, spans_cycle_lattice
from kulocal.groups import AbelianGroup, DualLevel, ExplicitHSet, Subgroup, _lowest_index, map_set_orbits
from kulocal.mackey import GreenFunctor, Level, MackeyFunctor, _apply_sparse, _pairs, _unit_vec, a_mod_j_mackey
from kulocal.reprings import ClassFunction, RURing, adams_cycles, adams_kernel_basis, dual_permutation, permute

# -- exact arithmetic --------------------------------------------------------


def mult_matrix_by_products(a: Cyclotomic) -> IntMatrix:
    """Multiplication by a on the power basis by its definition: column j is
    the cyclotomic product a * zeta^j."""
    d = len(a.coeffs)
    cols = [(a * Cyclotomic.zeta_power(a.conductor, j)).coeffs for j in range(d)]
    return IntMatrix.from_columns(cols, nrows=d)


def unit_product_by_cyclotomic_products(n: int, i: int) -> Cyclotomic:
    """rho_i * rho_{i^{-1} mod n}(x^i) in Z[zeta_n] by its definition: both
    factors reduced to Cyclotomics, then one dense product."""
    inverse = [0] * n
    for t in range(pow(i, -1, n)):
        inverse[i * t % n] += 1
    return Cyclotomic.from_poly(n, [1] * i) * Cyclotomic.from_poly(n, inverse)


def root_of_unity_product_by_factors(k: int) -> Cyclotomic:
    """prod_{i=1}^{k-1} (zeta_k^i - 1) by its definition: k - 1 Cyclotomic
    products, each factor and each partial product reduced mod Phi_k."""
    out = Cyclotomic.one(k)
    for i in range(1, k):
        out = out * (Cyclotomic.zeta_power(k, i) - Cyclotomic.one(k))
    return out


# -- groups and explicit H-sets ----------------------------------------------


def generated_subgroup(group: AbelianGroup, gens) -> Subgroup:
    return Subgroup(group, reduce(group.span, gens, 1))  # identity has index 0


def canonical_key(h: Subgroup) -> tuple:
    """The canonical subgroup order by its definition: the order of H, then
    the tuple of its element indices."""
    indices = tuple(i for i in range(h.group.order) if h.mask >> i & 1)
    return (len(indices), indices)


def subgroups_by_cyclic_fold(group: AbelianGroup) -> tuple[Subgroup, ...]:
    """The subgroup lattice as a fold over the cyclic subgroups, of which
    every subgroup is a join: after the i-th, the set holds every join of the
    first i.  |G| spans for the cyclic subgroups, then one per (join so far,
    cyclic subgroup not inside it) pair; sorted in the canonical order."""
    cyclics = {1: group.identity} | {group.span(1, g): g for g in group.elements[1:]}
    masks = {1}
    for c, g in cyclics.items():
        masks |= {group.span(h, g) for h in masks if c & ~h}
    return tuple(sorted((Subgroup(group, m) for m in masks), key=canonical_key))


def subgroups_all_pairs(h: Subgroup) -> tuple[Subgroup, ...]:
    """The subgroups of H by definition: every subgroup of the group that H
    contains, in canonical order."""
    return tuple(k for k in h.group.subgroups() if h.contains(k))


def maximal_proper_subgroups_all_pairs(h: Subgroup) -> list[Subgroup]:
    """The maximal proper subgroups of H by definition: the proper subgroups
    of H inside no other proper subgroup of H, in canonical order."""
    proper = [k for k in subgroups_all_pairs(h) if k != h]
    return [k for k in proper if not any(l != k and l.contains(k) for l in proper)]


def contains_element(h: Subgroup, g) -> bool:
    return bool(h.mask >> h.group.index_of(g) & 1)


def trivial_points(subgroup: Subgroup, n: int) -> ExplicitHSet:
    """n points, each fixed by the whole subgroup."""
    return ExplicitHSet(subgroup, tuple(range(n)), lambda h, p: p)


def fixed_points(x: ExplicitHSet, k: Subgroup) -> int:
    """|X^K| for K <= H."""
    return sum(1 for p in x.points if all(x.act(h, p) == p for h in k.elements))


# -- Burnside rings and A/J --------------------------------------------------


def table_of_marks_by_containment(ring: BurnsideRing) -> list[list[int]]:
    """The table of marks by definition: M[K][H] = |(level/K)^H|, which is
    [level:K] if H <= K and 0 otherwise, one containment test per pair."""
    order = ring.level.order
    return [[order // k.order if k.contains(h) else 0 for h in ring.subgroups] for k in ring.subgroups]


def marks_by_containment(ring: BurnsideRing, coeffs) -> tuple:
    """The marks of a Burnside element as the dense product with the table."""
    return IntMatrix(table_of_marks_by_containment(ring), cols=ring.n).transpose().apply(coeffs)


def a_mod_j_eager(ring: BurnsideRing) -> tuple[tuple, tuple]:
    """A/J at the ring's level, built at once: the row Hermite form of the
    marks of every orbit at the cyclic subgroups, and the coordinates of the
    all-ones unit over it."""
    n = len(ring.level.cyclic_subgroups)
    basis = row_hnf(ring._cyclic_marks_rows, n)
    return basis, hnf_coordinates(basis, (1,) * n)


def marks_on_cyclic(ring: BurnsideRing, coeffs) -> tuple:
    """The full marks vector of a Burnside element, kept at the cyclic
    subgroups only."""
    full = ring.marks(coeffs)
    return tuple(full[i] for i, k in enumerate(ring.subgroups) if k.is_cyclic)


# -- the degree-0 kernel certificate -------------------------------------------


def pi0_cross_check_every_level(group: AbelianGroup, ell: int) -> tuple[str, ...]:
    """``assemble_pi0``'s cross-check run at every level, from every row of
    the level's linearization, against A/J's rank read off its functor: the
    failures ``Pi0Result.cross_check_failures`` would list."""
    kernels = degree0_kernels(group, ell, group.subgroups())
    aj = a_mod_j_mackey(group)
    failures = []
    for h, ring in aj.rings.items():
        kernel, rank = kernels[h], aj.level(h).rank
        if not spans_cycle_lattice(ring.linearize_matrix.entries, kernel):
            failures.append(f"at {h!r}: the linearized Burnside lattice is not the kernel")
        if len(kernel) != rank:
            failures.append(f"at {h!r}: kernel rank {len(kernel)} != A/J rank {rank}")
    return tuple(failures)


def kernel_identification_all_rows(group: AbelianGroup, ell: int) -> tuple[bool, int]:
    """``KernelWitness.linearized`` from every row of the top level's
    linearization, and ``cyclic_count`` by testing each subgroup."""
    ring = BurnsideRing(group)
    kernel = adams_kernel_basis(adams_cycles(ring.dual, ell))
    return spans_cycle_lattice(ring.linearize_matrix.entries, kernel), len(group.full_subgroup.cyclic_subgroups)


# -- representation rings ----------------------------------------------------


def perm_rep_orbit_counts_enumerated(group: AbelianGroup, ell: int) -> dict:
    """The orbit decomposition of the G-set of functions G -> {1..ell} by
    honest enumeration (bounded by ``map_set_orbits``, which refuses more
    than MAP_SET_BOUND maps)."""
    x = trivial_points(group.trivial_subgroup, ell)
    orbits = map_set_orbits(group.full_subgroup, group.trivial_subgroup, x)
    return {h: c for h, c in orbits.items() if c}


class CosetDualLevel:
    """The character group of H <= G as the cosets of ann(H), each the
    annihilator's mask translated by an element (``AbelianGroup.translate``)
    and named by its lowest element index: the reference that the keyed
    characters of ``DualLevel`` are held to."""

    def __init__(self, group: AbelianGroup, subgroup: Subgroup):
        self.group = group
        self.ann = subgroup.annihilator
        cosets = group.cosets(self.ann.mask, group.full_subgroup.mask)
        self.reps = tuple(group.elements[_lowest_index(c)] for c in cosets)
        self._rep_index = {a: i for i, a in enumerate(self.reps)}

    def canon(self, a) -> tuple:
        return self.group.elements[_lowest_index(self.group.translate(self.ann.mask, a))]

    def index_of(self, a) -> int:
        return self._rep_index[self.canon(a)]

    def permutation(self, ell: int) -> list[int]:
        """psi^ell on the reps: i -> the index of ell times the i-th rep."""
        return [self.index_of(self.group.scale(ell, a)) for a in self.reps]

    def cyclic_rows(self) -> tuple[tuple[int, ...], ...]:
        """The indicator over ``reps`` of each cyclic subgroup <a> + ann,
        largest first, spanned from its first rep; the reps outside its
        subgroups of prime index generate it and are skipped."""
        g, ann = self.group, self.ann.mask
        at = [g.index_of(a) for a in self.reps]
        masks, generated = [], 0
        for a, i in zip(self.reps, at, strict=True):
            if generated >> i & 1:
                continue
            mask = g.span(ann, a)
            order = mask.bit_count() // self.ann.order
            below = (g.span(ann, g.scale(p, a)) for p in prime_factors(order))
            generated |= mask & ~reduce(int.__or__, below, 0)
            masks.append(mask)
        return tuple(tuple(m >> i & 1 for i in at) for m in sorted(masks, key=int.bit_count, reverse=True))


def rational_rep_lattices_units_mod_exponent(group: AbelianGroup) -> tuple:
    """The Galois orbit-sum rows over the coset-built characters, with every
    orbit taken over all the units mod the exponent, in order of lowest
    index."""
    dual = CosetDualLevel(group, group.full_subgroup)
    e = group.exponent
    units = [u for u in range(1, max(e, 2)) if math.gcd(u, e) == 1]
    seen = set()
    sums = []
    for i, a in enumerate(dual.reps):
        if i in seen:
            continue
        orbit = {dual.index_of(group.scale(u, a)) for u in units}
        seen |= orbit
        sums.append(tuple(1 if j in orbit else 0 for j in range(len(dual.reps))))
    return tuple(sums)


def ru_restrict(ru: RURing, v, sub_dual: DualLevel) -> tuple:
    """Character restriction of an element of RU(G) to a subgroup's dual."""
    out = [0] * sub_dual.size
    for a, c in zip(ru.dual.reps, v, strict=True):
        if c:
            out[sub_dual.index_of(a)] += c
    return tuple(out)


def ru_element_json(group: AbelianGroup, v) -> dict:
    ru = RURing(group)
    return {
        "group": repr(group),
        "coeffs_by_dual_element": {
            "-".join(map(str, a)) if a else "0": c
            for a, c in zip(ru.dual.reps, v, strict=True)
            if c
        },
    }


def class_function_json(cf: ClassFunction) -> dict:
    return {
        "conductor": cf.conductor,
        "values": [[str(c) for c in v.coeffs] for v in cf.values],
    }


def restriction_commutes_with_adams(group: AbelianGroup, ell: int) -> bool:
    """res o psi^ell = psi^ell o res on every level (kernel functoriality)."""
    ru = RURing(group)
    top = dual_permutation(ru.dual, ell)
    for h in group.subgroups():
        dual = DualLevel(group, h)
        perm = dual_permutation(dual, ell)
        for a in ru.dual.reps:
            v = ru.basis_element(a)
            if ru_restrict(ru, permute(top, v), dual) != permute(perm, ru_restrict(ru, v, dual)):
                return False
    return True


# -- Mackey functors ---------------------------------------------------------


def functor_json(functor: MackeyFunctor, include_mult: bool = False) -> dict:
    """Every level, unit, restriction and transfer of a functor (and, with
    ``include_mult``, every basis product): the serialization whose digests
    pin the functors."""
    levels = []
    for h in functor.subgroups:
        lvl = functor.level(h)
        entry = {
            "subgroup": h.order,
            "free_rank": lvl.free_rank,
            "torsion": list(lvl.primary_torsion),
        }
        if isinstance(functor, GreenFunctor):
            entry["unit"] = list(functor.unit(h))
            if include_mult:
                entry["mult_tables"] = [
                    [list(_apply_sparse(lvl.rank, [(1, v)])) for v in row] for row in functor.product_table(h)
                ]
        levels.append(entry)
    subs = functor.subgroups
    pairs = [(h, k) for h in subs for k in subs if h != k and h.contains(k)]
    maps = [
        {"from": h.order, "to": k.order, "kind": "res",
         "matrix": [list(r) for r in functor.res(h, k).entries]}
        for h, k in pairs
    ] + [
        {"from": k.order, "to": h.order, "kind": "tr",
         "matrix": [list(r) for r in functor.tr(k, h).entries]}
        for h, k in pairs
    ]
    return {"group": repr(functor.group), "name": functor.name, "levels": levels, "maps": maps}


def maps_equal(target: Level, m1: IntMatrix, m2: IntMatrix) -> bool:
    """m1 == m2 as maps into ``target``: equal matrices are equal at once;
    otherwise every column must be equal as an element of the level."""
    if m1.cols != m2.cols or m1.rows != m2.rows:
        return False
    if m1.entries == m2.entries:
        return True
    return all(target.elements_equal(m1.column(j), m2.column(j)) for j in range(m1.cols))


def mackey_axioms_all_pairs(functor: MackeyFunctor) -> list[str]:
    """The identity, transitivity and double-coset laws on every pair and
    every triple of subgroups, each composite a dense matrix product; the
    failures are named as ``check_mackey_axioms`` names them."""
    failures: list[str] = []
    for h in functor.subgroups:
        lvl_h = functor.level(h)
        ident = IntMatrix.identity(lvl_h.rank)
        if not maps_equal(lvl_h, functor.res(h, h), ident):
            failures.append(f"res identity at {h!r}")
        if not maps_equal(lvl_h, functor.tr(h, h), ident):
            failures.append(f"tr identity at {h!r}")
    for h in functor.subgroups:
        for k in h.subgroups:
            for l in k.subgroups:
                lhs = functor.res(k, l) * functor.res(h, k)
                if not maps_equal(functor.level(l), lhs, functor.res(h, l)):
                    failures.append(f"res transitivity {h!r}>{k!r}>{l!r}")
                lhs = functor.tr(k, h) * functor.tr(l, k)
                if not maps_equal(functor.level(h), lhs, functor.tr(l, h)):
                    failures.append(f"tr transitivity {h!r}>{k!r}>{l!r}")
        for k in h.subgroups:
            for l in h.subgroups:
                meet = k.intersect(l)
                lhs = functor.res(h, k) * functor.tr(l, h)
                # [H : KL], with |KL| = |K| |L| / |K & L|
                rhs = (functor.tr(meet, k) * functor.res(l, meet)).scale(h.order * meet.order // (k.order * l.order))
                if not maps_equal(functor.level(k), lhs, rhs):
                    failures.append(f"double coset at {h!r}: K={k!r} L={l!r}")
    return failures


def green_axioms_all_pairs(functor: GreenFunctor) -> list[str]:
    """The unit law at every level, and restriction unital and
    multiplicative and Frobenius reciprocity on every pair K < H and every
    pair of basis vectors; the failures are named as ``check_green_axioms``
    names them."""
    failures: list[str] = []
    for h in functor.subgroups:
        lvl_h = functor.level(h)
        n_h = lvl_h.rank
        prod_h, unit_h = functor.product_table(h), _pairs(functor.unit(h))
        for i in range(n_h):
            if not lvl_h.elements_equal(functor._product(h, unit_h, ((i, 1),)), _unit_vec(n_h, i)):
                failures.append(f"unit law fails at {h!r}: 1 * e_{i} != e_{i}")
        for k in h.subgroups[:-1]:
            lvl_k = functor.level(k)
            n_k = lvl_k.rank
            prod_k = functor.product_table(k)
            res, tr = functor.res(h, k), functor.tr(k, h)
            res_cols = [_pairs(res.column(j)) for j in range(res.cols)]
            tr_cols = [_pairs(tr.column(j)) for j in range(tr.cols)]
            unit = _apply_sparse(n_k, ((c, res_cols[i]) for i, c in unit_h))
            if not lvl_k.elements_equal(unit, functor.unit(k)):
                failures.append(f"res not unital {h!r}->{k!r}")
            for i in range(n_h):
                for j in range(i, n_h):
                    lhs = _apply_sparse(n_k, ((c, res_cols[t]) for t, c in prod_h[i][j]))
                    rhs = functor._product(k, res_cols[i], res_cols[j])
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
