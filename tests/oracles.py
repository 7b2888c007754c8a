"""Reference code that only the tests call.

Brute-force enumerations, element-by-element predicates and serializers that
the tests compare the package against.  No subcommand or demo runs them, so
they live beside the tests rather than in ``kulocal``.
"""

from functools import reduce

from kulocal.burnside import BurnsideRing
from kulocal.exact import Cyclotomic, IntMatrix
from kulocal.groups import AbelianGroup, DualLevel, ExplicitHSet, Subgroup, map_set_orbits
from kulocal.mackey import GreenFunctor, MackeyFunctor, _apply_sparse
from kulocal.reprings import ClassFunction, RURing, dual_permutation, permute

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


def contains_element(h: Subgroup, g) -> bool:
    return bool(h.mask >> h.group.index_of(g) & 1)


def trivial_points(subgroup: Subgroup, n: int) -> ExplicitHSet:
    """n points, each fixed by the whole subgroup."""
    return ExplicitHSet(subgroup, tuple(range(n)), lambda h, p: p)


def fixed_points(x: ExplicitHSet, k: Subgroup) -> int:
    """|X^K| for K <= H."""
    return sum(1 for p in x.points if all(x.act(h, p) == p for h in k.elements))


# -- Burnside rings and A/J --------------------------------------------------


def marks_on_cyclic(ring: BurnsideRing, coeffs) -> tuple:
    """The full marks vector of a Burnside element, kept at the cyclic
    subgroups only."""
    full = ring.marks(coeffs)
    return tuple(full[i] for i, k in enumerate(ring.subgroups) if k.is_cyclic)


# -- representation rings ----------------------------------------------------


def perm_rep_orbit_counts_enumerated(group: AbelianGroup, ell: int) -> dict:
    """The orbit decomposition of the G-set of functions G -> {1..ell} by
    honest enumeration (bounded by ``map_set_orbits``, which refuses more
    than MAP_SET_BOUND maps)."""
    x = trivial_points(group.trivial_subgroup, ell)
    orbits = map_set_orbits(group.full_subgroup, group.trivial_subgroup, x)
    return {h: c for h, c in orbits.items() if c}


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
