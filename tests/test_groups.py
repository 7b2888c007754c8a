import math
import os
import random
from functools import reduce

import pytest

from kulocal.groups import (
    AbelianGroup,
    DualLevel,
    ExplicitHSet,
    Subgroup,
    map_set_orbits,
    parse_group,
)
from oracles import (
    contains_element,
    fixed_points,
    generated_subgroup,
    subgroups_all_pairs,
    subgroups_by_cyclic_fold,
    trivial_points,
)

SEED = int(os.environ.get("TEST_SEED", "20240801"))

ORACLE_GROUPS = [
    "C1", "C3", "C9", "C27", "C81", "C243", "C3xC3", "C3xC9", "C9xC9", "C5xC25",
    "C3xC3xC3", "C3xC3xC9", "C3xC3xC3xC3", "C15", "C45", "C3xC15", "C2xC4", "C6xC6",
]


# -- element-by-element references for the shift primitive -------------------


def _mask_of(g, els):
    return sum(1 << g.index_of(x) for x in set(els))


def _closure(g, start, gens):
    """Smallest superset of ``start`` closed under adding each of ``gens``."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        cur = frontier.pop()
        for x in gens:
            nxt = g.add(cur, x)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _reference_subgroup_masks(g):
    """Join-closure of the cyclic subgroups by |H| |K| element sums, in the
    canonical (order, element-index tuple) order."""
    cyclics = {_mask_of(g, _closure(g, [g.identity], [x])) for x in g.elements}

    def elements(mask):
        return [x for i, x in enumerate(g.elements) if mask >> i & 1]

    masks, frontier = set(cyclics), set(cyclics)
    while frontier:
        new = set()
        for m1 in frontier:
            for m2 in cyclics:
                joined = _mask_of(g, [g.add(a, b) for a in elements(m1) for b in elements(m2)])
                if joined not in masks:
                    masks.add(joined)
                    new.add(joined)
        frontier = new
    return sorted(masks, key=lambda m: (bin(m).count("1"), [i for i in range(g.order) if m >> i & 1]))


def _reference_annihilator(g, h):
    """ann(H) by its definition: every element of G paired with every element of H."""
    return [a for a in g.elements if all(g.dual_pairing(a, x) == 0 for x in h.elements)]


def _reference_dual_cosets(g, h):
    """The cosets of ann(H) in G as element sets, keyed by their minimal-index
    representative, in index order."""
    ann = _reference_annihilator(g, h)
    cosets = {}
    for a in g.elements:
        if not any(a in c for c in cosets.values()):
            coset = {g.add(a, t) for t in ann}
            cosets[min(coset, key=g.index_of)] = coset
    return dict(sorted(cosets.items(), key=lambda kv: g.index_of(kv[0])))


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_subgroups_match_element_sum_closure(spec):
    g = parse_group(spec)
    assert [h.mask for h in g.subgroups()] == _reference_subgroup_masks(g)


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_is_cyclic_matches_element_orders(spec):
    # H is cyclic iff one of its elements has order |H|
    g = parse_group(spec)
    for h in g.subgroups():
        assert h.is_cyclic == any(g.element_order(x) == h.order for x in h.elements), h.elements
    assert g.full_subgroup.cyclic_subgroups == tuple(h for h in g.subgroups() if h.is_cyclic)


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_order_masks_and_level_types(spec):
    # order_masks against element_order; two subgroups share a type key
    # exactly when they have the same |n H| for every n dividing exp(G),
    # which fixes a finite abelian group up to isomorphism
    g = parse_group(spec)
    orders = [g.element_order(x) for x in g.elements]
    assert g.order_masks == {d: sum(1 << i for i, o in enumerate(orders) if o == d) for d in dict.fromkeys(orders)}
    divisors = [n for n in range(1, g.exponent + 1) if g.exponent % n == 0]
    sizes = {key: {tuple(len({g.scale(n, x) for x in h.elements}) for n in divisors) for h in hs}
             for key, hs in g.level_types.items()}
    assert all(len(s) == 1 for s in sizes.values())
    assert len({s.pop() for s in sizes.values()}) == len(sizes)
    # every subgroup once, each type in canonical order
    canonical = g.subgroups().index
    assert sorted((h for hs in g.level_types.values() for h in hs), key=canonical) == list(g.subgroups())
    assert all(hs == sorted(hs, key=canonical) for hs in g.level_types.values())


@pytest.mark.parametrize(
    "spec", ["C27", "C243", "C3xC3xC3", "C9xC9", "C3xC3xC9", "C5xC5xC5", "C3xC3xC3xC9"]
)
def test_down_sets_match_all_pairs(spec):
    # each subgroup's down-set is every subgroup it contains, in canonical
    # order and ending with itself, whichever instance of H is asked
    g = parse_group(spec)
    for h in g.subgroups():
        assert h.subgroups == subgroups_all_pairs(h)
        assert h.subgroups[-1] is h
        assert Subgroup(g, h.mask).subgroups == h.subgroups
        assert h.cyclic_subgroups == tuple(k for k in h.subgroups if k.is_cyclic)


@pytest.mark.parametrize("spec", ORACLE_GROUPS + ["C3xC3xC3xC9", "C9xC9xC9", "C12xC18", "C2xC4xC8"])
def test_subgroups_match_cyclic_fold(spec):
    # the same subgroups, masks and order as the fold over cyclic subgroups
    factors = parse_group(spec).factors
    assert AbelianGroup(factors).subgroups() == subgroups_by_cyclic_fold(AbelianGroup(factors))


def test_subgroup_hermite_span_count(monkeypatch):
    # each Hermite row with d_i < n_i adds one span to the mask of the rows
    # below it: one span per nontrivial subgroup, within rank(G) per subgroup
    calls = []
    original = AbelianGroup.span

    def counting(self, mask, x):
        calls.append(x)
        return original(self, mask, x)

    monkeypatch.setattr(AbelianGroup, "span", counting)
    g = AbelianGroup((3, 3, 3, 3))  # fresh instance: no cached lattice
    assert len(g.subgroups()) == 212
    assert len(calls) == 211 <= 4 * 212


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_annihilators_match_all_pairs_definition(spec):
    g = parse_group(spec)
    for h in g.subgroups():
        assert h.annihilator.mask == _mask_of(g, _reference_annihilator(g, h)), h.elements
        assert h.annihilator.order * h.order == g.order


def _generator_loop_annihilator(g, h):
    """ann(H) as the elements a with <a, x> = 0 for each greedily picked
    generator x of H, one dual_pairing call per element and generator."""
    gens, span = [], 1
    while span != h.mask:
        rest = h.mask & ~span
        gens.append(g.elements[(rest & -rest).bit_length() - 1])  # lowest element outside
        span = g.span(span, gens[-1])
    return [a for a in g.elements if all(g.dual_pairing(a, x) == 0 for x in gens)]


@pytest.mark.parametrize("spec", ["C3xC3xC3xC3", "C9xC9xC9"])
def test_annihilators_match_generator_loop(spec):
    g = AbelianGroup(parse_group(spec).factors)
    for h in g.subgroups():
        assert h.annihilator.mask == _mask_of(g, _generator_loop_annihilator(g, h)), h.elements


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_pairing_kernel_matches_dual_pairing(spec):
    g = parse_group(spec)
    for x in g.elements:
        mask = g.pairing_kernel(x)
        assert g.pairing_row(x) == [g.dual_pairing(a, x) for a in g.elements], x
        for i, a in enumerate(g.elements):
            assert (mask >> i & 1) == (g.dual_pairing(a, x) == 0), (a, x)
        assert mask >> g.order == 0


def test_annihilator_makes_no_dual_pairing_call(monkeypatch):
    def refuse(self, a, g):
        raise AssertionError("dual_pairing called")

    monkeypatch.setattr(AbelianGroup, "dual_pairing", refuse)
    g = AbelianGroup((3, 3, 9))  # fresh instance: no cached annihilators
    assert all(h.annihilator.order * h.order == g.order for h in g.subgroups())


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_dual_levels_match_coset_sets(spec):
    g = parse_group(spec)
    for h in g.subgroups():
        dual = DualLevel(g, h)
        cosets = _reference_dual_cosets(g, h)
        assert dual.reps == tuple(cosets)
        for rep, coset in cosets.items():
            assert all(dual.canon(a) == rep for a in coset)


def _gaussian_binomial(n, k, p):
    num = math.prod(p ** (n - i) - 1 for i in range(k))
    den = math.prod(p ** (i + 1) - 1 for i in range(k))
    return num // den


@pytest.mark.parametrize(
    "p,n", [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 6)] + [(5, n) for n in range(1, 5)]
)
def test_elementary_abelian_counts_are_gaussian_binomial_sums(p, n):
    # (3, 5) has 2664 subgroups and (5, 4) 1120
    g = AbelianGroup((p,) * n)
    assert len(g.subgroups()) == sum(_gaussian_binomial(n, k, p) for k in range(n + 1))


def test_c9xc9xc9_subgroup_count():
    assert len(parse_group("C9xC9xC9").subgroups()) == 445


@pytest.mark.parametrize(
    "spec", ["C1", "C2", "C9", "C15", "C45", "C2xC4", "C3xC9", "C6xC6", "C3xC15", "C3xC3xC3"]
)
def test_translate_matches_elementwise_add(spec):
    g = parse_group(spec)
    rng = random.Random(SEED)
    for _ in range(40):
        mask = rng.getrandbits(g.order)
        x = rng.choice(g.elements)
        shifted = [g.add(a, x) for i, a in enumerate(g.elements) if mask >> i & 1]
        assert g.translate(mask, x) == _mask_of(g, shifted)
        unreduced = tuple(c + n * rng.randint(-2, 2) for c, n in zip(x, g.factors))
        assert g.translate(mask, unreduced) == g.translate(mask, x)


@pytest.mark.parametrize(
    "spec", ["C1", "C9", "C15", "C45", "C2xC4", "C3xC9", "C6xC6", "C3xC15", "C3xC3xC3"]
)
def test_span_matches_closure(spec):
    g = parse_group(spec)
    rng = random.Random(SEED + 1)
    subs = g.subgroups()
    for _ in range(40):
        h = rng.choice(subs)
        x = rng.choice(g.elements)
        assert g.span(h.mask, x) == _mask_of(g, _closure(g, h.elements, [x]))
        gens = rng.sample(g.elements, min(3, g.order))
        assert generated_subgroup(g, gens).mask == _mask_of(g, _closure(g, [g.identity], gens))


def test_coset_points_are_translated_masks():
    g = parse_group("C3xC9")
    h = g.full_subgroup
    j = [s for s in g.subgroups() if s.order == 3][1]
    x = ExplicitHSet.from_orbits(h, [(j, 2)])
    assert x.size() == 18
    cosets = [p[2] for p in x.points[:9]]
    assert sum(cosets) == h.mask  # disjoint cosets covering H
    assert cosets == sorted(cosets, key=lambda c: (c & -c))
    for p in x.points:
        coset = [a for i, a in enumerate(g.elements) if p[2] >> i & 1]
        for y in g.elements:
            assert x.act(y, p)[2] == _mask_of(g, [g.add(y, a) for a in coset])


def test_parse_group():
    assert parse_group("C9").factors == (9,)
    assert parse_group("C3xC3").factors == (3, 3)
    assert parse_group("C1").factors == ()
    with pytest.raises(ValueError):
        parse_group("D8")


def test_order_exponent():
    g = parse_group("C3xC9")
    assert g.order == 27 and g.exponent == 9
    assert parse_group("C1").order == 1


def test_element_order():
    g = parse_group("C3xC9")
    assert g.element_order((0, 0)) == 1
    assert g.element_order((1, 0)) == 3
    assert g.element_order((1, 3)) == 3
    assert g.element_order((0, 1)) == 9


@pytest.mark.parametrize(
    "spec,count",
    [
        ("C1", 1),
        ("C9", 3),           # divisor lattice of 9
        ("C27", 4),
        ("C3xC3", 6),        # trivial, four lines, whole
        ("C5", 2),
        ("C3xC3xC3", 28),    # 1 + 13 + 13 + 1
    ],
)
def test_subgroup_counts(spec, count):
    assert len(parse_group(spec).subgroups()) == count


def test_cyclic_prime_power_counts():
    # C_{q^k} has k+1 subgroups; C_q x C_q has q+3
    for q, k in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]:
        assert len(AbelianGroup((q ** k,)).subgroups()) == k + 1
    for q in [3, 5]:
        assert len(AbelianGroup((q, q)).subgroups()) == q + 3


@pytest.mark.parametrize("spec", ["C3xC9", "C3xC3xC3", "C5xC25"])
def test_join_order_from_intersection(spec):
    # |KL| |K & L| = |K| |L|: the Mackey functors take [H : KL] from orders
    subs = parse_group(spec).subgroups()
    for k in subs:
        for l in subs:
            assert k.join(l).order * k.intersect(l).order == k.order * l.order


def test_subgroups_closed_and_ordered():
    g = parse_group("C3xC9")
    subs = g.subgroups()
    orders = [h.order for h in subs]
    assert orders == sorted(orders)
    for h in subs:
        for a in h.elements:
            for b in h.elements:
                assert contains_element(h, g.sub(a, b))


def test_subgroup_bound():
    g = AbelianGroup((2048,))
    with pytest.raises(ValueError):
        g.subgroups()


def test_dual_pairing_nondegenerate():
    for spec in ["C3", "C9", "C3xC3", "C3xC9"]:
        g = parse_group(spec)
        e = g.exponent
        for a in g.elements:
            if a == g.identity:
                assert all(g.dual_pairing(a, x) == 0 for x in g.elements)
            else:
                assert any(g.dual_pairing(a, x) != 0 for x in g.elements)
        # biadditive
        for a in g.elements[:4]:
            for x in g.elements[:4]:
                for y in g.elements[:4]:
                    assert (
                        g.dual_pairing(a, g.add(x, y))
                        == (g.dual_pairing(a, x) + g.dual_pairing(a, y)) % e
                    )


def test_dual_pairing_orthogonal_coordinates():
    g = parse_group("C3xC3")
    assert g.dual_pairing((1, 0), (0, 1)) == 0
    assert g.dual_pairing((1, 0), (1, 0)) == 1


def test_annihilator():
    g = parse_group("C9")
    c3 = [s for s in g.subgroups() if s.order == 3][0]
    ann = c3.annihilator
    assert ann.order == 3  # annihilator of C3 in C9 has order 9/3
    assert sorted(ann.elements) == [(0,), (3,), (6,)]


def test_subgroup_reprs_name_their_generators():
    g = parse_group("C3xC3")
    reprs = [repr(h) for h in g.subgroups() if h.order == 3]
    assert len(reprs) == len(set(reprs)) == 4
    assert "Subgroup(order=3 of C3xC3, <(0, 1)>)" in reprs
    for h in g.subgroups():
        assert reduce(g.span, h.generators, 1) == h.mask


def test_subgroup_repr_past_the_enumeration_bound():
    g = AbelianGroup((3,) * 7)  # order 2187 > SUBGROUP_ENUM_BOUND
    assert repr(g.full_subgroup).startswith("Subgroup(order=2187 of C3xC3xC3xC3xC3xC3xC3, <")


def test_is_cyclic_past_the_enumeration_bound(monkeypatch):
    def refuse(self):
        raise AssertionError("subgroups enumerated")

    monkeypatch.setattr(AbelianGroup, "subgroups", refuse)
    g = AbelianGroup((3,) * 7)  # order 2187 > SUBGROUP_ENUM_BOUND
    e = [tuple(int(i == j) for j in range(7)) for i in range(7)]
    assert generated_subgroup(g, [g.add(e[0], e[6])]).is_cyclic
    assert generated_subgroup(g, [e[0], g.scale(2, e[0])]).is_cyclic
    assert not generated_subgroup(g, [e[0], e[6]]).is_cyclic
    assert not g.full_subgroup.is_cyclic
    assert g.trivial_subgroup.is_cyclic


def test_map_set_whole_group_is_identityish():
    # Map_G(G, X) has the same orbit type as X itself
    g = parse_group("C3")
    whole = g.full_subgroup
    x = ExplicitHSet.from_orbits(whole, [(g.trivial_subgroup, 1)])
    orbits = map_set_orbits(whole, whole, x)
    assert orbits == {g.trivial_subgroup: 1}


def test_map_set_c3_two_points():
    # 2^3 = 8 maps C3 -> {0,1}: 2 fixed points and 2 free orbits
    g = parse_group("C3")
    whole = g.full_subgroup
    x = trivial_points(g.trivial_subgroup, 2)
    orbits = map_set_orbits(whole, g.trivial_subgroup, x)
    assert orbits[whole] == 2
    assert orbits[g.trivial_subgroup] == 2
    # marks: 8 total points, 2 fixed
    total = sum(count * (g.order // stab.order) for stab, count in orbits.items())
    fixed = orbits.get(whole, 0)
    assert (total, fixed) == (8, 2)


def test_map_set_empty():
    g = parse_group("C3")
    x = trivial_points(g.trivial_subgroup, 0)
    assert map_set_orbits(g.full_subgroup, g.trivial_subgroup, x) == {}


def test_map_set_size_bound():
    g = parse_group("C27")
    x = trivial_points(g.trivial_subgroup, 3)
    with pytest.raises(ValueError):
        map_set_orbits(g.full_subgroup, g.trivial_subgroup, x)


def _marks_of_orbits(group, orbits, k):
    """|(sum of orbits)^K| computed from orbit types."""
    total = 0
    for stab, count in orbits.items():
        # |(G/S)^K| = [G:S] if K <= S else 0 for abelian groups
        total += count * (group.order // stab.order if stab.contains(k) else 0)
    return total


@pytest.mark.parametrize("spec", ["C3", "C9", "C3xC3", "C27"])
def test_map_set_marks_identity(spec):
    # |Map_H(G,X)^K| = |X^{H n K}|^{[G : HK]}
    g = parse_group(spec)
    subs = g.subgroups()
    checked = 0
    for h in subs:
        for xsize in range(4):
            x = trivial_points(h, xsize)
            if xsize ** (g.order // h.order) > 10 ** 5:
                continue
            orbits = map_set_orbits(g.full_subgroup, h, x)
            total = sum(count * g.order // stab.order for stab, count in orbits.items())
            assert total == xsize ** (g.order // h.order)
            for k in subs:
                hk = h.join(k)
                expected = fixed_points(x, h.intersect(k)) ** (g.order // hk.order)
                assert _marks_of_orbits(g, orbits, k) == expected
                checked += 1
    assert checked > 0


def test_map_set_nontrivial_action():
    # X = H/J for J of index 3 in H = C9: Map_H(G, X) with G = C9 is X again
    g = parse_group("C9")
    h = g.full_subgroup
    j = [s for s in g.subgroups() if s.order == 3][0]
    x = ExplicitHSet.from_orbits(h, [(j, 2)])
    orbits = map_set_orbits(h, h, x)
    assert orbits == {j: 2}


@pytest.mark.parametrize("spec", ["C9", "C3xC3"])
def test_map_set_marks_identity_nontrivial_sets(spec):
    # the marks identity with genuinely acting H-sets (orbit mixtures), not
    # just trivial points
    import itertools

    g = parse_group(spec)
    subs = g.subgroups()
    checked = 0
    for h in subs:
        h_subs = [s for s in subs if h.contains(s)]
        for counts in itertools.product(range(2), repeat=len(h_subs)):
            orbit_spec = [(s, c) for s, c in zip(h_subs, counts)]
            size = sum(c * h.order // s.order for s, c in orbit_spec)
            if not 0 < size <= 3:
                continue
            if size ** (g.order // h.order) > 10 ** 5:
                continue
            x = ExplicitHSet.from_orbits(h, orbit_spec)
            orbits = map_set_orbits(g.full_subgroup, h, x)
            for k in subs:
                hk = h.join(k)
                expected = fixed_points(x, h.intersect(k)) ** (g.order // hk.order)
                assert _marks_of_orbits(g, orbits, k) == expected
                checked += 1
    assert checked > 0
