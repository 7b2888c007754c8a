import math

import pytest

from kulocal.groups import (
    AbelianGroup,
    ExplicitHSet,
    map_set_orbits,
    parse_group,
)


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
                assert h.contains_element(g.sub(a, b))


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
    x = ExplicitHSet.trivial_points(g.trivial_subgroup, 2)
    orbits = map_set_orbits(whole, g.trivial_subgroup, x)
    assert orbits[whole] == 2
    assert orbits[g.trivial_subgroup] == 2
    # marks: 8 total points, 2 fixed
    total = sum(count * (g.order // stab.order) for stab, count in orbits.items())
    fixed = orbits.get(whole, 0)
    assert (total, fixed) == (8, 2)


def test_map_set_empty():
    g = parse_group("C3")
    x = ExplicitHSet.trivial_points(g.trivial_subgroup, 0)
    assert map_set_orbits(g.full_subgroup, g.trivial_subgroup, x) == {}


def test_map_set_size_bound():
    g = parse_group("C27")
    x = ExplicitHSet.trivial_points(g.trivial_subgroup, 3)
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
            x = ExplicitHSet.trivial_points(h, xsize)
            if xsize ** (g.order // h.order) > 10 ** 5:
                continue
            orbits = map_set_orbits(g.full_subgroup, h, x)
            total = sum(count * g.order // stab.order for stab, count in orbits.items())
            assert total == xsize ** (g.order // h.order)
            for k in subs:
                hk = h.join(k)
                expected = x.fixed_points(h.intersect(k)) ** (g.order // hk.order)
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
                expected = x.fixed_points(h.intersect(k)) ** (g.order // hk.order)
                assert _marks_of_orbits(g, orbits, k) == expected
                checked += 1
    assert checked > 0
