import math
import os
import random

import pytest

from kulocal.burnside import BurnsideRing
from kulocal.exact import Cyclotomic, is_primitive_root, row_hnf
from kulocal.groups import DualLevel, parse_group
from kulocal.reprings import (
    RURing,
    adams_cycles,
    adams_kernel_basis,
    dual_permutation,
    perm_rep,
    perm_rep_orbit_counts,
    perm_rep_orbit_counts_enumerated,
    permute,
    rational_rep_lattices,
)
from test_groups import ORACLE_GROUPS

SEED = int(os.environ.get("TEST_SEED", "20240801"))


def test_character_trivial_and_regular():
    ru = RURing(parse_group("C3"))
    chi = ru.character(ru.one)
    assert chi.rational_values() == (1, 1, 1)

    chi_rho = ru.character(ru.regular_rep)
    assert chi_rho.values[0] == 3
    assert chi_rho.values[1].is_zero() and chi_rho.values[2].is_zero()


def test_character_x_plus_x2():
    g = parse_group("C3")
    ru = RURing(g)
    v = ru.add(ru.basis_element((1,)), ru.basis_element((2,)))
    chi = ru.character(v)
    assert chi.values[0] == 2
    assert chi.values[1] == -1  # zeta + zeta^2 = -1
    assert chi.values[2] == -1


@pytest.mark.parametrize("spec", ["C3", "C9", "C3xC3"])
def test_character_injective_ring_hom(spec):
    rng = random.Random(SEED)
    g = parse_group(spec)
    ru = RURing(g)
    for _ in range(15):
        v = tuple(rng.randint(-3, 3) for _ in range(ru.n))
        w = tuple(rng.randint(-3, 3) for _ in range(ru.n))
        cv, cw = ru.character(v), ru.character(w)
        cprod = ru.character(ru.multiply(v, w))
        assert all(
            a * b == c for a, b, c in zip(cv.values, cw.values, cprod.values)
        )
    # injectivity on a sample: distinct elements give distinct characters
    vs = {tuple(rng.randint(-2, 2) for _ in range(ru.n)) for _ in range(20)}
    chars = {tuple(hash(c) for c in ru.character(v).values): v for v in vs}
    assert len(chars) == len(vs)


def test_adams_basics():
    g = parse_group("C3")
    ru = RURing(g)
    x = ru.basis_element((1,))
    assert ru.adams(1, x) == x
    assert ru.adams(2, x) == ru.basis_element((2,))

    g9 = parse_group("C9")
    ru9 = RURing(g9)
    assert ru9.adams(2, ru9.basis_element((1,))) == ru9.basis_element((2,))
    assert ru9.adams(2, ru9.basis_element((3,))) == ru9.basis_element((6,))


@pytest.mark.parametrize("spec", ["C3", "C9", "C3xC3"])
def test_adams_composition_and_hom(spec):
    rng = random.Random(SEED + 1)
    g = parse_group(spec)
    ru = RURing(g)
    e = g.exponent
    for ell, m in [(2, 2), (2, 5), (4, 7)]:
        for _ in range(10):
            v = tuple(rng.randint(-3, 3) for _ in range(ru.n))
            w = tuple(rng.randint(-3, 3) for _ in range(ru.n))
            assert ru.adams(ell, ru.adams(m, v)) == ru.adams((ell * m) % e if e > 1 else 1, v)
            assert ru.adams(ell, ru.multiply(v, w)) == ru.multiply(
                ru.adams(ell, v), ru.adams(ell, w)
            )


def test_adams_character_identity():
    # chi(psi^l v)(g) = chi(v)(g^l)
    g = parse_group("C9")
    ru = RURing(g)
    rng = random.Random(SEED + 2)
    for ell in [2, 4, 5]:
        v = tuple(rng.randint(-2, 2) for _ in range(ru.n))
        lhs = ru.character(ru.adams(ell, v))
        rhs_vals = [ru.character(v).value(g.scale(ell, x)) for x in g.elements]
        assert list(lhs.values) == rhs_vals


def test_euler_class():
    g = parse_group("C3")
    ru = RURing(g)
    assert all(c == 0 for c in ru.euler_class(ru.one))
    x = ru.basis_element((1,))
    assert ru.euler_class(x) == tuple(
        a - b for a, b in zip(x, ru.one)
    )
    # reduced regular representation of C3: (x-1)(x^2-1) = 2 - x - x^2
    rho_bar = (0, 1, 1)
    assert ru.euler_class(rho_bar) == (2, -1, -1)
    with pytest.raises(ValueError):
        ru.euler_class((-1, 1, 0))


def test_perm_rep_character():
    g = parse_group("C3")
    v = perm_rep(g, 2)
    ru = RURing(g)
    chi = ru.character(v)
    assert chi.rational_values() == (8, 2, 2)

    assert perm_rep(g, 1) == ru.one

    triv = parse_group("C1")
    assert perm_rep(triv, 5) == (5,)


@pytest.mark.parametrize("spec,ell", [("C3", 2), ("C3", 3), ("C9", 2), ("C3xC3", 2)])
def test_perm_rep_enumeration_agrees(spec, ell):
    g = parse_group(spec)
    assert perm_rep_orbit_counts(g, ell) == perm_rep_orbit_counts_enumerated(g, ell)


def test_perm_rep_orbit_counts_refuse_a_negative_count(monkeypatch):
    monkeypatch.setattr(BurnsideRing, "element_from_marks", lambda self, marks: (2, -1))
    with pytest.raises(ArithmeticError, match="not all nonnegative"):
        perm_rep_orbit_counts(parse_group("C3"), 2)


def test_perm_rep_enumeration_refuses_large_sets():
    # 2^25 maps: map_set_orbits checks the count before it enumerates any
    with pytest.raises(ValueError, match="size 33554432 exceeds bound"):
        perm_rep_orbit_counts_enumerated(parse_group("C25"), 2)


@pytest.mark.parametrize("spec,ell", [("C5", 2), ("C9", 3), ("C27", 2), ("C3xC9", 2)])
def test_perm_rep_character_formula(spec, ell):
    g = parse_group(spec)
    ru = RURing(g)
    chi = ru.character(perm_rep(g, ell))
    for x in g.elements:
        assert chi.value(x) == ell ** (g.order // g.element_order(x))


@pytest.mark.parametrize(
    "spec,rank",
    [("C1", 1), ("C3", 2), ("C9", 3), ("C27", 4), ("C3xC3", 6 - 1), ("C5", 2)],
)
def test_rational_lattices(spec, rank):
    g = parse_group(spec)
    lat = rational_rep_lattices(g)
    assert len(lat) == rank == len(g.cyclic_subgroups())


def test_rational_lattice_c3_basis():
    g = parse_group("C3")
    assert rational_rep_lattices(g) == ((1, 0, 0), (0, 1, 1))


RATIONAL_LATTICE_GROUPS = [
    "C1", "C3", "C9", "C27", "C81", "C243",
    "C3xC3", "C3xC9", "C9xC9", "C5xC25", "C3xC3xC3",
]


@pytest.mark.parametrize("spec", RATIONAL_LATTICE_GROUPS)
def test_rational_lattice_is_fixed_by_every_unit(spec):
    g = parse_group(spec)
    dual = DualLevel(g, g.full_subgroup)
    e = g.exponent
    lat = rational_rep_lattices(g)
    for u in range(1, max(e, 2)):
        if math.gcd(u, e) == 1:
            perm = dual_permutation(dual, u)
            for row in lat:
                assert permute(perm, row) == row


@pytest.mark.parametrize("spec", RATIONAL_LATTICE_GROUPS)
def test_rational_lattice_has_rational_characters(spec):
    g = parse_group(spec)
    ru = RURing(g)
    for row in rational_rep_lattices(g):
        assert all(v.is_rational() for v in ru.character(row).values)


@pytest.mark.parametrize("spec", RATIONAL_LATTICE_GROUPS)
def test_adams_kernel_is_the_rational_lattice_for_every_primitive_root(spec):
    # the Galois orbits are the cycles of any generator of the units
    g = parse_group(spec)
    dual = DualLevel(g, g.full_subgroup)
    e = g.exponent
    ells = [ell for ell in range(1, max(e, 2)) if is_primitive_root(ell, e)]
    assert ells
    lat = rational_rep_lattices(g)
    for ell in ells:
        assert adams_kernel_basis(adams_cycles(dual, ell)) == lat


def _unit_ells(g):
    """Every ell in 1..exp(G) coprime to |G| (psi^ell depends only on ell mod
    the exponent, so these are all of them), then the first such ell <= -2."""
    positive = [ell for ell in range(1, g.exponent + 1) if math.gcd(ell, g.order) == 1]
    return positive + [next(ell for ell in range(-2, -g.order - 3, -1) if math.gcd(ell, g.order) == 1)]


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_cycle_indicators_are_canonical_hnf(spec):
    # row_hnf is the oracle: it must return the indicator rows unchanged
    g = parse_group(spec)
    for h in g.subgroups():
        dual = DualLevel(g, h)
        for ell in _unit_ells(g):
            rows = adams_kernel_basis(adams_cycles(dual, ell))
            assert row_hnf(rows, dual.size) == rows, (spec, h.order, ell)
    rows = rational_rep_lattices(g)
    assert row_hnf(rows, g.order) == rows


@pytest.mark.parametrize("spec", ["C3", "C9", "C3xC3"])
def test_character_of_linearization_counts_fixed_points(spec):
    # chi(linearize([G/H]))(g) = |(G/H)^g| = [G:H] if g in H else 0
    from kulocal.burnside import BurnsideRing

    g = parse_group(spec)
    r = BurnsideRing(g)
    ru = RURing(g)
    for h in r.subgroups:
        chi = ru.character(r.linearize(r.basis_element(h)))
        for x in g.elements:
            expected = g.order // h.order if h.contains_element(x) else 0
            assert chi.value(x) == expected


def test_json_serializers():
    import json

    from kulocal.reprings import ru_element_json

    g = parse_group("C3")
    ru = RURing(g)
    blob = ru_element_json(g, ru.regular_rep)
    assert json.loads(json.dumps(blob)) == blob
    cf = ru.character(ru.regular_rep).to_json()
    assert cf["conductor"] == 3
    assert json.loads(json.dumps(cf)) == cf


def test_psi_fixes_permutation_characters():
    # linearizations of Burnside elements are fixed by every coprime Adams op
    from kulocal.burnside import BurnsideRing

    for spec in ["C3", "C9", "C3xC3"]:
        g = parse_group(spec)
        r = BurnsideRing(g)
        ru = RURing(g)
        for k in r.subgroups:
            lin = r.linearize(r.basis_element(k))
            for ell in range(2, 10):
                import math

                if math.gcd(ell, g.order) == 1:
                    assert ru.adams(ell, lin) == lin


def test_adams_cycles_partition_the_dual_basis():
    for spec, ell in [("C1", 2), ("C9", 2), ("C9", -7), ("C3xC9", 2), ("C5xC5", 3)]:
        g = parse_group(spec)
        for h in g.subgroups():
            dual = DualLevel(g, h)
            perm = dual_permutation(dual, ell)
            cycles = adams_cycles(dual, ell)
            assert sorted(i for c in cycles for i in c) == list(range(dual.size))
            assert [c[0] for c in cycles] == sorted(min(c) for c in cycles)
            for c in cycles:
                assert [perm[i] for i in c] == [*c[1:], c[0]]


def test_adams_cycles_reject_a_non_unit_ell():
    g = parse_group("C9")
    with pytest.raises(ValueError, match="does not permute"):
        adams_cycles(DualLevel(g, g.full_subgroup), 3)
