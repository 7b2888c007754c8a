import dataclasses
import itertools
import math

import pytest

from kulocal.exact import IntMatrix, is_primitive_root, lattice_equal, row_hnf, smith_normal_form
from kulocal.fiber import (
    adams_minus_one,
    default_ell,
    determinant_mod_ell_check,
    fiber_level_data,
    group_report,
    kernel_equals_AmodJ,
    pi1_level,
    restriction_commutes_with_adams,
)
from kulocal.groups import parse_group


def test_adams_minus_one_degree0_identity_ell():
    g = parse_group("C3")
    m = adams_minus_one(g, 1, 0)
    assert m == IntMatrix.zeros(3, 3)


def test_adams_minus_one_c3_degree2_matches_reference_matrix():
    g = parse_group("C3")
    m = adams_minus_one(g, 2, 2)
    assert [list(r) for r in m.entries] == [[1, 0, 0], [0, -1, 2], [0, 2, -1]]
    dec = smith_normal_form(m)
    assert dec.invariant_factors == (1, 1, 3)


def test_adams_minus_one_c3_degree0():
    g = parse_group("C3")
    m = adams_minus_one(g, 2, 0)
    assert [list(r) for r in m.entries] == [[0, 0, 0], [0, -1, 1], [0, 1, -1]]


def test_adams_minus_one_rejects_noncoprime():
    g = parse_group("C9")
    with pytest.raises(ValueError):
        adams_minus_one(g, 3, 0)


def test_kernel_c3():
    g = parse_group("C3")
    w = kernel_equals_AmodJ(g, 2)
    assert w.ok and w.rank == 2
    assert lattice_equal(w.kernel, [(1, 0, 0), (0, 1, 1)], 3)


def test_kernel_trivial_group():
    g = parse_group("C1")
    w = kernel_equals_AmodJ(g)
    assert w.ok and w.rank == 1
    assert w.kernel == ((1,),)


@pytest.mark.parametrize(
    "spec", ["C3", "C9", "C27", "C3xC3", "C5", "C25", "C7", "C3xC9"]
)
def test_kernel_identification(spec):
    g = parse_group(spec)
    w = kernel_equals_AmodJ(g)
    assert w.ok
    assert w.rank == len(g.cyclic_subgroups())


def test_kernel_witness_reports_differing_rational_lattices():
    w = kernel_equals_AmodJ(parse_group("C9"))
    assert w.ok
    # 2 * (first row) spans a proper sublattice of the orbit-sum lattice
    doubled = (tuple(2 * x for x in w.rq_chi[0]),) + w.rq_chi[1:]
    bad = dataclasses.replace(w, rq_chi=doubled)
    assert not bad.ok
    assert bad.to_json()["lattices_agree"] is False


def test_kernel_rejects_nonprimitive():
    g = parse_group("C7")
    with pytest.raises(ValueError):
        kernel_equals_AmodJ(g, 2)  # 2 has order 3 mod 7


def test_kernel_is_subring_containing_one():
    from kulocal.reprings import RURing

    for spec in ["C9", "C3xC3"]:
        g = parse_group(spec)
        ru = RURing(g)
        w = kernel_equals_AmodJ(g)
        hnf = row_hnf(w.kernel, g.order)
        assert hnf == w.kernel
        from kulocal.exact import lattice_contains

        assert lattice_contains(hnf, ru.one)
        for a in w.kernel:
            for b in w.kernel:
                assert lattice_contains(hnf, ru.multiply(a, b))


def test_pi1_c3():
    g = parse_group("C3")
    data = pi1_level(g, 2)
    assert data.torsion == (3,)
    assert data.q_part == (3,)
    assert data.determinant == -3


def test_pi1_trivial():
    g = parse_group("C1")
    data = pi1_level(g, 2)
    assert data.invariant_factors == (1,)
    assert data.torsion == ()
    assert data.determinant == 1


def test_pi1_c9_finite_and_nonzero_det():
    g = parse_group("C9")
    data = pi1_level(g, 2)
    assert data.determinant != 0
    assert all(d > 0 for d in data.invariant_factors)
    # the q-part is recorded as computed data; sanity: q = 3 divides the det
    assert data.determinant % 3 == 0


@pytest.mark.parametrize("spec", ["C1", "C3", "C9", "C27", "C3xC3", "C5", "C25", "C7"])
def test_determinant_mod_ell(spec):
    g = parse_group(spec)
    ok, det = determinant_mod_ell_check(g)
    assert ok and det != 0


def test_fiber_levels_c9():
    g = parse_group("C9")
    levels = fiber_level_data(g, 2)
    assert len(levels) == 3
    for h, data in levels.items():
        # kernel rank at level H = number of subgroups of H (cyclic H)
        n_cyc = sum(1 for k in g.subgroups() if h.contains(k) and k.is_cyclic)
        assert data.pi0_rank == n_cyc
        assert all(d > 0 for d in data.pi1_invariant_factors)


@pytest.mark.parametrize("spec", ["C1", "C3", "C9", "C27", "C3xC3", "C3xC9", "C5xC5"])
def test_group_report_matches_reference_path(spec):
    g = parse_group(spec)
    admissible = (
        ell for ell in itertools.count(2)
        if math.gcd(ell, g.order) == 1 and is_primitive_root(ell, g.exponent)
    )
    for ell in itertools.islice(admissible, 3):
        report = group_report(g, ell)
        witness = kernel_equals_AmodJ(g, ell)
        assert report["pi0_basis"] == [list(r) for r in witness.kernel]
        assert report["pi0_rank"] == witness.rank
        data = pi1_level(g, ell)
        assert report["q"] == data.q
        assert report["pi1_invariant_factors"] == list(data.invariant_factors)
        assert report["pi1_q_part"] == list(data.q_part)
        assert report["det_degree2"] == data.determinant
        levels = fiber_level_data(g, ell)
        assert [entry["subgroup"] for entry in report["levels"]] == [h.order for h in levels]
        for entry, lv in zip(report["levels"], levels.values()):
            assert entry["pi1_invariant_factors"] == [d for d in lv.pi1_invariant_factors if d != 1]
            assert entry["pi1_q_part"] == list(lv.pi1_q_part)


def test_restriction_functoriality():
    for spec in ["C9", "C3xC3"]:
        g = parse_group(spec)
        assert restriction_commutes_with_adams(g, default_ell(g))


def test_default_ell_values():
    assert default_ell(parse_group("C3")) == 2
    assert default_ell(parse_group("C9")) == 2
    assert default_ell(parse_group("C7")) == 3
    assert default_ell(parse_group("C3xC3")) == 2
