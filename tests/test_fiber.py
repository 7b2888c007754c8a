import dataclasses
import itertools
import math

import pytest

from kulocal.exact import (
    IntMatrix,
    is_primitive_root,
    kernel_lattice,
    lattice_equal,
    primary_part,
    row_hnf,
    smallest_prime_factor,
    smith_normal_form,
)
from kulocal.fiber import (
    SINGULAR_DEGREE2,
    adams_minus_one,
    default_ell,
    degree2_determinant,
    degree2_invariant_factors,
    determinant_mod_ell_check,
    fiber_level_data,
    group_report,
    kernel_equals_AmodJ,
    restriction_commutes_with_adams,
)
from kulocal.groups import DualLevel, parse_group
from kulocal.reprings import adams_cycles, adams_kernel_basis, adams_minus_one_on


def admissible_ells(g, count=3):
    """The first ``count`` ells >= 2 that are coprime to |G| and primitive
    mod exp(G), then the first such ell <= -2."""
    def ok(ell):
        return math.gcd(ell, g.order) == 1 and is_primitive_root(ell, g.exponent)

    positive = itertools.islice(filter(ok, itertools.count(2)), count)
    negative = next(filter(ok, itertools.count(-2, -1)))
    return [*positive, negative]


def matrix_oracle(dual, ell):
    """Degree-2 invariant factors and det and the degree-0 kernel basis of
    psi^ell - 1, by Smith form, Bareiss det and kernel lattice of its matrix."""
    deg2 = adams_minus_one_on(dual, ell, 2)
    ker = kernel_lattice(adams_minus_one_on(dual, ell, 0))
    return (
        smith_normal_form(deg2).invariant_factors,
        deg2.det(),
        row_hnf([ker.column(j) for j in range(ker.cols)], dual.size),
    )


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
    # doubling the first orbit sum gives a proper sublattice, unequal to the kernel
    doubled = (tuple(2 * x for x in w.rq[0]),) + w.rq[1:]
    bad = dataclasses.replace(w, rq=doubled)
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


def _torsion(report):
    return [d for d in report["pi1_invariant_factors"] if d != 1]


def test_pi1_c3():
    report = group_report(parse_group("C3"), 2)
    assert _torsion(report) == [3]
    assert report["pi1_q_part"] == [3]
    assert report["det_degree2"] == -3


def test_pi1_trivial():
    report = group_report(parse_group("C1"), 2)
    assert report["pi1_invariant_factors"] == [1]
    assert _torsion(report) == []
    assert report["det_degree2"] == 1


def test_pi1_c9_finite_and_nonzero_det():
    report = group_report(parse_group("C9"), 2)
    det = report["det_degree2"]
    assert det != 0
    assert all(d > 0 for d in report["pi1_invariant_factors"])
    # the q-part is recorded as computed data; sanity: q = 3 divides the det
    assert det % 3 == 0


@pytest.mark.parametrize("spec", ["C1", "C3", "C9", "C27", "C3xC3", "C5", "C25", "C7"])
def test_determinant_mod_ell(spec):
    g = parse_group(spec)
    ok, det = determinant_mod_ell_check(g)
    assert ok and det != 0


def test_determinant_check_requires_the_cycle_product(monkeypatch):
    import kulocal.fiber as fiber

    g = parse_group("C9")
    ok, det = determinant_mod_ell_check(g, 2)
    assert ok
    monkeypatch.setattr(fiber, "degree2_determinant", lambda cycles, ell: -det)
    assert determinant_mod_ell_check(g, 2) == (False, det)


@pytest.mark.parametrize("command", ["pi0", "pi1"])
def test_one_cycle_decomposition_per_level(monkeypatch, command):
    import kulocal.fiber as fiber
    import kulocal.reprings as reprings
    from kulocal.mackey import assemble_pi0

    decomposed = []
    original = reprings.adams_cycles

    def counting(dual, ell):
        decomposed.append(dual.subgroup)
        return original(dual, ell)

    for module in (fiber, reprings):
        monkeypatch.setattr(module, "adams_cycles", counting)
    g = parse_group("C3xC3xC9")
    (assemble_pi0 if command == "pi0" else group_report)(g)
    assert len(decomposed) == len(g.subgroups()) == 50
    assert set(decomposed) == set(g.subgroups())


def test_fiber_levels_c9():
    g = parse_group("C9")
    levels = fiber_level_data(g, 2)
    assert len(levels) == 3
    for h, data in levels.items():
        # kernel rank at level H = number of subgroups of H (cyclic H)
        n_cyc = sum(1 for k in g.subgroups() if h.contains(k) and k.is_cyclic)
        assert data.pi0_rank == n_cyc
        assert all(d > 0 for d in data.pi1_invariant_factors)


@pytest.mark.parametrize(
    "spec",
    ["C1", "C3", "C9", "C27", "C81", "C243", "C3xC3", "C3xC9", "C9xC9", "C5xC25", "C3xC3xC3"],
)
def test_cycle_closed_form_matches_matrix_oracle(spec):
    g = parse_group(spec)
    for ell in admissible_ells(g):
        for h in g.subgroups():
            dual = DualLevel(g, h)
            factors, det, kernel = matrix_oracle(dual, ell)
            cycles = adams_cycles(dual, ell)
            assert degree2_invariant_factors(cycles, ell) == factors, (spec, ell, h.order)
            assert degree2_determinant(cycles, ell) == det, (spec, ell, h.order)
            assert adams_kernel_basis(cycles) == kernel, (spec, ell, h.order)


@pytest.mark.parametrize("spec", ["C3", "C9", "C3xC3", "C5xC25"])
@pytest.mark.parametrize("ell", [1, -1])
def test_singular_ell_raises_at_every_entry_point(spec, ell):
    g = parse_group(spec)
    top = DualLevel(g, g.full_subgroup)
    assert adams_minus_one_on(top, ell, 2).det() == 0
    for call in (
        lambda: degree2_invariant_factors(adams_cycles(top, ell), ell),
        lambda: degree2_determinant(adams_cycles(top, ell), ell),
        lambda: fiber_level_data(g, ell),
        lambda: group_report(g, ell),
    ):
        with pytest.raises(ArithmeticError) as err:
            call()
        assert str(err.value) == SINGULAR_DEGREE2
    ok, det = determinant_mod_ell_check(g, ell)
    assert (ok, det) == (False, 0)


@pytest.mark.parametrize("spec", ["C1", "C3", "C9", "C27", "C3xC3", "C3xC9", "C5xC5"])
def test_group_report_matches_reference_path(spec):
    g = parse_group(spec)
    q = smallest_prime_factor(g.order)
    for ell in admissible_ells(g):
        report = group_report(g, ell)
        top_factors, top_det, top_kernel = matrix_oracle(DualLevel(g, g.full_subgroup), ell)
        assert report["pi0_basis"] == [list(r) for r in top_kernel]
        assert report["pi0_rank"] == len(top_kernel)
        assert report["q"] == q
        assert report["pi1_invariant_factors"] == list(top_factors)
        assert report["pi1_q_part"] == list(primary_part(top_factors, q))
        assert report["det_degree2"] == top_det
        assert [entry["subgroup"] for entry in report["levels"]] == [h.order for h in g.subgroups()]
        for entry, h in zip(report["levels"], g.subgroups()):
            factors, _, _ = matrix_oracle(DualLevel(g, h), ell)
            assert entry["pi1_invariant_factors"] == [d for d in factors if d != 1]
            assert entry["pi1_q_part"] == list(primary_part(factors, q))


def test_restriction_functoriality():
    for spec in ["C9", "C3xC3"]:
        g = parse_group(spec)
        assert restriction_commutes_with_adams(g, default_ell(g))


def test_default_ell_values():
    assert default_ell(parse_group("C3")) == 2
    assert default_ell(parse_group("C9")) == 2
    assert default_ell(parse_group("C7")) == 3
    assert default_ell(parse_group("C3xC3")) == 2
