import dataclasses
import itertools
import math

import pytest

from kulocal.burnside import BurnsideRing
from kulocal.exact import (
    IntMatrix,
    hnf_coordinates,
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
    counted_cycle_lengths,
    default_ell,
    degree0_kernels,
    degree2_determinant,
    degree2_invariant_factors,
    determinant_mod_ell_check,
    fiber_level_data,
    group_report,
    kernel_equals_AmodJ,
    spans_cycle_lattice,
)
from kulocal.groups import DualLevel, parse_group
from kulocal.reprings import adams_cycles, adams_kernel_basis, adams_minus_one_on
from kulocal.mackey import assemble_pi0
from oracles import kernel_identification_all_rows, pi0_cross_check_every_level, restriction_commutes_with_adams


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
    assert w.rank == len(g.full_subgroup.cyclic_subgroups)


def test_kernel_witness_reports_differing_rational_lattices():
    w = kernel_equals_AmodJ(parse_group("C9"))
    assert w.ok
    # doubling the first orbit sum gives a proper sublattice, unequal to the kernel
    doubled = (tuple(2 * x for x in w.rq[0]),) + w.rq[1:]
    bad = dataclasses.replace(w, rq=doubled)
    assert not bad.ok
    assert bad.to_json()["lattices_agree"] is False
    assert bad.failures == ["the rational lattice is not the kernel"]


def test_kernel_witness_names_each_failing_comparison():
    w = kernel_equals_AmodJ(parse_group("C9"))
    assert w.failures == []
    assert dataclasses.replace(w, linearized=False).failures == [
        "the linearized Burnside lattice is not the kernel"
    ]
    assert dataclasses.replace(w, cyclic_count=4).failures == ["kernel rank 3 != 4 cyclic subgroups"]


CERTIFICATE_GROUPS = [
    "C1", "C3", "C9", "C27", "C81", "C3xC3", "C3xC9", "C9xC9", "C5xC25",
    "C3xC3xC3", "C3xC3xC9", "C15", "C45",
]


@pytest.mark.parametrize("spec", CERTIFICATE_GROUPS)
def test_cycle_certificate_matches_hermite_oracle(spec):
    # at every level and every ell in [-60, 60] coprime to |G|, the
    # certificate agrees with comparing the Hermite form of the linearization
    # rows to the cycle indicators; an ell that is not primitive at the level
    # splits the cycles, and then the lattices differ
    g = parse_group(spec)
    outcomes = set()
    for h in g.subgroups():
        ring = BurnsideRing(g, h)
        rows = ring.linearize_matrix.entries
        hnf = row_hnf(rows, ring.dual.size)
        for ell in range(-60, 61):
            if math.gcd(ell, g.order) != 1:
                continue
            kernel = adams_kernel_basis(adams_cycles(ring.dual, ell))
            equal = hnf == kernel
            assert spans_cycle_lattice(rows, kernel) == equal, (spec, h, ell)
            outcomes.add(equal)
    assert outcomes == ({True} if g.order == 1 else {True, False})


# the ladder and the six groups of the benchmark's lattice workload
ORACLE_GROUPS = ["C27", "C81", "C243", "C3xC3xC3", "C9xC9", "C3xC3xC9", "C5xC5xC5", "C5xC25", "C3xC27"]


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_cyclic_rows_certify_as_every_row_does(spec):
    # at every level: the cyclic rows are rows of the linearization, and
    # for every coprime ell in [-12, 12], primitive or not, they certify
    # the level's cycles exactly when all the rows do, and exactly when the
    # cyclic rows of the first level of its type certify that level's cycles
    g = parse_group(spec)
    outcomes = set()
    for h in g.subgroups():
        rows = BurnsideRing(g, h).linearize_matrix.entries
        cyclic, rep = h.dual.cyclic_rows, g.level_types[h.order_counts][0]
        assert set(cyclic) <= set(rows), (spec, h)
        assert len(cyclic) == len(h.cyclic_subgroups), (spec, h)
        for ell in range(-12, 13):
            if math.gcd(ell, g.order) != 1:
                continue
            kernel = adams_kernel_basis(adams_cycles(h.dual, ell))
            rep_kernel = adams_kernel_basis(adams_cycles(rep.dual, ell))
            certified = spans_cycle_lattice(cyclic, kernel)
            assert certified == spans_cycle_lattice(rows, kernel), (spec, h, ell)
            assert certified == spans_cycle_lattice(rep.dual.cyclic_rows, rep_kernel), (spec, h, ell)
            outcomes.add(certified)
    assert outcomes == {True, False}


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_pi0_cross_check_matches_the_every_level_oracle(spec):
    # pi0 certifies one level per type from its cyclic rows and reads ranks
    # off element orders; the oracle certifies every level from all its rows
    # and reads ranks off the A/J and pi0 functors
    g = parse_group(spec)
    result = assemble_pi0(g)
    assert result.cross_check_failures == pi0_cross_check_every_level(g, result.ell) == ()
    assert result.level_summary() == [
        {
            "subgroup": h.order,
            "free_rank": result.functor.level(h).free_rank,
            "torsion": list(result.functor.level(h).primary_torsion),
            "cyclic_subgroups": result.a_mod_j.level(h).rank,
        }
        for h in g.subgroups()
    ]


@pytest.mark.parametrize("spec", [*ORACLE_GROUPS, "C3xC3xC3xC3xC3"])
def test_kernel_identification_matches_the_all_rows_oracle(spec):
    g = parse_group(spec)
    w = kernel_equals_AmodJ(g)
    assert (w.linearized, w.cyclic_count) == kernel_identification_all_rows(g, w.ell) == (True, w.rank)


@pytest.mark.parametrize("rows", [
    [(1, 0, 0), (0, 1, 0)],  # not constant on the cycle {1, 2}
    [(1, 1, 1), (1, 1, 1)],  # both cycles last covered by row 1
    [(0, 1, 1)],             # no row covers the cycle {0}
    [(1, 1, 1), (2, 0, 0)],  # the last cover of {0} is 2 there, not +-1
])
def test_cycle_certificate_rejects(rows):
    kernel = ((1, 0, 0), (0, 1, 1))
    assert row_hnf(rows, 3) != kernel
    assert not spans_cycle_lattice(rows, kernel)


def test_cycle_certificate_accepts_unitriangular_last_covers():
    # the last covers, rows 1 and 2, are unitriangular over the indicators
    kernel = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1))
    rows = [(0, 0, 0, 0), (1, 0, 1, 1), (0, 1, 1, 1), (0, 0, 1, 1)]
    assert row_hnf(rows, 4) == kernel
    assert spans_cycle_lattice(rows, kernel)


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
        assert hnf_coordinates(hnf, ru.one) is not None
        for a in w.kernel:
            for b in w.kernel:
                assert hnf_coordinates(hnf, ru.multiply(a, b)) is not None


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
    # pi0 decomposes one level per isomorphism type, the first of its type
    # in canonical order; pi1 only the top one and counts the rest
    import kulocal.fiber as fiber
    import kulocal.reprings as reprings

    decomposed = []
    original = reprings.adams_cycles

    def counting(dual, ell):
        decomposed.append(dual.subgroup)
        return original(dual, ell)

    for module in (fiber, reprings):
        monkeypatch.setattr(module, "adams_cycles", counting)
    g = parse_group("C3xC3xC9")
    if command == "pi0":
        assemble_pi0(g)
        assert sorted(decomposed, key=g.subgroups().index) == [hs[0] for hs in g.level_types.values()]
        # the types are the partitions inside (2, 1, 1): 7 of the 50 levels
        assert len(decomposed) == 7 and len(g.subgroups()) == 50
    else:
        group_report(g)
        assert decomposed == [g.full_subgroup]


@pytest.mark.parametrize("command,duals", [("pi0", "each type"), ("pi1", "top"), ("kernel", "top")])
def test_one_dual_per_level(monkeypatch, command, duals):
    # a fresh group instance, so no character group cached by another test
    # is reused; each level's DualLevel is built once and shared by its
    # cyclic rows, the fiber and the rational lattice, and pi0 reads one level
    # per isomorphism type
    from kulocal.groups import AbelianGroup, DualLevel

    built = []
    original = DualLevel.__init__

    def counting(self, group, subgroup):
        built.append(subgroup)
        original(self, group, subgroup)

    monkeypatch.setattr(DualLevel, "__init__", counting)
    g = AbelianGroup((3, 3, 9))
    {"pi0": lambda: assemble_pi0(g).to_json(), "pi1": lambda: group_report(g),
     "kernel": lambda: kernel_equals_AmodJ(g).to_json()}[command]()
    if duals == "each type":
        assert sorted(built, key=g.subgroups().index) == [hs[0] for hs in g.level_types.values()]
    else:
        assert built == [g.full_subgroup]


COUNTED_GROUPS = ["C3", "C27", "C243", "C3xC3", "C9xC9", "C5xC25", "C3xC3xC3", "C5xC5xC5",
                  "C7xC7", "C3xC3xC3xC9"]


@pytest.mark.parametrize("spec", COUNTED_GROUPS)
def test_counted_levels_match_their_cycle_decompositions(spec):
    # the oracle decomposes psi^ell on every level's characters
    g = parse_group(spec)
    q = smallest_prime_factor(g.order)
    for ell in admissible_ells(g)[:3]:
        report = group_report(g, ell)
        assert "failures" not in report
        for entry, h in zip(report["levels"], g.subgroups(), strict=True):
            cycles = adams_cycles(h.dual, ell)
            assert counted_cycle_lengths(h) == tuple(sorted(map(len, cycles))), (spec, ell, h)
            factors = degree2_invariant_factors(cycles, ell)
            assert entry["subgroup"] == h.order
            assert entry["pi1_invariant_factors"] == [d for d in factors if d != 1], (spec, ell, h)
            assert entry["pi1_q_part"] == list(primary_part(factors, q)), (spec, ell, h)


def _outcome(call):
    try:
        return call()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("spec", ["C1", "C2", "C3xC5", "C9", "C3xC3"])
def test_counted_report_raises_as_the_decomposed_levels_do(spec):
    # ell = 1 and -1 (singular), 3 and 5 (not coprime to some of these
    # groups), 4 and 7 (not primitive mod 9) and the rest: group_report,
    # degree0_kernels and kernel_equals_AmodJ fail with fiber_level_data's
    # error, or match its levels
    g = parse_group(spec)
    for ell in range(-4, 11):
        counted = _outcome(lambda: group_report(g, ell))
        kernels = _outcome(lambda: degree0_kernels(g, ell, g.subgroups()))
        witness = _outcome(lambda: kernel_equals_AmodJ(g, ell))
        decomposed = _outcome(lambda: fiber_level_data(g, ell))
        if isinstance(decomposed, tuple):
            assert counted == kernels == witness == decomposed, (spec, ell)
        else:
            assert kernels == {h: lv.pi0_basis for h, lv in decomposed.items()}, (spec, ell)
            assert witness.kernel == decomposed[g.full_subgroup].pi0_basis, (spec, ell)
            assert isinstance(counted, dict), (spec, ell, counted)
            assert [e["pi1_q_part"] for e in counted["levels"]] == [list(lv.pi1_q_part) for lv in decomposed.values()]
            assert counted["pi1_invariant_factors"] == list(decomposed[g.full_subgroup].pi1_invariant_factors)


def test_counted_report_lists_a_top_level_mismatch(monkeypatch, tmp_path):
    # the top level's explicit cycles are the witness for the count: a
    # decomposition that splits one cycle is reported, and pi1 exits 1
    import json

    import kulocal.fiber as fiber
    from kulocal.cli import run

    def split_first_long_cycle(dual, ell):
        cycles = list(adams_cycles(dual, ell))
        i = next(i for i, c in enumerate(cycles) if len(c) > 1)
        return tuple(cycles[:i] + [cycles[i][:1], cycles[i][1:]] + cycles[i + 1:])

    out = tmp_path / "pi1.json"
    assert run(["pi1", "--group", "C9", "--format", "json", "--output", str(out)]) == 0
    assert "failures" not in json.loads(out.read_text())
    monkeypatch.setattr(fiber, "adams_cycles", split_first_long_cycle)
    assert run(["pi1", "--group", "C9", "--format", "json", "--output", str(out)]) == 1
    failures = json.loads(out.read_text())["failures"]
    assert failures == ["the top level's psi^2 cycle lengths [1, 1, 2, 5] are not "
                        "the element-order count [1, 2, 6]"]


def test_fiber_levels_c9():
    g = parse_group("C9")
    levels = fiber_level_data(g, 2)
    assert len(levels) == 3
    for h, data in levels.items():
        # kernel rank at level H = number of subgroups of H (cyclic H)
        n_cyc = sum(1 for k in g.subgroups() if h.contains(k) and k.is_cyclic)
        assert len(data.pi0_basis) == n_cyc
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
        lambda: degree0_kernels(g, ell, g.subgroups()),
        lambda: group_report(g, ell),
        lambda: kernel_equals_AmodJ(g, ell),
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
