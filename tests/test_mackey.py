import dataclasses

import pytest

from kulocal import mackey
from kulocal.burnside import BurnsideRing
from kulocal.exact import IntMatrix, is_primitive_root, solve_integer
from kulocal.fiber import group_report
from kulocal.groups import AbelianGroup, parse_group
from kulocal.mackey import (
    Level,
    MackeyFunctor,
    a_mod_j_mackey,
    assemble_pi0,
    assemble_pi1_c3,
    burnside_mackey,
    idempotent_splitting_check,
    lewis_diagram,
    linearization_check,
    maximal_proper_subgroups,
    ru_mackey,
    v_h,
)

INSTANCES = ["C3", "C9", "C27", "C3xC3", "C5", "C25", "C7", "C3xC9"]


def _sub_of_order(group, order):
    return [h for h in group.subgroups() if h.order == order][0]


def test_burnside_res_tr_examples():
    g = parse_group("C9")
    m = burnside_mackey(g)
    c3 = _sub_of_order(g, 3)
    c9 = g.full_subgroup
    e = g.trivial_subgroup

    # basis of A(C9): [C9/e], [C9/C3], [C9/C9]; of A(C3): [C3/e], [C3/C3]
    res = m.res(c9, c3)
    assert res.column(0) == (3, 0)  # res [C9/e] = 3 [C3/e]
    tr = m.tr(c3, c9)
    assert tr.column(0) == (1, 0, 0)  # tr [C3/e] = [C9/e]

    # Frobenius on C3: tr(1_e) * [C3/C3] = tr(res([C3/C3])) = [C3/e]
    g3 = parse_group("C3")
    m3 = burnside_mackey(g3)
    whole = g3.full_subgroup
    triv = g3.trivial_subgroup
    tr_1 = m3.tr(triv, whole).apply((1,))
    prod = m3.multiply(whole, tr_1, m3.unit(whole))
    assert prod == (1, 0)  # [C3/e]


def test_ru_res_tr_examples():
    g = parse_group("C9")
    m = ru_mackey(g)
    c3 = _sub_of_order(g, 3)
    c9 = g.full_subgroup
    res = m.res(c9, c3)
    # the generator character of C9 restricts to a generator character of C3
    col = res.column(1)
    assert sum(col) == 1 and col[0] == 0

    g3 = parse_group("C3")
    m3 = ru_mackey(g3)
    tr = m3.tr(g3.trivial_subgroup, g3.full_subgroup)
    assert tr.column(0) == (1, 1, 1)  # induced of trivial = regular


@pytest.mark.parametrize("spec", INSTANCES + ["C81", "C1"])
def test_mackey_axioms_burnside(spec):
    g = parse_group(spec)
    assert burnside_mackey(g).check_mackey_axioms() == []


@pytest.mark.parametrize("spec", INSTANCES + ["C81", "C1"])
def test_mackey_axioms_ru(spec):
    g = parse_group(spec)
    assert ru_mackey(g).check_mackey_axioms() == []


@pytest.mark.parametrize("spec", INSTANCES)
def test_green_axioms(spec):
    g = parse_group(spec)
    assert burnside_mackey(g).check_green_axioms() == []
    assert ru_mackey(g).check_green_axioms() == []


@pytest.mark.parametrize("spec", ["C3", "C9", "C3xC3", "C3xC9"])
def test_linearization_is_green_map(spec):
    check = linearization_check(parse_group(spec))
    assert check.ok


def test_linearization_check_sees_a_wrong_kernel(monkeypatch):
    # zero the row of [G/e] on the top level only: that row then lies in the
    # kernel of linearization, but [G/e] has mark |G| at e, so it is not in J
    group = parse_group("C3xC3")
    build = BurnsideRing.linearize_matrix.func

    def corrupted(ring):
        lin = build(ring)
        if ring.level != group.full_subgroup:
            return lin
        return IntMatrix([[0] * lin.cols] + [list(r) for r in lin.entries[1:]], cols=lin.cols)

    monkeypatch.setattr(BurnsideRing, "linearize_matrix", property(corrupted))
    assert not linearization_check(group).kernel_is_ideal_j


@pytest.mark.parametrize("spec", INSTANCES)
def test_a_mod_j_levels_and_axioms(spec):
    g = parse_group(spec)
    m = a_mod_j_mackey(g)
    for h in m.subgroups:
        n_cyc = sum(1 for k in g.subgroups() if h.contains(k) and k.is_cyclic)
        assert m.level(h).free_rank == n_cyc
    assert m.check_mackey_axioms() == []
    assert m.check_green_axioms() == []


def _a_mod_j_through_burnside(group):
    """A/J's res, tr and units by pushing the Burnside functor's maps down
    through integer preimages of each basis row (the reference route)."""
    a_fun = burnside_mackey(group)
    subs = group.subgroups()
    quots = {h: BurnsideRing(group, h).a_mod_j() for h in subs}

    def preimages(q):
        ring = q.ring
        image_rows = [ring.marks_on_cyclic(ring.basis_element(k)) for k in ring.subgroups]
        mat = IntMatrix.from_columns(image_rows, nrows=len(q.cyclic_subgroups))
        return [solve_integer(mat, row) for row in q.basis]

    def induced(matrix, src, dst):
        q = quots[dst]
        cols = [q.coordinates(q.project(matrix.apply(pre))) for pre in preimages(quots[src])]
        return IntMatrix.from_columns(cols, nrows=q.rank)

    res, tr = {}, {}
    for h in subs:
        for k in subs:
            if h.contains(k):
                res[(h, k)] = induced(a_fun.res(h, k), h, k)
                tr[(k, h)] = induced(a_fun.tr(k, h), k, h)
    units = {h: quots[h].coordinates(quots[h].project(a_fun.unit(h))) for h in subs}
    return res, tr, units


@pytest.mark.parametrize(
    "spec", ["C3", "C9", "C27", "C3xC3", "C3xC9", "C5xC5", "C3xC3xC3"]
)
def test_a_mod_j_maps_match_burnside_preimage_route(spec):
    g = parse_group(spec)
    m = a_mod_j_mackey(g)
    res, tr, units = _a_mod_j_through_burnside(g)
    assert m._res == res
    assert m._tr == tr
    assert {h: m.unit(h) for h in m.subgroups} == units


def test_restriction_rule_in_a_mod_j():
    # for cyclic groups A/J = A and res [C_{q^{i+1}} / C_{q^j}] = q [C_{q^i} / C_{q^j}]
    g = parse_group("C27")
    m = burnside_mackey(g)
    subs = sorted(g.subgroups(), key=lambda h: h.order)
    for i in range(len(subs) - 1):
        h, hh = subs[i], subs[i + 1]
        res = m.res(hh, h)
        ring_hh = [k for k in g.subgroups() if hh.contains(k)]
        ring_h = [k for k in g.subgroups() if h.contains(k)]
        for j, l in enumerate(ring_hh):
            col = res.column(j)
            if l == hh:  # the unit restricts to the unit
                assert col == tuple(1 if k == h else 0 for k in ring_h)
            else:
                assert col == tuple(3 if k == l else 0 for k in ring_h)


def test_v_h_examples():
    g3 = parse_group("C3")
    a3 = burnside_mackey(g3)
    free, torsion = v_h(a3, g3.full_subgroup, 2)
    assert (free, torsion) == (1, ())
    free, torsion = v_h(a3, g3.trivial_subgroup, 2)
    assert (free, torsion) == (1, ())  # no proper subgroups: the whole level


def test_v_h_a_mod_j_c3xc3():
    g = parse_group("C3xC3")
    aj = a_mod_j_mackey(g)
    for h in aj.subgroups:
        free, torsion = v_h(aj, h, 2)
        if h.is_cyclic:
            assert (free, torsion) == (1, ())
        else:
            assert (free, torsion) == (0, ())


def test_v_h_rejects_dividing_prime():
    g = parse_group("C3")
    with pytest.raises(ValueError, match="divides the group order"):
        v_h(burnside_mackey(g), g.full_subgroup, 3)
    for p in (0, 1, 4):
        with pytest.raises(ValueError, match="is not a prime"):
            v_h(burnside_mackey(g), g.full_subgroup, p)


def test_idempotent_splitting_checks():
    g3 = parse_group("C3")
    assert idempotent_splitting_check(burnside_mackey(g3), 2)
    g33 = parse_group("C3xC3")
    assert idempotent_splitting_check(a_mod_j_mackey(g33), 2)
    for spec in INSTANCES:
        g = parse_group(spec)
        assert idempotent_splitting_check(burnside_mackey(g), 2)
        assert idempotent_splitting_check(a_mod_j_mackey(g), 2)


def test_single_level_functor():
    # a functor concentrated at the top with value Z
    g = parse_group("C3")
    whole, triv = g.full_subgroup, g.trivial_subgroup
    levels = {triv: Level(subgroup=triv, rank=0), whole: Level(subgroup=whole, rank=1)}
    res = {
        (whole, triv): IntMatrix.zeros(0, 1),
        (whole, whole): IntMatrix.identity(1),
        (triv, triv): IntMatrix.identity(0),
    }
    tr = {
        (triv, whole): IntMatrix.zeros(1, 0),
        (whole, whole): IntMatrix.identity(1),
        (triv, triv): IntMatrix.identity(0),
    }
    m = MackeyFunctor(g, levels, res, tr, name="skyscraper")
    assert v_h(m, whole, 2) == (1, ())
    assert v_h(m, triv, 2) == (0, ())
    assert idempotent_splitting_check(m, 2)


def test_maximal_proper_subgroups():
    g = parse_group("C3xC3")
    maxima = maximal_proper_subgroups(g.full_subgroup)
    assert len(maxima) == 4 and all(h.order == 3 for h in maxima)
    g9 = parse_group("C9")
    maxima = maximal_proper_subgroups(g9.full_subgroup)
    assert len(maxima) == 1 and maxima[0].order == 3


def test_assemble_pi0_c9():
    g = parse_group("C9")
    result = assemble_pi0(g)
    assert result.kernel_cross_check
    by_order = {entry["subgroup"]: entry for entry in result.level_summary()}
    assert by_order[9]["free_rank"] == 3 and by_order[9]["torsion"] == [2, 2, 2]
    assert by_order[3]["free_rank"] == 2 and by_order[3]["torsion"] == [2, 2]
    assert by_order[1]["free_rank"] == 1 and by_order[1]["torsion"] == [2]
    assert result.functor.check_mackey_axioms() == []
    assert result.functor.check_green_axioms() == []


def test_assemble_pi0_trivial_group():
    result = assemble_pi0(parse_group("C1"))
    (entry,) = result.level_summary()
    assert entry["free_rank"] == 1 and entry["torsion"] == [2]


def test_assemble_pi0_c3xc3():
    result = assemble_pi0(parse_group("C3xC3"))
    top = [e for e in result.level_summary() if e["subgroup"] == 9][0]
    assert top["free_rank"] == 5 and top["torsion"] == [2] * 5
    assert result.kernel_cross_check


def test_assemble_pi0_rejects_even_order():
    with pytest.raises(ValueError):
        assemble_pi0(AbelianGroup((2,)))


def test_assemble_pi0_levels_depend_only_on_level():
    big = assemble_pi0(parse_group("C27"))
    summaries = {e["subgroup"]: e for e in big.level_summary()}
    for sub_spec in ["C1", "C3", "C9"]:
        small = assemble_pi0(parse_group(sub_spec))
        top = [e for e in small.level_summary() if e["subgroup"] == small.group.order][0]
        big_entry = summaries[small.group.order]
        assert big_entry["free_rank"] == top["free_rank"]
        assert big_entry["torsion"] == top["torsion"]


def test_pi0_multiplication_square_zero():
    g = parse_group("C3")
    result = assemble_pi0(g)
    f = result.functor
    whole = g.full_subgroup
    r = result.cyclic_counts[whole]
    # x * unit squared is zero mod 2: (x u)^2 = x^2 u^2 = 0
    x_unit = tuple([0] * r) + tuple(f.unit(whole)[:r])
    sq = f.multiply(whole, x_unit, x_unit)
    assert f.level(whole).elements_equal(sq, (0,) * (2 * r))


def test_assemble_pi1_c3():
    m = assemble_pi1_c3()
    g = m.group
    triv, whole = g.trivial_subgroup, g.full_subgroup
    assert m.level(triv).primary_torsion == (2, 2) and m.level(triv).free_rank == 0
    assert m.level(whole).primary_torsion == (2, 2, 2, 2, 3)
    assert m.level(whole).free_rank == 0
    # restriction kills the order-3 class
    res = m.res(whole, triv)
    assert res.column(4) == (0, 0)
    assert m.check_mackey_axioms() == []


def _typed_pi1_c3(group):
    """The degree-1 answer for C3 with its levels and matrices typed in:
    generators [C3/C3] @ t0, [C3/C3] @ t1, [C3/e] @ t0, [C3/e] @ t1, u on top."""
    triv, whole = group.trivial_subgroup, group.full_subgroup
    level_e = Level(subgroup=triv, rank=2, relations=((2, 0), (0, 2)))
    rels_top = tuple(
        tuple((2 if i < 4 else 3) if j == i else 0 for j in range(5)) for i in range(5)
    )
    level_top = Level(subgroup=whole, rank=5, relations=rels_top)
    # res: [C3/C3] -> [e/e], [C3/e] -> 3 [e/e], u -> 0
    res_top = IntMatrix([[1, 0, 3, 0, 0], [0, 1, 0, 3, 0]], cols=5)
    # tr: [e/e] @ tj -> [C3/e] @ tj
    tr_up = IntMatrix([[0, 0], [0, 0], [1, 0], [0, 1], [0, 0]], cols=2)
    ident2, ident5 = IntMatrix.identity(2), IntMatrix.identity(5)
    return MackeyFunctor(
        group=group,
        levels={triv: level_e, whole: level_top},
        res={(whole, triv): res_top, (whole, whole): ident5, (triv, triv): ident2},
        tr={(triv, whole): tr_up, (whole, whole): ident5, (triv, triv): ident2},
    )


def test_assemble_pi1_c3_matches_the_typed_functor():
    derived = assemble_pi1_c3()
    g = derived.group
    typed = _typed_pi1_c3(g)
    triv, whole = g.trivial_subgroup, g.full_subgroup
    for m in (derived, typed):
        assert m.check_mackey_axioms() == []
        # the q-torsion class is the last generator, and restriction kills it
        assert m.res(whole, triv).column(m.level(whole).rank - 1) == (0, 0)
    for h in g.subgroups():
        assert derived.level(h).free_rank == typed.level(h).free_rank
        assert derived.level(h).primary_torsion == typed.level(h).primary_torsion
        assert v_h(derived, h, 2) == v_h(typed, h, 2)


def _patch_top_q_part(monkeypatch, q_part):
    real = mackey.fiber_level_data

    def patched(group, ell=None):
        levels = real(group, ell)
        top = group.full_subgroup
        levels[top] = dataclasses.replace(levels[top], pi1_q_part=q_part)
        return levels

    monkeypatch.setattr(mackey, "fiber_level_data", patched)


def test_assemble_pi1_c3_raises_on_a_wrong_q_part(monkeypatch):
    _patch_top_q_part(monkeypatch, (3, 3))
    with pytest.raises(ArithmeticError, match="expected one cyclic factor"):
        assemble_pi1_c3()


def test_assemble_pi1_c3_reads_its_q_part_from_the_cokernel(monkeypatch):
    # the top-level class is the computed q-part, whatever its order
    _patch_top_q_part(monkeypatch, (9,))
    m = assemble_pi1_c3()
    g = m.group
    assert m.level(g.full_subgroup).primary_torsion == (2, 2, 2, 2, 9)
    assert m.level(g.trivial_subgroup).primary_torsion == (2, 2)
    assert m.res(g.full_subgroup, g.trivial_subgroup).column(4) == (0, 0)
    assert m.check_mackey_axioms() == []


def test_c3_q_part_is_z3_exactly_for_ells_primitive_mod_9():
    # The 3-part of Z/|ell^2 - 1| is Z/3 iff 9 does not divide ell + 1, i.e.
    # iff ell is a primitive root mod 9; assemble_pi1_c3 reads it at ell = 2.
    # An ell primitive mod 3 only (8, 17, 26) gives a larger q-part.
    g = parse_group("C3")
    top = assemble_pi1_c3().level(g.full_subgroup).primary_torsion
    derived = [d for d in top if d % 3 == 0]
    assert derived == [3]
    for ell in range(2, 27):
        if not is_primitive_root(ell, 3):
            continue
        q_part = group_report(g, ell)["pi1_q_part"]
        if is_primitive_root(ell, 9):
            assert q_part == derived, ell
        else:
            assert q_part != derived and q_part[0] % 9 == 0, ell


def test_lewis_diagram():
    text = lewis_diagram(assemble_pi1_c3())
    assert "Z/3" in text and "res" in text
    with pytest.raises(ValueError):
        lewis_diagram(burnside_mackey(parse_group("C3xC3")))


def test_to_json_roundtrip():
    import json

    m = burnside_mackey(parse_group("C3"))
    blob = m.to_json(include_mult=True)
    text = json.dumps(blob, sort_keys=True)
    assert json.loads(text) == blob


def test_primary_torsion_against_sympy():
    sympy = pytest.importorskip("sympy")
    triv = parse_group("C1").trivial_subgroup

    def prime_powers(n):
        return [p ** e for p, e in sympy.factorint(n).items()]

    for n in range(1, 2001):
        m = n % 45 + 1
        lvl = Level(subgroup=triv, rank=2, relations=((n, 0), (0, m)))
        assert lvl.primary_torsion == tuple(sorted(prime_powers(n) + prime_powers(m)))
