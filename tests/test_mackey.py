import copy
import dataclasses
import hashlib
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kulocal import mackey
from kulocal.burnside import BurnsideRing
from kulocal.cli import canonical_json
from kulocal.exact import (
    IntMatrix,
    hnf_coordinates,
    is_primitive_root,
    row_hnf,
    smith_normal_form,
    solve_integer,
)
from kulocal.fiber import group_report
from kulocal.groups import AbelianGroup, DualLevel, parse_group
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
from kulocal.reprings import dual_multiply
from oracles import (
    a_mod_j_eager,
    functor_json,
    green_axioms_all_pairs,
    mackey_axioms_all_pairs,
    marks_on_cyclic,
    maximal_proper_subgroups_all_pairs,
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


def _smith_structure(rank, relations):
    """(free rank, torsion) of Z^rank modulo ``relations`` by the Smith form."""
    if not relations:
        return rank, ()
    dec = smith_normal_form(IntMatrix(relations, cols=rank))
    return rank - dec.rank, tuple(d for d in dec.invariant_factors if d != 1)


def _counting_smith(monkeypatch):
    calls = []

    def counted(*args, _snf=mackey.smith_normal_form):
        calls.append(args)
        return _snf(*args)

    monkeypatch.setattr(mackey, "smith_normal_form", counted)
    return calls


def _diagonal_relations(rank, pairs):
    return tuple(tuple(d if j == i else 0 for j in range(rank)) for i, d in pairs)


def _orders(rank, pairs):
    """The orders of a level of this rank with relations d*e_i at the (i, d)
    of ``pairs``: |d| at index i, 0 (Z) elsewhere."""
    orders = [0] * rank
    for i, d in pairs:
        orders[i] = abs(d)
    return tuple(orders)


def test_diagonal_levels_agree_with_the_smith_form(monkeypatch):
    # relations d*e_i at distinct indices, in random index order, drawn with
    # repeats from units, coprime and non-coprime orders and negative d; the
    # fixed sets are a rank with no relations, a unit, repeated orders,
    # coprime orders and a negative d
    orders = (1, -1, 2, -2, 3, 4, 5, 6, 9, -9, 10, 12, 25, 27, -36)
    rng = random.Random(20261020)
    sets = [(0, ()), (3, ()), (2, ((1, 1),)), (3, ((2, 3), (0, 3), (1, 3))),
            (3, ((0, 4), (2, 9))), (2, ((1, -6), (0, 4)))]
    for _ in range(400):
        rank = rng.randrange(7)
        indices = rng.sample(range(rank), rng.randrange(rank + 1))
        sets.append((rank, tuple((i, rng.choice(orders)) for i in indices)))
    top = parse_group("C3").full_subgroup
    calls = _counting_smith(monkeypatch)
    for rank, pairs in sets:
        relations = _diagonal_relations(rank, pairs)
        level = Level(top, _orders(rank, pairs))
        assert level.rank == rank
        assert level.structure == _smith_structure(rank, relations), relations
    assert calls == []


def test_elements_equal_is_membership_in_the_relation_lattice():
    # a - b against the Hermite form of the rows d*e_i (a zero row for each
    # Z); b is a plus a random combination of those rows, plus on most draws
    # a small random vector
    rng = random.Random(20261021)
    top = parse_group("C3").full_subgroup
    seen = set()
    for _ in range(300):
        orders = tuple(rng.choice((0, 0, 1, 2, 3, 4, 6, 9)) for _ in range(rng.randrange(1, 6)))
        level, relations = Level(top, orders), _diagonal_relations(len(orders), enumerate(orders))
        hnf = row_hnf(relations, len(orders))
        a = [rng.randint(-9, 9) for _ in orders]
        b = list(a)
        for row in relations:
            c = rng.randint(-3, 3)
            b = [x + c * y for x, y in zip(b, row)]
        if rng.random() < 0.7:
            b = [x + rng.randint(-2, 2) for x in b]
        expected = hnf_coordinates(hnf, [x - y for x, y in zip(a, b)]) is not None
        assert level.elements_equal(tuple(a), tuple(b)) == expected, (orders, a, b)
        seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("spec", ["C3xC3xC9", "C9xC9", "C3xC27", "C5xC5xC5"])
def test_a_mod_j_builds_the_eager_basis_and_unit_on_first_read(spec):
    # the functor is built whole, so its first read already holds, at every
    # level, the basis and unit of the eager construction
    g = parse_group(spec)
    functor = a_mod_j_mackey(g)
    rings = functor.rings
    for h in functor.subgroups:
        basis, unit = a_mod_j_eager(rings[h])
        assert functor.level(h).rank == len(h.cyclic_subgroups) == len(basis)
        assert functor.unit(h) == unit
        assert rings[h].a_mod_j().basis == basis


@pytest.mark.parametrize("read", ["unit", "res", "tr"])
def test_a_basis_short_of_a_row_raises_at_its_level(monkeypatch, read):
    # the rank is the column count, so a basis that loses a row is caught
    # when the functor is built, naming the level, before the unit or a map
    # through that level can be read; with the row back, the same read spans
    # the full rank
    g = parse_group("C3xC9")
    top = g.full_subgroup
    k = maximal_proper_subgroups(top)[0]
    a_mod_j = BurnsideRing.a_mod_j

    def dropped(ring):
        q = a_mod_j(ring)
        return dataclasses.replace(q, basis=q.basis[:-1]) if ring.level.mask == top.mask else q

    reads = {
        "unit": lambda functor: len(functor.unit(top)),
        "res": lambda functor: functor.res(top, k).cols,
        "tr": lambda functor: functor.tr(k, top).rows,
    }
    monkeypatch.setattr(BurnsideRing, "a_mod_j", dropped)
    rank = len(top.cyclic_subgroups)
    message = f"the a_mod_j basis at {top!r} has {rank - 1} rows for {rank} columns"
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        reads[read](a_mod_j_mackey(g))
    monkeypatch.undo()
    assert reads[read](a_mod_j_mackey(g)) == rank


@pytest.mark.parametrize("build,count", [(burnside_mackey, 15), (ru_mackey, 22)])
def test_green_check_sees_a_doubled_unit(build, count):
    # restriction carries the doubled unit to the doubled unit, so only the
    # unit law 1 * e_i = e_i sees it: once per basis vector of every level
    functor = build(parse_group("C3xC3"))
    doubled = {h: tuple(2 * x for x in functor.unit(h)) for h in functor.subgroups}
    functor.unit = doubled.__getitem__
    assert functor.check_green_axioms() == [
        f"unit law fails at {h!r}: 1 * e_{i} != e_{i}"
        for h in functor.subgroups
        for i in range(functor.level(h).rank)
    ]
    assert sum(functor.level(h).rank for h in functor.subgroups) == count


@pytest.mark.parametrize("spec", ["C3", "C9", "C3xC3", "C3xC9"])
def test_linearization_is_green_map(spec):
    g = parse_group(spec)
    check = linearization_check(burnside_mackey(g), ru_mackey(g))
    assert check == []


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
    failures = linearization_check(burnside_mackey(group), ru_mackey(group))
    assert any("kernel" in f and repr(group.full_subgroup) in f for f in failures)


@pytest.mark.parametrize("spec", INSTANCES)
def test_a_mod_j_levels_and_axioms(spec):
    g = parse_group(spec)
    m = a_mod_j_mackey(g)
    for h in m.subgroups:
        n_cyc = sum(1 for k in g.subgroups() if h.contains(k) and k.is_cyclic)
        assert m.level(h).free_rank == n_cyc
    assert m.check_mackey_axioms() == []
    assert m.check_green_axioms() == []


def _burnside_by_formulas(group):
    """The Burnside functor's res, tr and units from the formulas in the orbit
    basis: res^H_K [H/L] = [H : KL] [K/(K & L)], tr^H_K [K/L] = [H/L], and the
    unit [H/H]."""
    subs = group.subgroups()
    rings = {h: BurnsideRing(group, h) for h in subs}
    res, tr = {}, {}
    for h in subs:
        ring_h = rings[h]
        for k in subs:
            if not h.contains(k):
                continue
            ring_k = rings[k]
            cols = []
            for l in ring_h.subgroups:
                meet = k.intersect(l)
                # [H : KL] with |KL| = |K| |L| / |K & L|
                index = h.order * meet.order // (k.order * l.order)
                cols.append(ring_k.scale(index, ring_k.basis_element(meet)))
            res[(h, k)] = IntMatrix.from_columns(cols, nrows=ring_k.n)
            cols = [ring_h.basis_element(l) for l in ring_k.subgroups]
            tr[(k, h)] = IntMatrix.from_columns(cols, nrows=ring_h.n)
    units = {h: rings[h].one for h in subs}
    return res, tr, units


@pytest.mark.parametrize(
    "spec",
    ["C1", "C3", "C9", "C27", "C81", "C3xC3", "C3xC9", "C5xC25", "C9xC9", "C3xC3xC3", "C15"],
)
def test_burnside_functor_matches_the_formulas(spec):
    g = parse_group(spec)
    m = burnside_mackey(g)
    res, tr, units = _burnside_by_formulas(g)
    assert {(h, k): m.res(h, k) for h, k in res} == res
    assert {(k, h): m.tr(k, h) for k, h in tr} == tr
    assert {h: m.unit(h) for h in m.subgroups} == units


def _a_mod_j_through_burnside(group):
    """A/J's res, tr and units by pushing the Burnside formulas down through
    integer preimages of each basis row (the reference route)."""
    a_res, a_tr, a_units = _burnside_by_formulas(group)
    subs = group.subgroups()
    quots = {h: BurnsideRing(group, h).a_mod_j() for h in subs}

    def preimages(q):
        ring = q.ring
        image_rows = [marks_on_cyclic(ring, ring.basis_element(k)) for k in ring.subgroups]
        mat = IntMatrix.from_columns(image_rows, nrows=len(q.cyclic_subgroups))
        return [solve_integer(mat, row) for row in q.basis]

    def induced(matrix, src, dst):
        q = quots[dst]
        cols = [q.coordinates(marks_on_cyclic(q.ring, matrix.apply(pre))) for pre in preimages(quots[src])]
        return IntMatrix.from_columns(cols, nrows=len(q.basis))

    res = {(h, k): induced(m, h, k) for (h, k), m in a_res.items()}
    tr = {(k, h): induced(m, k, h) for (k, h), m in a_tr.items()}
    units = {h: quots[h].coordinates(marks_on_cyclic(quots[h].ring, a_units[h])) for h in subs}
    return res, tr, units


@pytest.mark.parametrize(
    "spec", ["C3", "C9", "C27", "C3xC3", "C3xC9", "C5xC5", "C3xC3xC3"]
)
def test_a_mod_j_maps_match_burnside_preimage_route(spec):
    g = parse_group(spec)
    m = a_mod_j_mackey(g)
    res, tr, units = _a_mod_j_through_burnside(g)
    assert {(h, k): m.res(h, k) for h, k in res} == res
    assert {(k, h): m.tr(k, h) for k, h in tr} == tr
    assert {h: m.unit(h) for h in m.subgroups} == units


def _a_mod_j_product(q, a, b):
    """A/J's product by its definition: coordinates of the pointwise product
    of the marks vectors of a and b."""
    marks = [[sum(c * row[t] for c, row in zip(v, q.basis)) for t in range(len(q.cyclic_subgroups))]
             for v in (a, b)]
    return q.coordinates([x * y for x, y in zip(*marks)])


@pytest.mark.parametrize("spec", ["C9", "C3xC3", "C3xC9", "C5xC5"])
def test_multiply_matches_each_functors_own_product(spec):
    g = parse_group(spec)
    rng = random.Random(sum(map(ord, spec)))
    pi0 = assemble_pi0(g)
    routes = {
        burnside_mackey(g): lambda h, a, b: BurnsideRing(g, h).multiply(a, b),
        ru_mackey(g): lambda h, a, b: dual_multiply(DualLevel(g, h), a, b),
        a_mod_j_mackey(g): lambda h, a, b: _a_mod_j_product(BurnsideRing(g, h).a_mod_j(), a, b),
    }

    def pi0_route(h, a, b):
        # (a + xc)(a' + xc') = aa' + x(ac' + a'c)
        q = BurnsideRing(g, h).a_mod_j()
        r = len(q.basis)
        free = _a_mod_j_product(q, a[:r], b[:r])
        cross = [x + y for x, y in zip(_a_mod_j_product(q, a[:r], b[r:]), _a_mod_j_product(q, a[r:], b[:r]))]
        return tuple(free) + tuple(cross)

    routes[pi0.functor] = pi0_route
    for functor, route in routes.items():
        for h in functor.subgroups:
            n = functor.level(h).rank
            for _ in range(4):
                a, b = ([rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(n)] for _ in range(2))
                assert functor.multiply(h, a, b) == tuple(route(h, a, b)), (functor.name, h)


def _bumped(m, r, c):
    """m with 1 added to entry (r, c)."""
    rows = [list(row) for row in m.entries]
    rows[r][c] += 1
    return IntMatrix(rows, cols=m.cols)


def _corrupted_functors():
    """(functor, H, K): Burnside on C9 and pi0 on C3xC3, K a maximal subgroup of H = G."""
    for functor in (burnside_mackey(parse_group("C9")), assemble_pi0(parse_group("C3xC3")).functor):
        whole = functor.group.full_subgroup
        yield functor, whole, maximal_proper_subgroups(whole)[0]


def _failures(functor):
    return functor.check_mackey_axioms() + functor.check_green_axioms()


@pytest.mark.parametrize("kind", ["res", "tr", "product"])
def test_axiom_checks_report_a_corrupted_entry(kind):
    for functor, h, k in _corrupted_functors():
        assert _failures(functor) == []
        if kind == "res":
            functor._res[(h, k)] = _bumped(functor.res(h, k), 0, 0)
        elif kind == "tr":
            functor._tr[(k, h)] = _bumped(functor.tr(k, h), 0, 0)
        else:
            # e_0 * e_1 at H, stored as its nonzero pairs, with 1 added to
            # its coordinate 0
            table = functor.product_table(h)
            bumped = dict(table[0][1])
            bumped[0] = bumped.get(0, 0) + 1
            table[0][1] = tuple(sorted((t, z) for t, z in bumped.items() if z))
        failures = _failures(functor)
        assert failures, (functor.name, kind)
        if kind == "product":
            assert any(repr(h) in f and "at (0,1)" in f for f in failures), failures
        else:
            assert any(repr(h) in f and repr(k) in f for f in failures), failures


def test_axiom_checks_report_a_corrupted_entry_under_O():
    # the checks return their failures; nothing depends on assert statements
    script = (
        "from kulocal.groups import parse_group\n"
        "from kulocal.mackey import burnside_mackey, maximal_proper_subgroups\n"
        "from kulocal.exact import IntMatrix\n"
        "m = burnside_mackey(parse_group('C9'))\n"
        "h = m.group.full_subgroup\n"
        "k = maximal_proper_subgroups(h)[0]\n"
        "rows = [list(r) for r in m.tr(k, h).entries]\n"
        "rows[0][0] += 1\n"
        "m._tr[(k, h)] = IntMatrix(rows, cols=len(rows[0]))\n"
        "print('\\n'.join(m.check_mackey_axioms()))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    named = [f for f in proc.stdout.splitlines() if "order=9 of C9" in f and "order=3 of C9" in f]
    assert named, proc.stdout


# -- the generating sets of identities against the all-pairs oracle -------------

ORACLE_GROUPS = INSTANCES + ["C81", "C3xC3xC3", "C5xC25"]
FUNCTOR_NAMES = ["burnside", "a_mod_j", "ru", "pi0"]


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_axiom_checks_and_the_all_pairs_oracle_pass_together(spec):
    g = parse_group(spec)
    for name in FUNCTOR_NAMES:
        m = FUNCTOR_BUILDS[name](g)
        assert mackey_axioms_all_pairs(m) == [] and green_axioms_all_pairs(m) == [], (spec, name)
        assert m.check_mackey_axioms() == [] and m.check_green_axioms() == [], (spec, name)


def _copy_with_every_map(functor):
    """A new functor object over the same levels and units, with its own copy
    of every map and product table, so a mutation of the copy reaches no
    other functor."""
    fresh = copy.copy(functor)
    fresh._res, fresh._tr = dict(functor._res), dict(functor._tr)
    fresh._products = {h: [list(row) for row in functor.product_table(h)] for h in functor.subgroups}
    return fresh


def _bump_product(functor, h, i, j):
    """Add 1 at coordinate 0 of e_i * e_j at level H, in both mirrored
    entries, so the table stays commutative as ``product_table`` builds it."""
    table = functor._products[h]
    bumped = dict(table[i][j])
    bumped[0] = bumped.get(0, 0) + 1
    table[i][j] = table[j][i] = tuple(sorted((t, z) for t, z in bumped.items() if z))


@pytest.mark.parametrize("name", FUNCTOR_NAMES)
@pytest.mark.parametrize("spec", ["C9", "C3xC3", "C3xC9"])
def test_single_entry_mutations_the_oracle_sees_are_named(spec, name):
    # entry (0, 0) of every res(H, K) and tr(K, H), covers or not, and one
    # product per level: whenever the all-pairs oracle fails, the checks fail
    # too, naming both subgroups of the map or the level of the product
    g = parse_group(spec)
    base = FUNCTOR_BUILDS[name](g)
    mutations = []
    for h in g.subgroups():
        mutations += [("res", (h, k)) for k in h.subgroups] + [("tr", (k, h)) for k in h.subgroups]
        mutations.append(("product", (h,)))
    named = 0
    for kind, subgroups in mutations:
        m = _copy_with_every_map(base)
        if kind == "product":
            [h] = subgroups
            _bump_product(m, h, 0, min(1, m.level(h).rank - 1))
        else:
            maps = m._res if kind == "res" else m._tr
            maps[subgroups] = _bumped(maps[subgroups], 0, 0)
        failures = m.check_mackey_axioms() + m.check_green_axioms()
        if any(all(repr(s) in f for s in subgroups) for f in failures):
            named += 1
        else:
            assert mackey_axioms_all_pairs(m) + green_axioms_all_pairs(m) == [], (kind, subgroups, failures)
    # the copies take their mutations: most are named at once
    assert named > len(mutations) // 2


def test_well_definedness_failures_name_the_map_and_the_level():
    # pi0 of C3xC3: generators b_0 .. b_(r-1), then x b_0 .. x b_(r-1), and
    # relation 0 is 2 (x b_0) = 0; no relation involves b_0
    g = parse_group("C3xC3")
    whole, triv = g.full_subgroup, g.trivial_subgroup
    m = _copy_with_every_map(assemble_pi0(g).functor)
    r = m.level(whole).rank // 2
    # res(G, 1) with 1 more b_0 in the image of x b_0: 2 (x b_0) goes to 2 b_0 + ...
    m._res[(whole, triv)] = _bumped(m.res(whole, triv), 0, r)
    assert f"res not well defined {whole!r}->{triv!r}" in m.check_mackey_axioms()
    m = _copy_with_every_map(assemble_pi0(g).functor)
    # b_0 * x b_0 gains b_0, so relation 0 times e_0 is 2 b_0 + ...
    _bump_product(m, whole, 0, r)
    assert f"product not well defined at {whole!r}: relation 0 * e_0" in m.check_green_axioms()


def test_axiom_and_linearization_checks_multiply_no_int_matrix(monkeypatch):
    g = parse_group("C3xC9")
    functors = {name: _copy_with_every_map(FUNCTOR_BUILDS[name](g)) for name in FUNCTOR_NAMES}
    for ring in functors["burnside"].rings.values():
        ring.linearize_matrix
    calls = []
    multiply = IntMatrix.__mul__

    def counted(a, b):
        calls.append((a.rows, a.cols, b.cols))
        return multiply(a, b)

    monkeypatch.setattr(IntMatrix, "__mul__", counted)
    for m in functors.values():
        assert m.check_mackey_axioms() == [] and m.check_green_axioms() == []
    assert linearization_check(functors["burnside"], functors["ru"]) == []
    assert calls == []


# -- maps over the containments ------------------------------------------------


def _containments(group):
    subs = group.subgroups()
    return {(h, k) for h in subs for k in subs if h.contains(k)}


def test_equality_fast_paths_stay_exact():
    # equal vectors and matrices compare True at once; anything else must
    # still be decided by the generator orders of the target level.  pi0 of
    # C3xC3 has x b_i of order 2 at each level; A/J's levels are free.
    g = parse_group("C3xC3")
    rng = random.Random(33)
    pi0, aj = assemble_pi0(g).functor, a_mod_j_mackey(g)
    whole = g.full_subgroup
    k = maximal_proper_subgroups(whole)[0]

    def shifted(v, w, c=1):
        return tuple(x + c * y for x, y in zip(v, w, strict=True))

    def in_lattice(lvl):
        # a nonzero integer combination of the relations d*e_i
        while True:
            w = tuple(d * rng.randint(-3, 3) for d in lvl.orders)
            if any(w):
                return w

    def unit(n):
        i = rng.randrange(n)
        return tuple(int(t == i) for t in range(n))

    def columns(m):
        return [m.column(c) for c in range(m.cols)]

    def column_shifted(m, j, w):
        cols = [shifted(m.column(c), w) if c == j else m.column(c) for c in range(m.cols)]
        return IntMatrix.from_columns(cols, nrows=m.rows)

    for h in (whole, k):
        lvl = pi0.level(h)
        assert any(lvl.orders)
        for _ in range(10):
            v = tuple(rng.randint(-5, 5) for _ in range(lvl.rank))
            rel, e = in_lattice(lvl), unit(lvl.rank)
            assert lvl.elements_equal(v, shifted(v, rel)) and lvl.elements_equal(shifted(v, rel), v)
            assert not lvl.elements_equal(v, shifted(shifted(v, rel), e))
    lvl_k, res = pi0.level(k), pi0.res(whole, k)
    for j in range(res.cols):
        assert lvl_k.maps_equal(columns(res), columns(column_shifted(res, j, in_lattice(lvl_k))))
        e = unit(lvl_k.rank)
        shifted_res = column_shifted(res, j, shifted(in_lattice(lvl_k), e))
        assert not lvl_k.maps_equal(columns(res), columns(shifted_res))

    lvl_k, res = aj.level(k), aj.res(whole, k)
    assert not any(lvl_k.orders)
    for _ in range(10):
        v = tuple(rng.randint(-5, 5) for _ in range(lvl_k.rank))
        w = shifted(tuple(rng.randint(-1, 1) for _ in range(lvl_k.rank)), unit(lvl_k.rank))
        if not any(w):
            continue
        assert not lvl_k.elements_equal(v, shifted(v, w))
        assert not lvl_k.maps_equal(columns(res), columns(column_shifted(res, rng.randrange(res.cols), w)))


@pytest.mark.parametrize("spec", ["C9", "C3xC3", "C3xC9"])
def test_maps_of_non_containment_pairs_raise_key_error(spec):
    g = parse_group(spec)
    other = parse_group("C5").full_subgroup
    functors = [burnside_mackey(g), a_mod_j_mackey(g), ru_mackey(g), assemble_pi0(g).functor]
    pairs = _containments(g)
    for m in functors:
        for h in g.subgroups():
            for k in g.subgroups():
                if (h, k) not in pairs:
                    with pytest.raises(KeyError):
                        m.res(h, k)
                    with pytest.raises(KeyError):
                        m.tr(k, h)
            for bad in ((h, other), (other, h)):
                with pytest.raises(KeyError):
                    m.res(*bad)
                with pytest.raises(KeyError):
                    m.tr(*bad)
    pi1 = assemble_pi1_c3()
    whole, triv = pi1.group.full_subgroup, pi1.group.trivial_subgroup
    with pytest.raises(KeyError):
        pi1.res(triv, whole)
    with pytest.raises(KeyError):
        pi1.tr(whole, triv)


@pytest.mark.parametrize("name", FUNCTOR_NAMES)
def test_functors_hold_every_containment_map(name):
    # each functor is built whole: a map for every containment K <= H, a unit
    # and a product table for every level, and the axiom checks pass on them
    g = parse_group("C3xC3xC9")
    m = FUNCTOR_BUILDS[name](g)
    pairs = _containments(g)
    assert set(m._res) == pairs
    assert set(m._tr) == {(k, h) for h, k in pairs}
    assert set(m._units) == set(m._products) == set(g.subgroups())
    assert m.check_mackey_axioms() == []


# sha256 of canonical_json({"json": to_json(include_mult=True), "mackey":
# check_mackey_axioms(), "green": check_green_axioms()}) for each functor:
# these pin every map, unit and product, and the order in which the failure
# lists name them.  pi0 is left out on C1, and on C15, which has no default
# ell.
FUNCTOR_SHA256 = {
    "C1 burnside": "e7b54864542cb3dfa69a7229cc3cec0e23a1a3d39b752a9f31a884d15834cd17",
    "C1 a_mod_j": "0dd6a62507b203f4d9fa52ac8de3837434f92fb96069caa479406b43efbe3bba",
    "C1 ru": "a80c42d1b6896710f7fca026c761be4e3c16b1cb7aa94eec8b945fac20ccc5e4",
    "C3 burnside": "dd8d9e37269cbe47b86bc0bdc473dd3b30204f2f71a62f13a1c85733cfccb62f",
    "C3 a_mod_j": "abc16b5bce574f956ba92a60a1868bd415292df1139a19274993e3eadb5fe266",
    "C3 ru": "91fb286603db66eacfb7f27ae3e932e15db7cc1981ac5ef0c4d6598d3d206a6a",
    "C3 pi0": "6f0363d6ddd4146cd917e11976c65801a88efdd1c2a496fe65e54717b95de0f5",
    "C9 burnside": "3d4620ca0ee679841b915f82bc2bb4bce2e36486008799f053d977a2d071e9db",
    "C9 a_mod_j": "85ee6f14a7eba37ff95343c4a67496047180a2ecf1ffe31b891d85d02e8579a4",
    "C9 ru": "3373d4461f95afbb5411da8f4a96d198ca31157f60856654916733d484fd11c1",
    "C9 pi0": "be337dece701e09a9d250564fb4d5fc637032c626e3f236e6e355bd366410681",
    "C27 burnside": "c93bfc9bec2553c90692cdf3132f0486f26b6d81d6e844a0540db6a7641809e9",
    "C27 a_mod_j": "74dc4cc9797e7bf1f7b4d003615c637ccdce57a3b035f5c9ce9504f0e85efeea",
    "C27 ru": "5b03bb8f68b01af2d440fb3ef9ebf79db166e7b9c8134fc9c7f2b09472dc1c8d",
    "C27 pi0": "2db0c590910bc117cd753e277ad24265b67c7d799f03f30fdda76dbdc32a9431",
    "C81 burnside": "b196c53a157beb62636020a3e43b694dc10c689be8c23741e1d72d1e397f00b9",
    "C81 a_mod_j": "282ad5f029c3ef13ce8999538145d125cd7ae8912fa4f9cbbd70a7e2fa0b0cbc",
    "C81 ru": "e8f93313dabd17055763029eb482d1ff3192145556620832517aec3e891ef30c",
    "C81 pi0": "f1b4d0a45b964b9b0701a8c000184ae71555adcaff448d4ff44e51d107afc79e",
    "C3xC3 burnside": "162d41bd2c2574f8e0ba740efe3ed40167c7fa3a4075a48543fea1f0298692c7",
    "C3xC3 a_mod_j": "dca34c95e5325d5f1fed139327f7ee9c51b9bd1892a22c2c2b18940516df9a41",
    "C3xC3 ru": "16ab61c6337cc6ad38e9c9b9973c8f6c359b0ab8f5e95a4a50e8d0198079d794",
    "C3xC3 pi0": "28d1d371b9bc3ddc2ca48d5e96fa8dc322b13b757b19e00fd2349569c0fad8a7",
    "C3xC9 burnside": "15cc703223a26485311f12f5f9ddb5d18dff1abc40a70e9453d7f25d1b2b848e",
    "C3xC9 a_mod_j": "8de0b3d78361fe12b0df7a5ff9af7422e1e3177d2358d004b0a63afd65f72452",
    "C3xC9 ru": "fe852010e998f4e409e91a8cd0c2bb0a8337a3a3aabb183042d78ea6b68bd2dc",
    "C3xC9 pi0": "ad479e696031efb2d3972565de0f26bca08d5d85b77ff90cbe11d52b6391cc5d",
    "C5xC25 burnside": "b95b1d9199360b311d8dbe77915b007ea424d72ced3297d185bbcb604f3451fd",
    "C5xC25 a_mod_j": "aacdf3551914924b3ccb42f3bc16e42fce9d7115bb9d8d8943c49897c1fd903b",
    "C5xC25 ru": "fe36a4c0f82e081179be6b5c26d474b4fc4ce6801c8ee65a7ae037a763a0cf9c",
    "C5xC25 pi0": "af4d288403be4345f7ba15dfbe6492a20d9045031aa5b6372f1ec32692e9e66b",
    "C9xC9 burnside": "d789ffea35ae6ea44e25dc50febf3fede3730112465a66ad7b7bf8da9b9a1648",
    "C9xC9 a_mod_j": "c19bd7164cbea1b5f971e9d88149df87bc0b6ce783fc5fbcb79766182b97f434",
    "C9xC9 ru": "c83eefd2c0d229add9dbf3e456ffe9dc81f8533599b5021e2de19fe98cc7041f",
    "C9xC9 pi0": "57368c93d265df9a01f4eb6c9c44c386c60b6df609fd717c184352e7eac5b503",
    "C3xC3xC3 burnside": "56ba1cafd29113fe3294026d91433de638bb028bff6e598e23f67f214d61e87b",
    "C3xC3xC3 a_mod_j": "2d36293784d23e68f94e98094083233a5cf66042dfa76bd23aa2a52282b56679",
    "C3xC3xC3 ru": "707b8abe7988235db673f968c17a0cf02c26e50181253a623a11b0e55ca80fc0",
    "C3xC3xC3 pi0": "91da3aa4273699fbb37b4cfa15ad02bd7b09a6d7305fd9140df845f44b1c6daa",
    "C15 burnside": "1c5830090e85cbbecccbe27dcf415b50d6d752cc631858a2b0a3b52d525e0bb0",
    "C15 a_mod_j": "49095fe40d86ae2764f772250f1ba83122c6133c421fcd6782749a77183f7194",
    "C15 ru": "faa83f3bcdfea1329a06ddfde205152505b9f7312125f633c51ab8db6c9ec125",
    "C5 burnside": "8dc0ae957097125aab6e7ddb83fce5db2e859a1f60769d840422e565d7a0144e",
    "C5 a_mod_j": "8f9973462f8a003b998cea0fff40247276922319a02919585bb8f0fac0169f7a",
    "C5 ru": "a778f1b2d9806466c34dca725ffc453a99b583619663c48a96ada8ede745834d",
    "C5 pi0": "029f0f13b0c00b75d9c11c7480cd5237b03d82be178774d53082f75fff084f7c",
    "C25 burnside": "ac1302dc8daed9cdbf3b67f4d113d6e6e9a954b47d20f60453764296efe923fe",
    "C25 a_mod_j": "c79953f7f5c9ce03381e4b851a0d49ead981e902dfe338b6919e32aad6db0eb3",
    "C25 ru": "67f61e660271ab5daf93640941d822ab81ada9bf88fa21f8c26ee2f9d614a404",
    "C25 pi0": "cf4cc235a64dd13fae23ba85fb7ecb87f1781cf7fab3878edab6bf08a570e65d",
}
PI1_C3_SHA256 = "79b08f3ada847fd8da8d1d6b3831983b5cb8da2f5d5e8908a490df484848baf3"
FUNCTOR_BUILDS = {
    "burnside": burnside_mackey,
    "a_mod_j": a_mod_j_mackey,
    "ru": ru_mackey,
    "pi0": lambda g: assemble_pi0(g).functor,
}


def _sha256(payload):
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@pytest.mark.parametrize("spec", sorted({key.split()[0] for key in FUNCTOR_SHA256}))
def test_functor_json_and_axiom_failures_pinned(spec):
    g = parse_group(spec)
    for name, build in FUNCTOR_BUILDS.items():
        expected = FUNCTOR_SHA256.get(f"{spec} {name}")
        if expected is None:
            continue
        m = build(g)
        payload = {
            "json": functor_json(m, include_mult=True),
            "mackey": m.check_mackey_axioms(),
            "green": m.check_green_axioms(),
        }
        assert _sha256(payload) == expected, (spec, name)


def test_pi1_c3_json_pinned():
    assert _sha256(functor_json(assemble_pi1_c3())) == PI1_C3_SHA256


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
    assert idempotent_splitting_check(burnside_mackey(g3), 2) == []
    g33 = parse_group("C3xC3")
    assert idempotent_splitting_check(a_mod_j_mackey(g33), 2) == []
    for spec in INSTANCES:
        g = parse_group(spec)
        assert idempotent_splitting_check(burnside_mackey(g), 2) == []
        assert idempotent_splitting_check(a_mod_j_mackey(g), 2) == []


def test_idempotent_splitting_check_names_a_corrupted_level():
    # declare [H/e] = 0 at one order-3 level of C3xC3: its free rank drops to
    # 1, but V_H keeps rank 1 (the relation is the transfer from e already),
    # so the pieces below H still sum to 2; no other level changes
    g = parse_group("C3xC3")
    m = burnside_mackey(g)
    h = _sub_of_order(g, 3)
    assert BurnsideRing(g, h).subgroups[0] == g.trivial_subgroup  # [H/e] is e_0
    m.levels[h] = Level(h, (1, 0))
    failures = idempotent_splitting_check(m, 2)
    assert len(failures) == 1 and repr(h) in failures[0]


def test_single_level_functor():
    # a functor concentrated at the top with value Z
    g = parse_group("C3")
    whole, triv = g.full_subgroup, g.trivial_subgroup
    levels = {triv: Level(triv, ()), whole: Level(whole, (0,))}
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
    assert idempotent_splitting_check(m, 2) == []


def test_maximal_proper_subgroups():
    g = parse_group("C3xC3")
    maxima = maximal_proper_subgroups(g.full_subgroup)
    assert len(maxima) == 4 and all(h.order == 3 for h in maxima)
    g9 = parse_group("C9")
    maxima = maximal_proper_subgroups(g9.full_subgroup)
    assert len(maxima) == 1 and maxima[0].order == 3


@pytest.mark.parametrize("spec", ["C3xC3xC3", "C9xC9", "C3xC3xC9"])
def test_maximal_proper_subgroups_are_those_of_prime_index(spec):
    g = parse_group(spec)
    for h in g.subgroups():
        assert maximal_proper_subgroups(h) == maximal_proper_subgroups_all_pairs(h), h


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
    r = result.a_mod_j.level(whole).rank
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
    level_e = Level(triv, (2, 2))
    level_top = Level(whole, (2, 2, 2, 2, 3))
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
    blob = functor_json(m, include_mult=True)
    text = json.dumps(blob, sort_keys=True)
    assert json.loads(text) == blob


def test_primary_torsion_against_sympy():
    sympy = pytest.importorskip("sympy")
    triv = parse_group("C1").trivial_subgroup

    def prime_powers(n):
        return [p ** e for p, e in sympy.factorint(n).items()]

    for n in range(1, 2001):
        m = n % 45 + 1
        lvl = Level(triv, (n, m))
        assert lvl.primary_torsion == tuple(sorted(prime_powers(n) + prime_powers(m)))
