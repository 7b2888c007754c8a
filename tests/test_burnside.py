import gc
import os
import random
import weakref
from fractions import Fraction

import pytest

from kulocal.burnside import BurnsideRing, marks_json, marks_text
from kulocal.exact import IntMatrix, lattice_contains, row_hnf, solve_integer
from kulocal.groups import parse_group

SEED = int(os.environ.get("TEST_SEED", "20240801"))


def ring(spec):
    return BurnsideRing(parse_group(spec))


def test_table_of_marks_c3():
    r = ring("C3")
    assert [list(row) for row in r.table_of_marks.entries] == [[3, 0], [1, 1]]


def test_table_of_marks_trivial():
    r = ring("C1")
    assert [list(row) for row in r.table_of_marks.entries] == [[1]]


def test_table_of_marks_c9():
    r = ring("C9")
    assert [list(row) for row in r.table_of_marks.entries] == [
        [9, 0, 0],
        [3, 3, 0],
        [1, 1, 1],
    ]


@pytest.mark.parametrize("spec", ["C3", "C9", "C27", "C3xC3", "C5", "C3xC9"])
def test_marks_determinant_and_injectivity(spec):
    r = ring(spec)
    det = r.table_of_marks.det()
    expected = 1
    for k in r.subgroups:
        expected *= r.level.order // k.order
    assert det == expected != 0


def test_multiply_c3():
    r = ring("C3")
    free = r.basis_element(r.subgroups[0])   # [G/e]
    one = r.one                              # [G/G]
    assert r.multiply(one, free) == free
    assert r.multiply(free, free) == r.scale(3, free)


@pytest.mark.parametrize("spec", ["C3", "C9", "C3xC3"])
def test_marks_is_ring_hom_random(spec):
    rng = random.Random(SEED)
    r = ring(spec)
    for _ in range(30):
        a = tuple(rng.randint(-4, 4) for _ in range(r.n))
        b = tuple(rng.randint(-4, 4) for _ in range(r.n))
        prod = r.multiply(a, b)
        assert r.marks(prod) == tuple(
            x * y for x, y in zip(r.marks(a), r.marks(b))
        )


def test_linearize_examples():
    r = ring("C3")
    assert r.linearize(r.one) == (1, 0, 0)
    assert r.linearize(r.basis_element(r.subgroups[0])) == (1, 1, 1)

    r2 = ring("C3xC3")
    h = [k for k in r2.subgroups if k.order == 3][0]
    lin = r2.linearize(r2.basis_element(h))
    assert sum(lin) == 3 and set(lin) <= {0, 1}
    # the three characters are exactly those trivial on h
    dual = r2.dual
    for a, c in zip(dual.reps, lin):
        trivial_on_h = all(dual.pairing(a, x) == 0 for x in h.elements)
        assert c == (1 if trivial_on_h else 0)


def test_linearize_is_ring_hom():
    # checked through marks: linearize then evaluate at g equals mark at <g>
    rng = random.Random(SEED + 3)
    r = ring("C9")
    for _ in range(20):
        a = tuple(rng.randint(-3, 3) for _ in range(r.n))
        b = tuple(rng.randint(-3, 3) for _ in range(r.n))
        lin_prod = r.linearize(r.multiply(a, b))
        # convolution of linearizations over the dual group
        dual = r.dual
        la, lb = r.linearize(a), r.linearize(b)
        conv = [0] * dual.size
        for i, x in enumerate(dual.reps):
            if la[i]:
                for j, y in enumerate(dual.reps):
                    if lb[j]:
                        conv[dual.index_of(dual.add(x, y))] += la[i] * lb[j]
        assert tuple(conv) == lin_prod


@pytest.mark.parametrize(
    "spec,rank",
    [("C3", 0), ("C9", 0), ("C27", 0), ("C1", 0), ("C3xC3", 1)],
)
def test_ideal_j_rank(spec, rank):
    r = ring(spec)
    rows = r.ideal_j_rows
    assert len(rows) == rank
    assert len(rows) == r.n - len(r.cyclic_subgroups())


def test_ideal_j_is_cyclic_vanishing_locus():
    r = ring("C3xC3")
    rows = r.ideal_j_rows
    # every kernel element has vanishing marks on all cyclic subgroups
    for row in rows:
        assert all(v == 0 for v in r.marks_on_cyclic(row))
    # conversely any element with cyclic marks zero is in the ideal
    hnf = row_hnf(rows, r.n)
    rng = random.Random(SEED)
    found = 0
    for _ in range(200):
        a = tuple(rng.randint(-6, 6) for _ in range(r.n))
        if all(v == 0 for v in r.marks_on_cyclic(a)):
            assert lattice_contains(hnf, a)
            found += 1
    # and ideal closure: J * basis elements stay in J
    for row in rows:
        for k in r.subgroups:
            prod = r.multiply(row, r.basis_element(k))
            assert lattice_contains(hnf, prod)


def test_idempotents_c3():
    r = ring("C3")
    e_triv = r.idempotent(r.subgroups[0], p=2)
    e_whole = r.idempotent(r.subgroups[1], p=2)
    assert e_triv == (Fraction(1, 3), 0)
    assert e_whole == (Fraction(-1, 3), 1)
    total = tuple(a + b for a, b in zip(e_triv, e_whole))
    assert total == r.one


@pytest.mark.parametrize("spec,p", [("C3", 2), ("C9", 2), ("C3xC3", 5), ("C5", 3)])
def test_idempotent_orthogonal_decomposition(spec, p):
    r = ring(spec)
    table = r.idempotent_table(p)
    subs = list(table)
    # sum to one
    total = [Fraction(0)] * r.n
    for e in table.values():
        total = [a + b for a, b in zip(total, e)]
    assert tuple(total) == r.one
    # pairwise products vanish (multiply in marks coordinates)
    for h1 in subs:
        for h2 in subs:
            m1 = [sum(Fraction(c) * r.table_of_marks.entries[i][j] for i, c in enumerate(table[h1])) for j in range(r.n)]
            m2 = [sum(Fraction(c) * r.table_of_marks.entries[i][j] for i, c in enumerate(table[h2])) for j in range(r.n)]
            prod = [a * b for a, b in zip(m1, m2)]
            if h1 is h2:
                assert prod == m1
            else:
                assert all(v == 0 for v in prod)


def test_idempotent_rejects_bad_prime():
    r = ring("C9")
    with pytest.raises(ValueError, match="divides the group order"):
        r.idempotent(r.subgroups[0], p=3)
    for p in (0, 1, 4):
        with pytest.raises(ValueError, match="is not a prime"):
            r.idempotent(r.subgroups[0], p=p)


@pytest.mark.parametrize(
    "spec,rank",
    [("C1", 1), ("C3", 2), ("C9", 3), ("C3xC3", 5), ("C27", 4)],
)
def test_a_mod_j_rank(spec, rank):
    r = ring(spec)
    aj = r.a_mod_j()
    assert aj.rank == rank == len(r.cyclic_subgroups())
    # ring structure: contains 1, closed under pointwise products of basis rows
    assert aj.contains(aj.one)
    for x in aj.basis:
        for y in aj.basis:
            assert aj.contains(aj.multiply(x, y))


def test_a_mod_j_cyclic_is_whole_ring():
    r = ring("C9")
    aj = r.a_mod_j()
    # J = 0 for cyclic groups: the projection is injective on the orbit basis
    images = [aj.project(r.basis_element(k)) for k in r.subgroups]
    assert len(set(images)) == r.n


def test_marks_serializations():
    g = parse_group("C9")
    js = marks_json(g)
    assert js["group"] == "C9"
    assert js["subgroup_orders"] == [1, 3, 9]
    assert js["marks_matrix"][0] == [9, 0, 0]
    text = marks_text(g)
    assert "table of marks" in text


@pytest.mark.parametrize("spec", ["C3xC9", "C3xC3xC3"])
def test_a_mod_j_coordinates_of_products(spec):
    group = parse_group(spec)
    for level in group.subgroups():
        r = BurnsideRing(group, level)
        q = r.a_mod_j()
        basis = IntMatrix.from_columns(q.basis, nrows=len(q.cyclic_subgroups))
        for i, k in enumerate(r.subgroups):
            for l in r.subgroups[i:]:
                marks = q.project(r.multiply(r.basis_element(k), r.basis_element(l)))
                coords = q.coordinates(marks)
                assert coords is not None
                assert coords == solve_integer(basis, marks)
                assert basis.apply(coords) == marks


def test_ring_is_freed_with_its_caches():
    r = ring("C3xC9")
    r.a_mod_j()
    assert r.ideal_j_rows and r.table_of_marks.rows == r.n and r.dual.size == 27
    ref = weakref.ref(r)
    del r
    gc.collect()
    assert ref() is None
