import gc
import os
import random
import weakref
from fractions import Fraction

import pytest
import sympy

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


@pytest.mark.parametrize(
    "spec", ["C3", "C9", "C27", "C3xC3", "C3xC9", "C9xC9", "C5xC25", "C3xC3xC3", "C15"]
)
def test_linearize_rows_are_pairing_trivial_characters(spec):
    # row K on every level: the characters pairing to 0 with every element of K
    g = parse_group(spec)
    for level in g.subgroups():
        r = BurnsideRing(g, level)
        dual = r.dual
        expected = [
            [int(all(dual.pairing(a, x) == 0 for x in k.elements)) for a in dual.reps]
            for k in r.subgroups
        ]
        assert [list(row) for row in r.linearize_matrix.entries] == expected


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


# -- independent oracles on every level --------------------------------------

ORACLE_GROUPS = [
    "C1", "C3", "C9", "C27", "C81", "C3xC3", "C3xC9", "C9xC9", "C5xC25",
    "C3xC3xC3", "C15", "C45", "C3xC15",
]


def level_rings(spec):
    group = parse_group(spec)
    return [BurnsideRing(group, level) for level in group.subgroups()]


def hall_mobius(k, h):
    """mu(K, H) for K <= H in an abelian group (P. Hall, 1936).

    Nonzero iff H/K has squarefree exponent, i.e. m.H <= K with m the radical
    of [H:K]; then it is the product over the Sylow parts of
    (-1)^r p^(r(r-1)/2), p^r the p-part of [H:K]."""
    factors = sympy.factorint(h.order // k.order)
    m = 1
    for p in factors:
        m *= p
    if not all(k.contains_element(h.group.scale(m, x)) for x in h.elements):
        return 0
    mu = 1
    for p, r in factors.items():
        mu *= (-1) ** r * p ** (r * (r - 1) // 2)
    return mu


def dense_marks(r, coeffs):
    return r.table_of_marks.transpose().apply(coeffs)


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_idempotent_is_gluck_formula(spec):
    # e_H = sum_{K <= H} mu(K, H) / [level:K] [level/K] (D. Gluck, 1981)
    for r in level_rings(spec):
        for h in r.subgroups:
            gluck = [Fraction(0)] * r.n
            for i, k in enumerate(r.subgroups):
                if h.contains(k):
                    gluck[i] = Fraction(hall_mobius(k, h) * k.order, r.level.order)
            assert r.idempotent(h, 2) == tuple(gluck)
            assert r.idempotent(h, 7) == tuple(gluck)


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_idempotent_properties(spec):
    # marks = indicator of H, leading coefficient 1/[level:H], support inside
    # H, and every denominator divides |level|
    for r in level_rings(spec):
        for h in r.subgroups:
            e = r.idempotent(h, 2)
            ind = tuple(int(k == h) for k in r.subgroups)
            assert dense_marks(r, e) == ind
            assert e[r.sub_index(h)] == Fraction(1, r.level.order // h.order)
            for k, c in zip(r.subgroups, e):
                assert c == 0 or h.contains(k)
                assert r.level.order % c.denominator == 0


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_marks_and_inverse_against_dense_table_and_sympy(spec):
    # sparse marks = the dense table-of-marks product; element_from_marks and
    # multiply = sympy's rational solve against the table, on seeded marks
    # vectors (mostly not integral) and on products (always integral)
    rng = random.Random(SEED + 11)
    for r in level_rings(spec):
        pairs = []
        for _ in range(3):
            a = [rng.randint(-5, 5) for _ in range(r.n)]
            b = [rng.randint(-5, 5) for _ in range(r.n)]
            assert r.marks(a) == dense_marks(r, a)
            pairs.append((a, b))
        vectors = [[rng.randint(-50, 50) for _ in range(r.n)] for _ in range(3)]
        products = [[x * y for x, y in zip(r.marks(a), r.marks(b))] for a, b in pairs]
        rhs = vectors + products
        table = sympy.Matrix([list(row) for row in r.table_of_marks.entries])
        solution = table.T.LUsolve(sympy.Matrix(rhs).T)
        for col, marks in enumerate(rhs):
            exact = [solution[i, col] for i in range(r.n)]
            if all(c.is_integer for c in exact):
                assert r.element_from_marks(marks) == tuple(int(c) for c in exact)
            else:
                with pytest.raises(ValueError, match="not integral over the orbit basis"):
                    r.element_from_marks(marks)
        for col, (a, b) in enumerate(pairs, start=len(vectors)):
            assert r.multiply(a, b) == tuple(int(solution[i, col]) for i in range(r.n))


def test_non_integral_marks_message():
    r = ring("C3")
    with pytest.raises(ValueError, match=r"^marks vector \(1, 0\) is not integral over the orbit basis$"):
        r.element_from_marks((1, 0))
    with pytest.raises(ValueError, match=r"^marks vector \[0, 1\] is not integral over the orbit basis$"):
        r.element_from_marks([0, 1])
