import hashlib
import os
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from kulocal import exact
from kulocal.exact import (
    Cyclotomic,
    IntMatrix,
    cyclotomic_polynomial,
    divisibility_chain,
    euler_phi,
    hnf_coordinates,
    is_prime,
    kernel_lattice,
    lattice_contains,
    lattice_equal,
    mult_matrix,
    mult_matrix_determinant,
    poly_divmod_monic,
    poly_mul,
    poly_sub,
    poly_trim,
    poly_x_power,
    prime_factors,
    prime_power_part,
    reduce_root_of_unity_sum,
    row_hnf,
    smallest_prime_factor,
    smallest_primitive_root,
    smith_normal_form,
    solve_integer,
    xgcd,
)
from oracles import mult_matrix_by_products

SEED = int(os.environ.get("TEST_SEED", "20240801"))


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (270, -192)]:
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)  # x - 1
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)  # x^2 + x + 1
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)  # x^6 + x^3 + 1


def test_cyclotomic_polynomial_raises_on_a_remainder(monkeypatch):
    monkeypatch.setattr(exact, "poly_divmod_monic", lambda num, den: ((1,), (1,)))
    cyclotomic_polynomial.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="left remainder"):
            cyclotomic_polynomial(9)
    finally:
        cyclotomic_polynomial.cache_clear()


@pytest.mark.parametrize("e", range(1, 40))
def test_cyclotomic_product_identity(e):
    # prod over d | e of Phi_d equals x^e - 1
    prod = (1,)
    for d in range(1, e + 1):
        if e % d == 0:
            prod = poly_mul(prod, cyclotomic_polynomial(d))
    assert prod == poly_sub(poly_x_power(e), (1,))
    assert len(cyclotomic_polynomial(e)) - 1 == euler_phi(e)


def test_reduce_root_of_unity_sum():
    assert reduce_root_of_unity_sum(3, [0, 1, 2]).is_zero()
    i = reduce_root_of_unity_sum(4, [1])
    assert i.coeffs == (0, 1)  # the class of zeta_4
    assert reduce_root_of_unity_sum(3, [1, 2]) == -1


def test_reduce_is_ring_hom():
    # reduction of a product of sums equals the product of the reductions
    rng = random.Random(SEED)
    for _ in range(50):
        e = rng.choice([3, 5, 8, 9, 12])
        xs = [rng.randrange(e) for _ in range(rng.randrange(1, 5))]
        ys = [rng.randrange(e) for _ in range(rng.randrange(1, 5))]
        lhs = reduce_root_of_unity_sum(e, [a + b for a in xs for b in ys])
        rhs = reduce_root_of_unity_sum(e, xs) * reduce_root_of_unity_sum(e, ys)
        assert lhs == rhs


def test_cyclotomic_rational_detection():
    z = Cyclotomic.zeta_power(5, 1)
    s = z + z ** 2 + z ** 3 + z ** 4
    assert s.is_rational() and s.rational_value() == -1
    assert not z.is_rational()
    assert Cyclotomic.from_rational(7, Fraction(2, 3)).rational_value() == Fraction(2, 3)


def test_smith_identity_and_diag():
    dec = smith_normal_form(IntMatrix.identity(3))
    assert dec.verify()
    assert dec.invariant_factors == (1, 1, 1)

    dec = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert dec.verify()
    assert dec.invariant_factors == (1, 6)


def test_smith_paper_cokernel_matrix():
    a = IntMatrix([[1, 0, 0], [0, -1, 2], [0, 2, -1]])
    dec = smith_normal_form(a)
    assert dec.verify()
    assert dec.invariant_factors == (1, 1, 3)
    free, torsion = dec.cokernel_invariants()
    assert free == 0 and torsion == [3]


def test_smith_verify_rejects_bad_witnesses():
    a = IntMatrix([[1, 0, 0], [0, -1, 2], [0, 2, -1]])
    dec = smith_normal_form(a)
    assert dec.verify() and dec.invariant_factors == (1, 1, 3)
    s = [list(r) for r in dec.s.entries]
    s[2][2] += 1  # (1, 1, 4) is a chain, but U^-1 A V^-1 != S
    assert not replace(dec, s=IntMatrix(s)).verify()
    # 2 U^-1 A V^-1 = 2 S holds, but det(2 U^-1) = +-8
    assert not replace(dec, u_inv=dec.u_inv.scale(2), s=dec.s.scale(2)).verify()
    # each below is its own witness with U^-1 = V^-1 = I
    ident = IntMatrix.identity(2)
    for b in (IntMatrix([[2, 0], [0, 3]]), IntMatrix([[1, 1], [0, 1]])):
        dec = smith_normal_form(b)
        assert dec.verify()
        assert not replace(dec, s=b, u_inv=ident, v_inv=ident).verify(), b


def test_smith_random_matrices():
    rng = random.Random(SEED)
    for _ in range(500):
        m = rng.randrange(1, 13)
        n = rng.randrange(1, 13)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        dec = smith_normal_form(a)
        assert dec.verify(), f"bad decomposition for {a!r}"


# sha256 of repr([(S, U^-1, V^-1) entries]) over the batch below, recorded
# before the pivot search learned to stop at the first row holding a +-1: the
# lowest such row already holds the pivot a full scan picks (least |x|, then
# lowest row, then lowest column), so no witness may change
SMITH_WITNESS_SHA256 = "2b5ad5d2800396d5a04842fdb79b997138b777e24f0b38e57cd90517473b07d7"


def test_smith_witnesses_are_pinned():
    rng = random.Random(2024)
    non_units = (-12, -10, -6, -4, -3, -2, 0, 0, 2, 3, 4, 6, 10, 12)
    witnesses = []
    for k in range(400):
        m, n = rng.randrange(1, 10), rng.randrange(1, 10)
        if k % 2:  # no unit entry: the first pivots come from a full scan
            rows = [[rng.choice(non_units) for _ in range(n)] for _ in range(m)]
        else:
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        dec = smith_normal_form(IntMatrix(rows))
        witnesses.append((dec.s.entries, dec.u_inv.entries, dec.v_inv.entries))
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == SMITH_WITNESS_SHA256


def test_kernel_lattice_basics():
    k = kernel_lattice(IntMatrix.zeros(2, 2))
    assert k.cols == 2 and k.rows == 2

    k = kernel_lattice(IntMatrix([[1, 1]]))
    assert k.cols == 1
    (col,) = [k.column(0)]
    assert col in ((1, -1), (-1, 1))


def test_kernel_lattice_saturated():
    rng = random.Random(SEED + 1)
    for _ in range(100):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        a = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        k = kernel_lattice(a)
        # A * K = 0
        for j in range(k.cols):
            assert a.apply(k.column(j)) == (0,) * m
        # saturation: any integer kernel vector is an integer combination
        hnf = row_hnf([k.column(j) for j in range(k.cols)], n)
        for _ in range(10):
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            if a.apply(v) == (0,) * m:
                assert lattice_contains(hnf, v)


def test_solve_integer():
    a = IntMatrix([[2, 0], [0, 3]])
    assert solve_integer(a, (4, 9)) == (2, 3)
    assert solve_integer(a, (1, 0)) is None
    a = IntMatrix([[1, 1]])
    x = solve_integer(a, (5,))
    assert x is not None and sum(x) == 5


def test_row_hnf_canonical():
    rows1 = [(3, 0), (1, 1)]
    rows2 = [(1, 1), (0, 3)]
    assert lattice_equal(rows1, rows2, 2)
    assert not lattice_equal(rows1, [(1, 0), (0, 1)], 2)
    h = row_hnf(rows1, 2)
    assert h == ((1, 1), (0, 3))


def test_quotient_ring_and_mult_det():
    # Z[zeta_3] = Z[x]/(x^2+x+1)
    one, x = Cyclotomic.one(3), Cyclotomic.zeta_power(3, 1)
    assert mult_matrix_determinant(one) == 1
    assert abs(mult_matrix_determinant(x)) == 1
    assert abs(mult_matrix_determinant(x - one)) == 3
    assert mult_matrix_determinant(Cyclotomic.from_rational(3, 2)) == 4


@pytest.mark.parametrize("e", [3, 5, 7, 9, 25, 27, 49, 81, 125])
def test_norm_of_zeta_minus_one(e):
    # zeta_e - 1 generates the prime over p in Z[zeta_e], e = p^k: norm +-p
    d = mult_matrix_determinant(Cyclotomic.zeta_power(e, 1) - Cyclotomic.one(e))
    assert abs(d) == prime_factors(e)[0]


def test_mult_det_multiplicative():
    rng = random.Random(SEED + 2)
    for e in (3, 5, 7, 9):
        phi = euler_phi(e)
        for _ in range(10):
            a = Cyclotomic(e, [rng.randint(-3, 3) for _ in range(phi)])
            b = Cyclotomic(e, [rng.randint(-3, 3) for _ in range(phi)])
            assert mult_matrix_determinant(a * b) == (
                mult_matrix_determinant(a) * mult_matrix_determinant(b)
            )


def test_mult_matrix_rejects_fractions():
    # int() would truncate 1/2 to 0 and report norm 0; the norm is 1/4
    with pytest.raises(ValueError):
        mult_matrix(Cyclotomic.from_rational(3, Fraction(1, 2)))


def test_intmatrix_rejects_fraction_entry():
    # int() would truncate 1/2 to 0, so the determinant would read 0
    with pytest.raises(ValueError, match=r"entry Fraction\(1, 2\) is not an int"):
        IntMatrix([[Fraction(1, 2)]])


def _dense_product(a, b):
    """The definition: entry (i, j) is the sum over t of a[i][t] * b[t][j]."""
    return [
        [sum(a.entries[i][t] * b.entries[t][j] for t in range(a.cols)) for j in range(b.cols)]
        for i in range(a.rows)
    ]


def test_intmatrix_product_matches_dense_definition():
    rng = random.Random(SEED + 6)
    entry = {
        "sparse": lambda: rng.choice((0, 0, 0, 0, 1, -1)),
        "dense": lambda: rng.randint(-9, 9),
    }
    for _ in range(300):
        m, k, n = rng.randrange(0, 8), rng.randrange(0, 8), rng.randrange(0, 8)
        a = IntMatrix([[entry[rng.choice(list(entry))]() for _ in range(k)] for _ in range(m)], cols=k)
        b = IntMatrix([[entry[rng.choice(list(entry))]() for _ in range(n)] for _ in range(k)], cols=n)
        product = a * b
        assert (product.rows, product.cols) == (m, n)
        assert [list(r) for r in product.entries] == _dense_product(a, b)
    # empty shapes: 0 rows, 0 columns, and an empty inner dimension
    assert (IntMatrix.zeros(0, 3) * IntMatrix.zeros(3, 4)) == IntMatrix.zeros(0, 4)
    assert (IntMatrix.zeros(2, 3) * IntMatrix.zeros(3, 0)) == IntMatrix.zeros(2, 0)
    assert (IntMatrix.zeros(2, 0) * IntMatrix.zeros(0, 5)) == IntMatrix.zeros(2, 5)
    with pytest.raises(ValueError, match="shape mismatch"):
        IntMatrix.identity(2) * IntMatrix.identity(3)


def _random_matrix(rng, m, n):
    pick = (
        lambda: rng.choice((0, 0, 1, -1)),
        lambda: rng.randint(-9, 9),
        lambda: rng.randint(-10**30, 10**30),
    )
    return IntMatrix([[rng.choice(pick)() for _ in range(n)] for _ in range(m)], cols=n)


def test_intmatrix_arithmetic_matches_the_validating_constructor():
    # the results of *, +, -, unary minus and scale skip the per-entry type
    # check; each must equal the matrix the checking constructor builds
    rng = random.Random(SEED + 7)
    for _ in range(200):
        m, k, n = rng.randrange(0, 6), rng.randrange(0, 6), rng.randrange(0, 6)
        a, b, c = _random_matrix(rng, m, k), _random_matrix(rng, m, k), _random_matrix(rng, k, n)
        s = rng.choice((0, 1, -1, rng.randint(-9, 9), 10**20))
        cases = [
            (a * c, _dense_product(a, c), n),
            (a + b, [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a.entries, b.entries)], k),
            (a - b, [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a.entries, b.entries)], k),
            (-a, [[-x for x in r] for r in a.entries], k),
            (a.scale(s), [[s * x for x in r] for r in a.entries], k),
        ]
        for got, rows, cols in cases:
            want = IntMatrix(rows, cols=cols)
            assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)
            assert got == want and hash(got) == hash(want)
            assert type(got.entries) is tuple and all(type(r) is tuple for r in got.entries)
            assert all(type(x) is int for r in got.entries for x in r)
    for scalar in (Fraction(1, 2), Fraction(2), 0.5, 2.0):
        with pytest.raises(ValueError, match="scalar"):
            IntMatrix([[1, 2], [3, 4]]).scale(scalar)


def test_intmatrix_sum_and_difference_need_equal_shapes():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a + a == IntMatrix([[2, 4], [6, 8]])
    assert a - a == IntMatrix.zeros(2, 2)
    # zip would truncate to [[2, 4]] and [[0, 0]]
    for other in (IntMatrix([[1, 2, 3]]), IntMatrix([[1], [2]]), IntMatrix.zeros(0, 2)):
        with pytest.raises(ValueError, match="shape mismatch"):
            a + other
        with pytest.raises(ValueError, match="shape mismatch"):
            a - other


def test_smallest_primitive_root():
    assert smallest_primitive_root(3) == 2
    assert smallest_primitive_root(9) == 2
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(25) == 2
    assert smallest_primitive_root(1) == 2


@pytest.mark.parametrize("e", [1, 2, 3, 9, 27, 81, 243, 5, 25, 125, 7, 49, 12, 15, 45])
def test_mult_matrix_matches_column_by_column_products(e):
    # mult_matrix builds column j+1 as a shift of column j reduced by Phi_e;
    # the oracle multiplies by zeta^j in Z[zeta_e] for each column
    rng = random.Random(SEED + e)
    phi = euler_phi(e)
    elements = [Cyclotomic.one(e), Cyclotomic.zeta_power(e, 1), Cyclotomic.zeta_power(e, e - 1)]
    for _ in range(4):
        elements.append(Cyclotomic(e, [rng.choice((0, rng.randint(-9, 9))) for _ in range(phi)]))
        elements.append(Cyclotomic(e, [rng.randint(-10**12, 10**12) for _ in range(phi)]))
    for a in elements:
        m = mult_matrix(a)
        assert (m.rows, m.cols) == (phi, phi)
        assert m.entries == mult_matrix_by_products(a).entries, a
    coeffs = [rng.randint(-9, 9) for _ in range(phi)]
    coeffs[rng.randrange(phi)] = Fraction(1, 2)
    with pytest.raises(ValueError, match="not an int"):
        mult_matrix(Cyclotomic(e, coeffs))


def test_mult_matrix_shape():
    m = mult_matrix(Cyclotomic.zeta_power(9, 1))  # mod Phi_9 = 1 + x^3 + x^6
    assert m.rows == m.cols == 6


def test_hnf_coordinates_match_solve_integer():
    # solve_integer (a full Smith form) is the reference for the back-substitution
    rng = random.Random(SEED + 3)
    members = non_members = 0
    for _ in range(60):
        n = rng.randrange(1, 6)
        gens = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randrange(1, 6))]
        hnf = row_hnf(gens, n)
        a = IntMatrix.from_columns(hnf, nrows=n)
        for _ in range(10):
            coeffs = [rng.randint(-4, 4) for _ in hnf]
            member = tuple(sum(c * row[j] for c, row in zip(coeffs, hnf)) for j in range(n))
            assert hnf_coordinates(hnf, member) == solve_integer(a, member) == tuple(coeffs)
            v = tuple(x + rng.randint(-1, 1) for x in member)
            expected = solve_integer(a, v)
            assert hnf_coordinates(hnf, v) == expected
            assert lattice_contains(hnf, v) == (expected is not None)
            members += 1
            non_members += expected is None
    assert members and non_members


def test_number_theory_against_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 2001):
        factors = sympy.factorint(n)
        assert prime_factors(n) == sorted(factors)
        assert is_prime(n) == sympy.isprime(n)
        assert smallest_prime_factor(n) == (min(factors) if factors else 1)
        for q in (1, 2, 3, 5, 7, 9):
            expected = 1 if q == 1 else q ** min(
                factors.get(p, 0) // e for p, e in sympy.factorint(q).items()
            )
            assert prime_power_part(n, q) == expected
    assert not is_prime(0) and not is_prime(-3)


def test_divisibility_chain_matches_smith_of_diagonal():
    rng = random.Random(SEED + 4)
    cases = [[], [1], [4, 6], [6, 4, 10], [9, 3, 27, 1], [2 ** 162 - 1, 2 ** 54 - 1, 3]]
    for _ in range(300):
        k = rng.randrange(1, 8)
        cases.append([rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12, 25, 27, 35, 80, 242]) for _ in range(k)])
    for orders in cases:
        chain = divisibility_chain(orders)
        assert all(chain[i + 1] % chain[i] == 0 for i in range(len(chain) - 1))
        n = len(orders)
        diag = IntMatrix([[orders[i] if i == j else 0 for j in range(n)] for i in range(n)], cols=n)
        assert chain == smith_normal_form(diag).invariant_factors, orders
    with pytest.raises(ValueError):
        divisibility_chain([3, 0])


def _sympy_matrices(rng):
    """Seeded random matrices (some of them rank-deficient products) and
    structured ones: psi^ell - 1 in both degrees, tables of marks,
    linearization matrices and cyclotomic multiplication matrices."""
    from kulocal.burnside import BurnsideRing
    from kulocal.groups import DualLevel, parse_group
    from kulocal.reprings import adams_minus_one_on

    out = []
    for _ in range(60):
        m, n = rng.randrange(1, 9), rng.randrange(1, 9)
        out.append(IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]))
    for _ in range(30):
        m, r, n = rng.randrange(1, 8), rng.randrange(1, 4), rng.randrange(1, 8)
        left = IntMatrix([[rng.randint(-5, 5) for _ in range(r)] for _ in range(m)])
        right = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(r)])
        out.append(left * right)
    for spec, ell in [("C9", 2), ("C27", 5), ("C3xC9", -7), ("C5xC5", 2)]:
        g = parse_group(spec)
        for h in g.subgroups():
            for degree in (0, 2):
                out.append(adams_minus_one_on(DualLevel(g, h), ell, degree))
        ring = BurnsideRing(g)
        out += [ring.table_of_marks, ring.linearize_matrix]
    for e in (9, 25, 27):
        for _ in range(3):
            coeffs = [rng.randint(-3, 3) for _ in range(euler_phi(e))]
            out.append(mult_matrix(Cyclotomic(e, coeffs)))
    return out


def test_smith_and_hermite_forms_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form, invariant_factors
    from sympy.polys.domains import ZZ

    for a in _sympy_matrices(random.Random(SEED + 5)):
        ref = sympy.Matrix([list(r) for r in a.entries])
        expected = tuple(abs(int(d)) for d in invariant_factors(ref, domain=ZZ) if d != 0)
        assert smith_normal_form(a).invariant_factors == expected, a
        # the row lattice of A is the column lattice of A^T, which sympy's
        # (column-style) Hermite form spans with independent columns
        hnf = hermite_normal_form(ref.T)
        ref_rows = [tuple(int(x) for x in hnf.col(j)) for j in range(hnf.cols)]
        ours = row_hnf(a.entries, a.cols)
        assert len(ours) == len(ref_rows) == len(expected)
        assert ours == row_hnf(ref_rows, a.cols), a


# -- the sparse Z[x] kernels against the dense schoolbook loops and sympy -----


def _dense_mul(f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly_trim(out)


def _dense_divmod_monic(f, g):
    rem, dg = list(f), len(g) - 1
    quo = [0] * max(len(rem) - dg, 0)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        quo[i - dg] = c
        for j in range(dg + 1):
            rem[i - dg + j] -= c * g[j]
    return poly_trim(quo), poly_trim(rem)


def _random_poly(rng, length, kind):
    """Coefficients, ascending: dense ints, sparse ints (mostly zeros),
    Fractions, or the zero polynomial (untrimmed zeros included)."""
    if kind == "zero":
        return (0,) * rng.randrange(3)
    if kind == "fraction":
        return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(length))
    density = 1.0 if kind == "dense" else 0.1
    return tuple(rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(length))


POLY_KINDS = ("dense", "sparse", "fraction", "zero")


def _sympy_poly(sympy, f):
    qq = sympy.QQ
    coeffs = [qq(Fraction(c).numerator, Fraction(c).denominator) for c in reversed(f)]
    return sympy.Poly.from_list(coeffs or [qq(0)], sympy.Symbol("x"), domain=qq)


def _sympy_cyclotomic(sympy, e):
    return sympy.cyclotomic_poly(e, sympy.Symbol("x"), polys=True).set_domain(sympy.QQ)


def _from_sympy(p):
    return poly_trim(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


def test_poly_mul_matches_dense_product_and_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(SEED + 11)
    for _ in range(200):
        f = _random_poly(rng, rng.randrange(1, 60), rng.choice(POLY_KINDS))
        g = _random_poly(rng, rng.randrange(1, 60), rng.choice(POLY_KINDS))
        product = poly_mul(f, g)
        assert product == _dense_mul(f, g), (f, g)
        assert product == _from_sympy(_sympy_poly(sympy, f) * _sympy_poly(sympy, g))


def _check_divmod(sympy, f, g):
    quo, rem = poly_divmod_monic(f, g)
    assert (quo, rem) == _dense_divmod_monic(f, g), (f, g)
    ref_quo, ref_rem = sympy.div(_sympy_poly(sympy, f), _sympy_poly(sympy, g))
    assert (quo, rem) == (_from_sympy(ref_quo), _from_sympy(ref_rem)), (f, g)


def test_poly_divmod_monic_by_every_cyclotomic_polynomial_up_to_243():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(SEED + 12)
    for e in range(1, 244):
        phi = cyclotomic_polynomial(e)
        assert _sympy_poly(sympy, phi) == _sympy_cyclotomic(sympy, e)
        kind = POLY_KINDS[e % len(POLY_KINDS)]
        _check_divmod(sympy, _random_poly(rng, rng.randrange(1, 2 * len(phi)), kind), phi)


def test_poly_divmod_monic_by_random_monic_divisors():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(SEED + 13)
    for _ in range(150):
        g = _random_poly(rng, rng.randrange(0, 30), rng.choice(("dense", "sparse"))) + (1,)
        f = _random_poly(rng, rng.randrange(0, 70), rng.choice(POLY_KINDS))
        _check_divmod(sympy, f, g)


@pytest.mark.parametrize("e", [45, 81, 243])
def test_cyclotomic_products_match_sympy_remainders(e):
    sympy = pytest.importorskip("sympy")
    phi = _sympy_cyclotomic(sympy, e)
    rng = random.Random(SEED + e)
    for _ in range(6):
        a, b = (_random_poly(rng, euler_phi(e), rng.choice(POLY_KINDS)) for _ in range(2))
        product = Cyclotomic(e, a) * Cyclotomic(e, b)
        expected = _from_sympy((_sympy_poly(sympy, a) * _sympy_poly(sympy, b)).rem(phi))
        assert product == Cyclotomic(e, expected)


def _det_matrices(rng):
    """Matrices that reach every branch of the Bareiss loop, then seeded
    sparse ones and the degree-2 psi^ell - 1 of three groups."""
    from kulocal.fiber import default_ell
    from kulocal.groups import DualLevel, parse_group
    from kulocal.reprings import adams_minus_one_on

    out = [
        IntMatrix([], cols=0),
        IntMatrix([[-7]]),
        IntMatrix([[2, 1, 0], [0, 3, 1], [1, 0, 4]]),  # 0 under pivot 2 != prev 1
        IntMatrix([[1, 2, 3], [0, 4, 5], [1, 0, 6]]),  # 0 under pivot 1 == prev 1
        IntMatrix([[0, 2, 1], [3, 0, 0], [1, 1, 1]]),  # zero pivot: a row swap
        IntMatrix([[0, 1], [0, 2]]),  # no pivot in column 0
        IntMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]]),  # singular, with a swap
    ]
    for _ in range(200):
        n = rng.randrange(1, 8)
        out.append(IntMatrix([[rng.choice((0, 0, 0, 1, -1, 2, 3)) for _ in range(n)] for _ in range(n)]))
    for spec in ("C27", "C81", "C3xC9"):
        g = parse_group(spec)
        out.append(adams_minus_one_on(DualLevel(g, g.full_subgroup), default_ell(g), 2))
    return out


def test_det_against_sympy():
    sympy = pytest.importorskip("sympy")
    dets = []
    for a in _det_matrices(random.Random(SEED + 6)):
        ref = sympy.Matrix([list(r) for r in a.entries]).det(method="domain-ge")
        assert a.det() == ref, a
        dets.append(ref)
    assert dets[:7] == [1, -7, 25, 22, -3, 0, 0]
    assert 0 in dets[7:-3] and all(dets[-3:])
