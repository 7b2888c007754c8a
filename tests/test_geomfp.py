import time

import pytest

from kulocal import geomfp
from kulocal.cli import run
from kulocal.exact import (
    Cyclotomic,
    IntMatrix,
    cyclotomic_polynomial,
    mult_matrix,
    poly_mul,
    poly_sub,
    poly_x_power,
)
from kulocal.geomfp import (
    DIRECT_DET_RANK_BOUND,
    bott_character,
    root_of_unity_product,
    trunc_regular_poly,
    verify_CqxCq_vanishing,
    verify_adams_on_bott,
    verify_euler_localization,
    verify_q_unit_identity,
    verify_regular_factorization,
)
from kulocal.groups import AbelianGroup, parse_group
from oracles import generated_subgroup, ru_restrict, unit_product_by_cyclotomic_products

PRIME_POWER_RANGE = [(q, k) for q in (3, 5, 7) for k in range(1, 5) if q ** k <= 125]


def test_trunc_regular_poly():
    assert trunc_regular_poly(3, 1) == (1, 1, 1)
    assert trunc_regular_poly(3, 2) == (1, 0, 0, 1, 0, 0, 1)
    assert trunc_regular_poly(5, 1) == (1, 1, 1, 1, 1)


@pytest.mark.parametrize("q,k", PRIME_POWER_RANGE)
def test_trunc_regular_poly_is_cyclotomic(q, k):
    # so Z[x]/rho(k-1) is Z[zeta_{q^k}], the ring geomfp computes in
    assert trunc_regular_poly(q, k) == cyclotomic_polynomial(q ** k)


def test_regular_factorization_examples():
    assert verify_regular_factorization(3, 1).ok
    assert verify_regular_factorization(3, 2).ok
    assert verify_regular_factorization(5, 1).ok
    # explicit k=1 case: x^3 - 1 = (x - 1)(x^2 + x + 1)
    assert poly_mul((-1, 1), (1, 1, 1)) == poly_sub(poly_x_power(3), (1,))


@pytest.mark.parametrize("q,k", PRIME_POWER_RANGE)
def test_regular_factorization_range(q, k):
    assert verify_regular_factorization(q, k).ok


def test_q_unit_identity_examples():
    # q=3, k=1: (1 - x)(x + 2) = 3 in Z[x]/(x^2+x+1)
    one, x = Cyclotomic.one(3), Cyclotomic.zeta_power(3, 1)
    assert (one - x) * (x + 2 * one) == 3 * one
    assert verify_q_unit_identity(3, 1).ok
    assert verify_q_unit_identity(3, 2).ok
    assert verify_q_unit_identity(5, 1).ok


@pytest.mark.parametrize("q,k", PRIME_POWER_RANGE)
def test_q_unit_identity_range(q, k):
    assert verify_q_unit_identity(q, k).ok


def test_euler_localization_small():
    w = verify_euler_localization(3, 1)
    assert w.ok
    assert abs(w.witness["det_y_minus_1"]) == 3

    w2 = verify_euler_localization(3, 2)
    assert w2.ok
    d = abs(w2.witness["det_y_minus_1"])
    # a positive power of 3
    assert d > 1
    while d % 3 == 0:
        d //= 3
    assert d == 1


def test_euler_localization_unit_example():
    # rho_2 = x + 1 is a unit mod x^2 + x + 1: (x+1)(-x) = 1
    one, x = Cyclotomic.one(3), Cyclotomic.zeta_power(3, 1)
    assert (x + one) * (-1 * x) == one


@pytest.mark.parametrize("q,k", PRIME_POWER_RANGE)
def test_euler_localization_range(q, k):
    assert verify_euler_localization(q, k).ok


@pytest.mark.parametrize("n", [1, 5, 9])
def test_cyclic_mul_sparse_matches_the_entrywise_formula(n):
    v = list(range(1, n + 1))
    for power in range(2 * n):
        for sign in (1, -1):
            expected = [v[(j - power) % n] + sign * v[j] for j in range(n)]
            assert geomfp._cyclic_mul_sparse(v, power, n, sign) == expected


@pytest.mark.parametrize("q,k", [(3, 2), (5, 2), (3, 3), (7, 2), (5, 3)])
def test_unit_product_matches_the_cyclotomic_product(q, k):
    n = q ** k
    for i in range(1, n):
        if i % q:
            product = geomfp._unit_product(n, i)
            assert product == unit_product_by_cyclotomic_products(n, i) == Cyclotomic.one(n), i


@pytest.mark.parametrize("q,k,bad,certified", [(3, 2, 5, 3), (5, 3, 7, 5)])
def test_euler_localization_fails_on_a_dropped_run(monkeypatch, q, k, bad, certified):
    # at i = bad, drop the run of i ones that the partner's monomial x^i
    # (t = 1) starts; the units before it stay certified
    n = q ** k
    original = geomfp._unit_product

    def dropped(n, i):
        run = Cyclotomic.from_poly(n, [0] * i + [1] * i)
        return original(n, i) - run if i == bad else original(n, i)

    monkeypatch.setattr(geomfp, "_unit_product", dropped)
    w = verify_euler_localization(q, k)
    assert not w.ok
    assert w.witness["euler_divisible"]
    assert w.witness["units_certified"] == certified
    small = n - n // q <= DIRECT_DET_RANK_BOUND
    assert w.witness["unit_dets_cross_checked"] == (certified if small else 0)


# every (q, k) whose multiplication matrix is small enough for Bareiss
BAREISS_RANGE = [
    (q, k)
    for q in (3, 5, 7, 11, 13, 17, 19, 23)
    for k in (1, 2, 3)
    if (q - 1) * q ** (k - 1) <= DIRECT_DET_RANK_BOUND
]


@pytest.mark.parametrize("q,k", BAREISS_RANGE)
def test_euler_localization_det_matches_bareiss(q, k):
    n = q ** k
    y_minus_1 = Cyclotomic.zeta_power(n, q ** (k - 1)) - Cyclotomic.one(n)
    w = verify_euler_localization(q, k)
    assert w.ok
    assert w.witness["det_y_minus_1"] == mult_matrix(y_minus_1).det()


@pytest.mark.parametrize(
    "entry",
    [(0, 1), (1, 1)],
    ids=["off-block entry", "block of one residue class"],
)
def test_euler_localization_fails_without_equal_blocks(monkeypatch, entry):
    # neither corruption touches the residue-0 block, so the determinant the
    # witness reports stays a power of q and only the block check can fail
    clean = verify_euler_localization(3, 2)
    original = geomfp.mult_matrix

    def corrupted(c):
        rows = [list(r) for r in original(c).entries]
        rows[entry[0]][entry[1]] += 1
        return IntMatrix(rows, cols=len(rows))

    monkeypatch.setattr(geomfp, "mult_matrix", corrupted)
    w = verify_euler_localization(3, 2)
    assert w.witness == clean.witness
    assert not w.ok


def test_cq_x_cq_vanishing():
    assert verify_CqxCq_vanishing(3).ok
    assert verify_CqxCq_vanishing(5).ok


def test_cq_x_cq_vanishing_7():
    assert verify_CqxCq_vanishing(7).ok


def test_root_of_unity_products():
    for k in [1, 3, 5, 7, 9, 11, 13, 15]:
        assert root_of_unity_product(k) == k


def test_bott_character_c3():
    g = parse_group("C3")
    values = bott_character(g)
    assert values[(0,)] == (1, 3)
    assert values[(1,)] == (3, 1)
    assert values[(2,)] == (3, 1)


def test_bott_character_rejects_even_order():
    g = AbelianGroup((2,))
    with pytest.raises(ValueError):
        bott_character(g)


def test_bott_character_computes_one_product_per_element_order():
    # C81 has elements of orders 1, 3, 9, 27 and 81
    root_of_unity_product.cache_clear()
    bott_character(parse_group("C81"))
    info = root_of_unity_product.cache_info()
    assert (info.misses, info.hits) == (5, 76)


def test_bott_character_raises_on_a_wrong_cyclotomic_product(monkeypatch, capsys):
    bott_character(parse_group("C3"))  # a warm cache must not hide the fault
    monkeypatch.setattr(geomfp, "root_of_unity_product", lambda k: k + 1)
    with pytest.raises(ArithmeticError, match="cyclotomic product at k=1 gave 2, expected 1"):
        bott_character(parse_group("C3"))
    assert run(["bott-verify", "--group", "C3"]) == 2
    assert "cyclotomic product" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["C1", "C3", "C9", "C27", "C3xC3", "C3xC9", "C5", "C25", "C7"])
def test_bott_character_consistency(spec):
    g = parse_group(spec)
    values = bott_character(g)
    for x, (scalar, beta) in values.items():
        k = g.element_order(x)
        assert scalar == k ** (g.order // k)
        assert beta == g.order // k


def test_bott_character_product_group_factorization():
    # on C3 x C3, restriction of the regular representation to any cyclic
    # subgroup <g> is [G : <g>] copies of its regular representation, so the
    # graded value at g is determined by the cyclic data alone
    from kulocal.groups import DualLevel
    from kulocal.reprings import RURing

    g = parse_group("C3xC3")
    ru = RURing(g)
    values = bott_character(g)
    for x in g.elements:
        cyc = generated_subgroup(g, [x])
        dual = DualLevel(g, cyc)
        restricted = ru_restrict(ru, ru.regular_rep, dual)
        m = g.order // cyc.order
        assert all(c == m for c in restricted)
        assert values[x] == (cyc.order ** m, m)


def test_adams_on_bott_examples():
    g = parse_group("C3")
    w = verify_adams_on_bott(g, 2)
    assert w.ok
    assert w.check_name == "adams_on_bott"
    assert w.parameters == {"group": repr(g), "ell": 2}
    by_el = {tuple(e["g"]): (e["lhs"], e["rhs"]) for e in w.witness["per_element"]}
    assert by_el[(1,)] == (6, 6)
    assert by_el[(0,)] == (8, 8)

    assert verify_adams_on_bott(parse_group("C9"), 2).ok


def test_adams_on_bott_rejects_nonprimitive():
    with pytest.raises(ValueError):
        verify_adams_on_bott(parse_group("C7"), 2)


ODD_GROUPS_UP_TO_27 = [
    "C3", "C9", "C27", "C3xC3", "C3xC9", "C3xC3xC3",
    "C5", "C25", "C5xC5", "C7", "C11", "C13", "C17", "C19", "C23",
]


@pytest.mark.parametrize("spec", ODD_GROUPS_UP_TO_27)
def test_adams_on_bott_all_small_groups(spec):
    from kulocal.exact import smallest_primitive_root

    g = parse_group(spec)
    ell = smallest_primitive_root(g.exponent)
    assert verify_adams_on_bott(g, ell).ok


def test_localization_suite_is_fast():
    start = time.perf_counter()
    for q, k in PRIME_POWER_RANGE:
        assert verify_regular_factorization(q, k).ok
        assert verify_q_unit_identity(q, k).ok
        assert verify_euler_localization(q, k).ok
    for q in (3, 5):
        assert verify_CqxCq_vanishing(q).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"
