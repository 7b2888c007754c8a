import itertools
import time

import pytest

from kulocal import tambara
from kulocal.burnside import BurnsideRing
from kulocal.cli import cmd_norms
from kulocal.geomfp import (
    verify_CqxCq_vanishing,
    verify_euler_localization,
    verify_q_unit_identity,
)
from kulocal.groups import AbelianGroup, parse_group
from kulocal.mackey import assemble_pi0
from kulocal.tambara import (
    CyclicTower,
    derive_norm_on_x,
    norm_of_x,
    norm_on_monomial,
    restriction_rule_check,
)


def test_norm_of_one_point():
    t = CyclicTower(3, 2)
    for i in range(3):
        for j in range(i, 3):
            assert t.norm_burnside(i, j, t.ring(i).one) == t.ring(j).one


def test_norm_identity_level():
    t = CyclicTower(3, 2)
    a = (2, 1, 0)
    assert t.norm_burnside(2, 2, a) == a


def test_norm_two_points_c3():
    # two trivial points normed from the bottom to C3: marks (8, 2)
    t = CyclicTower(3, 1)
    out = t.norm_burnside(0, 1, (2,))
    assert t.ring(1).marks(out) == (8, 2)
    assert out == (2, 2)  # 2 [C3/e] + 2 [C3/C3]


def test_norm_refuses_a_negative_orbit_count(monkeypatch):
    # the check on element_from_marks' output holds under python -O too
    t = CyclicTower(3, 1)
    monkeypatch.setattr(BurnsideRing, "element_from_marks", lambda self, marks: (-1, 3))
    with pytest.raises(ArithmeticError, match="negative orbit count"):
        t.norm_burnside(0, 1, (2,))


def test_derivation_refuses_a_nonzero_x_power(monkeypatch):
    monkeypatch.setattr(CyclicTower, "x_power", lambda self, i, n: (1, 0))
    with pytest.raises(ArithmeticError, match="is not zero"):
        derive_norm_on_x(CyclicTower(3, 1), 0)


def test_norm_rejects_virtual():
    t = CyclicTower(3, 1)
    with pytest.raises(ValueError):
        t.norm_burnside(0, 1, (-1,))


@pytest.mark.parametrize("q,k", [(3, 1), (3, 2), (3, 3), (5, 1), (7, 1)])
def test_norm_matches_bruteforce(q, k):
    t = CyclicTower(q, k)
    checked = 0
    for i in range(k + 1):
        src = t.ring(i)
        candidates = []
        # all actual elements with at most 3 points

        for coeffs in itertools.product(range(4), repeat=src.n):
            size = sum(
                c * (t.levels[i].order // s.order)
                for c, s in zip(coeffs, src.subgroups)
            )
            if 0 < size <= 3:
                candidates.append(coeffs)
        for j in range(i, k + 1):
            for a in candidates:
                size = sum(
                    c * (t.levels[i].order // s.order)
                    for c, s in zip(a, src.subgroups)
                )
                if size ** (t.levels[j].order // t.levels[i].order) > 10 ** 5:
                    continue
                assert t.norm_burnside(i, j, a) == t.norm_burnside_bruteforce(i, j, a)
                checked += 1
    assert checked > 0


def test_norm_multiplicative():
    t = CyclicTower(3, 2)

    for i in range(2):
        for j in range(i, 3):
            for a in itertools.product(range(3), repeat=i + 1):
                for b in itertools.product(range(2), repeat=i + 1):
                    lhs = t.norm_burnside(i, j, t.ring(i).multiply(a, b))
                    rhs = t.ring(j).multiply(
                        t.norm_burnside(i, j, a), t.norm_burnside(i, j, b)
                    )
                    assert lhs == rhs


def test_res_after_norm_is_power():
    # R^K_H N_H^K(X) = X^{[K:H]} on Burnside elements
    t = CyclicTower(3, 2)
    m_res = None

    from kulocal.mackey import burnside_mackey

    m = burnside_mackey(t.group)
    for i in range(2):
        for j in range(i + 1, 3):
            mat = m.res(t.levels[j], t.levels[i])
            for a in itertools.product(range(3), repeat=i + 1):
                normed = t.norm_burnside(i, j, a)
                back = mat.apply(normed)
                power = t.ring(i).one
                for _ in range(t.levels[j].order // t.levels[i].order):
                    power = t.ring(i).multiply(power, a)
                assert tuple(back) == power


@pytest.mark.parametrize("q,k", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_restriction_rule(q, k):
    assert restriction_rule_check(CyclicTower(q, k))


def test_tower_raises_when_the_subgroups_are_not_a_chain(monkeypatch):
    original = AbelianGroup.subgroups
    monkeypatch.setattr(AbelianGroup, "subgroups", lambda self: original(self)[1:])
    with pytest.raises(ArithmeticError, match="not a chain of 3"):
        CyclicTower(3, 2)


def test_tower_builds_burnside_functor_once(monkeypatch):
    built = []
    original = tambara.burnside_mackey

    def counting(group):
        built.append(group)
        return original(group)

    monkeypatch.setattr(tambara, "burnside_mackey", counting)
    derive_norm_on_x(CyclicTower(3, 3), 2)
    assert len(built) == 1
    # the report on C27 checks the restriction rule and derives N(x_0),
    # N(x_1), N(x_2), all on one tower
    built.clear()
    cmd_norms(parse_group("C27"))
    assert len(built) == 1
    # each step of a composite norm derives N(x_i) on the tower it is given
    tower = CyclicTower(3, 2)
    towers = []
    original_init = CyclicTower.__init__

    def counting_init(self, q, k):
        towers.append((q, k))
        original_init(self, q, k)

    monkeypatch.setattr(CyclicTower, "__init__", counting_init)
    norm_on_monomial(tower, 0, 2, (1,), 1)
    assert towers == []


@pytest.mark.parametrize(
    "q,k,i",
    [(q, k, i) for q in (3, 5, 7) for k in (1, 2, 3) for i in range(k)],
)
def test_derive_norm_unique_survivor(q, k, i):
    d = derive_norm_on_x(CyclicTower(q, k), i)
    assert d.unique and d.formula_matches
    # dropping nonvanishing admits exactly one extra candidate: zero
    assert len(d.survivors_without_nonvanishing) == 2
    assert tuple([0] * (i + 2)) in d.survivors_without_nonvanishing


def test_derived_norm_squares_to_zero():
    t = CyclicTower(3, 2)
    for i in range(2):
        h = t.levels[i + 1]
        nx = norm_of_x(t, i)
        sq = t.pi0.multiply(h, nx, nx)
        assert t.pi0.level(h).elements_equal(sq, (0,) * len(sq))


def test_norm_on_monomial_examples():
    t = CyclicTower(3, 1)
    # N_0^1(x_0) = x_1 (1 + y_0)
    out = norm_on_monomial(t, 0, 1, t.ring(0).one, 1)
    assert out == (0, 0, 1, 1)
    # N_0^1(1) = 1
    out = norm_on_monomial(t, 0, 1, t.ring(0).one, 0)
    assert out == (0, 1, 0, 0)


def test_norm_on_monomial_composite_nonzero():
    # N_0^2(x_0) in the q=3 tower: compose two steps; nonzero
    t = CyclicTower(3, 2)
    out = norm_on_monomial(t, 0, 2, t.ring(0).one, 1)
    n = t.ring(2).n
    bur, xpart = out[:n], out[n:]
    assert not any(bur)
    assert any(xpart)
    # and it is divisible by x_2 by construction; also N_1^2 of the one-step
    # answer agrees with the two-step composition
    step1 = norm_on_monomial(t, 0, 1, t.ring(0).one, 1)
    again = norm_on_monomial(t, 1, 2, step1[t.ring(1).n:], 1)
    assert again == out


@pytest.mark.parametrize("q,k", [(3, 2), (3, 3), (5, 2)])
def test_tower_pi0_is_a_green_functor(q, k):
    pi0 = CyclicTower(q, k).pi0
    assert pi0.check_mackey_axioms() == []
    assert pi0.check_green_axioms() == []


@pytest.mark.parametrize("q,k", [(3, 2), (3, 3), (5, 2)])
def test_tower_pi0_has_the_levels_of_assemble_pi0(q, k):
    # every subgroup of a cyclic group is cyclic, so A/J = A
    t = CyclicTower(q, k)
    assembled = assemble_pi0(t.group).functor
    for h in t.levels:
        ours, theirs = t.pi0.level(h), assembled.level(h)
        assert (ours.free_rank, ours.primary_torsion) == (theirs.free_rank, theirs.primary_torsion)


# N_i^j(a * x_i^eps) keyed (q, k, i, j, eps): one pi0 vector (Burnside part,
# then x part) per a in itertools.product(range(3), repeat=i + 1)
NORM_ON_MONOMIAL_PINS = {
    (3, 2, 0, 0, 0): [(0, 0), (1, 0), (2, 0)],
    (3, 2, 0, 0, 1): [(0, 0), (0, 1), (0, 0)],
    (3, 2, 0, 1, 0): [(0, 0, 0, 0), (0, 1, 0, 0), (2, 2, 0, 0)],
    (3, 2, 0, 1, 1): [(0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 0, 0)],
    (3, 2, 0, 2, 0): [(0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (56, 2, 2, 0, 0, 0)],
    (3, 2, 0, 2, 1): [(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 0)],
    (3, 2, 1, 1, 0): [
        (0, 0, 0, 0), (0, 1, 0, 0), (0, 2, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0),
        (2, 0, 0, 0), (2, 1, 0, 0), (2, 2, 0, 0),
    ],
    (3, 2, 1, 1, 1): [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1), (0, 0, 1, 0),
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0),
    ],
    (3, 2, 1, 2, 0): [
        (0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 2, 2, 0, 0, 0), (3, 0, 0, 0, 0, 0),
        (7, 0, 1, 0, 0, 0), (13, 2, 2, 0, 0, 0), (24, 0, 0, 0, 0, 0), (38, 0, 1, 0, 0, 0),
        (56, 2, 2, 0, 0, 0),
    ],
    (3, 2, 1, 2, 1): [
        (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1),
        (0, 0, 0, 0, 0, 0),
    ],
    (3, 2, 2, 2, 0): [
        (0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 2, 0, 0, 0), (0, 1, 0, 0, 0, 0),
        (0, 1, 1, 0, 0, 0), (0, 1, 2, 0, 0, 0), (0, 2, 0, 0, 0, 0), (0, 2, 1, 0, 0, 0),
        (0, 2, 2, 0, 0, 0), (1, 0, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0), (1, 0, 2, 0, 0, 0),
        (1, 1, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0), (1, 1, 2, 0, 0, 0), (1, 2, 0, 0, 0, 0),
        (1, 2, 1, 0, 0, 0), (1, 2, 2, 0, 0, 0), (2, 0, 0, 0, 0, 0), (2, 0, 1, 0, 0, 0),
        (2, 0, 2, 0, 0, 0), (2, 1, 0, 0, 0, 0), (2, 1, 1, 0, 0, 0), (2, 1, 2, 0, 0, 0),
        (2, 2, 0, 0, 0, 0), (2, 2, 1, 0, 0, 0), (2, 2, 2, 0, 0, 0),
    ],
    (3, 2, 2, 2, 1): [
        (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 1, 0, 1), (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 1, 1, 0), (0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 1, 0), (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0, 1), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0),
    ],
    (5, 1, 0, 0, 0): [(0, 0), (1, 0), (2, 0)],
    (5, 1, 0, 0, 1): [(0, 0), (0, 1), (0, 0)],
    (5, 1, 0, 1, 0): [(0, 0, 0, 0), (0, 1, 0, 0), (6, 2, 0, 0)],
    (5, 1, 0, 1, 1): [(0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 0, 0)],
    (5, 1, 1, 1, 0): [
        (0, 0, 0, 0), (0, 1, 0, 0), (0, 2, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0),
        (2, 0, 0, 0), (2, 1, 0, 0), (2, 2, 0, 0),
    ],
    (5, 1, 1, 1, 1): [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1), (0, 0, 1, 0),
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0),
    ],
}


def test_norm_on_monomial_pinned():
    towers = {(3, 2): CyclicTower(3, 2), (5, 1): CyclicTower(5, 1)}
    for (q, k, i, j, eps), expected in NORM_ON_MONOMIAL_PINS.items():
        got = [
            norm_on_monomial(towers[q, k], i, j, a, eps)
            for a in itertools.product(range(3), repeat=i + 1)
        ]
        assert got == expected, (q, k, i, j, eps)
    assert sum(map(len, NORM_ON_MONOMIAL_PINS.values())) == 138


@pytest.mark.parametrize("q,k", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)])
def test_norm_of_a_lift_depends_only_on_its_parity(q, k):
    # norm_on_monomial norms the 0/1 lift of the x part; any lift congruent
    # mod 2 must give the same class mod 2
    t = CyclicTower(q, k)
    for i in range(k):
        for j in range(i + 1, k + 1):
            for a in itertools.product(range(4), repeat=i + 1):
                lift = tuple(c % 2 for c in a)
                normed, normed_lift = t.norm_burnside(i, j, a), t.norm_burnside(i, j, lift)
                assert [c % 2 for c in normed] == [c % 2 for c in normed_lift], (i, j, a)


def test_norm_rejects_sums():
    t = CyclicTower(3, 1)
    with pytest.raises(ValueError):
        norm_on_monomial(t, 0, 1, t.ring(0).one, 2)
    with pytest.raises(ValueError):
        norm_on_monomial(t, 0, 1, (-1,), 0)


def test_derivation_suite_is_fast():
    start = time.perf_counter()
    for q in (3, 5, 7):
        for k in (1, 2, 3):
            tower = CyclicTower(q, k)
            for i in range(k):
                assert derive_norm_on_x(tower, i).formula_matches
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"derivation suite took {elapsed:.1f}s"


@pytest.mark.parametrize("q", [0, 1, 2, 4, 9, 15])
@pytest.mark.parametrize(
    "check",
    [verify_q_unit_identity, verify_euler_localization, verify_CqxCq_vanishing, CyclicTower],
)
def test_rejects_q_not_an_odd_prime(check, q):
    args = (q,) if check is verify_CqxCq_vanishing else (q, 1)
    with pytest.raises(ValueError, match="q must be an odd prime"):
        check(*args)
