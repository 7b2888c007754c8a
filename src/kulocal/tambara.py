"""Multiplicative induction on cyclic prime-power towers and the norm of the
degree-zero nilpotent class.

The tower of a cyclic group of odd prime-power order q^k has level rings

    A(C_{q^i})[x_i] / (2 x_i, x_i^2),

with Burnside generators y_j = [C_{q^i} / C_{q^j}].  These are the levels of
pi0 of the tower's group: every subgroup of a cyclic group is cyclic, so
J = 0, and ``CyclicTower.pi0`` is ``mackey.adjoin_x`` of the Burnside
functor.  A level-ring element is a pi0 vector, the Burnside part followed
by the x part, compared with the level's ``elements_equal`` (2x = 0).  A
level's Burnside ring (``CyclicTower.ring``) is the one that functor holds.

``CyclicTower(q, k)`` is the one entry point (its constructor alone checks
q); every function below works on the tower it is given.

The norm of an actual Burnside element is the class of the H-equivariant map
set (multiplicative induction), computed from the marks law

    m_L(N_H^K(X)) = |X^{H & L}|^{[K : HL]}

and cross-checked against brute-force enumeration.  Norms are defined only on
monomials a * x^eps with a an actual (nonnegative) element: norms are not
additive, and the value on sums is deliberately out of scope.

The norm of x_i itself is pinned down by constraint search: among all
candidates x_{i+1} (a_{i+1} + a_i y_i + ... + a_0 y_0) with bits a_j (which
suffice because 2 x = 0), exactly one satisfies both the restriction
constraint R(N(x_i)) = x_i^q = 0 and nonvanishing, namely x_{i+1} (1 + y_i).
Dropping the nonvanishing constraint admits the zero candidate as well, which
the derivation reports as a sanity datum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .burnside import BurnsideRing
from .exact import require_odd_prime
from .groups import ExplicitHSet, Subgroup, abelian_group, map_set_orbits
from .mackey import GreenFunctor, MarksFunctor, adjoin_x, burnside_mackey

Vector = tuple


class CyclicTower:
    """The subgroup chain of a cyclic group of order q^k with its level rings."""

    def __init__(self, q: int, k: int):
        require_odd_prime(q)
        if k < 0:
            raise ValueError("k must be >= 0")
        self.q = q
        self.k = k
        self.group = abelian_group((q ** k,) if k else ())
        self.levels: tuple[Subgroup, ...] = self.group.subgroups()  # by order: levels[i] = C_{q^i}
        if len(self.levels) != k + 1:
            raise ArithmeticError(
                f"the cyclic group of order {q}^{k} has {len(self.levels)} subgroups, "
                f"not a chain of {k + 1}"
            )

    def ring(self, i: int) -> BurnsideRing:
        return self.burnside.rings[self.levels[i]]

    @cached_property
    def burnside(self) -> MarksFunctor:
        """The Burnside Mackey functor of the tower's group, built once."""
        return burnside_mackey(self.group)

    # -- multiplicative induction on the Burnside part -------------------------

    def norm_burnside(self, i: int, j: int, a: Sequence[int]) -> Vector:
        """N from level i to level j of an actual element, via the marks law.

        ``norm_burnside_bruteforce`` is the oracle; the tests compare the two
        across the feasible range.
        """
        if not 0 <= i <= j <= self.k:
            raise ValueError("need 0 <= i <= j <= k")
        if any(c < 0 for c in a):
            raise ValueError("norms are defined only for actual (nonnegative) elements")
        q = self.q
        src = self.ring(i)
        dst = self.ring(j)
        mx = src.marks(a)  # marks at C_{q^0} .. C_{q^i}
        marks_j = [
            mx[min(t, i)] ** (q ** (j - max(t, i))) for t in range(j + 1)
        ]
        out = dst.element_from_marks(marks_j)
        if any(c < 0 for c in out):
            raise ArithmeticError(f"norm {out} of {a} has a negative orbit count")
        return out

    def norm_burnside_bruteforce(self, i: int, j: int, a: Sequence[int]) -> Vector:
        """The same class by enumerating equivariant maps (the oracle)."""
        src_sub = self.levels[i]
        dst_sub = self.levels[j]
        src = self.ring(i)
        orbits = [(k_sub, c) for k_sub, c in zip(src.subgroups, a, strict=True)]
        x = ExplicitHSet.from_orbits(src_sub, orbits)
        decomposition = map_set_orbits(dst_sub, src_sub, x)
        dst = self.ring(j)
        coeffs = [0] * dst.n
        for stab, count in decomposition.items():
            coeffs[dst.sub_index(stab)] = count
        return tuple(coeffs)

    # -- level-ring elements: vectors of pi0 ----------------------------------

    @cached_property
    def pi0(self) -> GreenFunctor:
        """The level rings as one Green functor: pi0 of the tower's group,
        where A/J = A."""
        return adjoin_x(self.burnside, "pi0")

    def monomial(self, i: int, a: Sequence[int], eps: int) -> Vector:
        """a * x_i^eps as a pi0 vector, with the x part's 0/1 lift."""
        n = self.ring(i).n
        if eps not in (0, 1):
            raise ValueError("eps must be 0 or 1")
        if eps == 0:
            return tuple(a) + (0,) * n
        return (0,) * n + tuple(c % 2 for c in a)

    def restrict(self, i_from: int, i_to: int, u: Sequence[int]) -> Vector:
        """Restriction along the tower; x restricts to x."""
        if not 0 <= i_to <= i_from <= self.k:
            raise ValueError("bad levels")
        return self.pi0.res(self.levels[i_from], self.levels[i_to]).apply(u)

    def x_power(self, i: int, n: int) -> Vector:
        """x_i^n computed by honest ring multiplication."""
        h = self.levels[i]
        out = self.pi0.unit(h)
        x = self.monomial(i, self.ring(i).one, 1)
        for _ in range(n):
            out = self.pi0.multiply(h, out, x)
        return out


# ---------------------------------------------------------------------------
# the restriction rule on the tower


def restriction_rule_check(tower: CyclicTower) -> list[str]:
    """res [C_{q^{i+1}} / C_{q^j}] = q [C_{q^i} / C_{q^j}] for j <= i, and the
    unit restricts to the unit; checked against the Burnside functor matrices.
    Returns the violated cases by q, k, i and j (empty = the rule holds)."""
    failures: list[str] = []
    for i in range(tower.k):
        lower = tower.ring(i)
        mat = tower.burnside.res(tower.levels[i + 1], tower.levels[i])
        for j in range(i + 2):
            col = mat.column(j)
            if j == i + 1:  # the unit
                expected = lower.one
            else:
                expected = lower.scale(tower.q, lower.basis_element(lower.subgroups[j]))
            if col != expected:
                failures.append(f"q={tower.q} k={tower.k} i={i} j={j}: res gives {col}, not {expected}")
    return failures


# ---------------------------------------------------------------------------
# the constraint derivation for N(x_i)


@dataclass(frozen=True)
class NormDerivation:
    q: int
    k: int
    i: int
    survivors: tuple[Vector, ...]          # surviving bit vectors (a_0 .. a_{i+1})
    survivors_without_nonvanishing: tuple[Vector, ...]

    @property
    def unique(self) -> bool:
        return len(self.survivors) == 1

    @property
    def formula_matches(self) -> bool:
        """The unique survivor is a_i = a_{i+1} = 1 and all lower bits zero."""
        if not self.unique:
            return False
        bits = self.survivors[0]
        i = self.i
        return (
            bits[i] == 1
            and bits[i + 1] == 1
            and all(b == 0 for b in bits[:i])
        )

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "k": self.k,
            "i": self.i,
            "survivors": [list(s) for s in self.survivors],
            "formula": "N(x_i) = x_{i+1}(1+y_i)",
            "formula_matches": self.formula_matches,
        }


def derive_norm_on_x(tower: CyclicTower, i: int) -> NormDerivation:
    """Search all 2^{i+2} candidates N(x_i) = x_{i+1}(a_{i+1} + sum a_j y_j).

    Constraints, evaluated through the actual level rings:
      (C1) R(N(x_i)) equals x_i^q, which the ring computes to be zero;
      (C2) N(x_i) is nonzero.
    A unique survivor contradicting neither is required; zero or several
    survivors is a hard failure.
    """
    if not 0 <= i < tower.k:
        raise ValueError("need 0 <= i < k")
    lower = tower.pi0.level(tower.levels[i])
    upper = tower.pi0.level(tower.levels[i + 1])

    target = tower.x_power(i, tower.q)  # x_i^q, honestly multiplied out (= 0)
    if not lower.elements_equal(target, (0,) * lower.rank):
        raise ArithmeticError(f"x_{i}^{tower.q} = {target} is not zero")

    survivors = []
    survivors_loose = []
    for bits_int in range(2 ** (i + 2)):
        bits = tuple((bits_int >> j) & 1 for j in range(i + 2))
        candidate = tower.monomial(i + 1, bits, 1)
        if lower.elements_equal(tower.restrict(i + 1, i, candidate), target):
            survivors_loose.append(bits)
            if not upper.elements_equal(candidate, (0,) * upper.rank):
                survivors.append(bits)
    if len(survivors) != 1:
        raise ArithmeticError(
            f"expected a unique surviving candidate, found {len(survivors)}: "
            f"{survivors}"
        )
    return NormDerivation(
        q=tower.q,
        k=tower.k,
        i=i,
        survivors=tuple(survivors),
        survivors_without_nonvanishing=tuple(survivors_loose),
    )


def norm_of_x(tower: CyclicTower, i: int) -> Vector:
    """N from level i to i+1 of x_i: the derived x_{i+1}(1 + y_i)."""
    derivation = derive_norm_on_x(tower, i)
    return tower.monomial(i + 1, derivation.survivors[0], 1)


def norm_on_monomial(
    tower: CyclicTower, i: int, j: int, a: Sequence[int], eps: int
) -> Vector:
    """N from level i to level j of the monomial a * x_i^eps as a pi0 vector,
    composing one tower step at a time: N(a x^eps) = N(a) N(x)^eps.

    The x part stays a monomial with an actual coefficient at every step (the
    canonical 0/1 lift is normed; any lift congruent mod 2 gives the same
    class because the marks law preserves parity and the marks matrix has odd
    determinant).
    """
    if not 0 <= i <= j <= tower.k:
        raise ValueError("need 0 <= i <= j <= k")
    if eps not in (0, 1):
        raise ValueError("norms are defined on monomials a * x^eps only")
    if any(c < 0 for c in a):
        raise ValueError("norms are defined only for actual coefficients")
    level = i
    if eps == 0:
        coeff: Vector = tuple(a)
    else:
        coeff = tuple(c % 2 for c in a)
    # climb the tower one step at a time
    while level < j:
        normed = tower.norm_burnside(level, level + 1, coeff)
        if eps == 1:
            nx = norm_of_x(tower, level)  # x_{level+1} * (1 + y_level)
            prod = tower.pi0.multiply(
                tower.levels[level + 1], tower.monomial(level + 1, normed, 0), nx
            )
            # still a monomial: x * (that coefficient), lifted to 0/1
            coeff = tuple(c % 2 for c in prod[len(normed):])
        else:
            coeff = normed
        level += 1
    return tower.monomial(level, coeff, eps)
