"""Ring-level identities around Euler classes of cyclic prime-power groups.

Everything here happens in Z[x]/(x^{q^k} - 1) (the representation ring of a
cyclic group of order q^k) and its quotient Z[x]/rho(k-1) by the pullback
rho(k-1) of the regular representation of the order-q quotient group.  Since
rho(k-1) is the q^k-th cyclotomic polynomial, that quotient is the ring
Z[zeta_{q^k}] of ``exact.Cyclotomic`` with conductor q^k, with x = zeta_{q^k}.
The verified identities:

* x^{q^k} - 1 factors as (x^{q^{k-1}} - 1) * rho(k-1), where rho(k-1) is that
  pulled-back regular representation (equal to the q^k-th cyclotomic
  polynomial);
* in the quotient, (1 - y) times an explicit polynomial equals the integer q
  (y = x^{q^{k-1}}), and conversely (y - 1)^q is divisible by q, so inverting
  y - 1 and inverting q are the same localization;
* inverting the Euler class of the reduced regular representation inverts
  exactly x^{q^{k-1}} - 1: the Euler class has it as a factor, every
  geometric-series unit prime to q is certified invertible by an explicit
  inverse (the product, a sum of runs of ones, is formed in Z[x]/(x^{q^k} - 1)
  and reduced once), and multiplication by y - 1 has determinant a power of q;
* for a rank-two elementary abelian group, the product of the remaining
  Euler classes equals y^q - 1, which is zero, so the full localization is
  the zero ring;
* the character of the Bott class of the regular representation sends g to
  (|g| beta)^{|G|/|g|}, pinned down by the exact cyclotomic evaluation
  prod_{i=1}^{k-1} (zeta_k^i - 1) = k for odd k, and the Adams operation acts
  on it through the tensor-power permutation representation.

All checks return witness objects carrying the data they verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .exact import (
    Cyclotomic,
    IntMatrix,
    is_prime,
    mult_matrix,
    mult_matrix_determinant,
    poly_mul,
    poly_sub,
    poly_x_power,
    prime_power_part,
    require_odd_prime,
)
from .fiber import require_primitive
from .groups import AbelianGroup
from .reprings import RURing, perm_rep

DIRECT_DET_RANK_BOUND = 24  # Bareiss cross-checks only at rank at most this


def trunc_regular_poly(q: int, k: int) -> tuple:
    """rho(k-1) = 1 + x^{q^{k-1}} + ... + x^{(q-1) q^{k-1}}, monic of degree
    (q-1) q^{k-1}."""
    step = q ** (k - 1)
    coeffs = [0] * ((q - 1) * step + 1)
    for j in range(q):
        coeffs[j * step] = 1
    return tuple(coeffs)


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")


# ---------------------------------------------------------------------------
# cyclic-group ring helpers: Z[x]/(x^N - 1) as dense length-N vectors


def _cyclic_mul_sparse(v: list[int], power: int, n: int, sign: int) -> list[int]:
    """v * (x^power + sign) in Z[x]/(x^n - 1): x^power rotates v."""
    p = power % n
    return [a + sign * b for a, b in zip(v[-p:] + v[:-p], v, strict=True)]


def _euler_regular(q: int, k: int, skip: int | None = None) -> list[int]:
    """prod over i = 1..q^k-1 (optionally skipping one i) of (x^i - 1)."""
    n = q ** k
    v = [1] + [0] * (n - 1)
    for i in range(1, n):
        if i != skip:
            v = _cyclic_mul_sparse(v, i, n, -1)
    return v


def _unit_product(n: int, i: int) -> Cyclotomic:
    """rho_i * rho_{i^{-1} mod n}(x^i) in Z[zeta_n]: one run of i ones per
    monomial x^{(i t) mod n}, t < i^{-1} mod n, of the partner.  Each run adds
    1 at its start and -1 past its end, mod n, so the prefix sum is the product
    in Z[x]/(x^n - 1) less one 1 + x + ... + x^{n-1} per run that wraps; Phi_n
    divides that sum, so the one reduction mod Phi_n gives the product."""
    ends = [0] * n
    for t in range(pow(i, -1, n)):
        start = i * t % n
        ends[start] += 1
        ends[(start + i) % n] -= 1
    return Cyclotomic.from_poly(n, list(accumulate(ends)))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    check_name: str
    parameters: dict
    witness: dict
    ok: bool

    def to_json(self) -> dict:
        return {
            "check_name": self.check_name,
            "parameters": self.parameters,
            "witness": self.witness,
            "pass": self.ok,
        }


def verify_regular_factorization(q: int, k: int) -> Witness:
    """x^{q^k} - 1 = (x^{q^{k-1}} - 1) * rho(k-1) as integer polynomials."""
    _check_k(k)
    if not is_prime(q):
        raise ValueError("q must be prime")
    lhs = poly_sub(poly_x_power(q ** k), (1,))
    left = poly_sub(poly_x_power(q ** (k - 1)), (1,))
    rho = trunc_regular_poly(q, k)
    ok = poly_mul(left, rho) == lhs
    return Witness(
        check_name="regular_factorization",
        parameters={"q": q, "k": k},
        witness={"factor_degrees": [len(left) - 1, len(rho) - 1]},
        ok=ok,
    )


def verify_q_unit_identity(q: int, k: int) -> Witness:
    """In Z[x]/rho(k-1) = Z[zeta_{q^k}] with y = x^{q^{k-1}}:

    (1 - y)(y^{q-2} + 2 y^{q-3} + ... + (q-2) y + (q-1)) = q, and (y-1)^q is
    divisible by q; so inverting y - 1 and inverting q agree.
    """
    require_odd_prime(q)
    _check_k(k)
    e = q ** k
    step = q ** (k - 1)
    y = Cyclotomic.zeta_power(e, step)
    one = Cyclotomic.one(e)

    # (1 - y) * sum_{j=0}^{q-2} (q-1-j) y^j == q
    partner = Cyclotomic.zero(e)
    for j in range(q - 1):
        partner = partner + (q - 1 - j) * Cyclotomic.zeta_power(e, step * j)
    forward = (one - y) * partner == q * one

    # (y - 1)^q has all coefficients divisible by q in the quotient
    pw = (y - one) ** q
    backward = all(c % q == 0 for c in pw.coeffs)

    return Witness(
        check_name="q_unit_identity",
        parameters={"q": q, "k": k},
        witness={"partner_coeffs": list(partner.coeffs), "q_times_cofactor": [c // q for c in pw.coeffs]},
        ok=forward and backward,
    )


def verify_euler_localization(q: int, k: int) -> Witness:
    """Three checks that localizing at the regular Euler class inverts
    exactly x^{q^{k-1}} - 1 and nothing subtler:

    (a) x^{q^{k-1}} - 1 divides the Euler class of the reduced regular
        representation in Z[x]/(x^{q^k} - 1), with the complementary product
        as explicit witness;
    (b) every geometric series rho_i = 1 + x + ... + x^{i-1} with i prime to
        q is a unit of Z[x]/rho(k-1): its explicit inverse
        rho_{i^{-1} mod q^k}(x^i) is the monomials x^{(i t) mod q^k}, so the
        product is one run of i ones per monomial, summed by a prefix sum in
        Z[x]/(x^{q^k} - 1) and reduced once mod rho(k-1) to 1; that forces
        the multiplication-matrix determinant to be +-1 (cross-checked by
        Bareiss at rank at most DIRECT_DET_RANK_BOUND);
    (c) multiplication by x^{q^{k-1}} - 1 on Z[x]/rho(k-1) has determinant
        +- a positive power of q, computed exactly from the block structure
        of the multiplication matrix over Z[y]/(1 + y + ... + y^{q-1}).
    """
    require_odd_prime(q)
    _check_k(k)
    n = q ** k
    step = q ** (k - 1)
    witness: dict = {"q": q, "k": k}

    # (a) divisibility of the Euler class, witnessed by the cofactor
    euler = _euler_regular(q, k)
    cofactor = _euler_regular(q, k, skip=step)
    recombined = _cyclic_mul_sparse(cofactor, step, n, -1)
    part_a = recombined == euler
    witness["euler_divisible"] = part_a

    # (b) units rho_i for i prime to q
    one = Cyclotomic.one(n)
    unit_count = dets_checked = 0
    part_b = True
    for i in range(1, n):
        if i % q == 0:
            continue
        if _unit_product(n, i) != one:
            part_b = False
            break
        unit_count += 1
        if len(one.coeffs) <= DIRECT_DET_RANK_BOUND:
            if abs(mult_matrix_determinant(Cyclotomic.from_poly(n, [1] * i))) != 1:
                part_b = False
                break
            dets_checked += 1
    witness["units_certified"] = unit_count
    witness["unit_dets_cross_checked"] = dets_checked

    # (c) determinant of multiplication by y - 1 via its block structure:
    # y = zeta^step keeps each residue class mod step, and acts on every class
    # by the same (q-1) x (q-1) block; a matrix of any other shape fails (c)
    y_minus_1 = Cyclotomic.zeta_power(n, step) - one
    m = mult_matrix(y_minus_1)
    blocks = [IntMatrix([row[r::step] for row in m.entries[r::step]]) for r in range(step)]
    # every nonzero entry of row s lies in a column of its residue class
    blocks_ok = all(b == blocks[0] for b in blocks) and all(
        sum(map(abs, row)) == sum(map(abs, row[s % step::step]))
        for s, row in enumerate(m.entries)
    )
    det = blocks[0].det() ** step
    witness["det_y_minus_1"] = det
    part_c = blocks_ok and abs(det) > 1 and prime_power_part(det, q) == abs(det)

    return Witness(
        check_name="euler_localization",
        parameters={"q": q, "k": k},
        witness=witness,
        ok=part_a and part_b and part_c,
    )


def verify_CqxCq_vanishing(q: int) -> Witness:
    """Over R = Z[x]/(1 + x + ... + x^{q-1}) = Z[zeta_q], as polynomials in y:

    prod_{i=0}^{q-1} (y - x^i) = y^q - 1
                               = x^{q(q-1)/2} prod_{i=0}^{q-1} (y x^{q-i} - 1),

    and therefore the product of the Euler classes (y x^{q-i} - 1) is zero in
    the bivariate quotient where y^q = 1: the localization inverting all of
    them is the zero ring.
    """
    require_odd_prime(q)
    zero, one = Cyclotomic.zero(q), Cyclotomic.one(q)

    def poly_y_mul(f: list, g: list) -> list:
        out = [zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
        return out

    # y^q - 1 over R
    target = [zero] * (q + 1)
    target[0] = -one
    target[q] = one

    # prod (y - x^i)
    prod1 = [one]
    for i in range(q):
        prod1 = poly_y_mul(prod1, [-Cyclotomic.zeta_power(q, i), one])
    first = prod1 == target

    # x^{q(q-1)/2} * prod (y x^{q-i} - 1)
    prod2 = [Cyclotomic.zeta_power(q, q * (q - 1) // 2)]
    for i in range(q):
        prod2 = poly_y_mul(prod2, [-one, Cyclotomic.zeta_power(q, q - i)])
    second = prod2 == target

    # fold y^q -> 1: the Euler-class product dies in the bivariate quotient
    folded = [zero] * q
    for j, c in enumerate(prod2):
        folded[j % q] = folded[j % q] + c
    third = all(c.is_zero() for c in folded)

    return Witness(
        check_name="CqxCq_vanishing",
        parameters={"q": q},
        witness={"y_poly_degree": len(prod1) - 1},
        ok=first and second and third,
    )


# ---------------------------------------------------------------------------
# Bott-class characters


@lru_cache(maxsize=None)
def root_of_unity_product(k: int) -> Cyclotomic:
    """prod_{i=1}^{k-1} (zeta_k^i - 1), exact in Q(zeta_k); once per k, so
    ``bott_character`` pays one product per element order."""
    out = Cyclotomic.one(k)
    for i in range(1, k):
        out = out * (Cyclotomic.zeta_power(k, i) - Cyclotomic.one(k))
    return out


def bott_character(group: AbelianGroup) -> dict:
    """g -> (|g|^{|G|/|g|}, |G|/|g|): the scalar and the beta power of the
    character of the Bott class of the regular representation.

    Each value is re-derived from the factored construction: the Euler class
    of m copies of the reduced regular representation of the cyclic group
    generated by g, evaluated at a primitive |g|-th root of unity, is
    |g|^m exactly (odd |g|; an even order would flip signs and is rejected).
    """
    out = {}
    for g in group.elements:
        k = group.element_order(g)
        if k % 2 == 0:
            raise ValueError(
                f"element of even order {k}: the sign convention needs odd order"
            )
        m = group.order // k
        base = root_of_unity_product(k)
        if base != k:
            raise ArithmeticError(
                f"cyclotomic product at k={k} gave {base!r}, expected {k}"
            )
        out[g] = (k ** m, m)
    return out


def verify_adams_on_bott(group: AbelianGroup, ell: int) -> Witness:
    """The Adams operation scales the Bott character by the character of the
    tensor-power permutation representation:

      (|g^ell| * ell)^{|G|/|g^ell|} = chi(ell^{tensor G})(g) * |g|^{|G|/|g|},

    with matching beta powers, for every g.  chi(ell^{tensor G}) is computed
    from honest fixed-point counts; |g| = |g^ell| because ell is a primitive
    root mod the exponent (checked; rejected otherwise).
    """
    require_primitive(group, ell)
    ru = RURing(group)
    chi_tensor = ru.character(perm_rep(group, ell))
    bott = bott_character(group)
    rows = []
    ok = True
    for g in group.elements:
        k = group.element_order(g)
        k_ell = group.element_order(group.scale(ell, g))
        if k_ell != k:
            ok = False
        m = group.order // k_ell
        lhs = (k_ell * ell) ** m
        chi_val = chi_tensor.value(g)
        if not chi_val.is_rational():
            ok = False
            continue
        scalar, beta = bott[g]
        rhs = chi_val.rational_value() * scalar
        if lhs != rhs or beta != m:
            ok = False
        rows.append({"g": list(g), "lhs": lhs, "rhs": rhs})
    return Witness(
        check_name="adams_on_bott",
        parameters={"group": repr(group), "ell": ell},
        witness={"per_element": rows},
        ok=ok,
    )
