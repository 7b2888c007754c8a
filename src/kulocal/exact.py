"""Exact scalar, polynomial, cyclotomic, and integer-matrix arithmetic.

Scalars are Python ints and ``fractions.Fraction``, so everything here (and
everything built on it) is exact; the package contains no floating point.

Main contents:

* integer polynomials (ascending coefficient tuples) and cyclotomic
  polynomials,
* ``Cyclotomic``: elements of Q(zeta_e) in the power basis mod the e-th
  cyclotomic polynomial, the canonical form in which sums of roots of unity
  can be compared (the power basis injects into C, the naive exponent
  representation does not); with int coefficients it is the ring Z[zeta_e],
  which is every quotient Z[x]/rho(k-1) that geomfp builds (e = q^k),
* ``IntMatrix`` with exact Bareiss determinants,
* Smith normal form with unimodular witnesses U^-1, V^-1 (U^-1*A*V^-1 = S),
  integer kernel lattices, integer linear solving, and row Hermite normal
  form for canonical lattice comparison,
* the invariant factors of a direct sum of cyclic groups
  (``divisibility_chain``), without factoring their orders,
* multiplication matrices on Z[zeta_e], whose determinants are norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence


# ---------------------------------------------------------------------------
# elementary number theory


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def euler_phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def multiplicative_order(a: int, m: int) -> int:
    if m == 1:
        return 1
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    order, x = 1, a % m
    while x != 1:
        x = (x * a) % m
        order += 1
    return order


def is_primitive_root(a: int, m: int) -> bool:
    """True if a generates the unit group mod m (vacuously true for m = 1)."""
    if m == 1:
        return True
    if math.gcd(a, m) != 1:
        return False
    return multiplicative_order(a, m) == euler_phi(m)


def smallest_primitive_root(m: int) -> int:
    """Smallest l >= 2 generating the units mod m; 2 for the vacuous m = 1."""
    if m == 1:
        return 2
    for a in range(2, m + 1):
        if is_primitive_root(a, m):
            return a
    raise ValueError(f"no primitive root mod {m}")


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending (none for n = 0, +-1)."""
    out, d = [], 2
    n = abs(n)
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def require_odd_prime(q: int) -> None:
    if q == 2 or not is_prime(q):
        raise ValueError("q must be an odd prime")


def smallest_prime_factor(n: int) -> int:
    """The least prime dividing n; 1 for n = 1."""
    return (prime_factors(n) or [1])[0]


def prime_power_part(n: int, q: int) -> int:
    """q^{v_q(n)}, the largest power of q dividing n; 1 when q = 1."""
    if n == 0 or q < 1:
        raise ValueError(f"no {q}-part of {n}")
    out = 1
    while q > 1 and n % q == 0:
        out *= q
        n //= q
    return out


def primary_part(factors: Iterable[int], q: int) -> tuple[int, ...]:
    """The q-primary part of a finite group given by invariant factors: the
    nontrivial q^{v_q(d)}, in order."""
    return tuple(x for x in (prime_power_part(d, q) for d in factors) if x > 1)


def divisibility_chain(orders: Iterable[int]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of the direct sum of the Z/d for the
    given positive orders, ones kept, so the length is unchanged.

    Gcd/lcm exchange (Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b)) needs no
    factorization, which matters for orders like 2^162 - 1.
    """
    d = list(orders)
    if any(x <= 0 for x in d):
        raise ValueError(f"cyclic orders must be positive: {d}")
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                g = math.gcd(d[i], d[j])
                d[i], d[j] = g, d[i] // g * d[j]
    return tuple(d)


# ---------------------------------------------------------------------------
# integer polynomials: tuples of coefficients, ascending degree, trimmed


def poly_trim(coeffs: Iterable) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(f: Sequence, g: Sequence) -> tuple:
    n = max(len(f), len(g))
    return poly_trim(
        (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)
    )


def poly_neg(f: Sequence) -> tuple:
    return tuple(-a for a in f)


def poly_sub(f: Sequence, g: Sequence) -> tuple:
    return poly_add(f, poly_neg(g))


def poly_mul(f: Sequence, g: Sequence) -> tuple:
    """Schoolbook product over the nonzero terms of f and g only."""
    if not f or not g:
        return ()
    terms = [(j, b) for j, b in enumerate(g) if b]
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in terms:
                out[i + j] += a * b
    return poly_trim(out)


def poly_divmod_monic(f: Sequence, g: Sequence) -> tuple[tuple, tuple]:
    """Divide f by monic g; exact over the coefficient ring (int or Fraction).

    Each step subtracts only the nonzero terms of g: Phi_{3^a} has three.
    """
    g = poly_trim(g)
    if not g or g[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(f)
    dg = len(g) - 1
    if dg == 0:
        return poly_trim(rem), ()
    terms = [(j - dg, b) for j, b in enumerate(g) if b]
    quo = [0] * max(len(rem) - dg, 0)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quo[i - dg] = c
        for j, b in terms:
            rem[i + j] -= c * b
    return poly_trim(quo), poly_trim(rem)


def poly_x_power(n: int) -> tuple:
    return (0,) * n + (1,)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple:
    """The e-th cyclotomic polynomial, by exact division of x^e - 1."""
    if e < 1:
        raise ValueError("conductor must be positive")
    if e == 1:
        return (-1, 1)
    num = poly_sub(poly_x_power(e), (1,))
    for d in divisors(e):
        if d < e:
            num, rem = poly_divmod_monic(num, cyclotomic_polynomial(d))
            if rem != ():
                raise ArithmeticError(
                    f"the {d}-th cyclotomic polynomial left remainder {rem} "
                    f"in x^{e} - 1"
                )
    return num


# ---------------------------------------------------------------------------
# cyclotomic numbers


class Cyclotomic:
    """An element of Q(zeta_e), stored in the power basis mod Phi_e.

    Coefficients are ints or Fractions; equality is coefficientwise, which is
    honest equality of complex numbers because Phi_e is irreducible.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Sequence):
        phi = len(cyclotomic_polynomial(conductor)) - 1
        c = list(coeffs)
        if len(c) > phi:
            raise ValueError("coefficient vector longer than phi(e)")
        c += [0] * (phi - len(c))
        self.conductor = conductor
        self.coeffs = tuple(c)

    # -- constructors

    @classmethod
    def from_poly(cls, conductor: int, poly: Sequence) -> "Cyclotomic":
        rem = poly_divmod_monic(poly, cyclotomic_polynomial(conductor))[1]
        return cls(conductor, rem)

    @classmethod
    def zeta_power(cls, conductor: int, a: int) -> "Cyclotomic":
        return cls.from_poly(conductor, poly_x_power(a % conductor))

    @classmethod
    def from_rational(cls, conductor: int, value) -> "Cyclotomic":
        return cls(conductor, [value])

    @classmethod
    def zero(cls, conductor: int) -> "Cyclotomic":
        return cls(conductor, [])

    @classmethod
    def one(cls, conductor: int) -> "Cyclotomic":
        return cls(conductor, [1])

    # -- ring operations

    def _check(self, other: "Cyclotomic") -> None:
        if self.conductor != other.conductor:
            raise ValueError("conductor mismatch")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(
            self.conductor, [a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)]
        )

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(
            self.conductor, [a - b for a, b in zip(self.coeffs, other.coeffs, strict=True)]
        )

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, [-a for a in self.coeffs])

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.conductor, [other * a for a in self.coeffs])
        self._check(other)
        return Cyclotomic.from_poly(
            self.conductor, poly_mul(self.coeffs, other.coeffs)
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Cyclotomic":
        result = Cyclotomic.one(self.conductor)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.conductor, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.conductor, tuple(Fraction(a) for a in self.coeffs)))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def is_rational(self) -> bool:
        return all(a == 0 for a in self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def __repr__(self) -> str:
        return f"Cyclotomic(e={self.conductor}, {list(self.coeffs)})"


def reduce_root_of_unity_sum(e: int, exponents: Iterable[int]) -> Cyclotomic:
    """Reduce sum(zeta_e^a for a in exponents) to canonical form mod Phi_e."""
    counts = [0] * e
    for a in exponents:
        counts[a % e] += 1
    return Cyclotomic.from_poly(e, poly_trim(counts))


# ---------------------------------------------------------------------------
# integer matrices


class IntMatrix:
    """Immutable rectangular matrix over Z (arbitrary precision).

    Entries must be ints: anything else (a Fraction, a float, a bool) is
    rejected rather than converted, so nothing is silently truncated.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[int]], cols: int | None = None):
        rows = tuple(tuple(row) for row in entries)
        for row in rows:
            for x in row:
                if type(x) is not int:
                    raise ValueError(f"IntMatrix entry {x!r} is not an int")
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0 if cols is None else cols
        self.rows = len(rows)
        self.cols = ncols
        self.entries = rows

    @classmethod
    def _of(cls, rows: Sequence[Sequence[int]], cols: int) -> "IntMatrix":
        """Rows that arithmetic built from int entries: an int combined with
        an int is an int, so no entry is checked again."""
        m = object.__new__(cls)
        m.entries = tuple(map(tuple, rows))
        m.rows = len(m.entries)
        m.cols = cols
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls([[0] * n for _ in range(m)], cols=n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], nrows: int | None = None) -> "IntMatrix":
        cols = [tuple(c) for c in columns]
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            nrows = 0
        return cls([[c[i] for c in cols] for i in range(nrows)], cols=len(cols))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_columns(self.entries, nrows=self.cols)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        """Row by row over the nonzero entries: restriction, transfer and
        linearization matrices are mostly zero."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for row in self.entries:
            acc = [0] * other.cols
            for a, brow in zip(row, other.entries, strict=True):
                if a:
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
            out.append(acc)
        return IntMatrix._of(out, other.cols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(other, 1)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(other, -1)

    def _entrywise(self, other: "IntMatrix", sign: int) -> "IntMatrix":
        """self + sign * other, for matrices of the same shape."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._of(
            [
                [a + sign * b for a, b in zip(r1, r2, strict=True)]
                for r1, r2 in zip(self.entries, other.entries, strict=True)
            ],
            self.cols,
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of([[-a for a in r] for r in self.entries], self.cols)

    def scale(self, c: int) -> "IntMatrix":
        """c times the matrix; c must be an int, as an entry must."""
        if type(c) is not int:
            raise ValueError(f"IntMatrix scalar {c!r} is not an int")
        return IntMatrix._of([[c * a for a in r] for r in self.entries], self.cols)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(row, v, strict=True)) for row in self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def det(self) -> int:
        """Exact determinant (fraction-free Bareiss elimination).  A row with
        0 under the pivot needs no products: each entry x becomes the minor
        x * pivot // prev, so the row is unchanged when pivot == prev."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign, prev = 1, 1
        for k in range(n - 1):
            rk = a[k]
            if rk[k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], rk
                        rk, sign = a[k], -sign
                        break
                else:
                    return 0
            pivot, cols = rk[k], range(k + 1, n)
            for ri in a[k + 1:]:
                m = ri[k]
                if m:
                    for j in cols:
                        ri[j] = (ri[j] * pivot - m * rk[j]) // prev
                elif pivot != prev:
                    for j in cols:
                        ri[j] = ri[j] * pivot // prev
            prev = pivot
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and self.det() in (1, -1)


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithDecomposition:
    """U^-1 * A * V^-1 = S with U^-1, V^-1 unimodular and S diagonal,
    d_i | d_{i+1}.

    Since U^-1 and V^-1 have determinant +-1, their inverses U and V are
    integral and A = U * S * V; only the inverses are kept, because kernel
    and solving read them.
    """

    a: IntMatrix
    s: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        n = min(self.s.rows, self.s.cols)
        diag = [self.s.entries[i][i] for i in range(n)]
        return tuple(d for d in diag if d != 0)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def cokernel_invariants(self) -> tuple[int, list[int]]:
        """(free rank, torsion factors) of Z^rows / column-span(A)."""
        torsion = [d for d in self.invariant_factors if d != 1]
        return self.a.rows - self.rank, torsion

    def verify(self) -> bool:
        if self.u_inv * self.a * self.v_inv != self.s:
            return False
        if not (self.u_inv.is_unimodular() and self.v_inv.is_unimodular()):
            return False
        facs = self.invariant_factors
        if any(d <= 0 for d in facs):
            return False
        if any(facs[i + 1] % facs[i] for i in range(len(facs) - 1)):
            return False
        # zero rows/cols of S only after the nonzero diagonal block
        for i in range(self.s.rows):
            for j in range(self.s.cols):
                if i != j and self.s.entries[i][j] != 0:
                    return False
        return True


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Elementary row/column reduction with min-|pivot| selection.

    One elimination on W = [[A, I_m], [I_n, 0]]: row operations act on the
    top m rows and column operations on the left n columns, so W ends as
    [[S, U^-1], [V^-1, 0]].  Pivots come from the A block only; ties break
    at the lowest row, then the lowest column.  Column and row clearing use
    2x2 unimodular gcd combinations, which keeps coefficient growth tame at
    the sizes this package handles (up to 243 square in the tests).
    """
    m, n = a.rows, a.cols
    w = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(a.entries)]
    w += [[int(i == j) for j in range(n)] + [0] * m for i in range(n)]

    def rows(i, j, aa, bb, cc, dd):
        # (W_i, W_j) <- (aa*W_i + bb*W_j, cc*W_i + dd*W_j) for i, j < m,
        # with aa*dd - bb*cc = +-1; W_j is left alone when (cc, dd) = (0, 1)
        wi, wj = w[i], w[j]
        w[i] = [aa * x + bb * y for x, y in zip(wi, wj, strict=True)]
        if cc or dd != 1:
            w[j] = [cc * x + dd * y for x, y in zip(wi, wj, strict=True)]

    def cols(i, j, aa, bb, cc, dd):
        # the same combination of columns i, j < n
        for r in w:
            r[i], r[j] = aa * r[i] + bb * r[j], cc * r[i] + dd * r[j]

    t = 0
    while t < min(m, n):
        # the minimal-absolute-value nonzero entry of the trailing block; no
        # later row can beat the first row that holds a +-1
        pivot = None
        for i in range(t, m):
            best = min(((abs(x), i, j) for j, x in enumerate(w[i][t:n], t) if x), default=None)
            if best and (pivot is None or best < pivot):
                pivot = best
                if best[0] == 1:
                    break
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            rows(t, pi, 0, 1, 1, 0)
        if pj != t:
            cols(t, pj, 0, 1, 1, 0)
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]

        while True:
            # clear column t below the pivot, accumulating gcds at the pivot
            for i in range(t + 1, m):
                if w[i][t]:
                    p, x = w[t][t], w[i][t]
                    if x % p == 0:
                        rows(i, t, 1, -(x // p), 0, 1)
                    else:
                        g, aa, bb = xgcd(p, x)
                        rows(t, i, aa, bb, -(x // g), p // g)
            # clear row t to the right of the pivot
            for j in range(t + 1, n):
                if w[t][j]:
                    p, x = w[t][t], w[t][j]
                    if x % p == 0:
                        cols(j, t, 1, -(x // p), 0, 1)
                    else:
                        g, aa, bb = xgcd(p, x)
                        cols(t, j, aa, bb, -(x // g), p // g)
            if all(w[i][t] == 0 for i in range(t + 1, m)) and all(
                w[t][j] == 0 for j in range(t + 1, n)
            ):
                # the first row with an entry the pivot does not divide; a
                # pivot of 1 divides every entry
                d = w[t][t]
                offender = d != 1 and next(
                    (i for i in range(t + 1, m) if any(x % d for x in w[i][t + 1:n])), None
                )
                if not offender:
                    break
                rows(t, offender, 1, 1, 0, 1)
        t += 1

    return SmithDecomposition(
        a=a,
        s=IntMatrix([r[:n] for r in w[:m]], cols=n),
        u_inv=IntMatrix([r[n:] for r in w[:m]], cols=m),
        v_inv=IntMatrix([r[:n] for r in w[m:]], cols=n),
    )


def kernel_lattice(a: IntMatrix) -> IntMatrix:
    """Columns form a Z-basis of {v : A v = 0}; saturated automatically."""
    dec = smith_normal_form(a)
    r = dec.rank
    cols = [dec.v_inv.column(j) for j in range(r, a.cols)]
    return IntMatrix.from_columns(cols, nrows=a.cols)


def solve_integer(a: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution of A x = b, or None if none exists."""
    if len(b) != a.rows:
        raise ValueError("rhs length mismatch")
    dec = smith_normal_form(a)
    w = dec.u_inv.apply(b)
    facs = dec.invariant_factors
    x = [0] * a.cols
    for i, wi in enumerate(w):
        if i < len(facs):
            if wi % facs[i]:
                return None
            x[i] = wi // facs[i]
        elif wi != 0:
            return None
    return dec.v_inv.apply(x[: a.cols])


# ---------------------------------------------------------------------------
# lattices as row spans, canonical Hermite form


def row_hnf(rows: Iterable[Sequence[int]], ncols: int) -> tuple[tuple[int, ...], ...]:
    """Canonical row Hermite normal form of the lattice spanned by ``rows``.

    Pivots are positive, entries above each pivot lie in [0, pivot), zero
    rows are dropped.  Two generating sets span the same lattice iff their
    Hermite forms are equal.
    """
    mat = [list(r) for r in rows if any(r)]
    r = 0
    for c in range(ncols):
        # combine all rows >= r with a nonzero entry in column c
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                if piv is None:
                    piv = i
                else:
                    g, x, y = xgcd(mat[piv][c], mat[i][c])
                    p, q = mat[piv][c] // g, mat[i][c] // g
                    rp, ri = mat[piv], mat[i]
                    for t in range(c, ncols):
                        rp[t], ri[t] = x * rp[t] + y * ri[t], -q * rp[t] + p * ri[t]
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        p = mat[r][c]
        for k in range(r):
            q = mat[k][c] // p
            if q:
                rk, rr = mat[k], mat[r]
                for t in range(c, ncols):
                    rk[t] -= q * rr[t]
        r += 1
    return tuple(tuple(row) for row in mat[:r])


def hnf_coordinates(hnf_rows: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...] | None:
    """Coefficients c with sum(c_i * hnf_rows[i]) = v, or None if v is not in
    the lattice; back-substitution along the pivots of a row Hermite form,
    whose rows are independent, so the coefficients are unique."""
    w = list(v)
    coeffs = []
    for row in hnf_rows:
        c = next(j for j, x in enumerate(row) if x)
        q, r = divmod(w[c], row[c])
        if r:
            return None
        coeffs.append(q)
        if q:
            for t in range(c, len(w)):
                w[t] -= q * row[t]
    return None if any(w) else tuple(coeffs)


def lattice_contains(hnf_rows: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """Membership of v in the lattice given by its row Hermite form."""
    return hnf_coordinates(hnf_rows, v) is not None


def lattice_equal(rows_a, rows_b, ncols: int) -> bool:
    return row_hnf(rows_a, ncols) == row_hnf(rows_b, ncols)


# ---------------------------------------------------------------------------
# multiplication matrices on Z[zeta_e]


def mult_matrix(a: Cyclotomic) -> IntMatrix:
    """Matrix of multiplication by a on the basis 1, zeta, .., zeta^{phi(e)-1}.

    Column j is zeta^j * a, so column j+1 is column j shifted up one degree
    and reduced once by the monic Phi_e: its top coefficient c becomes
    -c * (Phi_e - x^phi(e)).  Only integral elements have an integer matrix;
    IntMatrix rejects a Fraction coefficient rather than truncating it.
    """
    d = len(a.coeffs)
    low = [(t, b) for t, b in enumerate(cyclotomic_polynomial(a.conductor)[:-1]) if b]
    cols = [list(a.coeffs)]
    while len(cols) < d:
        top, col = cols[-1][-1], [0] + cols[-1][:-1]
        for t, b in low:
            col[t] -= top * b
        cols.append(col)
    return IntMatrix.from_columns(cols, nrows=d)


def mult_matrix_determinant(a: Cyclotomic) -> int:
    """det of multiplication by a (the norm of a); multiplicative in a, and
    +-1 iff a is a unit of Z[zeta_e]."""
    return mult_matrix(a).det()
