"""Exact linear algebra over the integers.

Arbitrary-precision matrices, Smith normal form (reduced on the short side
with nearest-integer remainders in a shrinking active block; its record
holds the invariant factors and the matrix, and builds S, and the
unimodular transforms U and V from a tracked rerun, only when read),
finitely generated abelian groups in invariant-factor form, and p-adic
valuations of rationals.  Everything here is pure and immutable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import prod
from operator import index, mul

from .errors import InfiniteGroupError, InvalidArgumentError, NotPrimePowerError
from .record import Record

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "FinGenAbGroup",
    "smith_normal_form",
    "cokernel",
    "group_order",
    "rational_valuation",
    "valuation",
    "factorize",
    "is_prime",
    "prime_power_base",
    "parity_sign",
    "read_int",
    "read_key",
    "read_decimal",
]


def parity_sign(i: int) -> int:
    """(-1)**i as an exact int, safe for negative i."""
    return -1 if i % 2 else 1


def read_int(x) -> int:
    """An integer read from JSON: `operator.index`, except that true and
    false, which Python reads as 1 and 0, are a TypeError."""
    if isinstance(x, bool):
        raise TypeError(f"expected an integer, got {x!r}")
    return index(x)


_KEY = re.compile(r"0|-?[1-9][0-9]*")


def read_key(key: str) -> int:
    """An integer written as a JSON object key: ASCII decimal digits, an
    optional minus sign, no leading zero, no space and no "-0", so that two
    distinct keys never name one integer.  Anything else is an
    InvalidArgumentError."""
    if not _KEY.fullmatch(key):
        raise InvalidArgumentError(f"malformed integer key {key!r}")
    return int(key)


_DECIMAL = re.compile(r"-?[0-9]+")


def read_decimal(text: str) -> int:
    """An integer as an expression or a command line writes it: ASCII digits
    after an optional minus sign, leading zeros allowed.  Anything else is
    an InvalidArgumentError."""
    if not _DECIMAL.fullmatch(text):
        raise InvalidArgumentError(f"malformed integer {text!r}")
    return int(text)


class IntMatrix(Record):
    """Dense integer matrix of shape (rows, cols), its entries one tuple in
    row-major order.

    Empty shapes (0 rows and/or 0 columns) are legal and represent maps
    to or from the zero module, so complexes never need special-casing.
    """

    __slots__ = ("rows", "cols", "entries")

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise InvalidArgumentError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise InvalidArgumentError("entry count does not match shape")

    @classmethod
    def from_rows(cls, data) -> IntMatrix:
        try:
            data = list(map(list, data))
            entries = tuple(chain.from_iterable(data))
            if set(map(type, entries)) - {int}:  # read_int decides (and refuses true, 1.5, "1")
                entries = tuple(map(read_int, entries))
        except TypeError:
            raise InvalidArgumentError("matrix rows must be lists of integers") from None
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if set(map(len, data)) - {cols}:
            raise InvalidArgumentError("ragged rows")
        return cls(rows, cols, entries)

    @classmethod
    def zero(cls, rows: int, cols: int) -> IntMatrix:
        return cls(rows, cols, (0,) * (rows * cols))

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise InvalidArgumentError("shape mismatch in matrix product")
        columns = [other.entries[j :: other.cols] for j in range(other.cols)]
        entries = tuple(sum(map(mul, row, column)) for row in self.to_rows() for column in columns)
        return IntMatrix(self.rows, other.cols, entries)

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise InvalidArgumentError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_rows()
        sign, prev = 1, 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


class SmithDecomposition(Record):
    """The invariant factors of A, and the matrix A itself.

    `invariant_factors` are the nonzero diagonal entries of the Smith normal
    form S of A: positive, each dividing the next.  `S`, and `U` and `V`,
    unimodular with A = U*S*V, are built the first time they are read: S
    from the invariant factors, U and V by rerunning the reduction of A with
    both tracked.  The rank, the diagonal and the invariant factors never
    need them.
    """

    __slots__ = ("invariant_factors", "A", "__dict__")

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def diagonal(self) -> tuple[int, ...]:
        return self.invariant_factors + (0,) * (min(self.A.rows, self.A.cols) - self.rank)

    @cached_property
    def S(self) -> IntMatrix:
        entries = [0] * (self.A.rows * self.A.cols)
        for t, d in enumerate(self.invariant_factors):
            entries[t * self.A.cols + t] = d
        return IntMatrix(self.A.rows, self.A.cols, tuple(entries))

    @property
    def U(self) -> IntMatrix:
        return self._transforms[0]

    @property
    def V(self) -> IntMatrix:
        return self._transforms[1]

    @cached_property
    def _transforms(self) -> tuple[IntMatrix, IntMatrix]:
        """(U, V) from the tracked reduction of B = U_B*D*V_B, D the signed
        pivots on the diagonal.  A tall A is B^T = V_B^T*D^T*U_B^T: the
        columns of U are then the rows of V_B, and the rows of V the columns
        of U_B.  Negating U's column of each negative pivot turns D into S."""
        rows, cols = self.A.rows, self.A.cols
        diagonal, Ut, V = _reduce(self.A, True)
        if rows > cols:
            Ut, V = V, Ut
        for t, d in enumerate(diagonal):
            if d < 0:
                Ut[t] = [-x for x in Ut[t]]
        U = tuple(x for row in zip(*Ut) for x in row)
        return IntMatrix(rows, rows, U), IntMatrix(cols, cols, tuple(x for row in V for x in row))


class FinGenAbGroup(Record):
    """Z^rank plus the invariant-factor chain t_1 | t_2 | ... (each >= 2),
    the tuple `torsion`, empty by default."""

    __slots__ = ("rank", "torsion")

    # built in bulk: an explicit constructor is faster than Record's generic one
    def __init__(self, rank: int, torsion: tuple[int, ...] = ()):
        if rank < 0:
            raise InvalidArgumentError("negative rank")
        a = 1
        for b in torsion:
            if b < 2:
                raise InvalidArgumentError("invariant factors must be >= 2")
            if b % a:
                raise InvalidArgumentError("invariant factors must form a divisibility chain")
            a = b
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", torsion)

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Diagonalize A over Z: its invariant factors, kept with A.  S, U and V
    are left to the result, built only if its `S`, `U` or `V` is read."""
    return SmithDecomposition(tuple(map(abs, _reduce(A, False)[0])), A)


def _reduce(A: IntMatrix, track: bool):
    """(pivots, Ut, V): the signed pivots that diagonalize B, which is A, or
    its transpose when A has more rows than columns; with `track` also the
    columns Ut of U and the rows V of V with B = U*D*V, D the diagonal of
    the pivots, and otherwise None for both.  The |pivots| are the
    invariant factors of A: each divides the next.

    Each pivot is the first entry of least |x|, in row-major order, of the
    active block, which holds only the rows and columns not yet
    diagonalized and drops its first row and column after each pivot.  Row
    operations clear the pivot's column, then column operations its row; a
    column operation touches only the pivot row, as the rest of the pivot's
    column is zero by then.  Quotients round to nearest, so each remainder
    lies in [-|p|/2, |p|/2) for the pivot p (Havas and Majewski, "Integer
    matrix diagonalization", J. Symbolic Comput. 24 (1997)), and the first
    remainder of least |x| becomes the next pivot, swapped into place.  A
    pivot that does not divide the rest of the block takes a row that it
    does not divide into its own row and goes on, and the pivot strictly
    shrinks.  The tracked transforms start as identities and undo each
    operation on B, so that U*B*V stays the B it started from: a row
    operation by a column operation on U, a column operation by a row
    operation on V.
    """
    if A.rows > A.cols:
        B = [list(A.entries[j :: A.cols]) for j in range(A.cols)]
    else:
        B = A.to_rows()
    short, long = sorted((A.rows, A.cols))
    Ut = V = None
    if track:  # identities on the short and on the long side
        Ut, V = ([[int(i == j) for j in range(n)] for i in range(n)] for n in (short, long))
    diagonal = []
    t = 0
    while t < short:
        i = j = least = 0  # the next pivot is at (i, j) of the block, |x| = least
        for r, row in enumerate(B):
            for c, x in enumerate(row):
                if x and (not least or abs(x) < least):
                    i, j, least = r, c, abs(x)
            if least == 1:  # no entry is smaller: the full scan keeps this one
                break
        if not least:
            break
        while True:
            if i:  # R_0 <-> R_i of the block
                B[0], B[i] = B[i], B[0]
                if track:
                    Ut[t], Ut[t + i] = Ut[t + i], Ut[t]
            if j:  # C_0 <-> C_j of the block
                for row in B:
                    row[0], row[j] = row[j], row[0]
                if track:
                    V[t], V[t + j] = V[t + j], V[t]
            top = B[0]
            p = top[0]
            sign, size, width = (1 if p > 0 else -1), abs(p), 2 * abs(p)
            i = j = least = 0
            for r in range(1, len(B)):
                x = B[r][0]
                q = sign * ((2 * x + size) // width)  # nearest: x - q*p in [-|p|/2, |p|/2)
                if q:
                    B[r] = [a - q * b for a, b in zip(B[r], top)]
                    x -= q * p
                    if track:  # U: C_0 += q*C_r
                        Ut[t] = [a + q * b for a, b in zip(Ut[t], Ut[t + r])]
                if x and (not least or abs(x) < least):
                    i, least = r, abs(x)
            if i:
                continue
            for c in range(1, len(top)):
                q = sign * ((2 * top[c] + size) // width)
                if q:
                    top[c] -= q * p
                    if track:  # V: R_0 += q*R_c
                        V[t] = [a + q * b for a, b in zip(V[t], V[t + c])]
                if top[c] and (not least or abs(top[c]) < least):
                    j, least = c, abs(top[c])
            if j:
                continue
            # p must divide the rest of the block (a unit always does);
            # otherwise R_0 += R_r for the first row r it does not divide
            if size == 1:
                break
            bad = next((r for r in range(1, len(B)) if any(x % p for x in B[r])), None)
            if bad is None:
                break
            B[0] = [a + b for a, b in zip(top, B[bad])]
            if track:  # U: C_r -= C_0
                Ut[t + bad] = [a - b for a, b in zip(Ut[t + bad], Ut[t])]
        diagonal.append(p)
        B = [row[1:] for row in B[1:]]
        t += 1
    return diagonal, Ut, V


def cokernel(A: IntMatrix) -> FinGenAbGroup:
    """Z^rows / image(A), with A the matrix of a map Z^cols -> Z^rows."""
    factors = smith_normal_form(A).invariant_factors
    return FinGenAbGroup(A.rows - len(factors), factors[factors.count(1) :])


def group_order(G: FinGenAbGroup) -> int:
    """Order of a finite group; raises for infinite groups."""
    if G.rank > 0:
        raise InfiniteGroupError(f"group {G} has positive rank {G.rank}")
    return prod(G.torsion) if G.torsion else 1


def _split(n: int, p: int) -> tuple[int, int]:
    """(v, m) with n = p**v * m and p not dividing m, for n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """((p, e), ...) with n = prod p**e over ascending primes p, for n >= 1,
    by trial division by 2 and the odd numbers up to the root of what is left."""
    if n < 1:
        raise InvalidArgumentError(f"cannot factorize {n}")
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e, n = _split(n, d)
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


# the first thirteen primes; the least strong pseudoprime to all of them is
# _WITNESS_BOUND (Sorenson and Webster, Math. Comp. 86 (2017))
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_BOUND = 3317044064679887385961981


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Whether n is prime, by the strong Miller-Rabin test to the bases
    2, 3, ..., 41, which is exact below 3 317 044 064 679 887 385 961 981.
    A larger n with no prime factor up to 41 is an InvalidArgumentError."""
    if n < 2 or any(n % p == 0 for p in _WITNESSES):
        return n in _WITNESSES
    if n >= _WITNESS_BOUND:
        raise InvalidArgumentError(f"cannot decide whether {n} is prime")
    s, d = _split(n - 1, 2)
    return all(
        pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
        for a in _WITNESSES
    )


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n, k >= 1, by Newton's method in integers."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@lru_cache(maxsize=None)
def prime_power_base(q: int):
    """(p, k) with q = p**k, or None if q is not a prime power >= 2.

    A q with a prime factor p <= 41 is one only when it is a power of p.
    Any other q >= 2 that is a k-th power m**k for a prime k < log_43 q is
    one exactly when m is, with its exponent times k; with no such k, it is
    one exactly when it is prime."""
    if q < 2:
        return None
    for p in _WITNESSES:
        if q % p == 0:
            k, rest = _split(q, p)
            return (p, k) if rest == 1 else None
    for k in filter(is_prime, range(2, q.bit_length() // 5 + 1)):
        m = _integer_root(q, k)
        if m**k == q:
            base = prime_power_base(m)
            return None if base is None else (base[0], base[1] * k)
    return (q, 1) if is_prime(q) else None


def ensure_prime_power(q: int) -> int:
    if prime_power_base(q) is None:
        raise NotPrimePowerError(f"{q} is not a prime power")
    return q


def valuation(n: int, p: int) -> int:
    """v_p(n) of a nonzero integer n; the caller has checked that p is prime."""
    return _split(n, p)[0]


def rational_valuation(x, p: int) -> int:
    """p-adic valuation v_p(x) of a nonzero rational x."""
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        raise InvalidArgumentError("valuation of zero is undefined")
    return valuation(x.numerator, p) - valuation(x.denominator, p)
