"""Determinants of bounded complexes of free Z-modules.

A complex is stored as ranks and differentials d^i: A^i -> A^{i+1} (so the
matrix of d^i has rank(i+1) rows and rank(i) columns).  Cohomology is exact
and read off the invariant factors of the differentials: one Smith normal
form per nonzero differential and one table of groups, both computed once
per complex.  When every
cohomology group is finite the graded determinant line embeds canonically
into Q and is reported as the fractional ideal (1/m)Z with m the alternating
product of the cohomology orders; the ideal generator is normalized
positive, so everything is up to sign.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import prod
from operator import mul

from .errors import InfiniteCohomologyError, InvalidArgumentError
from .intlinalg import (
    FinGenAbGroup,
    IntMatrix,
    read_int,
    read_key,
    smith_normal_form,
)
from .record import Record

__all__ = [
    "BoundedFreeComplex",
    "cohomology",
    "multiplicative_euler_char",
    "determinant",
    "complex_from_json_dict",
]


class BoundedFreeComplex(Record):
    """Bounded complex of finitely generated free Z-modules.

    ranks: map degree -> rank (zero ranks dropped)
    differentials: map degree i -> IntMatrix of d^i (zero maps dropped)
    """

    __slots__ = ("ranks", "differentials", "__dict__")
    _defaults = {"differentials": None}

    def __post_init__(self):
        ranks = {}
        for i, r in dict(self.ranks).items():
            if r:
                ranks[int(i)] = r = int(r)
                if r < 0:
                    raise InvalidArgumentError("ranks must be nonnegative")
        object.__setattr__(self, "ranks", ranks)
        diffs = {}
        for i, mat in dict(self.differentials or {}).items():
            i = int(i)
            if not isinstance(mat, IntMatrix):
                mat = IntMatrix.from_rows(mat)
            expected = (ranks.get(i + 1, 0), ranks.get(i, 0))
            if (mat.rows, mat.cols) != expected:
                raise InvalidArgumentError(
                    f"differential at degree {i} has shape {(mat.rows, mat.cols)}, "
                    f"expected {expected}"
                )
            if not mat.is_zero:
                diffs[i] = mat
        object.__setattr__(self, "differentials", diffs)
        for i, d in diffs.items():  # d^{i+1} o d^i = 0, row by row of d^{i+1}
            after = diffs.get(i + 1)
            if after is not None:
                columns = [d.entries[j :: d.cols] for j in range(d.cols)]
                for row in after.to_rows():
                    if any(sum(map(mul, row, column)) for column in columns):
                        raise InvalidArgumentError(f"d^{i + 1} o d^{i} != 0")

    @property
    def lo(self) -> int:
        return min(self.ranks, default=0)

    @property
    def hi(self) -> int:
        return max(self.ranks, default=0)

    def degrees(self):
        return sorted(self.ranks)

    def rank(self, i: int) -> int:
        return self.ranks.get(i, 0)

    def differential(self, i: int) -> IntMatrix:
        d = self.differentials.get(i)
        if d is None:
            return IntMatrix.zero(self.rank(i + 1), self.rank(i))
        return d

    @cached_property
    def _invariant_factors(self) -> dict[int, tuple[int, ...]]:
        """Degree i -> nonzero invariant factors of d^i, for each nonzero d^i.

        One Smith normal form per differential; the complex never changes,
        so neither does this table.
        """
        return {i: smith_normal_form(d).invariant_factors for i, d in self.differentials.items()}

    @cached_property
    def cohomology_table(self) -> dict[int, FinGenAbGroup]:
        """Degree i -> H^i for every degree from lo to hi (empty for the zero
        complex); each group is computed once and read by every consumer."""
        if not self.ranks:
            return {}
        return {i: cohomology(self, i) for i in range(self.lo, self.hi + 1)}


def cohomology(C: BoundedFreeComplex, i: int) -> FinGenAbGroup:
    """H^i(C) = ker d^i / im d^{i-1} in invariant-factor form.

    A^i / ker d^i embeds in the free module A^{i+1}, so ker d^i is a direct
    summand of A^i containing im d^{i-1} (d o d = 0, checked when the complex
    is built).  Hence H^i = Z^(n_i - rk d^i - rk d^{i-1}) + torsion(coker
    d^{i-1}), and only the invariant factors of the two differentials count:
    those of d^{i-1} past its leading 1s are the torsion.
    """
    outgoing = C._invariant_factors.get(i, ())
    incoming = C._invariant_factors.get(i - 1, ())
    return FinGenAbGroup(C.ranks.get(i, 0) - len(outgoing) - len(incoming), incoming[incoming.count(1) :])


def multiplicative_euler_char(C: BoundedFreeComplex) -> Fraction:
    """m = prod |H^i|^((-1)^i), the orders of the even and of the odd
    degrees multiplied apart; requires every H^i finite."""
    even = odd = 1
    for i, H in C.cohomology_table.items():
        if H.rank:
            raise InfiniteCohomologyError(f"H^{i} has rank {H.rank}, so m is undefined")
        if i % 2:
            odd *= prod(H.torsion)
        else:
            even *= prod(H.torsion)
    return Fraction(even, odd)


def determinant(C: BoundedFreeComplex) -> tuple[Fraction | None, int]:
    """Graded determinant line of C, as (fractional ideal, grade).

    The grade is sum (-1)^i rank(A^i).  The ideal (1/m)Z, given by 1/m > 0,
    is reported only in the all-torsion case, where the embedding det c
    det (x) Q ~ Q is canonical; with free cohomology present it is None.
    """
    grade = 0
    for i, r in C.ranks.items():
        grade += -r if i % 2 else r
    try:
        m = multiplicative_euler_char(C)
    except InfiniteCohomologyError:
        return None, grade
    return Fraction(m.denominator, m.numerator), grade


# the largest rank, and the largest span hi - lo of degrees, a complex file
# may state: `det` writes out one group per rank and per degree of the span
_MAX_COMPLEX_SIZE = 1 << 16


def complex_from_json_dict(data) -> BoundedFreeComplex:
    """Parse the on-disk complex format.

    {"ranks": {"-1": 1, "0": 1}, "differentials": {"-1": [[5]]}}
    Keys are degrees as decimal strings, read by `read_key`; the differential
    at key i maps degree i to i+1; absent degrees have rank 0.  A rank or a
    degree span above `_MAX_COMPLEX_SIZE` is an InvalidArgumentError.
    """
    if not isinstance(data, dict) or "ranks" not in data:
        raise InvalidArgumentError('complex file must be an object with a "ranks" field')
    ranks, diffs = data["ranks"], data.get("differentials", {})
    if not (isinstance(ranks, dict) and isinstance(diffs, dict)):
        raise InvalidArgumentError('"ranks" and "differentials" must be objects keyed by degree')
    try:
        ranks = {read_key(k): read_int(v) for k, v in ranks.items()}
        diffs = {read_key(k): IntMatrix.from_rows(v) for k, v in diffs.items()}
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed complex file: {exc}") from None
    C = BoundedFreeComplex(ranks, diffs)
    if max(ranks.values(), default=0) > _MAX_COMPLEX_SIZE or C.hi - C.lo > _MAX_COMPLEX_SIZE:
        raise InvalidArgumentError(f"a rank or degree span above {_MAX_COMPLEX_SIZE}: the complex is too large")
    return C

