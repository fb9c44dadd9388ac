"""Finite-characteristic verification battery.

Four executable identities for expressions over F_q at weights n < 0:

  * special value:  |zeta(X, n)| = chi_x(X, n), exactly;
  * trace formula:  Z(X, t) = exp(sum_k N_k t^k / k), as Z(0) = 1 and
    t Z'/Z = sum_k N_k t^k to t^K: the zeta product's logarithmic
    derivative against point counts walked from the expression itself, so
    a wrong fold of the normal form fails it;
  * ell-adic part:  |zeta(X, n)|_ell equals the alternating product of the
    ell-parts of the graded cohomology orders, for each prime ell != p;
  * p-part:         v_p(zeta(X, n)) = 0.

Each check takes an expression or its `scheme_algebra.Evaluation` and reads
the zeta product, and the exact value and order data at its weight, from
that one record, which `batch` builds once per expression.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from . import poly

from .errors import (
    CharZeroAtomError,
    GradedDataUnavailableError,
    InvalidArgumentError,
    MixedBaseError,
)
from .intlinalg import is_prime, parity_sign, prime_power_base, rational_valuation, valuation
from .record import Record
from .scheme_algebra import _ATOMS, Affine, Curve, Disjoint, Evaluation, Glue, Minus, Proj, _unfold
from .zetarep import _exact_str

__all__ = [
    "VerificationReport",
    "verify_C_finite_char",
    "point_count",
    "trace_formula_check",
    "ell_adic_check",
    "p_part_check",
    "base_characteristics",
]


class VerificationReport(Record):
    """Outcome of one exact comparison; verdict is pass iff left == right.
    The `claim` names it, and the dict `context` holds what it was made of."""

    __slots__ = ("claim", "left", "right", "context")

    # built in bulk: an explicit constructor is faster than Record's generic one
    def __init__(self, claim: str, left, right, context: dict):
        object.__setattr__(self, "claim", claim)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "context", context)

    @property
    def passed(self) -> bool:
        return self.left == self.right

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def as_dict(self) -> dict:
        def show(x):  # per field: a Fraction may have a million digits, a list's entries do not
            if isinstance(x, Fraction):
                return _exact_str(x)
            if isinstance(x, (list, tuple)):
                return list(map(str, x))
            return str(x)

        return {
            "claim": self.claim,
            "left": show(self.left),
            "right": show(self.right),
            "verdict": self.verdict,
            "context": {k: show(v) for k, v in self.context.items()},
        }


def _require_finite_char(entry: Evaluation):
    if not entry.is_finite_characteristic:
        raise CharZeroAtomError("this check is finite-characteristic only")


def base_characteristics(e) -> set[int]:
    return set(Evaluation.of(e).characteristics)


def _single_base(entry: Evaluation) -> int:
    if len(entry.bases) != 1:
        raise MixedBaseError(f"expected a single base prime power, found {sorted(entry.bases)}")
    return next(iter(entry.bases))


def verify_C_finite_char(e, n: int) -> VerificationReport:
    """|zeta(X, n)| against the multiplicative Euler characteristic."""
    entry = Evaluation.of(e)
    _require_finite_char(entry)
    value = entry.value(n)
    return VerificationReport(
        claim="special-value-finite-char",
        left=abs(value.exact),
        right=entry.order_data(n).chi_mult,
        context={"expression": entry.printed, "n": n, "zeta": value.exact},
    )


@lru_cache(maxsize=128)
def _newton_power_sums(lpoly: tuple, K: int) -> tuple:
    """Power sums p_k of the inverse roots of P(t) = 1 + a_1 t + ... + a_d t^d
    at the indices k = 1..K (index 0 holds 0), by Newton's identities with
    e_j = (-1)^j a_j: p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^k k e_k
    (last term for k <= d only), in integers.  A curve recurs across the
    expressions of a manifest, so the sums are kept per process, as a tuple.
    """
    d = len(lpoly) - 1
    e = [parity_sign(j) * lpoly[j] for j in range(d + 1)]  # e_0 = 1
    p = [0] * (K + 1)
    for k in range(1, K + 1):
        total = 0
        for j in range(1, min(k - 1, d) + 1):
            total += parity_sign(j + 1) * e[j] * p[k - j]
        if k <= d:
            total += parity_sign(k + 1) * k * e[k]
        p[k] = total
    return tuple(p)


def _point_counts(expr, q: int, degrees) -> list[int]:
    """#X(F_{q^k}) for each k in `degrees`, by one walk of the expression,
    not of its normal form, so that a wrong fold in `normalize` shows.

    Each node applies its own rule: a disjoint union or gluing adds, a
    complement subtracts, and a bundle multiplies its base's count at k by
    q^(rk) for A^r, (q^((r+1)k) - 1)/(q^k - 1) for P^r and sum_j q^(r_j k)
    for a cellular assembly.  Spec F_{q^m} has m points when m | k, else
    none, and a curve q^k + 1 - p_k, from the power sums of its L-polynomial.
    """
    qk = [q**k for k in degrees]
    K = max(degrees, default=0)

    def below(item):
        """The children of a node, each with its multiplier at each k; None for an atom."""
        node, weight = item
        if isinstance(node, _ATOMS):
            return None
        if isinstance(node, Disjoint):
            return [(child, weight) for child in node.parts]
        if isinstance(node, Glue):
            return [(node.closed, weight), (node.open_part, weight)]
        if isinstance(node, Minus):
            return [(node.total, weight), (node.closed, [-w for w in weight])]
        if isinstance(node, Affine):
            cells = [x**node.r for x in qk]
        elif isinstance(node, Proj):
            cells = [(x ** (node.r + 1) - 1) // (x - 1) for x in qk]
        else:
            cells = [sum(x**r for r in node.ranks) for x in qk]
        return [(node.base, list(map(mul, weight, cells)))]

    counts = [0] * len(qk)
    for atom, weight in _unfold((expr, [1] * len(qk)), below):
        if isinstance(atom, Curve):
            sums = _newton_power_sums(atom.lpoly, K)
            own = [x + 1 - sums[k] for k, x in zip(degrees, qk)]
        else:
            own = [atom.m if k % atom.m == 0 else 0 for k in degrees]
        counts = list(map(add, counts, map(mul, weight, own)))
    for n in counts:
        if n < 0:
            raise InvalidArgumentError(f"negative point count {n}: the asserted decomposition is impossible")
    return counts


def point_count(e, k: int) -> int:
    """#X(F_{q^k}) computed combinatorially over the single base q."""
    if k < 1:
        raise InvalidArgumentError("field degree k must be >= 1")
    entry = Evaluation.of(e)
    _require_finite_char(entry)
    return _point_counts(entry.expr, _single_base(entry), [k])[0]


# the most bits the two sides of a trace-formula claim may hold together:
# `trace-check "(affine 32 (point 2))" --series-order 1024` is at the bound,
# takes 1.7 s and 83 MB and prints 15 MB, and so is `(point 2)` at K = 5792,
# as the count walk writes q^k for every k whatever the top degree; twice the
# bits take four times as long
_MAX_CLAIM_BITS = 1 << 25


def trace_formula_check(e, K: int = 10) -> VerificationReport:
    """Z(X, t) = exp(sum_k N_k t^k / k) to t^K, in its equivalent form
    Z(0) = 1 and t Z'/Z = sum_k N_k t^k.

    The left side is [Z(0), c_1..c_K] with t Z'/Z = sum_k c_k t^k: a finite
    factor num/den of the zeta product with exponent e adds
    e t num'/num - e t den'/den, each one long division.  The right side is
    [1, N_1..N_K], the point counts walked from the expression.  Wrong input
    shows as an exact Fraction where a constant term does not divide, and
    as a failed verdict.

    The k-th term of each side has about k times the bits of one step:
    max(D, 1) times those of q for the counts, D the normal form's top
    degree, as they grow as q^(Dk) and the walk writes q^k for every k
    whatever D, and those of the zeta product's largest coefficient for the
    logarithmic derivative.  A claim of about K^2/2 steps above
    `_MAX_CLAIM_BITS` is refused before any count or division, an empty
    zeta product's included.
    """
    entry = Evaluation.of(e)
    _require_finite_char(entry)
    q = _single_base(entry)
    top = max((r + isinstance(atom, Curve) for atom, r in entry.nf.terms), default=0)
    largest = max((abs(c) for factor, _ in entry.zeta.finite_char for c in factor.Z.num + factor.Z.den), default=0)
    bits = K * K // 2 * max(max(top, 1) * q.bit_length(), largest.bit_length())
    if bits > _MAX_CLAIM_BITS:
        raise InvalidArgumentError(
            f"the trace-formula claim to t^{K} has about {bits} bits, above {_MAX_CLAIM_BITS}: too large to compute"
        )
    z0, left = Fraction(1), [0] * (K + 1)
    for factor, exp in entry.zeta.finite_char:
        z0 *= Fraction(factor.Z.num[0], factor.Z.den[0]) ** exp
        for p, sign in ((factor.Z.num, exp), (factor.Z.den, -exp)):
            if len(p) > 1:  # a constant has t p'/p = 0
                left = [x + sign * c for x, c in zip(left, poly.log_derivative(p, K))]
    left[0] = poly.quotient(z0.numerator, z0.denominator)
    counts = _point_counts(entry.expr, q, range(1, K + 1))
    return VerificationReport(
        claim="grothendieck-trace-formula",
        left=left,
        right=[1, *counts],
        context={"expression": entry.printed, "K": K, "point_counts": counts},
    )


def ell_adic_check(e, n: int, ell: int) -> VerificationReport:
    """|zeta(X, n)|_ell against the ell-parts of the graded orders.

    Needs per-degree data, so gluing-only expressions are rejected; the
    exponent (-1)^(i+1) mirrors the compact-support orientation.
    """
    entry = Evaluation.of(e)
    _require_finite_char(entry)
    if ell in entry.characteristics:
        raise InvalidArgumentError(f"ell = {ell} equals a base characteristic")
    value = entry.value(n).exact  # first, as its size bound guards the order data too
    data = entry.order_data(n)
    if data.graded is None:
        raise GradedDataUnavailableError(
            "per-degree orders are not determined through gluings/complements"
        )
    if not is_prime(ell):
        raise InvalidArgumentError(f"{ell} is not prime")
    # the two sides as exponents of ell: -v_ell(value) against
    # sum_i (-1)^(i+1) v_ell(|H^i|), compared as integers
    left = valuation(value.denominator, ell) - valuation(value.numerator, ell)
    right = sum(parity_sign(i + 1) * valuation(order, ell) for i, order in data.graded.items())
    return VerificationReport(
        claim="ell-adic-absolute-value",
        left=Fraction(ell) ** left,
        right=Fraction(ell) ** right,
        context={"expression": entry.printed, "n": n, "ell": ell},
    )


def p_part_check(e, n: int) -> VerificationReport:
    """v_p(zeta part of characteristic p) = 0 for each base characteristic.

    For a single ground characteristic this is v_p(zeta(X, n)) = 0; in a
    mixed disjoint union only the factors living over characteristic p are
    constrained at p (the other factors contribute arbitrary p-valuations).
    """
    entry = Evaluation.of(e)
    _require_finite_char(entry)
    entry.value(n)  # rejects n >= 0 and Weil violations first, as for the whole product
    per_char: dict[int, Fraction] = {}
    for (factor, exp), value in zip(entry.zeta.finite_char, entry.zeta.finite_char_values(n)):
        p = prime_power_base(factor.q)[0]
        per_char[p] = per_char.get(p, Fraction(1)) * value**exp
    valuations = {p: rational_valuation(v, p) for p, v in sorted(per_char.items())}
    return VerificationReport(
        claim="p-part-triviality",
        left=list(valuations.values()),
        right=[0] * len(valuations),
        context={"expression": entry.printed, "n": n, "characteristics": list(valuations)},
    )
