"""Finite-characteristic verification battery.

Four executable identities for expressions over F_q at weights n < 0:

  * special value:  |zeta(X, n)| = chi_x(X, n), exactly;
  * trace formula:  the Taylor coefficients of the combined rational
    function agree with exp(sum_k N_k t^k / k), with the point counts N_k
    computed combinatorially (Newton power sums for curves); Z(X, t) lies
    in 1 + tZ[[t]], so both series are computed in integers;
  * ell-adic part:  |zeta(X, n)|_ell equals the alternating product of the
    ell-parts of the graded cohomology orders, for each prime ell != p;
  * p-part:         v_p(zeta(X, n)) = 0.

Each check takes an expression or its `scheme_algebra.Evaluation` and reads
the normal form, zeta product, and the exact value and order data at its
weight from that one record, which `batch` builds once per expression.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import poly

from .errors import (
    CharZeroAtomError,
    GradedDataUnavailableError,
    InvalidArgumentError,
    MixedBaseError,
)
from .intlinalg import is_prime, parity_sign, prime_power_base, rational_valuation, valuation
from .record import Record
from .scheme_algebra import Curve, Evaluation, NormalForm
from .zetarep import RationalFunctionT, ZetaProduct, _exact_str

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
    at the indices k = 1..K (index 0 holds 0).

    With e_j = (-1)^j a_j, Newton's identities give
    p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^k (k) e_k (last term for
    k <= d only).  Exact integers throughout; the roots are never computed.
    A curve recurs across the expressions of a manifest, so the sums are
    kept per process, as a tuple that no caller can change.
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


def _point_counts(nf: NormalForm, q: int, degrees) -> list[int]:
    """#X(F_{q^k}) for each k in `degrees`, from the normal form: a term
    c * [atom] * L^r counts c * q^(rk) * #atom(F_{q^k})."""
    K = max(degrees, default=0)
    sums = {a: _newton_power_sums(a.lpoly, K) for a in nf.atoms if isinstance(a, Curve)}
    # each term with its curve's power sums, looked up once rather than per k
    terms = [(atom, r, c, sums.get(atom)) for (atom, r), c in nf.terms.items()]
    rmax = max((r for _, r, _, _ in terms), default=0)

    counts = []
    for k in degrees:
        qk = q**k
        by_power = [0] * (rmax + 1)  # the count is sum_r by_power[r] * q^(rk)
        for atom, r, c, power_sums in terms:
            if power_sums is None:
                if k % atom.m == 0:
                    by_power[r] += c * atom.m
            else:
                by_power[r] += c * (qk + 1 - power_sums[k])
        n = 0
        for b in reversed(by_power):
            n = n * qk + b
        if n < 0:
            raise InvalidArgumentError(
                f"negative point count {n}: the asserted decomposition is impossible"
            )
        counts.append(n)
    return counts


def point_count(e, k: int) -> int:
    """#X(F_{q^k}) computed combinatorially over the single base q."""
    if k < 1:
        raise InvalidArgumentError("field degree k must be >= 1")
    entry = Evaluation.of(e)
    _require_finite_char(entry)
    return _point_counts(entry.nf, _single_base(entry), [k])[0]


def _product_series(z: ZetaProduct, K: int) -> list:
    """Taylor coefficients to t^K of the finite-characteristic product.

    Numerators and denominators are multiplied modulo t^(K+1), which the
    long division never reads past; it is exact whatever common factor the
    two carry.
    """
    num, den = [1], [1]
    for factor, exp in z.finite_char:
        top, bottom = (factor.Z.num, factor.Z.den) if exp > 0 else (factor.Z.den, factor.Z.num)
        for _ in range(abs(exp)):
            num = poly.mul(num, top)[: K + 1]
            den = poly.mul(den, bottom)[: K + 1]
    return RationalFunctionT(tuple(num), tuple(den)).series(K)


def trace_formula_check(e, K: int = 10) -> VerificationReport:
    """Z(X, t) = exp(sum_k N_k t^k / k) as exact series up to t^K.

    Both sides are integer recurrences with exact divisions: long division
    by the constant term of the denominator on the left, and on the right
    g_j = (sum_{i<=j} N_i g_{j-i}) / j.  Wrong input shows as a Fraction
    where a division leaves a remainder, and as a failed verdict.
    """
    entry = Evaluation.of(e)
    _require_finite_char(entry)
    q = _single_base(entry)
    lhs = _product_series(entry.zeta, K)
    counts = _point_counts(entry.nf, q, range(1, K + 1))
    rhs = _exp_series(counts, K)
    return VerificationReport(
        claim="grothendieck-trace-formula",
        left=lhs,
        right=rhs,
        context={"expression": entry.printed, "K": K, "point_counts": counts},
    )


def _exp_series(counts, K: int) -> list:
    """Coefficients g_0..g_K of exp(sum_k N_k t^k / k) for counts N_1..N_K.

    t g' = (sum_k N_k t^k) g gives g_j = (sum_{i<=j} N_i g_{j-i}) / j.  For
    the counts of a variety the series is Z(X, t), which lies in
    1 + tZ[[t]], so every division is exact; a remainder (counts of no
    variety) makes that coefficient an exact Fraction.
    """
    g = [1] + [0] * K
    for j in range(1, K + 1):
        g[j] = poly.quotient(sum(map(mul, counts[:j], reversed(g[:j]))), j)
    return g


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
