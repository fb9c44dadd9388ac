"""Formal zeta functions: finite-characteristic rational factors times
shifted Dirichlet L-factors.

A finite-characteristic factor is a rational function Z(t) over a base q,
read via t = q^(-s); a characteristic-zero factor is L(s - k, chi).  A
ZetaProduct is a multiset of both kinds with integer exponents.  At a
strictly negative integer n the finite-characteristic part contributes a
nonzero rational (zeros and poles of Z sit on |t| = q^(w/2) by the Weil
bounds, never at t = q^(-n) > 1), so the entire vanishing order comes from
trivial zeros of the L-factors.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from math import floor, gcd, log10, prod

from . import poly
from .errors import InvalidArgumentError, PrecisionUnderflowError, WeilViolationError
from .intlinalg import ensure_prime_power
from .lfunctions import DEFAULT_PRECISION, SpecialValue, _orbit_table, _special_value
from .record import Record, kept_per_argument

__all__ = [
    "RationalFunctionT",
    "FiniteCharFactor",
    "LFactorShifted",
    "ZetaProduct",
    "multiply",
    "inverse",
    "shift_s",
    "evaluate_at",
    "vanishing_order",
    "format_decimal",
]


class RationalFunctionT(Record):
    """num(t)/den(t) with integer coefficient tuples, ascending order.

    Normal form, which the constructor makes: trimmed, nonzero constant
    terms, joint content 1, den(0) > 0.  The hash mixes in the coefficients'
    bit lengths: hash(2^k) has period 61 in k, so the factors 1 - 2^r t of
    many shifts r would collide.
    """

    __slots__ = ("num", "den")

    # built in bulk: an explicit constructor is faster than Record's generic one
    def __init__(self, num, den=(1,)):
        num, den = poly.trim(num), poly.trim(den)
        if not den or den[0] == 0:
            raise InvalidArgumentError("denominator must have a nonzero constant term")
        if not num or num[0] == 0:
            raise InvalidArgumentError("numerator must have a nonzero constant term")
        g = gcd(*num, *den)
        if den[0] < 0:
            g = -g
        if g != 1:
            num = tuple(c // g for c in num)
            den = tuple(c // g for c in den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __hash__(self):
        return hash((self.num, self.den, sum(map(int.bit_length, self.num)), sum(map(int.bit_length, self.den))))

    def substitute_scaled(self, scale: int) -> RationalFunctionT:
        """Z(scale * t): coefficient j picks up scale^j, computed only where
        the coefficient is nonzero (1 - t^m has two of m + 1)."""
        num = tuple(c * scale**j if c else 0 for j, c in enumerate(self.num))
        den = tuple(c * scale**j if c else 0 for j, c in enumerate(self.den))
        return RationalFunctionT(num, den)

    def __str__(self):
        def fmt(p):  # by `_exact_str`: a shifted coefficient may have millions of digits
            terms = []
            for j, c in enumerate(p):
                if c == 0:
                    continue
                if j == 0:
                    terms.append(_exact_str(c))
                else:
                    power = "t" if j == 1 else f"t^{j}"
                    terms.append(("" if c == 1 else "-" if c == -1 else _exact_str(c)) + power)
            return " + ".join(terms).replace("+ -", "- ") or "0"

        if self.den == (1,):
            return fmt(self.num)
        return f"({fmt(self.num)})/({fmt(self.den)})"


# the most bits an exact value Z(q^(-n)) may take; its size, about
# -n log2(q) deg Z bits, is known before any power is taken
_MAX_VALUE_BITS = 1 << 24
# the most digits, checked before any power of ten: the working bits and the Euler-Maclaurin
# terms grow with them, the time about as their cube (`value "(Q)" -n -2`: 21 s on 2 cores)
_MAX_PRECISION = 4096
class FiniteCharFactor(Record):
    """Rational function Z in t = q^(-s) over the base prime power q."""

    __slots__ = ("q", "Z")

    # built in bulk: an explicit constructor is faster than Record's generic one
    def __init__(self, q: int, Z: RationalFunctionT):
        object.__setattr__(self, "q", ensure_prime_power(q))
        object.__setattr__(self, "Z", Z)

    def sort_key(self):
        return (0, self.q, self.Z.num, self.Z.den)

    def value_at(self, n: int) -> Fraction:
        """Z(q^(-n)) at s = n < 0, exactly; raises when the input data violate
        the Weil bounds (a zero or pole of Z at t = q^(-n)), and refuses a
        value of more than `_MAX_VALUE_BITS` bits before computing it."""
        bits = -n * self.q.bit_length() * max(len(self.Z.num) - 1, len(self.Z.den) - 1, 1)
        if bits > _MAX_VALUE_BITS:
            raise InvalidArgumentError(
                f"the value at n = {n} of a factor over q = {self.q} has about {bits} bits, "
                "above 2^24: it is too large to compute"
            )
        t = self.q ** (-n)
        num = poly.evaluate(self.Z.num, t)
        den = poly.evaluate(self.Z.den, t)
        if num == 0 or den == 0:
            raise WeilViolationError(
                f"factor {self} has a {'zero' if num == 0 else 'pole'} at t = {self.q}^{-n}; "
                "input data violates the Weil bounds"
            )
        return Fraction(num, den)

    def __str__(self):
        return f"[q={self.q}] {self.Z}"


class LFactorShifted(Record):
    """L(s - shift, chi), chi the `character` and the shift 0 by default;
    the trivial character gives the Riemann zeta."""

    __slots__ = ("character", "shift")
    _defaults = {"shift": 0}

    def __post_init__(self):
        if self.shift < 0:
            raise InvalidArgumentError("shift must be nonnegative")

    def sort_key(self):
        c = self.character
        return (1, c.modulus, c.order, c.exponents, self.shift)

    def __str__(self):
        arg = "s" if self.shift == 0 else f"s-{self.shift}"
        if self.character.is_trivial:
            return f"zeta({arg})"
        return f"L({arg}, {self.character.label()})"


class ZetaProduct(Record):
    """Multiset product of factors with nonzero integer exponents: the pairs
    (FiniteCharFactor, exponent) in `finite_char` and (LFactorShifted,
    exponent) in `char_zero`, both empty by default.

    Either argument takes (factor, exponent) pairs of both kinds: construction
    normalizes them to a canonical form (duplicates merged, zero exponents
    dropped, each factor sorted into its field), so equality is structural.
    """

    __slots__ = ("finite_char", "char_zero", "__dict__")

    # built in bulk: an explicit constructor is faster than Record's generic one
    def __init__(self, finite_char=(), char_zero=()):
        fc: dict = {}
        cz: dict = {}
        for factors in (finite_char, char_zero):
            for factor, exp in factors:
                if exp:
                    bucket = fc if isinstance(factor, FiniteCharFactor) else cz
                    bucket[factor] = bucket.get(factor, 0) + exp
        for field, bucket in (("finite_char", fc), ("char_zero", cz)):
            pairs = sorted(((f, e) for f, e in bucket.items() if e), key=lambda p: p[0].sort_key())
            object.__setattr__(self, field, tuple(pairs))

    @property
    def factors(self):
        return self.finite_char + self.char_zero

    @kept_per_argument
    def finite_char_values(self, n: int) -> tuple:
        """Z(q^(-n)) of each factor of `finite_char`, in its order: the exact
        value and the p-part check of an expression read the same values."""
        return tuple(f.value_at(n) for f, _ in self.finite_char)


def multiply(a: ZetaProduct, b: ZetaProduct) -> ZetaProduct:
    return ZetaProduct(a.factors + b.factors)


def inverse(z: ZetaProduct) -> ZetaProduct:
    return ZetaProduct((f, -e) for f, e in z.factors)


def shift_s(z: ZetaProduct, r: int) -> ZetaProduct:
    """Replace s by s - r: t -> q^r t on finite factors, shift += r on L-factors.

    The top coefficient of a factor of degree d picks up q^(r d), about
    r d log2(q) bits; past `_MAX_VALUE_BITS` the shift is refused before
    any power is taken.
    """
    if r < 0:
        raise InvalidArgumentError("shift must be nonnegative")
    if r == 0:
        return z
    for f, _ in z.finite_char:
        bits = r * f.q.bit_length() * max(len(f.Z.num) - 1, len(f.Z.den) - 1)
        if bits > _MAX_VALUE_BITS:
            raise InvalidArgumentError(f"a shift by {r} gives coefficients of about {bits} bits, above 2^24")
    out = []
    for f, e in z.finite_char:
        out.append((FiniteCharFactor(f.q, f.Z.substitute_scaled(f.q**r)), e))
    for f, e in z.char_zero:
        out.append((LFactorShifted(f.character, f.shift + r), e))
    return ZetaProduct(out)


def _finite_char_value(z: ZetaProduct, n: int) -> Fraction:
    """Exact product of Z(q^(-n))^e over the finite-characteristic factors."""
    return prod((v**e for (_, e), v in zip(z.finite_char, z.finite_char_values(n))), start=Fraction(1))


def _l_factors(z: ZetaProduct, n: int) -> list[tuple]:
    """The (chi, n - shift, e) of z's L-factors L(s - shift, chi)^e at s = n."""
    return [(f.character, n - f.shift, e) for f, e in z.char_zero]


def vanishing_order(z: ZetaProduct, n: int) -> int:
    """Order of vanishing at s = n < 0 (no leading-value numerics).

    Validates the finite-characteristic factors (they must be nonzero and
    finite at t = q^(-n)) and sums the trivial-zero orders of the L-part.
    """
    if n >= 0:
        raise InvalidArgumentError("vanishing orders are computed at strictly negative integers")
    _finite_char_value(z, n)
    return _orbit_table(_l_factors(z, n))[1]


def format_decimal(x: Fraction, digits: int) -> str:
    """x to `digits` significant digits, printed by mpmath's nstr rules.

    The decimal digits are truncated to digits + 1 by one integer division
    and rounded half up at the last; the notation is fixed when the decimal
    exponent e has min(-(digits // 3), -5) < e < digits, and trailing zeros
    are stripped.
    """
    if not x:
        return "0.0"
    a, b = abs(x.numerator), x.denominator
    # |x| lies in (2^(d-1), 2^(d+1)), d the difference of the bit lengths, so
    # e is floor(log10 |x|) or one or two below it: cut has digits + 1 to 3 digits
    e = floor((a.bit_length() - b.bit_length()) * log10(2)) - 1
    cut = a * 10 ** (digits - e) // b if e <= digits else a // (b * 10 ** (e - digits))
    while cut >= 10 ** (digits + 1):
        e, cut = e + 1, cut // 10
    cut = (cut + 5) // 10  # rounded half up at the last of digits + 1 digits
    if cut == 10**digits:  # into the next decade
        e, cut = e + 1, cut // 10
    text, split, suffix = str(cut), 1, f"e{e:+d}"
    if min(-(digits // 3), -5) < e < digits:
        text, split, suffix = "0" * -e + text, max(e, 0) + 1, ""
    text = (text[:split] + "." + text[split:]).rstrip("0")
    return ("-" if x < 0 else "") + text + ("0" if text.endswith(".") else "") + suffix


def _exact_str(x) -> str:
    """str(x) for a Fraction x in near-linear time, where str() of an int is
    quadratic below Python 3.12 (11 s for a million digits): past 8192 bits
    an integer, cut at half its bits into lo + hi 2^h, is rebuilt in
    `decimal`, whose products are subquadratic, and printed once."""
    if max(x.numerator.bit_length(), x.denominator.bit_length()) <= 8192:
        return str(x)

    def digits(n, w):  # n >= 0 below 2^w
        h = w >> 1
        D = decimal.Decimal
        return D(n) if w <= 8192 else digits(n & ((1 << h) - 1), h) + digits(n >> h, w - h) * D(2) ** h

    with decimal.localcontext(decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)):
        num, den = (str(digits(abs(n), n.bit_length())) for n in x.as_integer_ratio())
    return ("-" if x < 0 else "") + num + ("" if den == "1" else "/" + den)


def evaluate_at(z: ZetaProduct, n: int, precision: int = DEFAULT_PRECISION) -> SpecialValue:
    """Order of vanishing and leading Taylor coefficient at s = n < 0.

    Finite-characteristic factors contribute exact nonzero rationals and no
    vanishing; the L-factors are taken by Galois orbit in
    `lfunctions._special_value`, which returns the value exact when no
    L-factor has a trivial zero there and the factors come in whole Galois
    orbits, as on every verb.
    """
    if n >= 0:
        raise InvalidArgumentError("special values are computed at strictly negative integers")
    if precision < 1:
        raise PrecisionUnderflowError("precision must be a positive digit count")
    if precision > _MAX_PRECISION:
        raise InvalidArgumentError(f"precision {precision} is above {_MAX_PRECISION} digits: too long to compute")
    return _special_value(_finite_char_value(z, n), _l_factors(z, n), precision)
