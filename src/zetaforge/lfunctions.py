"""Dirichlet characters, generalized Bernoulli numbers and L-values.

Exact values at nonpositive integers live in cyclotomic fields Q(zeta_N):
integer polynomials reduced modulo the N-th cyclotomic polynomial over one
positive denominator, multiplied at one level or by a rational, with no
field inversion.  That suffices, as the exact L-values of one character
order m that a product meets on every verb form whole Galois orbits, whose
product is a norm from Q(zeta_m), a rational.

The work goes by Galois orbit {chi^j : gcd(j, m) = 1}, m the order of chi.
`characters_mod` builds one residue table t per orbit and each other
member's as j t mod m.  Every verb reads `_orbit_table`: per orbit and
weight one exact L(n, chi) = -B_{1-n,chi}/(1-n), the order at n < 0 and the
members chi^j, whose value is sigma_j of it.  A trivial zero is simple, and
the functional equation gives the derivative (Gamma((1-n+a)/2) =
(2k)! sqrt(pi) / (4^k k!); the roots of f and pi cancel):

    L'(n, chi) = r i^-a tau(chi) H(chi) / (f pi^-n),
    r = (-1)^m (2k)! m! / (2 4^k k!),   m = -(n+a)/2,   k = m + a,

a = 0 for even chi and 1 for odd, tau(chi) the Gauss sum and
H(chi) = sum_{x mod f} conj(chi(x)) zeta(1-n, x/f) = f^(1-n) L(1-n, conj chi).
As |tau(chi)| = sqrt f, and i^-a tau(chi) = sqrt f for a real chi
(Washington, "Introduction to Cyclotomic Fields", ch. 4), the value is
|r| |H(chi)| / (sqrt f pi^-n), signed like r H(chi) for a real chi; H is
one class sum per orbit, permuted for each member.

Numeric work is in integers at wp bits, each helper's error stated in units
of 2^-wp, and products are rounded to stated bits; an exact value is
embedded only when a product is not rational.  The set-up is shared: tables
of f^(k-1) B_k(a/f) and zeta(1-n, a/f) per conductor, one Machin run of pi,
roots of unity strided from one table of order lambda(f) per wp, and one
Euler-Maclaurin plan per (s, dps) with a Horner tail (see `_hurwitz_em`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, gcd, isqrt, lcm, log, pi, prod
from operator import mul

from . import poly
from .errors import (
    InvalidArgumentError,
    InvariantViolationError,
    PrecisionUnderflowError,
    RationalityFailureError,
)
from .intlinalg import factorize, parity_sign
from .record import Record

__all__ = [
    "CyclotomicNumber",
    "DirichletCharacter",
    "AbelianFieldSpec",
    "LeadingValue",
    "TRIVIAL_CHARACTER",
    "CHI_MINUS_4",
    "Q",
    "QI",
    "bernoulli_number",
    "gen_bernoulli",
    "L_at_nonpositive",
    "trivial_zero_order",
    "leading_value",
    "gauss_sum",
]

DEFAULT_PRECISION = 50


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact)


@lru_cache(maxsize=None)
def _tangent_numbers(count: int) -> tuple[int, ...]:
    """T_1..T_count, tan x = sum_m T_m x^(2m-1)/(2m-1)!, by the integer
    recurrence of Brent and Harvey (arXiv:1108.0286, Algorithm TangentNumbers)."""
    T = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return tuple(T[1:])


@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """B_k with the B_1 = -1/2 convention: B_2m = (-1)^(m-1) 2m T_m /
    (4^m (4^m - 1)), the tangent numbers tabulated to the next power of two
    above m, so that a rising sequence of calls costs one table per doubling."""
    if k < 0:
        raise InvalidArgumentError("Bernoulli index must be nonnegative")
    if k < 2:
        return Fraction(1) if k == 0 else Fraction(-1, 2)
    if k % 2 == 1:
        return Fraction(0)
    m = k // 2
    tangent = _tangent_numbers(1 << (m - 1).bit_length())[m - 1]
    return Fraction(parity_sign(m - 1) * k * tangent, 4**m * (4**m - 1))


# ---------------------------------------------------------------------------
# Exact arithmetic in Q(zeta_N)


@lru_cache(maxsize=None)
def _euler_phi(n: int) -> int:
    return prod((p - 1) * p ** (e - 1) for p, e in factorize(n))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending.

    For n > 1, Phi_n = prod_{d | n} (1 - x^d)^mu(n/d), expanded as a power
    series to degree phi(n).  Only squarefree n/d = s contribute: a factor
    1 - x^d when mu(s) = 1, the series 1 + x^d + x^2d + ... when mu(s) = -1.
    """
    if n == 1:
        return (-1, 1)
    phi = _euler_phi(n)
    coeffs = [1] + [0] * phi
    primes = [p for p, _ in factorize(n)]
    for size in range(len(primes) + 1):
        for chosen in itertools.combinations(primes, size):
            d = n // prod(chosen)
            if size % 2 == 0:
                for i in range(phi, d - 1, -1):
                    coeffs[i] -= coeffs[i - d]
            else:
                for i in range(d, phi + 1):
                    coeffs[i] += coeffs[i - d]
    if coeffs[phi] != 1:
        raise InvariantViolationError(f"Phi_{n} came out not monic of degree {phi}")
    return tuple(coeffs)


class CyclotomicNumber(Record):
    """Element of Q(zeta_N): (sum_j num[j] zeta_N^j) / den, N the `level`.

    Integer numerators of the polynomial reduced mod Phi_N (so phi(N) of
    them, a tuple) over one positive common denominator, 1 by default, as in
    FLINT's fmpq_poly.  Construction divides out gcd(den, num), so equal
    numbers of one level have equal fields; numbers are compared and
    multiplied at one level only.
    """

    __slots__ = ("level", "num", "den")

    # built in bulk: an explicit constructor is faster than Record's generic one
    def __init__(self, level: int, num: tuple, den: int = 1):
        if level < 1:
            raise InvalidArgumentError("level must be >= 1")
        if len(num) != _euler_phi(level):
            raise InvalidArgumentError("numerator vector must have length phi(level)")
        if den == 0:
            raise InvalidArgumentError("denominator must be nonzero")
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num, den = tuple(c // g for c in num), den // g
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_poly(cls, level: int, poly, den: int = 1) -> CyclotomicNumber:
        """(sum_j poly[j] zeta_level^j) / den for integer coefficients poly[j]:
        powers folded by x^level = 1, then the top coefficients cleared against
        the monic Phi_level, one pass over its nonzero terms each."""
        coeffs = list(poly)
        if len(coeffs) > level:
            folded = [0] * level
            for j, c in enumerate(coeffs):
                folded[j % level] += c
            coeffs = folded
        modulus = cyclotomic_polynomial(level)
        phi = len(modulus) - 1
        terms = [(j, m) for j, m in enumerate(modulus[:phi]) if m]
        for i in range(len(coeffs) - 1, phi - 1, -1):
            top = coeffs[i]
            if top:
                base = i - phi
                for j, m in terms:
                    coeffs[base + j] -= top * m
        coeffs = coeffs[:phi] + [0] * (phi - len(coeffs))
        return cls(level, tuple(coeffs), den)

    @classmethod
    def rational(cls, value, level: int = 1) -> CyclotomicNumber:
        value = Fraction(value)
        return cls(level, (value.numerator,) + (0,) * (_euler_phi(level) - 1), value.denominator)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise RationalityFailureError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def __mul__(self, other):
        """The product with a number of the same level, or with a rational
        scalar, which scales the numerators."""
        if isinstance(other, CyclotomicNumber):
            if other.level != self.level:
                raise InvalidArgumentError(f"numbers of levels {self.level} and {other.level} do not multiply")
            if self.is_rational:
                self, other = other, self
            if not other.is_rational:
                num = poly.mul(self.num, other.num)
                return CyclotomicNumber.from_poly(self.level, num, self.den * other.den)
            other = other.rational_value()
        q = Fraction(other)
        return CyclotomicNumber(self.level, tuple(c * q.numerator for c in self.num), self.den * q.denominator)

    def __pow__(self, e: int):
        if e < 0:
            raise InvalidArgumentError("cyclotomic numbers take nonnegative powers only")
        result = CyclotomicNumber.rational(1, self.level)
        for bit in bin(e)[2:]:  # left to right: no square past the last bit
            result = result * result * self if bit == "1" else result * result
        return result


# ---------------------------------------------------------------------------
# Dirichlet characters


def _canonical_residue(a: int, modulus: int) -> int:
    """Residue representative in [1, modulus] (so modulus 1 uses 1)."""
    return (a - 1) % modulus + 1


@lru_cache(maxsize=None)
def _units(modulus: int) -> tuple[int, ...]:
    """The units of Z/modulus as residues in [1, modulus]."""
    return tuple(a for a in range(1, modulus + 1) if gcd(a, modulus) == 1)


class DirichletCharacter(Record):
    """Character of (Z/modulus)^* with values in mu_order.

    The tuple `exponents[a % modulus]` is k with chi(a) = zeta_order^k, or
    None when gcd(a, modulus) > 1.  The table is the whole character: its
    `conductor`, that of the primitive character it induces, is read off it.
    """

    __slots__ = ("modulus", "order", "exponents", "__dict__")

    def __post_init__(self):
        if len(self.exponents) != self.modulus:
            raise InvalidArgumentError("exponents must have one entry per residue")
        values = set(self.exponents) - {None}
        if any(not 0 <= k < self.order for k in values):
            raise InvalidArgumentError("exponents must lie in 0..order-1")
        if gcd(self.order, *values) != 1:
            raise InvalidArgumentError("order must be the order of the character")
        if self.exponent(1) != 0:
            raise InvalidArgumentError("chi(1) must be 1")
        allowed = {0} | ({self.order // 2} if self.order % 2 == 0 else set())
        if self.exponent(-1) not in allowed:
            raise InvalidArgumentError("chi(-1) must be +1 or -1")

    def exponent(self, a: int):
        """k with chi(a) = zeta_order^k, or None when gcd(a, modulus) > 1."""
        return self.exponents[a % self.modulus]

    @property
    def is_trivial(self) -> bool:
        return not any(self.exponents)

    @property
    def parity(self) -> int:
        """chi(-1) as +1 or -1."""
        return 1 if self.exponent(-1) == 0 else -1

    @cached_property
    def conductor(self) -> int:
        """Least f | modulus with chi trivial on the units that are 1 mod f.

        Those f are closed under gcd and under multiples, so the least is
        reached one prime p at a time: f is divided by p while the table is
        trivial (0, or None off the units) on the residues 1 mod f/p.
        """
        f = self.modulus
        for p, _ in factorize(f):
            while f % p == 0 and not any(self.exponents[1 % (f // p) :: f // p]):
                f //= p
        return f

    def primitive(self) -> DirichletCharacter:
        """The primitive character inducing this one: the table restricted
        to the residues mod the conductor, which the units of the modulus
        cover, each unit mod f lifting to one."""
        f = self.conductor
        if f == self.modulus:
            return self
        exps = {a % f: self.exponent(a) for a in _units(self.modulus)}
        return DirichletCharacter(f, self.order, tuple(exps.get(a) for a in range(f)))

    def label(self) -> str:
        if self.is_trivial:
            return "zeta"
        units = ".".join(str(k) for k in self.exponents if k is not None)
        return f"chi_{self.modulus}.{self.order}.{units}"


TRIVIAL_CHARACTER = DirichletCharacter(1, 1, (0,))
CHI_MINUS_4 = DirichletCharacter(4, 2, (None, 0, None, 1))


@lru_cache(maxsize=None)
def _unit_group_generators(modulus: int) -> tuple[tuple[int, int], ...]:
    """Generators (g, order) of (Z/modulus)^* via CRT over prime powers."""

    def crt_lift(g, q):
        rest = modulus // q
        if rest == 1:
            return g % modulus
        # x = g mod q, x = 1 mod rest
        inv = pow(rest, -1, q)
        return (1 + rest * ((g - 1) * inv % q)) % modulus

    def primitive_root(p, e):
        # a generator mod p that stays primitive mod p^2 works for all e
        g = next(
            g for g in range(2, p) if all(pow(g, (p - 1) // r, p) != 1 for r, _ in factorize(p - 1))
        )
        if e > 1 and pow(g, p - 1, p * p) == 1:
            g += p
        return g

    gens = []
    for p, e in factorize(modulus):
        q = p**e
        if p == 2:
            if e == 2:
                gens.append((crt_lift(3, q), 2))
            elif e >= 3:
                gens.append((crt_lift(q - 1, q), 2))
                gens.append((crt_lift(5, q), 2 ** (e - 2)))
        else:
            gens.append((crt_lift(primitive_root(p, e), q), q - q // p))
    return tuple(gens)


@lru_cache(maxsize=None)
def _unit_logs(modulus: int):
    """Map unit -> exponent vector over the generators."""
    gens = _unit_group_generators(modulus)
    return {
        _canonical_residue(prod(pow(g, e, modulus) for (g, _), e in zip(gens, vec)), modulus): vec
        for vec in itertools.product(*[range(order) for _, order in gens])
    }


@lru_cache(maxsize=None)
def _exponent(modulus: int) -> int:
    """lambda(modulus), the exponent of (Z/modulus)^*: every character order divides it."""
    return lcm(*[order for _, order in _unit_group_generators(modulus)])


def characters_mod(modulus: int, subgroup) -> tuple[DirichletCharacter, ...]:
    """The Dirichlet characters of (Z/modulus)^* trivial on the units in
    `subgroup`, trivial one first.

    A character sends the generator g_i of order o_i to zeta_e^(k_i e/o_i),
    e the group exponent, so chi(a) = zeta_e^(sum_i k_i (e/o_i) log_i(a)).
    An exponent vector k not yet met that passes the logs of the subgroup
    has its table t, of order m, built from the logs; each member chi^j of
    its Galois orbit, gcd(j, m) = 1, gets j t mod m and its j k is met.
    """
    gens = _unit_group_generators(modulus)
    logs = _unit_logs(modulus)
    exponent = _exponent(modulus)
    kernel = [logs[_canonical_residue(h, modulus)] for h in subgroup]
    met, result = set(), []
    for chosen in itertools.product(*[range(order) for _, order in gens]):
        scaled = [k * (exponent // order) for (_, order), k in zip(gens, chosen)]
        if chosen in met or any(sum(map(mul, scaled, vec)) % exponent for vec in kernel):
            continue
        g = gcd(exponent, *scaled)
        m = exponent // g
        # chi(a) = zeta_m^table[a % modulus]
        table = [None] * modulus
        for a, vec in logs.items():
            table[a % modulus] = sum(map(mul, scaled, vec)) % exponent // g
        for j in range(1, m + 1):
            if gcd(j, m) == 1:
                met.add(tuple(k * j % order for (_, order), k in zip(gens, chosen)))
                power = {t: t * j % m for t in range(m)}  # and None, off the units, stays None
                result.append(DirichletCharacter(modulus, m, tuple(map(power.get, table))))
    result.sort(key=lambda c: (not c.is_trivial, c.order, c.exponents))
    return tuple(result)


def _closure(generators, modulus: int) -> set[int]:
    """Residues in [1, modulus] of the monoid generated by `generators`."""
    closed = {1}
    frontier = [1]
    while frontier:
        a = frontier.pop()
        for g in generators:
            b = _canonical_residue(a * g, modulus)
            if b not in closed:
                closed.add(b)
                frontier.append(b)
    return closed


# ---------------------------------------------------------------------------
# Abelian number fields given by (conductor, subgroup)


# the largest conductor: every character table has one entry per residue
_MAX_CONDUCTOR = 1 << 16


def _check_conductor(f: int) -> None:
    if f < 1:
        raise InvalidArgumentError("conductor must be >= 1")
    if f > _MAX_CONDUCTOR:
        raise InvalidArgumentError(
            f"conductor {f} is above {_MAX_CONDUCTOR}: its character tables are too large to write out"
        )


class AbelianFieldSpec(Record):
    """Fixed field of H <= (Z/f)^* inside Q(zeta_f): f is the `conductor`
    and H the sorted tuple `subgroup`; a conductor above `_MAX_CONDUCTOR`
    is refused before any residue is enumerated."""

    __slots__ = ("conductor", "subgroup")

    def __post_init__(self):
        f = self.conductor
        _check_conductor(f)
        elements = set(self.subgroup)
        if 1 not in elements:
            raise InvalidArgumentError("subgroup must contain 1")
        non_units = sorted(elements - set(_units(f)))
        if non_units:
            raise InvalidArgumentError(f"subgroup elements {non_units} are not units mod {f}")
        if _closure(elements, f) != elements:
            raise InvalidArgumentError("subgroup is not closed under multiplication")

    @classmethod
    def from_generators(cls, conductor: int, generators) -> AbelianFieldSpec:
        _check_conductor(conductor)
        gens = {_canonical_residue(int(g), conductor) for g in generators}
        return cls(conductor, tuple(sorted(_closure(gens, conductor))))

    @property
    def degree(self) -> int:
        return len(_units(self.conductor)) // len(self.subgroup)

    def characters(self) -> tuple[DirichletCharacter, ...]:
        """Primitive characters trivial on the subgroup (one per embedding)."""
        selected = characters_mod(self.conductor, self.subgroup)
        if len(selected) != self.degree:
            raise InvariantViolationError(
                f"character enumeration found {len(selected)} characters, expected {self.degree}"
            )
        return tuple(chi.primitive() for chi in selected)

    @property
    def signature(self) -> tuple[int, int]:
        """(r1, r2): all-real or all-complex, by parity of the characters."""
        d = self.degree
        if self.conductor <= 2 or _canonical_residue(-1, self.conductor) in self.subgroup:
            return d, 0
        if d % 2 != 0:
            raise InvariantViolationError("non-real abelian field must have even degree")
        return 0, d // 2


Q = AbelianFieldSpec(1, (1,))
QI = AbelianFieldSpec(4, (1,))


# ---------------------------------------------------------------------------
# Exact L-values at nonpositive integers


@lru_cache(maxsize=64)
def _bernoulli_table(f: int, k: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(f L, ((a, f L f^(k-1) B_k(a/f)) for the units a in 1..f)), L the lcm
    of the denominators of B_0..B_k: L f^k B_k(a/f) = sum_j C(k, j) L B_j f^j
    a^(k-j) is an integer polynomial in a, evaluated at each unit."""
    numbers = [bernoulli_number(j) for j in range(k + 1)]
    L = lcm(*(b.denominator for b in numbers))
    # ascending in a: the coefficient of a^i comes from j = k - i
    coeffs = [comb(k, j) * b.numerator * (L // b.denominator) * f**j for j, b in enumerate(numbers)]
    coeffs.reverse()
    return f * L, tuple((a, poly.evaluate(coeffs, a)) for a in _units(f))


def _class_sums(chi: DirichletCharacter, table) -> list[int]:
    """The values of `table`, pairs (a, value) over the units a mod the
    modulus of chi, summed by exponent class: entry k sums the a with
    chi(a) = zeta_order^k, so sum_a chi(a) value_a = sum_k zeta_order^k entry_k."""
    f, exps = chi.modulus, chi.exponents
    sums = [0] * chi.order
    for a, value in table:
        sums[exps[a % f]] += value
    return sums


def gen_bernoulli(chi: DirichletCharacter, k: int) -> CyclotomicNumber:
    """Generalized Bernoulli number B_{k,chi} = f^{k-1} sum_a chi(a) B_k(a/f)
    for the primitive chi inducing chi, a = 1..f: for f = 1 that is B_k(1),
    B_1 = +1/2, the right convention for zeta(0) = -1/2."""
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    chi = chi.primitive()
    den, table = _bernoulli_table(chi.modulus, k)
    return CyclotomicNumber.from_poly(chi.order, _class_sums(chi, table), den)


def L_at_nonpositive(chi: DirichletCharacter, n: int) -> CyclotomicNumber:
    """Exact L(n, chi) for n <= 0, via L(1-k, chi) = -B_{k,chi}/k."""
    if n > 0:
        raise InvalidArgumentError("n must be <= 0")
    k = 1 - n
    return gen_bernoulli(chi, k) * Fraction(-1, k)


# the largest |n| of an L-value: B_(1-n) comes from one table of tangent
# numbers T_1..T_c, c the power of two at or above (1-n)/2, built by c^2/2
# products of integers of up to c log2 c bits; c = 1024 serves |n| <= 2048,
# where `value "(Q)"` takes about 2 s on 2 cores, and the next table about 7 s
_MAX_WEIGHT = 2048


def _orbit_table(pairs) -> list[tuple]:
    """One entry (chi, n, exact, order, members) per Galois orbit and weight
    of the (chi, n) in `pairs`, n < 0: the first character met, made
    primitive, its exact L(n, chi), the order read off it and checked by the
    parity rule, and the (index, j) of each pair inducing chi^j, which has
    the exponents of chi at the unit-group generators times j.  A weight
    below -`_MAX_WEIGHT` is refused before any L-value is taken."""
    lowest = min((n for _, n in pairs), default=-1)
    if lowest < -_MAX_WEIGHT:
        raise InvalidArgumentError(f"an L-value at s = {lowest} is below -{_MAX_WEIGHT}: too long to compute")
    table, orbit_of = [], {}  # key -> (its orbit's entry, j)
    for index, (chi, n) in enumerate(pairs):
        if n >= 0:
            raise InvalidArgumentError("n must be < 0")
        chi = chi.primitive()
        f, m = chi.modulus, chi.order
        key = f, m, tuple(chi.exponent(g) for g, _ in _unit_group_generators(f)), n
        if key not in orbit_of:
            exact = L_at_nonpositive(chi, n)
            order = 1 if exact.is_zero else 0
            if order != (chi.parity != parity_sign(1 - n)):
                raise InvariantViolationError("parity shortcut disagrees with exact L-value")
            table.append((chi, n, exact, order, []))
            for j in range(1, m + 1):
                if gcd(j, m) == 1:
                    orbit_of[f, m, tuple(k * j % m for k in key[2]), n] = table[-1], j
        entry, j = orbit_of[key]
        entry[4].append((index, j))
    return table


def trivial_zero_order(chi: DirichletCharacter, n: int) -> int:
    """1 when the Gamma factor forces a (simple) zero at n < 0, else 0: one `_orbit_table` entry."""
    return _orbit_table([(chi, n)])[0][3]


# ---------------------------------------------------------------------------
# Numeric leading values


class LeadingValue(Record):
    """Leading Taylor coefficient of L(s, chi) at s = n < 0, as one real
    `value`: the coefficient itself when it is real, else its modulus.

    Exactly one of `exact` (a CyclotomicNumber, whose modulus at `dps` digits
    is taken when `value` is first read) and `numeric` (the closed-form
    Fraction at a trivial zero) is set; both default to None.
    """

    __slots__ = ("dps", "exact", "numeric", "__dict__")
    _defaults = {"exact": None, "numeric": None}

    def __post_init__(self):
        if (self.exact is None) == (self.numeric is None):
            raise InvalidArgumentError("a leading value is exact or numeric, not both or neither")

    @property
    def order(self) -> int:
        """0 exactly when the value is exact: trivial zeros at n < 0 are simple."""
        return 1 if self.exact is None else 0

    @cached_property
    def value(self) -> Fraction:
        if self.exact is None:
            return self.numeric
        x = self.exact
        return x.rational_value() if x.is_rational else _member_moduli(x, x.level, self.dps, [1])[0]


def _working_dps(precision: int, conductor: int) -> int:
    if precision < 1:
        raise PrecisionUnderflowError("precision must be a positive digit count")
    return precision + 15 + len(str(conductor + 2))


def _fixed_bits(dps: int, units: int) -> int:
    """Bits wp with (units + 1) 2^-wp below 2^-10 10^-dps."""
    return (10**dps).bit_length() + 10 + units.bit_length()


def _round(x, bits: int, d: int = 1) -> Fraction:
    """x / d rounded to `bits` significant bits, for an int or Fraction x
    and an int d > 0: a dyadic rational within 2^-bits |x / d| of it.

    The shift reads the bit lengths of x's numerator and of d times x's
    denominator as they are, reduced or not, so an integer pair is rounded
    without a gcd.  Any nonzero pair N / D has |N / D| 2^shift >= 2^(bits-1),
    so the radius holds either way; an unreduced pair may keep one bit more
    than its reduced form would."""
    n, d = x.numerator, x.denominator * d
    shift = bits - n.bit_length() + d.bit_length()  # |n / d| 2^shift >= 2^(bits-1)
    if shift >= 0:
        return Fraction(((n << shift) + (d >> 1)) // d, 1 << shift)
    d <<= -shift
    return Fraction((n + (d >> 1)) // d << -shift)


def _pi_fixed(wp: int) -> int:
    """pi 2^wp within one unit: `_machin` at B = wp + 8 rounded up to a
    multiple of 512 bits, so that one run serves the bit counts of an op,
    shifted down d = B - wp bits with rounding, within 1/2 + (3/4) 2^-d."""
    d = (wp + 519) // 512 * 512 - wp
    return (_machin(wp + d) + (1 << (d - 1))) >> d


@lru_cache(maxsize=8)
def _machin(bits: int) -> int:
    """pi 2^bits within 3/4 of a unit, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) in integers.

    Each atan(1/x) = sum_j (-1)^j x^-(2j+1)/(2j+1) is summed at bits + g
    bits, g = bit_length(bits) + 8, up to its last term of at least one
    unit, every term two exact floors (the last power over x^2, then over
    2j+1), so the sums are within 4 (bits + g) + 40 < 2^(g-2) units of
    2^-(bits+g), and rounding to `bits` bits leaves less than 3/4 of a unit.
    """
    g = bits.bit_length() + 8
    value = 0
    for x, c in ((5, 16), (239, -4)):
        power, j = (1 << (bits + g)) // x, 0
        while power:
            value += c * parity_sign(j) * (power // (2 * j + 1))
            power //= x * x
            j += 1
    return (value + (1 << (g - 1))) >> g


@lru_cache(maxsize=64)
def _root_table(m: int, wp: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(cos, sin) of 2 pi k / m times 2^wp for k = 0..m-1, as integers, each
    root within one unit of 2^-wp in modulus.

    One root w = (cos x, sin x) 2^P, x = 2 pi / m, P = wp + g, g =
    bit_length(m) + 3, is the Taylor series at P + h bits, h = bit_length(P)
    + 12: x within 3 units, each term a floor of the last, x <= pi for m >= 2
    (m = 1 uses no root), so w is within 0.73 units.  The powers z_(k+1) =
    floor(z_k w / 2^P), k < m/2, drift by below 2.16 units each, and rounding
    to wp bits leaves 1.08 m 2^-g + 0.71 < 1 unit; the rest are conjugates.
    """
    g = m.bit_length() + 3
    P = wp + g
    h = P.bit_length() + 12
    x = (_pi_fixed(P + h) << 1) // m
    w, term, j = [0, 0], 1 << (P + h), 0
    while term:
        w[j % 2] += parity_sign(j // 2) * term  # x^j / j!: cos for even j, sin for odd
        j += 1
        term = term * x // (j << (P + h))
    wc, ws = ((v + (1 << (h - 1))) >> h for v in w)
    half = 1 << (g - 1)
    zc, zs = 1 << P, 0
    cos, sin = [1 << wp], [0]
    for _ in range(m // 2):
        zc, zs = (zc * wc - zs * ws) >> P, (zc * ws + zs * wc) >> P
        cos.append((zc + half) >> g)
        sin.append((zs + half) >> g)
    mirror = (m + 1) // 2 - 1  # k = m - j for j = mirror..1
    cos += cos[mirror:0:-1]
    sin += [-v for v in sin[mirror:0:-1]]
    return tuple(cos), tuple(sin)


# Hurwitz zeta by Euler-Maclaurin in fixed point.  For an integer s >= 2 and
# x in (0, 1], summing g(t) = (t + x)^(-s) from t = N on gives
#
#   zeta(s, x) = sum_{k<N} (k+x)^(-s) + (N+x)^(1-s)/(s-1) + (N+x)^(-s)/2
#                + sum_{j=1..M} c_j (N+x)^(1-s-2j) + R,  c_j = B_2j/(2j)! s(s+1)...(s+2j-2).
#
# Every derivative of g keeps one sign, so R has the sign of the first
# omitted term (j = M+1) and is smaller in absolute value (Olver, "Asymptotics
# and Special Functions", ch. 8 §3; Johansson, arXiv:1309.2877, Theorem 1).
# That term is largest at x -> 0, so one plan (N, M) bounds R for every x.

_EM_MAX_HEAD = 1 << 16  # head terms past which the tolerance counts as unreachable


def _em_terms(s: int, wp: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(N, coeffs) with the first omitted term, at most |num| / (den
    N^(s+2j-1)), below 2^-(wp+4); bounds are compared in integers.  N starts
    where the head and the tail balance; if the tail terms stop decreasing
    before the tolerance, N grows by half and the search restarts."""
    N = int(wp * log(2) / pi) + s + 2
    while N <= _EM_MAX_HEAD:
        coeffs, last = [], None
        rising, factorial, j = s, 2, 1  # s(s+1)...(s+2j-2) and (2j)! at j
        power = N ** (s + 1)  # N^(s+2j-1) at j
        while True:
            b = bernoulli_number(2 * j)
            num, den = b.numerator * rising, b.denominator * factorial
            size = (abs(num), den * power)  # |term j| <= size[0] / size[1]
            if size[0] << (wp + 4) < size[1]:
                return N, tuple(coeffs)
            if last is not None and size[0] * last[1] >= last[0] * size[1]:
                break
            coeffs.append((num, den))
            last = size
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            factorial *= (2 * j + 1) * (2 * j + 2)
            power *= N * N
            j += 1
        N += N // 2
    raise PrecisionUnderflowError(f"Euler-Maclaurin for zeta({s}, x) cannot reach 2^-{wp}")


@lru_cache(maxsize=32)
def _em_plan(s: int, dps: int) -> tuple[int, int, int, tuple[int, ...]]:
    """(wp, N, W, floor(c_j 2^W) for j = M..1), the plan for zeta(s, x) at
    `dps` digits with the head N and tail c_j of `_em_terms`, shared by every
    conductor: wp >= ceil(dps log2 10) + log2(N + M + 2) + 10 makes the error
    (N + M + 3) 2^-wp (see `_hurwitz_em`) at most 2^-10 10^-dps, relative too
    as zeta(s, x) >= 1 on (0, 1].  The search starts at the bits for 2 N
    units, N the first head length, which is the final wp or just above it.
    The tail sum of c_j u^(j-1), u < 1, is Horner's rule at W bits: a step
    acc -> c_j 2^W + floor(acc U / 2^W), U = floor(u 2^W), adds a unit for
    c_j, one for the floor, and U's error times the exact partial sum, below
    M C units, C the largest |c_j| rounded up: M (2 + M C) units in all,
    which W = wp + 1 + bit_length(M (2 + M C)) keeps below 2^-(wp+1)."""
    if s < 2:
        raise InvalidArgumentError("the Hurwitz table needs an integer s >= 2")
    wp = _fixed_bits(dps, 0)
    wp = _fixed_bits(dps, 2 * (int(wp * log(2) / pi) + s + 2))
    while True:
        N, coeffs = _em_terms(s, wp)
        need = _fixed_bits(dps, N + len(coeffs) + 2)
        if wp >= need:
            break
        wp = need
    M = len(coeffs)
    C = max((-(-abs(num) // den) for num, den in coeffs), default=0)
    W = wp + 1 + (M * (2 + M * C)).bit_length()
    return wp, N, W, tuple((num << W) // den for num, den in reversed(coeffs))


def _hurwitz_em(f: int, a: int, s: int, plan: tuple) -> int:
    """zeta(s, a/f) * 2^wp, within N + M + 3 units, in integers only.

    With m = N f + a, the head is N + 2 floors of exact ratios; the tail,
    (f/m)^(s+1) sum_j c_j u^(j-1) with u = (f/m)^2, is the plan's Horner pass
    within half a unit and one floor.  With R below 1/16 that is below
    N + 2 + 3/2 + 1/16 units, inside N + M + 3 as M >= 1 when there is a tail.
    """
    wp, N, W, fixed = plan
    m = N * f + a
    acc = sum(map((f**s << wp).__floordiv__, map(pow, range(a, m, f), itertools.repeat(s))))
    fk, mk = f ** (s - 1), m ** (s - 1)
    acc += (fk << wp) // ((s - 1) * mk)
    acc += (fk * f << wp) // (2 * mk * m)
    u, tail = (f * f << W) // (m * m), 0
    for c in fixed:
        tail = c + (tail * u >> W)
    return acc + tail * fk * f * f // (mk * m * m << (W - wp))


@lru_cache(maxsize=32)
def _hurwitz_table(f: int, s: int, dps: int) -> tuple[tuple[int, int], ...]:
    """(a, zeta(s, a/f) 2^wp) for the units a in 1..f, from `_hurwitz_em`
    under the plan for (s, dps): within N + M + 3 units, below 2^-10 10^-dps."""
    plan = _em_plan(s, dps)
    return tuple((a, _hurwitz_em(f, a, s, plan)) for a in _units(f))


def _permuted(values, j: int, m: int) -> list:
    """sigma_j on a vector indexed by powers of zeta_m: entry i moves to i j mod m."""
    out = [0] * m
    for i, v in enumerate(values):
        out[i * j % m] = v
    return out


def _at_roots(v, m: int, period: int, wp: int, js) -> list[tuple[int, int]]:
    """(re, im) of sum_i v[i] zeta_m^(ij) 2^wp for each j in `js`, exact sums
    of the integers v[i] times the roots of order m, m dividing `period`,
    strided from `_root_table(period, wp)`: 2 pi k / m = 2 pi (k period/m) /
    period, so each root is within one unit as the table states."""
    cos, sin = (table[:: period // m] for table in _root_table(period, wp))
    out = []
    for j in js:
        vj = _permuted(v, j, m)
        out.append((sum(map(mul, cos, vj)), sum(map(mul, sin, vj))))
    return out


def _gauss_fixed(chi: DirichletCharacter, wp: int) -> tuple[int, int]:
    """tau(chi) 2^wp for a primitive chi, within 2 phi(f) + 2 units in modulus:
    the roots zeta_f^a summed by exponent class into X_k, each within its
    class size in units, then sum_k zeta_order^k X_k exact at 2 wp bits and
    within 2 phi(f) + phi(f) 2^-wp units, and the final floor adds below sqrt 2."""
    f, m = chi.modulus, chi.order
    # (sum_k zeta^k X_k) for the real parts X_k = xr_k, then the imaginary ones X_k = xi_k
    (rr, ri), (ir, ii) = (
        _at_roots(_class_sums(chi, ((a, table[a % f]) for a in _units(f))), m, m, wp, [1])[0]
        for table in _root_table(f, wp)
    )
    return (rr - ii) >> wp, (ir + ri) >> wp


def gauss_sum(chi: DirichletCharacter, precision: int = DEFAULT_PRECISION) -> tuple[Fraction, Fraction]:
    """tau(chi) = sum_a chi(a) e^(2 pi i a / f) at the working digits of
    `precision`, as the pair (re, im) of dyadic rationals: `_gauss_fixed`
    at bits where its error stays below 2^-10 10^-dps, relative as well
    since |tau| = sqrt f."""
    chi = chi.primitive()
    f = chi.modulus
    wp = _fixed_bits(_working_dps(precision, f), 2 * _euler_phi(f) + 1)
    return tuple(Fraction(v, 1 << wp) for v in _gauss_fixed(chi, wp))


def _sigma(x: CyclotomicNumber, j: int) -> CyclotomicNumber:
    """sigma_j(x) = x(zeta_N^j) for a unit j mod the level N."""
    return x if j == 1 else CyclotomicNumber.from_poly(x.level, _permuted(x.num, j, x.level), x.den)


def _member_moduli(x: CyclotomicNumber, period: int, dps: int, js) -> list[Fraction]:
    """|sigma_j(x)| at `dps` digits for each unit j in `js`, the level m of x
    dividing `period`: `_at_roots` of its numerators is within sum_i |num[i]|
    units and the integer square root one more, below 2^-10 10^-dps
    sum_i |num[i]| / den; then rounded to wp bits."""
    wp = _fixed_bits(dps, 1)
    return [
        _round(Fraction(isqrt(re * re + im * im), x.den << wp), wp)
        for re, im in _at_roots(x.num, x.level, period, wp, js)
    ]


def _hurwitz_H(chi: DirichletCharacter, s: int, dps: int, js) -> list[tuple[int, int]]:
    """H(chi^j) 2^wp = sum_a conj(chi(a)^j) zeta(s, a/f) 2^wp, at the plan's
    wp, for a primitive chi, an integer s > 1 and each j in `js`.

    The table integers, each within U = N + M + 3 units, are summed once by
    exponent class into Y_k, and H(chi^j) = sum_k conj(zeta^(jk)) Y_k is Y
    against the roots strided from the table of lambda(f): within
    S + phi(f) U + 2 units, S = sum_a zeta(s, a/f) <= zeta(s) f^s.  As
    |L(s, chi)| >= zeta(2s)/zeta(s), that is a relative error below
    (2.5 + 1.6 (U + 2)) 2^-wp for s >= 2.
    """
    f = chi.modulus
    wp = _em_plan(s, dps)[0]
    y = _class_sums(chi, _hurwitz_table(f, s, dps))
    return [(re >> wp, -(im >> wp)) for re, im in _at_roots(y, chi.order, _exponent(f), wp, js)]


def _leading_values(table, precision: int = DEFAULT_PRECISION) -> list[Fraction]:
    """The leading value of L(s, chi) at s = n < 0, real or else its modulus,
    for each pair of `table`, in order: at order 0 a rational one or else
    `_member_moduli`, and at a trivial zero |r| |H| / (sqrt f pi^-n), signed
    like r H for a real chi: |H| / sqrt f one integer square root and pi^-n
    a power of `_pi_fixed`, each within 2^-9 10^-dps relative, and the
    quotient rounded once, within 2^-7 10^-dps."""
    out = [None] * sum(len(members) for *_, members in table)
    for chi, n, exact, order, members in table:
        f, m = chi.modulus, chi.order
        dps = _working_dps(precision, f)
        js = [j for _, j in members]
        if order == 0:
            values = [exact.rational_value()] * len(js) if exact.is_rational else _member_moduli(exact, _exponent(f), dps, js)
        else:
            a = 0 if chi.parity == 1 else 1
            h = -(n + a) // 2  # an integer: the checked order fixes the parity of n + a
            k = h + a
            wp = _em_plan(1 - n, dps)[0]
            # |r| |H| / (sqrt f pi^-n) with r = sign c / (2 4^k k!), |H| / sqrt f =
            # root 4^-wp and pi^-n = P^-n 2^(n wp), rounded from the integer pair
            sign, c = parity_sign(h), factorial(2 * k) * factorial(h)
            den = 2 * 4**k * factorial(k) * (_pi_fixed(wp) ** -n << wp)
            bits = _fixed_bits(dps, 0)
            values = []
            for re, im in _hurwitz_H(chi, 1 - n, dps, js):
                root = isqrt((re * re + im * im << 2 * wp) // f)
                value = c * root << (-n - 1) * wp
                values.append(_round(-value if m <= 2 and sign * re < 0 else value, bits, den))
        for (index, _), value in zip(members, values):
            out[index] = value
    return out


def leading_value(chi: DirichletCharacter, n: int, precision: int = DEFAULT_PRECISION) -> LeadingValue:
    """Leading Taylor coefficient of L(s, chi) at s = n < 0 from one `_orbit_table`
    entry: the exact value at order 0, embedded when read, or the closed form."""
    table = _orbit_table([(chi, n)])
    chi, _, exact, order, _ = table[0]
    dps = _working_dps(precision, chi.modulus)
    return LeadingValue(dps, exact=exact) if order == 0 else LeadingValue(dps, numeric=_leading_values(table, precision)[0])
