"""Dirichlet characters, generalized Bernoulli numbers and L-values.

Exact values at nonpositive integers live in cyclotomic fields Q(zeta_N):
integer polynomials reduced modulo the N-th cyclotomic polynomial over one
positive denominator, with no field arithmetic.  None is needed, as the
exact L-values of one character order m that a product meets on every verb
form whole Galois orbits, and an orbit's product is the norm from Q(zeta_m)
of one value, a rational rounded from its sums at the roots (`_orbit_norm`).

The work goes by Galois orbit {chi^j : gcd(j, m) = 1}, m the order of chi.
`characters_mod` builds one residue table t per orbit and each other
member's as j t mod m.  Every verb reads `_orbit_table`: per orbit and
weight one exact L(n, chi) = -B_{1-n,chi}/(1-n), the order at n < 0 and the
members chi^j, whose value is sigma_j of it, each with its summed
exponent; `_special_value` takes a product's L-part from it.  A trivial
zero is simple, and the functional equation gives the derivative
(Gamma((1-n+a)/2) = (2k)! sqrt(pi) / (4^k k!); the roots of f and pi cancel):

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
roots of unity strided from one table of order lambda(f) per wp (a norm
reads the table of its level), and one Euler-Maclaurin plan per (s, dps)
from one table of tangent numbers, with a Horner tail scaled to run at
about the working precision (see `_em_plan`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, gcd, isqrt, lcm, log, pi, prod
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
    "SpecialValue",
    "TRIVIAL_CHARACTER",
    "CHI_MINUS_4",
    "Q",
    "QI",
    "gen_bernoulli",
    "L_at_nonpositive",
    "trivial_zero_order",
    "leading_value",
    "gauss_sum",
]

DEFAULT_PRECISION = 50


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact)


@lru_cache(maxsize=8)
def _tangent_numbers(count: int) -> tuple[int, ...]:
    """T_1..T_count, tan x = sum_m T_m x^(2m-1)/(2m-1)!, by the integer
    recurrence of Brent and Harvey (arXiv:1108.0286, Algorithm TangentNumbers).
    The cache is bounded, as each Euler-Maclaurin plan reads a table of its
    own count, about 1800 numbers (3.5 MB) at 4096 digits."""
    T = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return tuple(T[1:])


@lru_cache(maxsize=4)
def _bernoulli_numbers(k: int) -> tuple[Fraction, ...]:
    """B_0..B_k with the B_1 = -1/2 convention, B_2m = (-1)^(m-1) 2m T_m /
    (4^m (4^m - 1)) from one table of tangent numbers, shared by the
    Bernoulli tables of every conductor at one weight."""
    numbers = [Fraction(1), Fraction(-1, 2)]
    for m, tangent in enumerate(_tangent_numbers(k // 2), 1):
        numbers += (Fraction(parity_sign(m - 1) * 2 * m * tangent, 4**m * (4**m - 1)), Fraction(0))
    return tuple(numbers[: k + 1])


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
    FLINT's fmpq_poly.  Construction reduces a numerator of any length,
    clearing its top coefficients against the monic Phi_N one pass over its
    nonzero terms each, pads a short one and divides out gcd(den, num), so
    equal numbers of one level have equal fields.  There is no product: what
    a special value needs of a whole Galois orbit is its norm, `_orbit_norm`.
    """

    __slots__ = ("level", "num", "den")

    # built in bulk: an explicit constructor is faster than Record's generic one
    def __init__(self, level: int, num, den: int = 1):
        if level < 1:
            raise InvalidArgumentError("level must be >= 1")
        if den == 0:
            raise InvalidArgumentError("denominator must be nonzero")
        modulus = cyclotomic_polynomial(level)
        phi = len(modulus) - 1
        coeffs = list(num)
        terms = [(j, m) for j, m in enumerate(modulus[:phi]) if m]
        for i in range(len(coeffs) - 1, phi - 1, -1):
            top = coeffs[i]
            if top:
                base = i - phi
                for j, m in terms:
                    coeffs[base + j] -= top * m
        num = (*coeffs[:phi], *[0] * (phi - len(coeffs)))
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num, den = tuple(c // g for c in num), den // g
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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


# ---------------------------------------------------------------------------
# Abelian number fields given by (conductor, subgroup)


# the largest conductor: every character table has one entry per residue
_MAX_CONDUCTOR = 1 << 16


class AbelianFieldSpec(Record):
    """Fixed field of H <= (Z/f)^* inside Q(zeta_f): f is the `conductor`
    and H the sorted tuple `subgroup`.

    The constructor takes any residues mod f, negatives included, and stores
    the subgroup they generate; a conductor above `_MAX_CONDUCTOR` is
    refused before any residue is enumerated.
    """

    __slots__ = ("conductor", "subgroup")

    def __post_init__(self):
        f = self.conductor
        if f < 1:
            raise InvalidArgumentError("conductor must be >= 1")
        if f > _MAX_CONDUCTOR:
            raise InvalidArgumentError(
                f"conductor {f} is above {_MAX_CONDUCTOR}: its character tables are too large to write out"
            )
        # the closure, from generators picked greedily: a residue not yet in it
        # is the next one, and multiplying it through by that one suffices, as
        # it is closed under the earlier ones; in a group each new generator at
        # least doubles it, so there are at most log2 |H| of them
        closed = {1}
        for h in {_canonical_residue(h, f) for h in self.subgroup}:
            if h not in closed:
                frontier = list(closed)
                while frontier:
                    b = _canonical_residue(frontier.pop() * h, f)
                    if b not in closed:
                        closed.add(b)
                        frontier.append(b)
        non_units = sorted(closed - set(_units(f)))
        if non_units:
            raise InvalidArgumentError(f"subgroup elements {non_units} are not units mod {f}")
        object.__setattr__(self, "subgroup", tuple(sorted(closed)))

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
    a^(k-j) is an integer polynomial in a, evaluated at each unit; C(k, j) L f^j
    is a running product, times (k - j) f and divided exactly by j + 1."""
    numbers = _bernoulli_numbers(k)
    L = lcm(*(b.denominator for b in numbers))
    terms = itertools.accumulate(range(k), lambda t, j: t * (k - j) * f // (j + 1), initial=L)
    # ascending in a: the coefficient of a^i comes from j = k - i
    coeffs = [t // b.denominator * b.numerator for t, b in zip(terms, numbers)]
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
    return CyclotomicNumber(chi.order, _class_sums(chi, table), den)


def L_at_nonpositive(chi: DirichletCharacter, n: int) -> CyclotomicNumber:
    """Exact L(n, chi) for n <= 0, via L(1-k, chi) = -B_{k,chi}/k."""
    if n > 0:
        raise InvalidArgumentError("n must be <= 0")
    k = 1 - n
    b = gen_bernoulli(chi, k)
    return CyclotomicNumber(b.level, tuple(-c for c in b.num), b.den * k)


# the largest |n| of an L-value: B_(1-n) comes from one table of tangent
# numbers T_1..T_c, c = (1-n)//2, built by c^2/2 products of integers of up
# to c log2 c bits; at the bound `value "(Q)" -n -2048` takes 0.59 s on 2 cores
_MAX_WEIGHT = 2048


def _orbit_table(factors) -> tuple[list[tuple], int]:
    """One entry (chi, n, exact, order, members) per Galois orbit and weight
    of the (chi, n, e) in `factors`, n < 0, and the order of the product of
    the L(s, chi)^e at s = n.  An entry holds the first character met, made
    primitive, its exact L(n, chi), the order read off it and checked by the
    parity rule, and `members`, mapping each j mod m to the summed exponent
    of the factors inducing chi^j, which has the exponents of chi at the
    unit-group generators times j.  A weight below -`_MAX_WEIGHT` is refused
    before any L-value is taken."""
    lowest = min((n for _, n, _ in factors), default=-1)
    if lowest < -_MAX_WEIGHT:
        raise InvalidArgumentError(f"an L-value at s = {lowest} is below -{_MAX_WEIGHT}: too long to compute")
    table, orbit_of, total = [], {}, 0  # key -> (its orbit's entry, j)
    for chi, n, e in factors:
        if n >= 0:
            raise InvalidArgumentError("n must be < 0")
        chi = chi.primitive()
        f, m = chi.modulus, chi.order
        key = f, m, tuple(chi.exponent(g) for g, _ in _unit_group_generators(f)), n
        if key not in orbit_of:
            exact = L_at_nonpositive(chi, n)
            order = 1 if exact.is_zero else 0
            if order != trivial_zero_order(chi, n):
                raise InvariantViolationError("parity shortcut disagrees with exact L-value")
            table.append((chi, n, exact, order, {}))
            for j in range(m):
                if gcd(j, m) == 1:
                    orbit_of[f, m, tuple(k * j % m for k in key[2]), n] = table[-1], j
        (*_, order, members), j = orbit_of[key]
        members[j] = members.get(j, 0) + e
        total += order * e
    return table, total


def trivial_zero_order(chi: DirichletCharacter, n: int) -> int:
    """1 when the Gamma factor forces a (simple) zero at n < 0, else 0: the
    parity rule, chi's parity differing from that of 1 - n, which
    `_orbit_table` checks against every exact L-value it takes."""
    if n >= 0:
        raise InvalidArgumentError("n must be < 0")
    return int(chi.parity != parity_sign(1 - n))


# ---------------------------------------------------------------------------
# Numeric leading values


class SpecialValue(Record):
    """Vanishing order and leading Taylor coefficient at s = n.

    `exact` is a `Fraction` when the value is provably an exact rational,
    and is then its own `numeric`; otherwise it is None and `numeric` is a
    dyadic rational.  `error` is the nominal bound, a `Fraction` as well.
    """

    __slots__ = ("order", "exact", "numeric", "error")

    @property
    def is_exact(self) -> bool:
        return self.exact is not None


def _working_dps(precision: int, conductor: int) -> int:
    if precision < 1:
        raise PrecisionUnderflowError("precision must be a positive digit count")
    return precision + 15 + len(str(conductor + 2))


def _fixed_bits(dps: int, units: int) -> int:
    """Bits wp with (units + 1) 2^-wp below 2^-10 10^-dps."""
    return (10**dps).bit_length() + 10 + units.bit_length()


def _round(n: int, d: int, bits: int) -> tuple[int, int]:
    """n / d rounded to `bits` significant bits, for ints n and d > 0: a
    dyadic pair (num, 2^k) within 2^-bits |n / d| of it, not reduced.

    The shift reads the bit lengths of n and d as they are, reduced or not,
    so a pair is rounded without a gcd.  Any nonzero pair N / D has
    |N / D| 2^shift >= 2^(bits-1), so the radius holds either way; an
    unreduced pair may keep one bit more than its reduced form would."""
    shift = bits - n.bit_length() + d.bit_length()  # |n / d| 2^shift >= 2^(bits-1)
    if shift >= 0:
        return ((n << shift) + (d >> 1)) // d, 1 << shift
    d <<= -shift
    return (n + (d >> 1)) // d << -shift, 1


def _pi_fixed(wp: int) -> int:
    """pi 2^wp within one unit: `_machin` at B = wp + 8 rounded up to a
    multiple of 512 bits, so that one run serves the bit counts of an op,
    shifted down d = B - wp bits with rounding, within 1/2 + (3/4) 2^-d."""
    d = (wp + 519) // 512 * 512 - wp
    return (_machin(wp + d) + (1 << (d - 1))) >> d


def _pi_power(e: int, bits: int) -> tuple[int, int]:
    """(X, F) with X / 2^F within 2^-bits pi^e relative, e >= 1, by binary
    powering at F = bits + bit_length(e) + 2 fractional bits.

    With u = 2^-F, `_pi_fixed(F)` is pi (1 + d), |d| <= u / pi, and every
    floored product, at least 2^F, is the exact one times 1 - d', 0 <= d' <
    u.  So the power of exponent e is pi^e times a factor within (1 +- u)^a,
    a(1) = 1, a squaring taking a to 2a + 1 and a multiplication by pi to
    a + 2: a(e) <= 3e - 2 by induction.  As 3e u < 3/4 2^-bits, the factor
    is within (1 + u)^(3e) - 1 <= 3e u e^(3e u) < 2^-bits of one."""
    F = bits + e.bit_length() + 2
    X = P = _pi_fixed(F)
    for bit in bin(e)[3:]:
        X = X * X >> F
        if bit == "1":
            X = X * P >> F
    return X, F


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

    One root w = zeta_m 2^P, P = wp + g, g = bit_length(m) + 3, is Newton's
    iteration z <- z + z (1 - z^m) / m up to P + 9 bits (m = 1 uses no
    root).  It starts at p <= 50 bits from the Taylor series of cos and sin
    of 2 pi / m <= pi at p + 12 bits, each term a floor of the last, within
    2 units.  Each step takes z within 8 units at p bits to q <= 2p - c bits,
    c = bit_length(m) + 7 <= p as m < 2^17.  For z = zeta (1 + d), m |d| <=
    1/16, the exact step gives zeta (1 - d^2 - (1 + d) R / m) with |R| <=
    (m^2/2) |d|^2 e^(m|d|), within (m + 1) |d|^2, below one unit at q bits;
    the floors of the binary power z^m are within 3m units, so the step's
    within 6.  Rounding to P bits leaves 8 2^-9 + 0.71 < 0.73 units.  The
    powers z_(k+1) = floor(z_k w / 2^P), k < m/2, drift by below 2.16 units
    each, and rounding to wp bits leaves 1.08 m 2^-g + 0.71 < 1 unit; the
    rest are conjugates.
    """
    g = m.bit_length() + 3
    P = wp + g
    bits = [P + 9]
    while bits[-1] > 50:
        bits.append((bits[-1] + m.bit_length() + 8) // 2)  # (q + c + 1) // 2
    p = bits.pop()
    x, w, term, j = (_pi_fixed(p + 12) << 1) // m, [0, 0], 1 << p + 12, 0
    while term:
        w[j % 2] += parity_sign(j // 2) * term  # x^j / j!: cos for even j, sin for odd
        j += 1
        term = (term * x >> p + 12) // j
    wc, ws = ((v + (1 << 11)) >> 12 for v in w)
    for q in reversed(bits):
        wc, ws, p = wc << q - p, ws << q - p, q
        uc, us = wc, ws  # z^m, left to right
        for bit in bin(m)[3:]:
            uc, us = (uc * uc - us * us) >> p, uc * us >> p - 1
            if bit == "1":
                uc, us = (uc * wc - us * ws) >> p, (uc * ws + us * wc) >> p
        dc, ds = (1 << p) - uc, -us
        wc, ws = wc + ((wc * dc - ws * ds) >> p) // m, ws + ((wc * ds + ws * dc) >> p) // m
    wc, ws = ((v + (1 << 8)) >> 9 for v in (wc, ws))
    half = 1 << (g - 1)
    zc, zs = 1 << P, 0
    re, im = [1 << wp], [0]
    for _ in range(m // 2):
        zc, zs = (zc * wc - zs * ws) >> P, (zc * ws + zs * wc) >> P
        re.append((zc + half) >> g)
        im.append((zs + half) >> g)
    mirror = (m + 1) // 2 - 1  # k = m - j for j = mirror..1
    re += re[mirror:0:-1]
    im += [-v for v in im[mirror:0:-1]]
    return tuple(re), tuple(im)


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


def _em_count(s: int, wp: int, N: int) -> int:
    """J, a count of terms that the search of `_em_terms` at head N > s
    cannot pass: the first j with |term j| < 2^-(wp+4) for certain, or with
    |term j| >= |term j-1| for certain.

    As |B_2j| / (2j)! = 2 zeta(2j) (2 pi)^-2j and 1 <= zeta(2j) < 2,
    |term j| = (|B_2j| / (2j)!) s(s+1)...(s+2j-2) / N^(s+2j-1) lies in
    [b_j / 2, b_j], b_j = 4 (2 pi)^-2j s(s+1)...(s+2j-2) / N^(s+2j-1), and
    b_j <= 4 39^-j s(s+1)...(s+2j-2) / N^(s+2j-1) as (2 pi)^2 > 39.  So term
    j is below the tolerance once that bound is, and |term j| / |term j-1|
    >= (s+2j-3)(s+2j-2) / (2 (2 pi N)^2) is at least one once (s+2j-3)
    (s+2j-2) >= 80 N^2 > 2 (2 pi N)^2."""
    rising, scale, j = 4 * s << (wp + 4), 39 * N ** (s + 1), 1
    while rising >= scale and (s + 2 * j - 3) * (s + 2 * j - 2) < 80 * N * N:
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        scale *= 39 * N * N
        j += 1
    return j


def _less(a: int, b: int, c: int) -> bool:
    """a < b c for positive integers, the product formed only when the bit
    lengths leave it open: b c has bit_length(b) + bit_length(c) bits or
    one fewer."""
    gap = b.bit_length() + c.bit_length() - a.bit_length()
    return gap > 1 or (gap >= 0 and a < b * c)


def _em_terms(s: int, wp: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(N, coeffs) with the first omitted term, |num| / (den N^(s+2j-1)) at
    x -> 0, below 2^-(wp+4); bounds are compared in integers (`_less`).  N
    starts where the head and the tail balance; if the tail terms stop
    decreasing before the tolerance, N grows by half and the search restarts.

    Each c_j = B_2j / (2j)! s(s+1)...(s+2j-2) is the unreduced pair of
    B_2j / (2j)! = (-1)^(j-1) T_j / (4^j (4^j - 1) (2j-1)!) times the rising
    product, T_j from one table of `_tangent_numbers` per N, of the
    `_em_count` terms that the search reads at most."""
    N = int(wp * log(2) / pi) + s + 2
    while N <= _EM_MAX_HEAD:
        coeffs = []
        rising, factorial = s, 1  # s(s+1)...(s+2j-2) and (2j-1)! at j
        power = N ** (s + 1)  # N^(s+2j-1) at j
        for j, tangent in enumerate(_tangent_numbers(_em_count(s, wp, N)), 1):
            four = 4**j
            num, den = parity_sign(j - 1) * tangent * rising, four * (four - 1) * factorial
            if _less(abs(num) << (wp + 4), den, power):
                return N, tuple(coeffs)
            # |term j| >= |term j-1|, the powers of N cancelled; the ratio is
            # zeta(2j) / zeta(2j-2) (s+2j-3)(s+2j-2) / (2 pi N)^2, so below one
            # while (s+2j-3)(s+2j-2) <= 39 N^2, as at j = 1 since N > s
            if (s + 2 * j - 3) * (s + 2 * j - 2) > 39 * N * N:
                if abs(num) * coeffs[-1][1] >= abs(coeffs[-1][0]) * den * N * N:
                    break
            coeffs.append((num, den))
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            factorial *= 2 * j * (2 * j + 1)
            power *= N * N
        else:
            raise InvariantViolationError(f"Euler-Maclaurin for zeta({s}, x) ran past its tangent table at N = {N}")
        N += N // 2
    raise PrecisionUnderflowError(f"Euler-Maclaurin for zeta({s}, x) cannot reach 2^-{wp}")


@lru_cache(maxsize=32)
def _em_plan(s: int, dps: int) -> tuple[int, int, int, tuple[int, ...]]:
    """(wp, N, W, floor(e_j 2^W) for j = M..1), the plan for zeta(s, x) at
    `dps` digits with the head N and tail c_j of `_em_terms`, shared by every
    conductor: wp >= ceil(dps log2 10) + log2(N + M + 2) + 10 makes the error
    (N + M + 3) 2^-wp (see `_hurwitz_em`) at most 2^-10 10^-dps, relative too
    as zeta(s, x) >= 1 on (0, 1].  The search starts at the bits for 2 N
    units, N the first head length, which is the final wp or just above it.

    The tail sum of c_j u^(j-1) = e_j v^(j-1), e_j = c_j / N^(2j-2) and
    v = N^2 u < 1, is Horner's rule at W bits.  Every partial sum is at most
    E = sum_j ceil(|e_j|), about s/12 + M, whatever the c_j.  The first
    step, floor(e_M 2^W), is within a unit; each other step acc ->
    floor(e_j 2^W) + floor(acc V / 2^W), V = floor(v 2^W), adds a unit for
    e_j, one for the floor, and V's error times acc / 2^W, at most E plus
    the error so far, below 2^-wp: below M (2 + E) units in all, which
    W = wp + 1 + bit_length(M (2 + E)) keeps below 2^-(wp+1)."""
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
    scaled = [(num, den * N ** (2 * j)) for j, (num, den) in enumerate(coeffs)]  # e_(j+1)
    E = sum(-(-abs(num) // den) for num, den in scaled)
    W = wp + 1 + (len(scaled) * (2 + E)).bit_length()
    return wp, N, W, tuple((num << W) // den for num, den in reversed(scaled))


def _hurwitz_em(f: int, a: int, s: int, plan: tuple) -> int:
    """zeta(s, a/f) * 2^wp, within N + M + 3 units, in integers only.

    With m = N f + a, the head is N + 2 floors of exact ratios; the tail,
    (f/m)^(s+1) sum_j e_j v^(j-1) with v = (N f/m)^2, is the plan's Horner
    pass within half a unit and one floor.  With R below 1/16 that is below
    N + 2 + 3/2 + 1/16 units, inside N + M + 3 as M >= 1 when there is a tail.
    """
    wp, N, W, fixed = plan
    m = N * f + a
    acc = sum(map((f**s << wp).__floordiv__, map(pow, range(a, m, f), itertools.repeat(s))))
    fk, mk = f ** (s - 1), m ** (s - 1)
    acc += (fk << wp) // ((s - 1) * mk)
    acc += (fk * f << wp) // (2 * mk * m)
    v, tail = ((N * f) ** 2 << W) // (m * m), 0
    for e in fixed:
        tail = e + (tail * v >> W)
    return acc + tail * fk * f * f // (mk * m * m << (W - wp))


@lru_cache(maxsize=32)
def _hurwitz_table(f: int, s: int, dps: int) -> tuple[tuple[int, int], ...]:
    """(a, zeta(s, a/f) 2^wp) for the units a in 1..f, from `_hurwitz_em`
    under the plan for (s, dps): within N + M + 3 units, below 2^-10 10^-dps."""
    plan = _em_plan(s, dps)
    return tuple((a, _hurwitz_em(f, a, s, plan)) for a in _units(f))


def _at_roots(v, m: int, period: int, wp: int, js) -> list[tuple[int, int]]:
    """(re, im) of sum_i v[i] zeta_m^(ij) 2^wp for each j in `js`, exact sums
    of the integers v[i] times the roots of order m, m dividing `period`,
    strided from `_root_table(period, wp)`: 2 pi k / m = 2 pi (k period/m) /
    period, so each root is within one unit as the table states, and each
    sum within sum_i |v[i]| units in modulus."""
    re, im = (table[:: period // m] for table in _root_table(period, wp))
    out = []
    for j in js:
        ks = [i * j % m for i in range(len(v))]  # sigma_j: v[i] meets the root of i j mod m
        out.append((sum(map(mul, v, map(re.__getitem__, ks))), sum(map(mul, v, map(im.__getitem__, ks)))))
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


def _member_moduli(x: CyclotomicNumber, period: int, dps: int, js) -> list[tuple[int, int]]:
    """|sigma_j(x)| at `dps` digits for each unit j in `js`, an integer pair,
    the level m of x dividing `period`: `_at_roots` of its numerators is
    within sum_i |num[i]| units and the integer square root one more, below
    2^-10 10^-dps sum_i |num[i]| / den; then reduced and rounded to wp bits."""
    wp = _fixed_bits(dps, 1)
    pairs = [(isqrt(re * re + im * im), x.den << wp) for re, im in _at_roots(x.num, x.level, period, wp, js)]
    return [_round(r // (g := gcd(r, d)), d // g, wp) for r, d in pairs]


def _orbit_norm(x: CyclotomicNumber) -> Fraction:
    """N(x), the norm from Q(zeta_m) of x, m > 2 its level: the product of
    its phi(m) conjugates, a positive rational.

    sigma_(-j)(x) is the conjugate of sigma_j(x), so den^phi(m) N(x) is the
    product of |sigma_j(num)|^2 over the h = phi(m)/2 units j < m/2, an
    integer, the norm of an algebraic integer.  With S = sum_i |num[i]|,
    `_at_roots` at wp bits gives each sigma_j(num) 2^wp, at most S 2^wp,
    within S units, so re^2 + im^2 is within S^2 (2^(wp+1) + 1) of
    |sigma_j(num)|^2 4^wp.  The h factors are multiplied at 2 wp fractional
    bits, each product floored; as wp > 2h + 4 keeps (1 + 2^-wp)^(2h) below
    1.02, the product is within h S^(2h) 2^(3-wp) of the integer, below 1/4
    at wp = phi(m) bit_length(S) + bit_length(phi(m)) + 4, and one rounding
    gives it.
    """
    m = x.level
    phi = _euler_phi(m)
    wp = phi * sum(map(abs, x.num)).bit_length() + phi.bit_length() + 4
    acc = 1 << 2 * wp
    for re, im in _at_roots(x.num, m, m, wp, [j for j in range(1, m // 2 + 1) if gcd(j, m) == 1]):
        acc = acc * (re * re + im * im) >> 2 * wp
    return Fraction((acc + (1 << 2 * wp - 1)) >> 2 * wp, x.den**phi)


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


def _leading_values(table, precision: int = DEFAULT_PRECISION) -> list[tuple[int, int]]:
    """The leading value of L(s, chi^j) at s = n < 0, real or else its
    modulus, as an integer pair (num, den > 0), not always reduced, for each
    member j of each entry of `table`, in member order: at order 0 a rational
    one or else `_member_moduli`, and at a trivial zero |r| |H| / (sqrt f
    pi^-n), signed like r H for a real chi: |H| / sqrt f one integer square
    root within 2^-9 10^-dps relative, pi^-n from `_pi_power` within 2^-10
    10^-dps relative, and the quotient rounded once, within 2^-7 10^-dps."""
    out = []
    for chi, n, exact, order, members in table:
        f, m = chi.modulus, chi.order
        dps = _working_dps(precision, f)
        if order == 0:
            ratio = exact.is_rational and exact.rational_value().as_integer_ratio()
            out += [ratio] * len(members) if ratio else _member_moduli(exact, _exponent(f), dps, members)
        else:
            a = 0 if chi.parity == 1 else 1
            h = -(n + a) // 2  # an integer: the checked order fixes the parity of n + a
            k = h + a
            wp = _em_plan(1 - n, dps)[0]
            # |r| |H| / (sqrt f pi^-n) with r = sign c / (2 4^k k!), |H| / sqrt f =
            # root 4^-wp and pi^-n = X 2^-F, rounded from the integer pair
            sign, c = parity_sign(h), factorial(2 * k) * factorial(h)
            bits = _fixed_bits(dps, 0)
            X, F = _pi_power(-n, bits)
            den = 2 * 4**k * factorial(k) * X << 2 * wp
            for re, im in _hurwitz_H(chi, 1 - n, dps, members):
                root = isqrt((re * re + im * im << 2 * wp) // f)
                value = c * root << F
                out.append(_round(-value if m <= 2 and sign * re < 0 else value, den, bits))
    return out


def leading_value(chi: DirichletCharacter, n: int, precision: int = DEFAULT_PRECISION) -> SpecialValue:
    """Order and leading Taylor coefficient of L(s, chi) at s = n < 0 from one
    `_orbit_table` entry and `_leading_values`: the real value, or else its
    modulus, exact when it is a rational L-value, with the nominal error
    (|v|+1) 10^-(precision+5)."""
    table, order = _orbit_table([(chi, n, 1)])
    exact = table[0][2]
    numeric = Fraction(*_leading_values(table, precision)[0])
    rational = numeric if order == 0 and exact.is_rational else None
    return SpecialValue(order, rational, numeric, (abs(numeric) + 1) / 10 ** (precision + 5))


# ---------------------------------------------------------------------------
# Special values of products of L-functions


# a leading value at a trivial zero reads the Hurwitz table of its
# character's conductor d at s = 1 - n: phi(d) entries, each of a cost
# that grows as about p^2.6 in the digits p from p = 1000 on (about p^2
# below) and as about |n|^2.7.  So U, the entries of the tables of one
# product, is bounded by U p^2 and U |n|, each reached at its top.  Median
# of 3 fresh processes on a shared 2-core host, whose times vary up to 2x
# with its load: U p^2 = 10 * 4096^2 is Q(zeta_11) at n = -1, p = 4096,
# 6.8 s and 42 MB; U |n| = 4094 is Q(zeta_3) at n = -2047, p = 4096, 2.4 s
# and 19 MB (Q(zeta_61) would take 23 s and 20 s at the two).  U |n| also
# keeps U at most 4096: Q(zeta_4093) at n = -1 is kept up to p = 202, 21 s
# and 367 MB.
_MAX_TABLE_DIGITS = 10 * 4096**2
_MAX_TABLE_WEIGHT = 4096


def _check_tables(factors, precision: int) -> None:
    """Refuse the leading values at the trivial zeros of the (chi, n, e) in
    `factors` at `precision` digits whose Hurwitz tables, one per conductor
    and weight, hold U values with U precision^2 or U |n| above its bound.
    Weights that `_orbit_table` refuses are left to it."""
    tables = {(chi.conductor, n) for chi, n, _ in factors if -_MAX_WEIGHT <= n < 0 and trivial_zero_order(chi, n)}
    units = sum(_euler_phi(d) for d, _ in tables)
    weight = -min((n for _, n in tables), default=0)
    if units * precision**2 > _MAX_TABLE_DIGITS or units * weight > _MAX_TABLE_WEIGHT:
        raise InvalidArgumentError(
            f"the leading values at trivial zeros need Hurwitz tables of {units} values at {precision} digits "
            f"and |n| = {weight}: values x digits^2 above {_MAX_TABLE_DIGITS} or values x |n| above "
            f"{_MAX_TABLE_WEIGHT} take too long to compute"
        )


def _special_value(rational_part: Fraction, factors, precision: int) -> SpecialValue:
    """Order and leading Taylor coefficient at s = n < 0 of rational_part
    times the product of the L(s, chi)^e over the (chi, n, e) in `factors`.

    The Hurwitz tables are checked before any L-value, then one orbit table
    gives the orders and one exact L-value x per (Galois orbit, weight).
    When every order is 0 and every orbit is whole, each unit j mod its
    level m carrying one exponent e, the orbit's product is N(x)^e, as
    B_{k,chi^j} = sigma_j(B_{k,chi}): x itself for m <= 2, else its norm
    from Q(zeta_m).  The value is then exact.  A field's characters, and so
    the products that shifts, gluings and complements build from them, come
    in whole orbits with one exponent per orbit and weight.  Otherwise (only
    a product built by hand) the factors must be closed under conjugation,
    conj chi^j = chi^(-j) being in the same orbit: members j and -j mod m
    carry one exponent.  The real leading values (a complex one's modulus)
    are then multiplied orbit by orbit by `_numeric_product`."""
    _check_tables(factors, precision)  # before any L-value
    table, order = _orbit_table(factors)
    if all(
        orbit_order == 0 and len(members) == _euler_phi(chi.order) and len(set(members.values())) == 1
        for chi, _, _, orbit_order, members in table
    ):
        value = rational_part
        for chi, _, exact, _, members in table:
            e = next(iter(members.values()))
            value *= (exact.rational_value() if chi.order <= 2 else _orbit_norm(exact)) ** e
        return SpecialValue(order, value, value, (abs(value) + 1) / 10 ** (precision + 5))
    for chi, *_, members in table:
        if any(e != members.get(-j % chi.order, 0) for j, e in members.items()):
            raise RationalityFailureError("special value is not real: the characteristic-zero factors are "
                                          "not closed under conjugation")
    exps = [e for *_, members in table for e in members.values()]
    numeric, error = _numeric_product(rational_part, _leading_values(table, precision), exps, precision)
    return SpecialValue(order, None, numeric, error)


def _numeric_product(rational_part: Fraction, values, exps, precision: int) -> tuple[Fraction, Fraction]:
    """rational_part times each value v = c / d, an integer pair with d > 0,
    to its exponent e, and the nominal bound: the product is rounded after
    each factor to bits where (count + 1) roundings stay below 2^-10 10^-dps,
    and the relative bound sums |e| (|v|+1) 10^-(precision+5) / (|v| + 10^-dps),
    rounded the same way.  Both run on integer pairs, a / b and r / s, each
    reduced by one gcd before it is rounded, as a Fraction would be."""
    T, D = 10 ** (precision + 5), 10 ** (precision + 20)
    bits = _fixed_bits(precision + 20, sum(map(abs, exps)))
    a, b, r, s = rational_part.numerator, rational_part.denominator, 0, 1
    for (c, d), e in zip(values, exps):
        # |e| (|v| + 1) / (T (|v| + 1/D)) = |e| (|c| + d) D / (T q), q = |c| D + d
        q = abs(c) * D + d
        num, den = r * T * q + s * abs(e) * (abs(c) + d) * D, s * T * q
        r, s = _round(num // (g := gcd(num, den)), den // g, bits)
        num, den = (a * c**e, b * d**e) if e > 0 else (a * (d if c > 0 else -d) ** -e, b * abs(c) ** -e)
        a, b = _round(num // (g := gcd(num, den)), den // g, bits)
    numeric = Fraction(a, b)
    return numeric, (abs(numeric) + 1) * (Fraction(r, s) + Fraction(1, T))
