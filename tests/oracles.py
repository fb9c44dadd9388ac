"""Independent oracles used to derive expected test values.

Everything here deliberately avoids the library's own code paths: cokernels
by brute enumeration, zeta values by Euler-Maclaurin summation, point counts
by exhaustive search, the exponential of a power series and the Taylor
series of a rational function in Fractions, determinant ideals by
per-differential invariant factors, invariant factors of a matrix by gcds
of its minors, cyclotomic numbers as Fraction polynomials reduced mod a
Phi_m built here from its definition, conductors of character tables by
trying every divisor, Dedekind zeta values of abelian fields as products of
mpmath Hurwitz L-values over characters found by search, the leading
coefficient of one L-function from mpmath's Hurwitz zeta and its
derivative, primes by a sieve, and expression equality field by field.
Slow is fine; independent is the point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, prod

import mpmath as mp


def as_mpf(x):
    """A Fraction as an mpmath real at the working precision."""
    return mp.mpf(x.numerator) / x.denominator


def as_mpc(pair):
    """A pair (re, im) of Fractions as an mpmath complex at the working precision."""
    re, im = pair
    return mp.mpc(as_mpf(re), as_mpf(im))


def brute_cokernel_order_and_exponent(rows_data, modulus):
    """(order, exponent) of Z^r / column-span, enumerated mod `modulus`.

    Valid when the cokernel is finite and its exponent divides `modulus`.
    """
    rows = len(rows_data)
    cols = len(rows_data[0]) if rows else 0
    cols_vectors = [tuple(rows_data[i][j] % modulus for i in range(rows)) for j in range(cols)]
    # subgroup of (Z/modulus)^rows generated by the columns
    seen = {tuple([0] * rows)}
    frontier = [tuple([0] * rows)]
    while frontier:
        v = frontier.pop()
        for c in cols_vectors:
            w = tuple((a + b) % modulus for a, b in zip(v, c))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    subgroup_size = len(seen)
    order = modulus**rows // subgroup_size
    # exponent: smallest e with e*x in the subgroup for every x
    exponent = 1
    for i in range(rows):
        e_i = None
        for e in range(1, modulus + 1):
            v = tuple(e if r == i else 0 for r in range(rows))
            v = tuple(x % modulus for x in v)
            if v in seen:
                e_i = e
                break
        if e_i is None:
            e_i = modulus
        exponent = exponent * e_i // gcd(exponent, e_i)
    return order, exponent


def euler_maclaurin_zeta(s, a=1, N=256, J=48):
    """Hurwitz zeta(s, a) by Euler-Maclaurin summation.

    Accurate to roughly (N+a)^(-Re(s)-2J) relative error; at working
    precision ~90 digits and s near small negative integers this leaves
    comfortably more than 50 correct digits.
    """
    s = mp.mpmathify(s)
    a = mp.mpmathify(a)
    total = mp.mpf(0)
    for k in range(N):
        total += (k + a) ** (-s)
    M = N + a
    total += M ** (1 - s) / (s - 1)
    total += M ** (-s) / 2
    # correction terms: B_{2j}/(2j)! * (s)_{2j-1} * M^{-s-2j+1}
    poch = s  # (s)_1
    for j in range(1, J + 1):
        total += mp.bernoulli(2 * j) / mp.factorial(2 * j) * poch * M ** (-s - 2 * j + 1)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    return total


def numeric_derivative(func, x0, h):
    """Central difference (f(x0+h) - f(x0-h)) / 2h."""
    return (func(x0 + h) - func(x0 - h)) / (2 * h)


def count_points_y2_plus_y_eq_x3(field_elements, add, mul):
    """Affine solutions of y^2 + y = x^3 plus the point at infinity."""
    count = 0
    for x in field_elements:
        x3 = mul(mul(x, x), x)
        for y in field_elements:
            if add(mul(y, y), y) == x3:
                count += 1
    return count + 1


def gf4_table():
    """F_4 as pairs (a, b) = a + b*w with w^2 = w + 1 over F_2."""
    elements = [(0, 0), (1, 0), (0, 1), (1, 1)]

    def add(u, v):
        return ((u[0] + v[0]) % 2, (u[1] + v[1]) % 2)

    def mul(u, v):
        # (a + bw)(c + dw) = ac + (ad + bc)w + bd w^2, w^2 = w + 1
        a, b = u
        c, d = v
        const = a * c + b * d
        lin = a * d + b * c + b * d
        return (const % 2, lin % 2)

    return elements, add, mul


def series_exp(coeffs, K):
    """exp of a power series with zero constant term, via sum f^j / j!.

    `coeffs` maps degree -> Fraction (constant term absent/zero).
    """
    f = [Fraction(0)] * (K + 1)
    for d, c in coeffs.items():
        if d <= K:
            f[d] = Fraction(c)
    assert f[0] == 0
    result = [Fraction(0)] * (K + 1)
    result[0] = Fraction(1)
    power = [Fraction(0)] * (K + 1)
    power[0] = Fraction(1)  # f^0
    fact = 1
    for j in range(1, K + 1):
        nxt = [Fraction(0)] * (K + 1)
        for i, x in enumerate(power):
            if x == 0:
                continue
            for d, y in enumerate(f):
                if y == 0 or i + d > K:
                    continue
                nxt[i + d] += x * y
        power = nxt
        fact *= j
        for d in range(K + 1):
            result[d] += power[d] / fact
    return result


def rational_taylor(numerators, denominators, K):
    """Taylor coefficients to t^K of prod(numerators) / prod(denominators),
    each factor an ascending coefficient list with a nonzero constant term:
    schoolbook products, then long division in Fractions."""

    def product(factors):
        out = [Fraction(1)]
        for f in factors:
            out = [sum(out[i] * f[k - i] for i in range(len(out)) if 0 <= k - i < len(f))
                   for k in range(len(out) + len(f) - 1)]
        return out

    num, den = product(numerators), product(denominators)
    series = []
    for k in range(K + 1):
        acc = num[k] if k < len(num) else Fraction(0)
        acc -= sum(den[j] * series[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        series.append(acc / den[0])
    return series


def termwise_snf_determinant_ideal(complex_obj, snf):
    """1/m Z computed from per-differential invariant factors alone.

    For a bounded complex of free Z-modules with finite cohomology,
    |H^i| equals the product g(d^{i-1}) of the nonzero invariant factors
    of the incoming differential, so m = prod_i g(d^i)^((-1)^(i+1)).
    Independent of the kernel/cokernel route used by the library.
    """
    m = Fraction(1)
    for i in complex_obj.degrees():
        d = complex_obj.differential(i)
        if d.rows == 0 or d.cols == 0:
            continue
        g = prod(snf(d).invariant_factors) or 1
        m *= Fraction(g) ** (-1 if (i + 1) % 2 else 1)
    return 1 / m


def invariant_factors(orders):
    """Invariant factors (each >= 2, each dividing the next) of (+) Z/k.

    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b); after the pass over position i,
    the entry there divides every later one.
    """
    d = sorted(orders)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(t for t in d if t >= 2)


def _leibniz_determinant(m):
    """Determinant of a square list of rows: the signed sum over permutations."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


def determinantal_invariant_factors(rows):
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix given as
    a list of rows: d_k = D_k / D_(k-1), with D_0 = 1 and D_k the gcd of the
    k x k minors, for every k with D_k != 0.  Exponential in the size: for
    small matrices only."""
    r = len(rows)
    c = len(rows[0]) if r else 0
    factors, previous = [], 1
    for k in range(1, min(r, c) + 1):
        D = 0
        for I in itertools.combinations(range(r), k):
            for J in itertools.combinations(range(c), k):
                D = gcd(D, _leibniz_determinant([[rows[i][j] for j in J] for i in I]))
        if D == 0:
            break
        factors.append(D // previous)
        previous = D
    return tuple(factors)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Phi_m, ascending: x^m - 1 divided by Phi_d for every proper divisor d.

    Built here from the definition, by schoolbook division of integer
    polynomials with monic divisors.
    """
    p = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            divisor = cyclotomic_polynomial(d)
            q = [0] * (len(p) - len(divisor) + 1)
            for i in range(len(q) - 1, -1, -1):
                q[i] = p[i + len(divisor) - 1]
                for j, c in enumerate(divisor):
                    p[i + j] -= q[i] * c
            assert not any(p[: len(divisor) - 1])
            p = q
    return tuple(p)


def bernoulli_numbers(count):
    """B_0..B_(count-1), B_1 = -1/2, from the defining recurrence
    sum_{j<=k} C(k+1, j) B_j = 0 for k >= 1."""
    B = [Fraction(1)]
    for k in range(1, count):
        B.append(-sum(comb(k + 1, j) * B[j] for j in range(k)) / (k + 1))
    return B[:count]


def cyclotomic_reduce(coeffs, m):
    """Fraction coefficients of sum_j coeffs[j] zeta_m^j, reduced mod Phi_m
    term by term from the top (length phi(m))."""
    phi_m = cyclotomic_polynomial(m)
    deg = len(phi_m) - 1
    c = [Fraction(x) for x in coeffs] + [Fraction(0)] * deg
    for i in range(len(c) - 1, deg - 1, -1):
        top = c[i]
        c[i] = Fraction(0)
        for j in range(deg):
            c[i - deg + j] -= top * phi_m[j]
    return c[:deg]


def cyclotomic_mul(a, b, m):
    """Product of two reduced coefficient vectors of level m."""
    prod_ab = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod_ab[i + j] += x * y
    return cyclotomic_reduce(prod_ab, m)


def _unit_logs(f):
    """{a: exponent vector} for the units a in 1..f over generators of the
    (Z/q)^*, q the prime powers of f, and the generators' orders.

    A primitive root found by search generates (Z/q)^* for odd q; -1 and 5
    generate it for q = 2^e, e >= 3.  Each unit's vector is read off a
    table of the products of generator powers."""
    gens = []  # (q, g, order of g mod q)
    m, p = f, 2
    while m > 1:
        q = 1
        while m % p == 0:
            m, q = m // p, q * p
        if q == 4:
            gens.append((q, 3, 2))
        elif q > 4 and p == 2:
            gens += [(q, q - 1, 2), (q, 5, q // 4)]
        elif q > 1 and p > 2:
            phi = q - q // p
            g = next(g for g in range(2, q) if g % p and all(pow(g, k, q) != 1 for k in range(1, phi)))
            gens.append((q, g, phi))
        p += 1
    table = {}
    for vec in itertools.product(*[range(order) for _, _, order in gens]):
        residues = {}
        for (q, g, _), k in zip(gens, vec):
            residues[q] = residues.get(q, 1) * pow(g, k, q) % q
        # the unit a in 1..f with a = residues[q] mod q for every q (by search: f is small)
        a = next(a for a in range(1, f + 1) if gcd(a, f) == 1 and all(a % q == r for q, r in residues.items()))
        table[a] = vec
    return table, [order for _, _, order in gens]


def conductor(table) -> int:
    """The conductor of the Dirichlet character mod m = len(table) with
    chi(a) = zeta^table[a % m] (None off the units): the least divisor f of
    m with table[a] == 0 at every unit a = 1 mod f, by trying every divisor
    against every unit."""
    m = len(table)
    return min(
        f
        for f in range(1, m + 1)
        if m % f == 0 and all(table[a] == 0 for a in range(m) if gcd(a, m) == 1 and a % f == 1 % f)
    )


@lru_cache(maxsize=None)
def _hurwitz(d, n, a, derivative, dps):
    """zeta(n, a/d) or its derivative in s by mpmath at `dps` digits."""
    with mp.workdps(dps):
        return mp.zeta(n, mp.mpf(a) / d, derivative)


def leading_coefficient(table, order, n):
    """(k, c): the order k in {0, 1} at s = n < 0 of L(s, chi*) and its
    leading Taylor coefficient c at the working precision.  chi is the
    character mod m = len(table) with chi(a) = e^(2 pi i table[a] / order)
    (None off the units) and chi* the primitive character inducing it, of
    conductor d; L(s, chi*) = d^-s sum_{a mod d} chi*(a) zeta(s, a/d) by
    mpmath's Hurwitz zeta, and at a zero its derivative is d^-s times the
    sum of the derivatives, the derivative of d^-s meeting the zero sum."""
    m, d, dps = len(table), conductor(table), mp.mp.dps
    chi = {}
    for a in range(1, d + 1):
        if gcd(a, d) == 1:
            b = next(b for b in range(a, a + d * m + 1, d) if gcd(b, m) == 1)
            chi[a] = mp.expjpi(mp.mpf(2 * table[b % m]) / order)
    for k in (0, 1):
        c = mp.mpf(d) ** -n * mp.fsum(x * _hurwitz(d, n, a, k, dps) for a, x in chi.items())
        if k or abs(c) > mp.mpf(10) ** (-dps // 2):
            return k, c


def dedekind_zeta_abelian(f, kernel, s):
    """zeta_F(s) = prod_chi L(s, chi*) at the working precision, F the fixed
    field of the subgroup of (Z/f)^* that the residues `kernel` generate:
    chi runs over the characters of (Z/f)^* trivial on `kernel` and chi* is
    the primitive character inducing chi, of conductor d, with
    L(s, chi*) = d^-s sum_{a mod d} chi*(a) zeta(s, a/d) by mpmath's Hurwitz
    zeta."""
    logs, orders = _unit_logs(f)
    value = mp.mpf(1)
    for ks in itertools.product(*[range(o) for o in orders]):
        chi = {a: sum(Fraction(k * x, o) for k, x, o in zip(ks, vec, orders)) % 1 for a, vec in logs.items()}
        if any(chi[(h - 1) % f + 1] for h in kernel):
            continue
        d = min(d for d in range(1, f + 1) if f % d == 0 and not any(chi[a] for a in chi if (a - 1) % d == 0))
        total = mp.mpf(0)
        for a in range(1, d + 1):
            if gcd(a, d) == 1:
                b = next(b for b in range(a, a + d * f, d) if gcd(b, f) == 1)
                total += mp.expjpi(as_mpf(2 * chi[(b - 1) % f + 1])) * mp.zeta(s, mp.mpf(a) / d)
        value *= mp.mpf(d) ** -s * total
    return value


def prime_powers_below(limit):
    """{p**k: (p, k)} for the prime powers below `limit`, by the sieve of
    Eratosthenes."""
    composite = bytearray(limit)
    out = {}
    for p in range(2, limit):
        if composite[p]:
            continue
        composite[p * p :: p] = b"\x01" * len(range(p * p, limit, p))
        q, k = p, 1
        while q < limit:
            out[q] = (p, k)
            q, k = q * p, k + 1
    return out


def _record_fields(x) -> list[str]:
    """The fields of an immutable record: the names in the __slots__ of its
    classes, "__dict__" aside; none for anything else."""
    return [name for cls in type(x).__mro__ for name in vars(cls).get("__slots__", ()) if name != "__dict__"]


def structurally_equal(a, b):
    """Equality of two trees of immutable records: the same class and
    recursively equal fields, with tuples compared item by item.  It reads
    the fields only, never the classes' own __eq__."""
    if _record_fields(a):
        return type(a) is type(b) and all(
            structurally_equal(getattr(a, name), getattr(b, name)) for name in _record_fields(a)
        )
    if isinstance(a, tuple):
        return (
            isinstance(b, tuple)
            and len(a) == len(b)
            and all(structurally_equal(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b
