"""Checks of program output that share no code with the zetaforge library.

Three independent models, one per workload:

* number-field values: Dirichlet characters enumerated here from the
  prime-power decomposition of (Z/f)^*, each reduced to the primitive
  character inducing it, and L-values evaluated at s = n itself from
  mpmath's Hurwitz zeta and its s-derivative.  The library goes through
  generalized Bernoulli numbers and the functional equation at 1 - n
  instead, so agreement is a real cross-check;
* finite-characteristic point counts: curves are built from genus-one
  Frobenius traces, so #C(F_{q^k}) follows from the two-term recurrence of
  the power sums rather than from Newton's identities on the expanded
  L-polynomial;
* Smith-normal-form complexes: the split model the complex was scrambled
  from gives its cohomology, grade and determinant ideal directly.

Only the standard library and mpmath are imported.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import mpmath as mp


# ---------------------------------------------------------------------------
# elementary number theory


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def units(f: int) -> list[int]:
    return [a for a in range(1, f + 1) if gcd(a, f) == 1] if f > 1 else [1]


def subgroup_closure(f: int, generators) -> frozenset[int]:
    """The subgroup of (Z/f)^* generated by `generators` (residues in 1..f)."""
    if f <= 2:
        return frozenset({1})
    closed = {1}
    frontier = [1]
    gens = [g % f for g in generators]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = a * g % f
            if b not in closed:
                closed.add(b)
                frontier.append(b)
    return frozenset(closed)


def multiplicative_order(g: int, m: int) -> int:
    k, x = 1, g % m
    while x != 1 % m:
        x = x * g % m
        k += 1
    return k


def _cyclic_components(f: int):
    """(modulus, order, log) per cyclic factor of (Z/f)^* under CRT.

    `log` maps each unit residue mod `modulus` to its exponent on this
    factor's generator; 2^e with e >= 3 splits as <-1> x <5>.
    """
    comps = []
    for p, e in sorted(factorize(f).items()):
        m = p**e
        if p == 2 and e >= 3:
            signs, fives = {}, {}
            for j in range(2 ** (e - 2)):
                x = pow(5, j, m)
                signs[x], fives[x] = 0, j
                signs[m - x], fives[m - x] = 1, j
            comps.append((m, 2, signs))
            comps.append((m, 2 ** (e - 2), fives))
            continue
        if m == 2:
            continue
        phi = m - m // p
        g = next(g for g in range(2, m) if gcd(g, m) == 1 and multiplicative_order(g, m) == phi)
        log, x = {}, 1
        for j in range(phi):
            log[x] = j
            x = x * g % m
        comps.append((m, phi, log))
    return comps


class Character:
    """A Dirichlet character as phase fractions: chi(a) = exp(2 pi i theta(a))."""

    def __init__(self, modulus: int, theta: dict[int, Fraction]):
        self.modulus = modulus
        self.theta = theta  # residue in 1..modulus (units only) -> phase in [0, 1)

    @property
    def is_odd(self) -> bool:
        return self.theta[self.modulus - 1 if self.modulus > 1 else 1] == Fraction(1, 2)

    def conductor(self) -> int:
        f = self.modulus
        for d in sorted(d for d in range(1, f + 1) if f % d == 0):
            if all(self.theta[a] == 0 for a in self.theta if a % d == 1 % d):
                return d
        return f

    def primitive(self) -> Character:
        d = self.conductor()
        theta = {}
        for b in units(d):
            a = b
            while gcd(a, self.modulus) != 1:
                a += d
            theta[b] = self.theta[(a - 1) % self.modulus + 1]
        return Character(d, theta)


def characters_trivial_on(f: int, subgroup) -> list[Character]:
    """All characters mod f that are trivial on `subgroup` (one per embedding)."""
    comps = _cyclic_components(f)
    unit_list = units(f)
    choices = [()]
    for _, order, _ in comps:
        choices = [c + (k,) for c in choices for k in range(order)]
    out = []
    for ks in choices:
        theta = {}
        for a in unit_list:
            phase = Fraction(0)
            for (m, order, log), k in zip(comps, ks):
                phase += Fraction(k * log[a % m], order)
            theta[a] = phase - (phase.numerator // phase.denominator)
        if all(theta[h] == 0 for h in subgroup):
            out.append(Character(f, theta))
    return out


# ---------------------------------------------------------------------------
# number-field values at s = n < 0


def signature_order(f: int, subgroup, n: int) -> int:
    """ord_{s=n} zeta_F from the signature of F = Q(zeta_f)^H alone."""
    degree = len(units(f)) // len(subgroup)
    totally_real = f <= 2 or (f - 1) in subgroup
    r1, r2 = (degree, 0) if totally_real else (0, degree // 2)
    return r2 if n % 2 else r1 + r2


class DedekindOracle:
    """zeta_F leading coefficients at s = n from Hurwitz zeta at s = n.

    For a primitive character chi of conductor d,
    L(s, chi) = d^-s sum_a chi(a) zeta(s, a/d).  A trivial zero at n is
    read off the parity of chi and n; there the derivative
    L'(n, chi) = d^-n (sum_a chi(a) zeta'(n, a/d) - log d sum_a chi(a) zeta(n, a/d))
    is used.  Hurwitz tables are shared by every character of a conductor.
    """

    def __init__(self):
        self._tables: dict = {}

    def _table(self, d: int, n: int, derivative: int, dps: int):
        key = (d, n, derivative, dps)
        if key not in self._tables:
            with mp.workdps(dps):
                if d == 1:
                    self._tables[key] = {1: mp.zeta(n, 1, derivative)}
                else:
                    self._tables[key] = {
                        a: mp.zeta(n, mp.mpf(a) / d, derivative) for a in units(d)
                    }
        return self._tables[key]

    def leading(self, chi: Character, n: int, dps: int):
        """(order, leading coefficient) of L(s, chi) at s = n for primitive chi."""
        d = chi.modulus
        zero = chi.is_odd == (n % 2 == 1)
        with mp.workdps(dps):
            weights = {a: mp.expjpi(2 * mp.mpf(t.numerator) / t.denominator) for a, t in chi.theta.items()}
            values = self._table(d, n, 0, dps)
            plain = mp.mpf(d) ** (-n) * mp.fsum(weights[a] * values[a] for a in weights)
            if not zero:
                return 0, plain
            derivs = self._table(d, n, 1, dps)
            slope = mp.fsum(weights[a] * derivs[a] for a in weights)
            return 1, mp.mpf(d) ** (-n) * slope - mp.log(d) * plain

    def value(self, f: int, subgroup, n: int, dps: int):
        """(order, real leading coefficient, imaginary residue) of zeta_F at n."""
        order = 0
        with mp.workdps(dps):
            total = mp.mpc(1)
            for chi in characters_trivial_on(f, subgroup):
                k, lead = self.leading(chi.primitive(), n, dps)
                order += k
                total *= lead
            return order, mp.re(total), mp.im(total)


def printed_tolerance(text: str, digits: int):
    """One unit in the last place of a number printed to `digits` significant digits."""
    x = mp.mpf(text)
    if x == 0:
        return mp.mpf(10) ** (-digits)
    return mp.mpf(10) ** (int(mp.floor(mp.log10(abs(x)))) - digits + 1)


def check_value_report(report: dict, op: dict, oracle: DedekindOracle) -> str | None:
    """None when a `value` report on a number ring matches the oracle, else why not."""
    f, subgroup, n, precision = op["f"], op["subgroup"], op["n"], op["precision"]
    if report.get("command") != "value" or report.get("pass") is not True:
        return "report is not a passing value report"
    if report.get("n") != n:
        return f"n echoed as {report.get('n')}, expected {n}"
    expected_order = signature_order(f, subgroup, n)
    if report.get("order") != expected_order:
        return f"order {report.get('order')} != signature formula {expected_order}"
    dps = precision + 20
    order, re_part, im_part = oracle.value(f, subgroup, n, dps)
    if order != expected_order:
        return f"oracle order {order} != signature formula {expected_order}"
    with mp.workdps(dps):
        if abs(im_part) > mp.mpf(10) ** (-(precision + 5)) * (abs(re_part) + 1):
            return "oracle value is not real"
        bound = mp.mpf(report["error_bound"])
        # error_bound is printed to 5 digits; allow its own last-place rounding
        bound += printed_tolerance(report["error_bound"], 5)
        numeric = mp.mpf(report["numeric"])
        slack = printed_tolerance(report["numeric"], precision)
        if abs(numeric - re_part) > bound + slack:
            return f"numeric {report['numeric']} differs from oracle {mp.nstr(re_part, 20)}"
        if report.get("exact_flag"):
            exact = Fraction(report["exact"])
            exact_mp = mp.mpf(exact.numerator) / exact.denominator
            if abs(exact_mp - re_part) > bound:
                return f"exact {report['exact']} differs from oracle {mp.nstr(re_part, 20)}"
        elif report.get("exact") is not None:
            return "exact value present without exact_flag"
    return None


# ---------------------------------------------------------------------------
# finite-characteristic point counts


def power_sums(a: int, q: int, K: int) -> list[int]:
    """s_k = alpha^k + conj(alpha)^k for 1 - a t + q t^2, k = 0..K."""
    s = [2, a]
    for _ in range(2, K + 1):
        s.append(a * s[-1] - q * s[-2])
    return s[: K + 1]


def curve_counts(q: int, traces, K: int) -> list[int]:
    """#C(F_{q^k}) for k = 0..K of a curve with the given genus-one traces."""
    sums = [power_sums(a, q, K) for a in traces]
    return [q**k + 1 - sum(s[k] for s in sums) for k in range(K + 1)]


def lpoly_from_traces(q: int, traces) -> tuple[int, ...]:
    """Coefficients (ascending) of prod (1 - a t + q t^2)."""
    poly = [1]
    for a in traces:
        factor = (1, -a, q)
        out = [0] * (len(poly) + 2)
        for i, x in enumerate(poly):
            for j, y in enumerate(factor):
                out[i + j] += x * y
        poly = out
    return tuple(poly)


def closed_points_of_degree(counts: list[int], m: int) -> int:
    """Closed points of degree m from N_1..N_m by Moebius inversion."""

    def mobius(n):
        fac = factorize(n)
        if any(e > 1 for e in fac.values()):
            return 0
        return -1 if len(fac) % 2 else 1

    return sum(mobius(m // d) * counts[d] for d in range(1, m + 1) if m % d == 0) // m


# ---------------------------------------------------------------------------
# Smith-normal-form complexes


def invariant_factors(orders) -> list[int]:
    """Invariant factors t_1 | t_2 | ... of the direct sum of Z/k, k >= 2."""
    by_prime: dict[int, list[int]] = {}
    for k in orders:
        for p, e in factorize(k).items():
            by_prime.setdefault(p, []).append(p**e)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * width
    for powers in by_prime.values():
        powers.sort(reverse=True)
        for i, x in enumerate(powers):
            factors[width - 1 - i] *= x
    return [t for t in factors if t > 1]


def group_string(rank: int, torsion) -> str:
    parts = ["Z"] * rank + [f"Z/{t}" for t in torsion]
    return " + ".join(parts) if parts else "0"
