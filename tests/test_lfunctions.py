import time
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetaforge import lfunctions
from zetaforge.errors import (
    InvalidArgumentError,
    PrecisionUnderflowError,
    RationalityFailureError,
    ZetaforgeError,
)
from zetaforge.lfunctions import (
    CHI_MINUS_4,
    Q,
    QI,
    AbelianFieldSpec,
    CyclotomicNumber,
    DirichletCharacter,
    L_at_nonpositive,
    TRIVIAL_CHARACTER,
    characters_mod,
    gen_bernoulli,
    gauss_sum,
    leading_value,
    trivial_zero_order,
)

from zetaforge.scheme_algebra import NumberRing, zeta_of
from zetaforge.zetarep import LFactorShifted, ZetaProduct, evaluate_at, format_decimal, vanishing_order

from oracles import (
    as_mpc,
    as_mpf,
    bernoulli_numbers,
    conductor,
    cyclotomic_mul,
    cyclotomic_polynomial as oracle_cyclotomic_polynomial,
    cyclotomic_reduce,
    euler_maclaurin_zeta,
    leading_coefficient,
    numeric_derivative,
)

SQRT5 = AbelianFieldSpec(5, [4])
ZETA5 = AbelianFieldSpec(5, (1,))
ZETA7 = AbelianFieldSpec(7, (1,))
SQRT_MINUS_3 = AbelianFieldSpec(3, (1,))


# ---------------------------------------------------------------------------
# cyclotomic arithmetic


def root(level, k=1):
    """zeta_level^k."""
    return CyclotomicNumber(level, [0] * k + [1])


def test_cyclotomic_basics():
    # zeta_4^2 = -1 and zeta_4^5 = zeta_4: a polynomial of any length is reduced mod Phi_4
    assert root(4, 2) == CyclotomicNumber(4, (-1, 0)) and root(4, 2).rational_value() == -1
    assert root(4, 5) == root(4) and not root(4).is_rational
    # 1 + zeta_3 + zeta_3^2 = 0
    assert CyclotomicNumber(3, [1, 1, 1]).is_zero


def test_cyclotomic_rationality():
    # the norm of 1 - zeta_5 is Phi_5(1) = 5
    assert lfunctions._orbit_norm(CyclotomicNumber(5, [1, -1])) == 5
    with pytest.raises(RationalityFailureError):
        root(5).rational_value()


@st.composite
def cyclotomic_numbers(draw, level=None):
    """(x, oracle coefficients of x): an integer polynomial of degree up to
    2*level - 2, past zeta^level = 1, over a positive denominator."""
    if level is None:
        level = draw(st.integers(1, 60))
    num = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=2 * level - 1))
    den = draw(st.integers(1, 12))
    x = CyclotomicNumber(level, num, den)
    return x, cyclotomic_reduce([Fraction(c, den) for c in num], level)


def coefficients(x):
    """The rational coefficients num[j] / den of x."""
    return [Fraction(c, x.den) for c in x.num]


CYCLOTOMIC_LAWS = settings(deadline=None, max_examples=60)


@CYCLOTOMIC_LAWS
@given(cyclotomic_numbers())
def test_cyclotomic_reduction_matches_oracle(pair):
    x, expected = pair
    assert coefficients(x) == expected
    assert x.den > 0 and gcd(x.den, *x.num) == 1


@settings(deadline=None, max_examples=40)
@given(st.integers(3, 60), st.data())
def test_orbit_norm_is_the_product_of_the_conjugates(level, data):
    # den^phi N(x) rounded from the root sums, against the product of every
    # conjugate sigma_j(x), each the permuted vector reduced mod Phi_level
    phi = len(oracle_cyclotomic_polynomial(level)) - 1
    num = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=phi, max_size=phi))
    den = data.draw(st.integers(1, 12))
    norm = [Fraction(1)] + [Fraction(0)] * (phi - 1)
    for j in range(1, level):
        if gcd(j, level) == 1:
            permuted = [Fraction(0)] * level
            for i, c in enumerate(num):
                permuted[i * j % level] = Fraction(c, den)
            norm = cyclotomic_mul(norm, cyclotomic_reduce(permuted, level), level)
    assert [lfunctions._orbit_norm(CyclotomicNumber(level, tuple(num), den))] + [0] * (phi - 1) == norm


def unit_mod(data, level):
    """A unit j mod level, in 1..level."""
    return data.draw(st.sampled_from([j for j in range(1, level + 1) if gcd(j, level) == 1]))


@settings(deadline=None, max_examples=25)
@given(cyclotomic_numbers(), st.integers(1, 3), st.data())
def test_cyclotomic_numeric_matches_direct_summation(pair, stride, data):
    # |sigma_j(x)| for a random unit j, the roots strided from a table of order stride * level
    x, cx = pair
    j = unit_mod(data, x.level)
    modulus = Fraction(*lfunctions._member_moduli(x, stride * x.level, 60, [j])[0])
    with mp.workdps(60):
        direct = mp.fsum(
            mp.mpf(c.numerator) / c.denominator * mp.expjpi(mp.mpf(2 * i * j) / x.level) for i, c in enumerate(cx)
        )
        assert abs(as_mpf(modulus) - abs(direct)) <= mp.mpf(10) ** -55 * (1 + abs(direct))


# ---------------------------------------------------------------------------
# Bernoulli machinery


def test_bernoulli_numbers():
    # frozen from the defining recurrence sum C(m+1, j) B_j = 0
    assert lfunctions._bernoulli_numbers(12) == (
        1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42), 0,
        Fraction(-1, 30), 0, Fraction(5, 66), 0, Fraction(-691, 2730),
    )
    assert lfunctions._bernoulli_numbers(0) == (1,)
    assert lfunctions._bernoulli_numbers(1) == (1, Fraction(-1, 2))


def test_bernoulli_numbers_match_the_defining_recurrence():
    assert list(lfunctions._bernoulli_numbers(300)) == bernoulli_numbers(301)


def test_bernoulli_tables_match_the_binomial_formula():
    # the running products C(k, j) L f^j against one comb and one power per j
    for f in (1, 3, 4, 12, 13, 97):
        for k in range(1, 41):
            numbers = bernoulli_numbers(k + 1)
            L = lcm(*(b.denominator for b in numbers))
            coeffs = [comb(k, j) * b.numerator * (L // b.denominator) * f**j for j, b in enumerate(numbers)][::-1]
            units = [a for a in range(1, f + 1) if gcd(a, f) == 1]
            expected = (f * L, tuple((a, sum(c * a**i for i, c in enumerate(coeffs))) for a in units))
            assert lfunctions._bernoulli_table(f, k) == expected, (f, k)


def test_cyclotomic_polynomials_match_the_division_oracle():
    for n in range(1, 301):
        assert lfunctions.cyclotomic_polynomial(n) == oracle_cyclotomic_polynomial(n), n


def test_gen_bernoulli_trivial():
    assert gen_bernoulli(TRIVIAL_CHARACTER, 2).rational_value() == Fraction(1, 6)


def test_gen_bernoulli_chi_minus_4():
    # B_1(1/4) - B_1(3/4) = (1/4 - 1/2) - (3/4 - 1/2) = -1/2 by direct summation
    assert gen_bernoulli(CHI_MINUS_4, 1).rational_value() == Fraction(-1, 2)
    # parity rule chi(-1) != (-1)^k kills k = 2; summation confirms
    assert gen_bernoulli(CHI_MINUS_4, 2).is_zero


def test_L_at_nonpositive():
    assert L_at_nonpositive(TRIVIAL_CHARACTER, -1).rational_value() == Fraction(-1, 12)
    assert L_at_nonpositive(TRIVIAL_CHARACTER, -3).rational_value() == Fraction(1, 120)
    assert L_at_nonpositive(TRIVIAL_CHARACTER, 0).rational_value() == Fraction(-1, 2)
    assert L_at_nonpositive(CHI_MINUS_4, 0).rational_value() == Fraction(1, 2)
    assert L_at_nonpositive(CHI_MINUS_4, -1).is_zero


def test_trivial_zero_orders():
    assert trivial_zero_order(TRIVIAL_CHARACTER, -2) == 1  # zeta(-2) = 0
    assert trivial_zero_order(TRIVIAL_CHARACTER, -1) == 0  # zeta(-1) = -1/12
    assert trivial_zero_order(CHI_MINUS_4, -1) == 1
    assert trivial_zero_order(CHI_MINUS_4, -2) == 0


def test_parity_shortcut_matches_exact_values():
    for modulus in (1, 3, 4, 5, 7, 8, 12):
        for chi in characters_mod(modulus, (1,)):
            for n in range(-5, 0):
                order = trivial_zero_order(chi, n)  # the parity rule
                assert order == (0 if not L_at_nonpositive(chi.primitive(), n).is_zero else 1)


# ---------------------------------------------------------------------------
# characters


def test_character_multiplicativity():
    for modulus in (5, 7, 8, 12, 16):
        for chi in characters_mod(modulus, (1,)):
            units = [a for a in range(1, modulus + 1) if gcd(a, modulus) == 1]
            for a in units:
                for b in units:
                    kab = chi.exponent(a * b)
                    assert kab == (chi.exponent(a) + chi.exponent(b)) % chi.order


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 120), st.lists(st.integers(0, 10**6), max_size=3))
def test_characters_of_a_subgroup_are_the_full_set_filtered(modulus, picks):
    units = [a for a in range(1, modulus + 1) if gcd(a, modulus) == 1]
    subgroup = AbelianFieldSpec(modulus, [units[k % len(units)] for k in picks]).subgroup
    expected = tuple(
        chi for chi in characters_mod(modulus, (1,)) if all(chi.exponent(h) == 0 for h in subgroup)
    )
    assert characters_mod(modulus, subgroup) == expected


def test_character_counts_and_conductors():
    chars5 = characters_mod(5, (1,))
    assert sorted(c.order for c in chars5) == [1, 2, 4, 4]
    chars8 = characters_mod(8, (1,))
    assert sorted(c.order for c in chars8) == [1, 2, 2, 2]
    # mod 8 induces one character of conductor 4 (the lift of chi_{-4})
    assert sorted(c.conductor for c in chars8) == [1, 4, 8, 8]
    lifted = next(c for c in chars8 if c.conductor == 4)
    assert lifted.primitive().exponents == CHI_MINUS_4.exponents


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(0, 10**6))
def test_conductor_is_read_off_the_table(modulus, pick):
    chars = characters_mod(modulus, (1,))
    chi = chars[pick % len(chars)]
    assert chi.conductor == conductor(chi.exponents)
    prim = chi.primitive()
    assert prim.conductor == prim.modulus == chi.conductor and prim.order == chi.order
    assert all(prim.exponent(a) == chi.exponent(a) for a in range(modulus) if gcd(a, modulus) == 1)


def test_a_conductor_is_not_an_input():
    # the order-4 characters mod 10 have conductor 5; told 10, the closed
    # form for a primitive character would have given 6.3268518968502449488
    tables = [c.exponents for c in characters_mod(10, (1,)) if c.order == 4]
    with pytest.raises(TypeError):
        DirichletCharacter(10, 4, tables[0], 10)
    chi, conj = [DirichletCharacter(10, 4, table) for table in tables]
    assert chi.conductor == conj.conductor == 5 != chi.modulus
    z = ZetaProduct([(LFactorShifted(chi), 1), (LFactorShifted(conj), 1)])
    assert format_decimal(evaluate_at(z, -1, 20).numeric, 20) == "0.74433551727649940574"


def test_character_exponents_are_reduced():
    # the root-of-unity and Bernoulli tables are indexed by the exponent
    with pytest.raises(ValueError):
        DirichletCharacter(5, 2, (None, 0, 3, 1, 0))
    # and the order is the character's: the real character mod 5 at order 4,
    # which would be taken for a complex one, is refused
    with pytest.raises(ValueError):
        DirichletCharacter(5, 4, (None, 0, 2, 2, 0))


def test_field_specs():
    assert Q.degree == 1 and Q.signature == (1, 0)
    assert QI.degree == 2 and QI.signature == (0, 1)
    assert SQRT5.degree == 2 and SQRT5.signature == (2, 0)
    assert SQRT_MINUS_3.signature == (0, 1)
    assert ZETA5.signature == (0, 2)
    assert ZETA7.signature == (0, 3)
    assert AbelianFieldSpec(5, (1, 2)).subgroup == (1, 2, 3, 4)  # stored as the subgroup 2 generates
    with pytest.raises(ValueError):
        AbelianFieldSpec(6, [3])  # 3 not a unit mod 6


def test_a_subgroup_of_65520_elements_is_checked_in_under_two_seconds():
    # the subgroup is closed from generators picked greedily from the given
    # residues, at most log2 |H| of them, not from all of them: that took
    # |H|^2 products, about 4 * 10^9 here, and 6 s at conductor 8191
    start = time.perf_counter()
    spec = AbelianFieldSpec(65521, [17])
    whole = AbelianFieldSpec(65521, spec.subgroup)
    assert time.perf_counter() - start < 2
    assert len(spec.subgroup) == 65520 and spec.degree == 1 and whole == spec
    # residues that are not closed stand for the subgroup they generate
    assert AbelianFieldSpec(65521, spec.subgroup[:-1]) == spec
    for subgroup in [(1, 3, 4, 9), (1, 3, 9, 12), (-1, 3)]:
        assert AbelianFieldSpec(13, subgroup) == AbelianFieldSpec(13, (4,))
    assert AbelianFieldSpec(13, (1, 3, 9)).degree == 4
    # a closure that holds a non-unit is refused
    with pytest.raises(InvalidArgumentError, match=r"subgroup elements \[2, 4\] are not units mod 6"):
        AbelianFieldSpec(6, (1, 2, 4, 5))


def field_order(field, n):
    """Vanishing order of zeta_F at n, from the product of its L-factors."""
    return vanishing_order(zeta_of(NumberRing(field)), n)


def test_dedekind_orders():
    assert field_order(Q, -1) == 0
    assert field_order(Q, -2) == 1
    assert field_order(QI, -1) == 1
    assert field_order(SQRT5, -3) == 0
    for field in (Q, QI, SQRT5, SQRT_MINUS_3, ZETA5, ZETA7):
        r1, r2 = field.signature
        for n in range(-4, 0):
            assert field_order(field, n) == (r2 if n % 2 else r1 + r2)


# ---------------------------------------------------------------------------
# leading values: functional equation vs numeric differentiation


def test_gauss_sum_chi_minus_4():
    with mp.workdps(50):
        tau = as_mpc(gauss_sum(CHI_MINUS_4, 40))
        assert abs(tau - mp.mpc(0, 2)) < mp.mpf(10) ** -35


def test_gauss_sum_matches_direct_summation():
    # the table product chi-root * zeta_f-root against e^(2 pi i (k/order + a/f))
    # summed term by term at higher precision; and |tau|^2 = f
    for f in (7, 13, 21):
        for chi in characters_mod(f, (1,)):
            if chi.conductor != chi.modulus:
                continue
            with mp.workdps(60):
                tau = as_mpc(gauss_sum(chi, 30))
                direct = mp.fsum(
                    mp.expjpi(2 * (mp.mpf(chi.exponent(a)) / chi.order + mp.mpf(a) / f))
                    for a in range(1, f + 1)
                    if chi.exponent(a) is not None
                )
                assert abs(tau - direct) < mp.mpf(10) ** -40
                assert abs(abs(tau) ** 2 - f) < mp.mpf(10) ** -38


def test_leading_value_exact_case():
    lv = leading_value(TRIVIAL_CHARACTER, -1, 50)
    assert lv.order == 0
    assert lv.exact == lv.numeric == Fraction(-1, 12)
    assert lv.error == Fraction(13, 12) / 10**55


def test_leading_value_order_is_zero_exactly_when_exact():
    for modulus in (1, 4, 5, 8, 12):
        for chi in characters_mod(modulus, (1,)):
            for n in range(-4, 0):
                lv = leading_value(chi, n, 10)
                assert lv.order == trivial_zero_order(chi, n)
                rational = lv.order == 0 and L_at_nonpositive(chi, n).is_rational
                assert lv.is_exact == rational and lv.exact == (lv.numeric if rational else None)


@st.composite
def abelian_fields(draw):
    """An abelian field of conductor 3 to 40, f != 2 mod 4, fixed by the
    subgroup that one random unit generates."""
    f = draw(st.integers(3, 40).filter(lambda f: f % 4 != 2))
    unit = draw(st.sampled_from([u for u in range(1, f) if gcd(u, f) == 1]))
    return AbelianFieldSpec(f, [unit])


@settings(deadline=None, max_examples=100)
@given(abelian_fields(), st.integers(-4, -1))
@example(AbelianFieldSpec(39, [1]), -1)
@example(AbelianFieldSpec(39, [38]), -2)
def test_leading_values_of_the_characters_multiply_to_the_dedekind_value(F, n):
    # the complex members pair with their conjugates, so the moduli multiply to the signed value
    factors = [leading_value(chi, n, 30) for chi in F.characters()]
    total = evaluate_at(zeta_of(NumberRing(F)), n, 30)
    assert sum(lv.order for lv in factors) == total.order
    product = Fraction(1)
    for lv in factors:
        product *= lv.numeric
    assert abs(product - total.numeric) <= abs(total.numeric) / 10**30


def test_zeta_prime_minus_2_dual_path():
    lv = leading_value(TRIVIAL_CHARACTER, -2, 50)
    with mp.workdps(90):
        h = mp.mpf(10) ** -25
        oracle = numeric_derivative(lambda s: euler_maclaurin_zeta(s), mp.mpf(-2), h)
        assert abs(as_mpf(lv.numeric) - oracle) < mp.mpf(10) ** -40
        # matches the closed form -zeta(3)/(4 pi^2) as well
        assert abs(as_mpf(lv.numeric) + mp.zeta(3) / (4 * mp.pi**2)) < mp.mpf(10) ** -45


def test_chi_minus_4_leading_value_dual_path():
    lv = leading_value(CHI_MINUS_4, -1, 50)
    assert lv.order == 1

    def L(s):
        # Hurwitz representation: 4^-s (zeta(s, 1/4) - zeta(s, 3/4))
        return mp.mpf(4) ** (-s) * (
            euler_maclaurin_zeta(s, mp.mpf(1) / 4) - euler_maclaurin_zeta(s, mp.mpf(3) / 4)
        )

    with mp.workdps(90):
        h = mp.mpf(10) ** -25
        oracle = numeric_derivative(L, mp.mpf(-1), h)
        assert abs(as_mpf(lv.numeric) - oracle) < mp.mpf(10) ** -40


def test_random_characters_dual_path():
    # spot-check order-1 leading values for characters of larger conductor
    cases = []
    for modulus in (5, 7, 8):
        for chi in characters_mod(modulus, (1,)):
            chi = chi.primitive()
            for n in (-1, -2):
                if trivial_zero_order(chi, n) == 1 and not chi.is_trivial:
                    cases.append((chi, n))
    assert cases
    for chi, n in cases[:6]:
        lv = leading_value(chi, n, 40)

        def L(s, chi=chi):
            f = chi.modulus
            total = mp.mpc(0)
            for a in range(1, f + 1):
                k = chi.exponent(a)
                if k is None:
                    continue
                total += mp.e ** (2j * mp.pi * mp.mpf(k) / chi.order) * euler_maclaurin_zeta(
                    s, mp.mpf(a) / f
                )
            return mp.mpf(f) ** (-s) * total

        with mp.workdps(80):
            h = mp.mpf(10) ** -20
            oracle = numeric_derivative(L, mp.mpf(n), h)
            # a real chi gives the signed value, a complex one its modulus
            expected = oracle if chi.order <= 2 else abs(oracle)
            assert abs(as_mpf(lv.numeric) - expected) < mp.mpf(10) ** -30


# ---------------------------------------------------------------------------
# Hurwitz table: the integer Euler-Maclaurin kernel


def em_term(s, N, j):
    """|B_2j|/(2j)! s(s+1)...(s+2j-2) / N^(s+2j-1): the Euler-Maclaurin term j
    for zeta(s, x) at its largest, x -> 0."""
    return abs(mp.bernoulli(2 * j)) / mp.factorial(2 * j) * mp.rf(s, 2 * j - 1) / mp.mpf(N) ** (s + 2 * j - 1)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 120), st.integers(2, 10), st.integers(15, 150), st.randoms(use_true_random=False))
def test_hurwitz_table_within_its_derived_bound(f, s, dps, rng):
    # each checked entry within 10^-dps relative of mpmath at dps + 30; the
    # fixed-point kernel within its rounding count plus one unit, and the
    # remainder below its first omitted term below 2^-(wp+4)
    table = lfunctions._hurwitz_table(f, s, dps)
    assert [a for a, _ in table] == [a for a in range(1, f + 1) if gcd(a, f) == 1]
    plan = lfunctions._em_plan(s, dps)
    wp, N, _, tail = plan
    checked = set(table[:2] + table[-2:] + tuple(rng.sample(table, min(4, len(table)))))
    with mp.workdps(dps + 30):
        ulp = mp.ldexp(1, -wp)
        assert em_term(s, N, len(tail) + 1) < ulp / 16
        for a, raw in checked:
            expected = mp.zeta(s, mp.mpf(a) / f)
            assert abs(raw * ulp - expected) < mp.mpf(10) ** -dps * expected
            fixed = lfunctions._hurwitz_em(f, a, s, plan) * ulp
            assert abs(fixed - expected) < (N + len(tail) + 3) * ulp


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 60), st.integers(2, 9), st.integers(10, 120))
def test_hurwitz_table_within_n_plus_m_plus_3_units(f, s, dps):
    # every entry, with the Horner tail, against mpmath at twice the bits
    wp, N, _, tail = lfunctions._em_plan(s, dps)
    bound = N + len(tail) + 3
    with mp.workprec(2 * wp):
        for a, raw in lfunctions._hurwitz_table(f, s, dps):
            assert abs(raw - mp.ldexp(mp.zeta(s, mp.mpf(a) / f), wp)) < bound


def test_horner_bits_cover_the_tail():
    # W - wp - 1 = bit_length(M (2 + E)), E = sum_j ceil(|e_j|) for the scaled
    # tail e_j = c_j / N^(2j-2), each stored within one unit of e_j 2^W
    for s, dps in ((2, 15), (3, 67), (10, 150), (60, 400)):
        wp, N, W, fixed = lfunctions._em_plan(s, dps)
        head, coeffs = lfunctions._em_terms(s, wp)
        assert head == N and len(fixed) == len(coeffs)
        scaled = [Fraction(num, den * N ** (2 * j - 2)) for j, (num, den) in enumerate(coeffs, 1)]
        E = sum(-(-abs(e.numerator) // e.denominator) for e in scaled)
        assert W - wp - 1 == (len(coeffs) * (2 + E)).bit_length()
        for c, e in zip(fixed, reversed(scaled)):
            assert abs(c - e * 2**W) <= 1


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 2**300), st.integers(1, 2**300), st.integers(1, 2**300), st.integers(-1, 1))
def test_less_orders_as_the_product(a, b, c, near):
    # a next to b c too, where the bit lengths leave the order open
    if near:
        a = max(1, b * c + near)
    assert lfunctions._less(a, b, c) == (a < b * c)


@pytest.mark.parametrize("s", [2, 3, 9, 40, 300])
@pytest.mark.parametrize("dps", [15, 150, 600])
def test_tangent_table_covers_the_search(s, dps):
    # the search reads T_1..T_(M+1) of the one table `_em_count` sizes, at the plan's N
    wp, N, _, fixed = lfunctions._em_plan(s, dps)
    count = lfunctions._em_count(s, wp, N)
    assert len(fixed) + 1 <= count <= len(fixed) + 3


@pytest.mark.parametrize("dps", [600, 1200])
def test_hurwitz_kernel_within_n_plus_m_plus_3_units_at_high_precision(dps):
    # against mpmath at twice the bits, past the digits of the property tests
    for f, a, s in ((1, 1, 2), (11, 10, 2), (7, 3, 4), (13, 1, 6)):
        plan = lfunctions._em_plan(s, dps)
        wp, N, _, tail = plan
        with mp.workprec(2 * wp):
            expected = mp.ldexp(mp.zeta(s, mp.mpf(a) / f), wp)
            assert abs(lfunctions._hurwitz_em(f, a, s, plan) - expected) < N + len(tail) + 3


@pytest.mark.parametrize("s", [2, 3, 7, 10])
@pytest.mark.parametrize("dps", [15, 67, 150])
def test_euler_maclaurin_plan_meets_its_tolerance(s, dps):
    wp, N, _, _ = lfunctions._em_plan(s, dps)
    coeffs = lfunctions._em_terms(s, wp)[1]
    M = len(coeffs)
    with mp.workdps(40):
        tolerance = mp.ldexp(1, -(wp + 4))
        # M is the smallest count whose first omitted term is below tolerance
        assert em_term(s, N, M + 1) < tolerance <= em_term(s, N, M)
        assert wp >= mp.ceil(dps * mp.log(10, 2)) + mp.log(N + M + 2, 2) + 10
        for j, (num, den) in enumerate(coeffs, 1):
            exact = mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.rf(s, 2 * j - 1)
            assert den > 0 and abs(mp.mpf(num) / den - exact) < mp.mpf(10) ** -35 * abs(exact)


def test_euler_maclaurin_plan_rejects_unreachable_input():
    with pytest.raises(PrecisionUnderflowError):
        lfunctions._em_plan(2, 90000)  # needs more head terms than the kernel allows
    with pytest.raises(InvalidArgumentError):
        lfunctions._em_plan(1, 30)


# ---------------------------------------------------------------------------
# Dedekind special values


# ---------------------------------------------------------------------------
# fixed-point sums: each helper within the radius its docstring derives,
# against a direct mpmath sum at twice the bits


@lru_cache(maxsize=None)
def low_order_characters(modulus):
    """The primitive characters inducing the characters mod `modulus` of
    order at most 60."""
    chars = {chi.primitive() for chi in characters_mod(modulus, (1,)) if chi.order <= 60}
    return sorted(chars, key=lambda chi: (chi.modulus, chi.order, chi.exponents))


@st.composite
def low_order_character(draw):
    chars = low_order_characters(draw(st.integers(1, 401)))
    return chars[draw(st.integers(0, len(chars) - 1))]


def oracle_root(numerator, denominator):
    """e^(2 pi i numerator / denominator) at the working precision."""
    return mp.expjpi(mp.mpf(2 * numerator) / denominator)


FIXED_POINT = settings(deadline=None, max_examples=20)


@FIXED_POINT
@given(st.integers(1, 10_000))
@example(10_000)
def test_pi_fixed_within_one_unit(wp):
    with mp.workprec(wp + 40):
        assert abs(lfunctions._pi_fixed(wp) - mp.ldexp(mp.pi, wp)) < 1


@FIXED_POINT
@given(st.lists(st.integers(1, 3000), min_size=1, max_size=6))
def test_pi_fixed_within_one_unit_in_any_order_of_calls(wps):
    # one Machin run serves every bit count below its own, and the value at
    # a bit count does not depend on the runs before it
    seen = []
    for order in (wps, sorted(wps), sorted(wps, reverse=True)):
        lfunctions._machin.cache_clear()
        seen.append([lfunctions._pi_fixed(wp) for wp in order])
        with mp.workprec(max(wps) + 40):
            assert all(abs(v - mp.ldexp(mp.pi, wp)) < 1 for v, wp in zip(seen[-1], order))
    assert dict(zip(wps, seen[0])) == dict(zip(sorted(wps), seen[1])) == dict(zip(sorted(wps, reverse=True), seen[2]))


@pytest.mark.parametrize("e", [1, 2, 3, 1024, 2047])
@pytest.mark.parametrize("bits", [20, 300, 4000])
def test_pi_power_within_its_radius(e, bits):
    # pi^e at bits + bit_length(e) + 2 fractional bits, within 2^-bits relative
    X, F = lfunctions._pi_power(e, bits)
    assert F == bits + e.bit_length() + 2
    with mp.workprec(F + 2 * e + 64):
        assert abs(X / mp.ldexp(mp.pi**e, F) - 1) < mp.ldexp(1, -bits)


@FIXED_POINT
@given(st.integers(1, 60), st.integers(1, 12), st.integers(8, 300))
def test_strided_root_tables_are_within_one_unit(m, multiple, wp):
    # the roots of order m read from the table of order m * multiple, as the
    # Hurwitz sums read them: within one unit of the direct sum, and so
    # within two of m's own table
    cos, sin = (table[::multiple] for table in lfunctions._root_table(m * multiple, wp))
    own_cos, own_sin = lfunctions._root_table(m, wp)
    assert len(cos) == len(sin) == m
    with mp.workprec(2 * wp + 20):
        for k in range(m):
            assert abs(mp.mpc(cos[k], sin[k]) - oracle_root(k, m) * mp.ldexp(1, wp)) < 1
            assert abs(cos[k] - own_cos[k]) <= 2 and abs(sin[k] - own_sin[k]) <= 2


@FIXED_POINT
@given(st.integers(1, 401), st.integers(8, 300))
def test_root_table_within_one_unit(m, wp):
    cos, sin = lfunctions._root_table(m, wp)
    assert len(cos) == len(sin) == m
    with mp.workprec(2 * wp + 20):
        for k in range(m):
            assert abs(mp.mpc(cos[k], sin[k]) - oracle_root(k, m) * mp.ldexp(1, wp)) < 1


@FIXED_POINT
@given(low_order_character(), st.integers(16, 256))
def test_class_summed_gauss_sum_within_its_radius(chi, wp):
    f, order = chi.modulus, chi.order
    units = [a for a in range(1, f + 1) if gcd(a, f) == 1]
    re, im = lfunctions._gauss_fixed(chi, wp)
    with mp.workprec(2 * wp + 20):
        tau = mp.fsum(oracle_root(chi.exponent(a) * f + a * order, order * f) for a in units)
        assert abs(mp.mpc(re, im) - tau * mp.ldexp(1, wp)) < 2 * len(units) + 2


@settings(deadline=None, max_examples=12)
@given(low_order_character(), st.integers(2, 8), st.integers(10, 40))
def test_class_summed_hurwitz_L_within_its_radius(chi, s, dps):
    # f^s L(s, conj chi^j) 2^wp within S + phi(f) U + 2 units, S = sum_a zeta(s, a/f),
    # for every member chi^j of the orbit, from chi's class sums permuted
    f, order = chi.modulus, chi.order
    units = [a for a in range(1, f + 1) if gcd(a, f) == 1]
    wp, N, _, tail = lfunctions._em_plan(s, dps)
    U = N + len(tail) + 3
    js = [j for j in range(1, order + 1) if gcd(j, order) == 1]
    sums = lfunctions._hurwitz_H(chi, s, dps, js)
    assert len(sums) == len(js)
    with mp.workprec(2 * wp + 20):
        zetas = [mp.zeta(s, mp.mpf(a) / f) for a in units]
        radius = mp.fsum(zetas) + len(units) * U + 2
        for j, (re, im) in zip(js, sums):
            direct = mp.fsum(oracle_root(-chi.exponent(a) * j, order) * z for a, z in zip(units, zetas))
            assert abs(mp.mpc(re, im) - direct * mp.ldexp(1, wp)) < radius


@FIXED_POINT
@given(
    st.integers(1, 401),
    st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=400),
    st.integers(1, 10**6),
    st.integers(10, 60),
    st.integers(1, 3),
    st.data(),
)
def test_cyclotomic_embedding_within_its_radius(level, num, den, dps, stride, data):
    # |sigma_j(x)| for a random unit j, against the roots strided from a table of order stride * level
    x = CyclotomicNumber(level, num, den)
    j = unit_mod(data, level)
    ones = sum(map(abs, x.num))
    wp = lfunctions._fixed_bits(dps, 1)
    modulus = Fraction(*lfunctions._member_moduli(x, stride * level, dps, [j])[0])
    with mp.workprec(2 * wp + 20):
        value = abs(mp.fsum(c * oracle_root(i * j, level) for i, c in enumerate(x.num))) / x.den
        error = abs(as_mpf(modulus) - value)
        # the integer sums, exact but for one unit per root, one unit for the
        # square root, then the rounding to wp bits
        assert error <= mp.ldexp(mp.mpf(ones + 1) / x.den * (1 + mp.ldexp(1, -wp)) + value, -wp)
        # so below 2^-10 10^-dps sum |num| / den, and the roundings to dps digits
        assert error <= (mp.ldexp(mp.mpf(ones) / x.den, -10) + value) * mp.mpf(10) ** -dps


@st.composite
def fields_below_100(draw):
    """An abelian field of conductor below 100: the fixed field of a random subgroup."""
    f = draw(st.integers(1, 99))
    units = [a for a in range(1, f + 1) if gcd(a, f) == 1]
    return AbelianFieldSpec(f, draw(st.lists(st.sampled_from(units), max_size=2)))


@settings(deadline=None, max_examples=15)
@given(fields_below_100(), st.integers(-4, -1))
def test_orbit_values_match_the_oracle_per_character(field, n):
    # one exact value and one class sum per Galois orbit; every member's order,
    # the modulus of its exact value sigma_j and its leading value against
    # mpmath's L-function of that member, chi^j for the j that `members` keys
    def power(chi, j):
        return tuple(None if k is None else k * j % chi.order for k in chi.exponents)

    chars = field.characters()
    table, order = lfunctions._orbit_table([(chi, n, 1) for chi in chars])
    values = iter(Fraction(*pair) for pair in lfunctions._leading_values(table, 20))
    # the members are the field's characters, each once with its exponent 1
    found = [(chi.modulus, chi.order, power(chi, j), e) for chi, *_, members in table for j, e in members.items()]
    assert sorted(found) == sorted((chi.modulus, chi.order, chi.exponents, 1) for chi in chars)
    assert order == sum(orbit_order * len(members) for *_, orbit_order, members in table)
    with mp.workdps(40):
        for chi, _, exact, orbit_order, members in table:
            for j in members:
                expected_order, expected = leading_coefficient(power(chi, j), chi.order, n)
                assert orbit_order == expected_order
                if orbit_order == 0:
                    modulus = Fraction(*lfunctions._member_moduli(exact, exact.level, 40, [j])[0])
                    assert abs(as_mpf(modulus) - abs(expected)) <= mp.mpf(10) ** -30 * (1 + abs(expected))
                expected = expected.real if chi.order <= 2 else abs(expected)
                assert abs(as_mpf(next(values)) - expected) <= mp.mpf(10) ** -25 * abs(expected)


def test_orbit_table_refuses_a_weight_below_minus_2048_before_any_l_value(monkeypatch):
    def refuse(chi, k):
        raise AssertionError("an L-value was taken")

    monkeypatch.setattr(lfunctions, "gen_bernoulli", refuse)
    chi = CHI_MINUS_4
    with pytest.raises(InvalidArgumentError, match="below -2048"):
        lfunctions._orbit_table([(chi, -1, 1), (chi, -2049, 1)])
    with pytest.raises(AssertionError, match="an L-value was taken"):
        lfunctions._orbit_table([(chi, -2048, 1)])


def test_dedekind_special_values():
    sv = evaluate_at(zeta_of(NumberRing(Q)), -1, 50)
    assert sv.order == 0 and sv.exact == Fraction(-1, 12)

    sv = evaluate_at(zeta_of(NumberRing(Q)), -2, 50)
    assert sv.order == 1 and not sv.is_exact
    with mp.workdps(60):
        assert abs(sv.numeric + mp.zeta(3) / (4 * mp.pi**2)) < mp.mpf(10) ** -45

    # real quadratic field of discriminant 5: zeta_F(-1) = 1/30
    sv = evaluate_at(zeta_of(NumberRing(SQRT5)), -1, 50)
    assert sv.order == 0 and sv.exact == Fraction(1, 30)


def test_dedekind_order_zero_values_are_rational():
    for field, n in [(SQRT5, -1), (SQRT5, -3), (ZETA5, -2), (ZETA7, -2), (QI, -2)]:
        if field_order(field, n) == 0:
            sv = evaluate_at(zeta_of(NumberRing(field)), n, 40)
            assert sv.is_exact
            assert sv.exact != 0


def test_dedekind_degenerate_field_is_riemann():
    sv = evaluate_at(zeta_of(NumberRing(Q)), -3, 40)
    assert sv.exact == Fraction(1, 120)


def test_a_conductor_above_65536_is_refused_before_its_units():
    # the bound comes first: enumerating 10^12 residues would not finish
    with pytest.raises(InvalidArgumentError, match="conductor 1000000000000 is above 65536"):
        AbelianFieldSpec(10**12, (1,))
    with pytest.raises(InvalidArgumentError, match="above 65536"):
        AbelianFieldSpec(65537, (1,))
    assert AbelianFieldSpec(65536, (1,)).degree == 32768
