import random
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetaforge import cli, lfunctions, poly, zetarep
from zetaforge.errors import InvalidArgumentError, RationalityFailureError, WeilViolationError
from zetaforge.lfunctions import (
    CHI_MINUS_4,
    TRIVIAL_CHARACTER,
    AbelianFieldSpec,
    CyclotomicNumber,
    DirichletCharacter,
    characters_mod,
    leading_value,
    trivial_zero_order,
)
from zetaforge.scheme_algebra import Affine, Disjoint, Minus, NumberRing, Point, Proj, zeta_of
from zetaforge.zetarep import (
    FiniteCharFactor,
    LFactorShifted,
    RationalFunctionT,
    ZetaProduct,
    evaluate_at,
    format_decimal,
    inverse,
    multiply,
    shift_s,
)

from oracles import as_mpf, dedekind_zeta_abelian


def geometric(q, scale=1):
    """1 / (1 - scale*t) over base q."""
    return FiniteCharFactor(q, RationalFunctionT((1,), (1, -scale)))


def p1_product(q):
    return ZetaProduct([(geometric(q), 1), (geometric(q, q), 1)])


def test_rational_function_normalization():
    f = RationalFunctionT((2, 4), (-2, 2))
    assert f.num == (-1, -2) and f.den == (1, -1)
    with pytest.raises(ValueError):
        RationalFunctionT((0, 1), (1,))  # zero constant term
    with pytest.raises(ValueError):
        RationalFunctionT((1,), ())


def test_multiply_identity_and_cancellation():
    a = ZetaProduct([(geometric(2), 1)])
    assert multiply(a, ZetaProduct()) == a
    assert multiply(a, inverse(a)) == ZetaProduct()


def test_direct_construction_normalizes():
    f = geometric(2)
    z = ZetaProduct(((f, 1), (f, 1), (f, 0)), ())
    assert z.finite_char == ((f, 2),)
    assert ZetaProduct(((f, 1), (f, -1)), ()) == ZetaProduct()
    # the fields are keywords too, so the repr reads back
    chi = LFactorShifted(TRIVIAL_CHARACTER)
    w = ZetaProduct(finite_char=((f, 1),), char_zero=((chi, 1),))
    assert w == ZetaProduct([(chi, 1), (f, 1)])
    assert eval(repr(w), vars(zetarep) | vars(lfunctions)) == w


def test_p1_structure():
    # zeta of the projective line over F_q: 1/((1-t)(1-qt))
    z = p1_product(2)
    assert len(z.finite_char) == 2
    assert {f.Z.den for f, _ in z.finite_char} == {(1, -1), (1, -2)}


def test_shift_s():
    z = ZetaProduct([(geometric(3), 1)])
    shifted = shift_s(z, 1)
    (factor, exp), = shifted.finite_char
    assert factor.Z.den == (1, -3) and exp == 1
    assert shift_s(z, 0) == z
    r = ZetaProduct([(LFactorShifted(TRIVIAL_CHARACTER), 1)])
    assert shift_s(r, 2).char_zero[0][0].shift == 2


def test_shift_of_a_sparse_factor():
    # only the two nonzero coefficients of 1 - t^65536 pick up a power of
    # the scale 2; the others stay 0
    (factor, exp), = zeta_of(Affine(1, Point(2, 65536))).finite_char
    assert exp == 1 and factor.q == 2 and factor.Z.num == (1,)
    assert factor.Z.den == (1,) + (0,) * 65535 + (-(2**65536),)
    assert RationalFunctionT((1, 0, 3), (1, 0, 0, -1)).substitute_scaled(5) == RationalFunctionT(
        (1, 0, 75), (1, 0, 0, -125)
    )


def test_a_shift_above_2_to_the_24_bits_is_refused():
    # 1/(1 - t) over q = 2 (2 bits) shifted by r: about 2 r bits, 2^24 at the bound
    z = ZetaProduct([(geometric(2), 1)])
    (factor, _), = shift_s(z, 1 << 23).finite_char
    assert factor.Z.den == (1, -(2 ** (1 << 23)))
    with pytest.raises(InvalidArgumentError, match="above 2\\^24"):
        shift_s(z, (1 << 23) + 1)
    with pytest.raises(InvalidArgumentError, match="above 2\\^24"):
        zeta_of(Affine(65536, Point(2, 65536)))


def test_shifted_factors_hash_apart():
    # hash(2^k) repeats with period 61 in k, so the factors 1/(1 - 2^r t)
    # over q = 2 collided when hashed by their coefficients alone
    factors = [FiniteCharFactor(2, RationalFunctionT((1,), (1, -(2**r)))) for r in range(200)]
    assert len({hash(f) for f in factors}) == len(factors)
    assert len({hash(f.Z) for f in factors}) == len(factors)
    z = zeta_of(Proj(300, Point(2)))
    assert len(z.finite_char) == 301 and len({hash(f) for f, _ in z.finite_char}) == 301


def test_a_value_above_2_to_the_24_bits_is_refused():
    # Z = 1/(1 - t) over q = 2 (2 bits) at n = -2^23: 2^24 bits, the bound
    factor = geometric(2)
    assert factor.value_at(-(1 << 23)) == Fraction(-1, 2 ** (1 << 23) - 1)
    with pytest.raises(InvalidArgumentError, match="above 2\\^24"):
        factor.value_at(-(1 << 23) - 1)
    with pytest.raises(InvalidArgumentError):
        evaluate_at(zeta_of(Point(2, 65536)), -200)


def test_evaluate_single_geometric():
    v = evaluate_at(ZetaProduct([(geometric(2), 1)]), -1)
    assert v.order == 0 and v.exact == Fraction(1, 1 - 2) == -1


def test_evaluate_p1():
    v = evaluate_at(p1_product(2), -1)
    assert v.order == 0 and v.exact == Fraction(1, 3)  # 1/((1-2)(1-4))


def test_evaluate_riemann_at_minus_2():
    v = evaluate_at(ZetaProduct([(LFactorShifted(TRIVIAL_CHARACTER), 1)]), -2, precision=50)
    assert v.order == 1 and not v.is_exact
    with mp.workdps(60):
        assert abs(v.numeric + mp.zeta(3) / (4 * mp.pi**2)) < mp.mpf(10) ** -45
        assert abs(v.numeric + mp.mpf("0.0304484570583")) < mp.mpf(10) ** -12


def test_one_exact_l_value_per_character(monkeypatch):
    # one B_{k,chi} per Galois orbit serves the order and the leading value
    # of every member: Q(zeta_13) has one orbit per order dividing 12
    calls = Counter()
    original = lfunctions.gen_bernoulli

    def counted(chi, k):
        calls[chi] += 1
        return original(chi, k)

    monkeypatch.setattr(lfunctions, "gen_bernoulli", counted)
    field = AbelianFieldSpec(13, (1,))
    evaluate_at(zeta_of(NumberRing(field)), -2)
    assert sum(calls.values()) == len(calls) == 6
    assert sorted(chi.order for chi in calls) == [1, 2, 3, 4, 6, 12] and set(calls) <= set(field.characters())


def test_ord_takes_one_exact_l_value_per_orbit(monkeypatch, capsys):
    # the order is constant on a Galois orbit: Q(zeta_401) has 400 characters
    # in 15 orbits, one per divisor of 400
    calls = Counter()
    original = lfunctions.gen_bernoulli

    def counted(chi, k):
        calls[chi.order] += 1
        return original(chi, k)

    monkeypatch.setattr(lfunctions, "gen_bernoulli", counted)
    assert cli.main(["ord", "(numberring :conductor 401 :subgroup (1))", "-n", "-2"]) == 0
    assert "analytic_order: 200" in capsys.readouterr().out
    assert sum(calls.values()) == len(calls) == 15 and sorted(calls) == [d for d in range(1, 401) if 400 % d == 0]


def test_one_hurwitz_zeta_per_unit_residue(monkeypatch):
    # the five even nontrivial characters mod 13 (a simple zero at n = -2) share
    # one table of zeta(3, a/13) over the 12 units; the trivial one adds zeta(3)
    calls = []
    kernel = lfunctions._hurwitz_em

    def counted(f, a, s, plan):
        calls.append((f, a, s))
        return kernel(f, a, s, plan)

    monkeypatch.setattr(lfunctions, "_hurwitz_em", counted)
    for table in (lfunctions._hurwitz_table, lfunctions._bernoulli_table, lfunctions._root_table):
        table.cache_clear()
    evaluate_at(zeta_of(NumberRing(AbelianFieldSpec(13, (1,)))), -2)
    assert sorted(calls) == [(1, 1, 3)] + [(13, a, 3) for a in range(1, 13)]


def test_a_rational_product_embeds_no_exact_value(monkeypatch):
    # the real subfield of Q(zeta_13) at n = -1: six even characters of order
    # 0 in whole Galois orbits, each orbit's product the norm of one exact
    # value; no member is embedded and no leading value or Hurwitz table is taken
    def refuse(*args):
        raise AssertionError("the exact path took a numeric leading value")

    monkeypatch.setattr(lfunctions, "_member_moduli", refuse)
    monkeypatch.setattr(lfunctions, "_hurwitz_table", refuse)
    monkeypatch.setattr(lfunctions, "_leading_values", refuse)
    value = evaluate_at(zeta_of(NumberRing(AbelianFieldSpec(13, (1, 12)))), -1)
    assert value.order == 0 and value.is_exact


def test_an_exact_value_reduces_one_polynomial_per_orbit(monkeypatch, capsys):
    # the real subfield of Q(zeta_401): 200 even characters in 12 Galois
    # orbits, one per divisor of 200; the norm reads each orbit's value at
    # the roots, so no member's conjugate is reduced mod Phi_m
    calls = []
    init = CyclotomicNumber.__init__

    def counted(self, level, num, den=1):
        calls.append((level, len(num)))
        init(self, level, num, den)

    monkeypatch.setattr(CyclotomicNumber, "__init__", counted)
    assert cli.main(["value", "(numberring :conductor 401 :subgroup (1 400))", "-n", "-1", "--precision", "20"]) == 0
    # per orbit of order m: B_(2, chi) from its m class sums, which the constructor
    # reduces mod Phi_m, and L(-1, chi) = -B_(2, chi)/2, already reduced
    levels = [d for d in range(1, 201) if 200 % d == 0]
    assert sorted(calls) == sorted([(m, m) for m in levels] + [(m, lfunctions._euler_phi(m)) for m in levels])


@st.composite
def real_field_expressions(draw):
    """(expression, terms): disjoint unions, complements and affine spaces of
    rank 2 over the rings of integers of real abelian fields of conductor
    below 50, with the terms (conductor, generators of H, shift, exponent)
    of its zeta function as a product of Dedekind zetas zeta_F(s - shift)."""
    f = draw(st.integers(3, 49))
    units = [a for a in range(1, f) if gcd(a, f) == 1]
    gens = (f - 1, *draw(st.lists(st.sampled_from(units), max_size=2)))
    leaf = (NumberRing(AbelianFieldSpec(f, gens)), [(f, gens, 0, 1)])
    kind = draw(st.sampled_from(["leaf", "leaf", "disjoint", "minus", "affine"]))
    if kind == "leaf":
        return leaf
    a, ta = draw(real_field_expressions()) if draw(st.booleans()) else leaf
    if kind == "affine":  # an even shift keeps every L-value at an odd weight
        return Affine(2, a), [(f, g, r + 2, e) for f, g, r, e in ta]
    b, tb = draw(real_field_expressions())
    if kind == "disjoint":
        return Disjoint((a, b)), ta + tb
    return Minus(a, b), ta + [(f, g, r, -e) for f, g, r, e in tb]


@lru_cache(maxsize=None)
def oracle_dedekind(f, gens, s):
    with mp.workdps(60):
        return dedekind_zeta_abelian(f, gens, s)


@settings(deadline=None, max_examples=40)
@given(real_field_expressions(), st.sampled_from([-1, -3, -5]))
def test_real_abelian_values_are_exact_per_level(case, n):
    # a real field's characters are even, so every L-value at an odd weight is
    # nonzero and exact; each Galois-closed level multiplies to a rational
    expr, terms = case
    value = evaluate_at(zeta_of(expr), n, 30)
    assert value.order == 0 and value.is_exact
    with mp.workdps(60):
        oracle = mp.fprod(oracle_dedekind(f, gens, n - r) ** e for f, gens, r, e in terms)
        assert abs(as_mpf(value.exact) - oracle) <= abs(oracle) * mp.mpf(10) ** -40


@pytest.mark.parametrize("n", [-1, -2])
def test_non_real_product_raises_rationality_failure(n):
    # an order-4 character mod 5 without its conjugate: order 1 at n = -1,
    # a non-rational exact value at n = -2; and chi^2 conj(chi), where the
    # real chi^2 pairs with itself but conj(chi) has no chi to pair with
    _, square, chi, conj = characters_mod(5, (1,))
    assert square.order == 2 and chi.order == conj.order == 4
    for factors in ([chi], [square, conj]):
        z = ZetaProduct([(LFactorShifted(c), 1) for c in factors])
        with pytest.raises(RationalityFailureError):
            evaluate_at(z, n)


def conjugate(chi):
    """conj chi: its table t as -t mod the order."""
    return DirichletCharacter(chi.modulus, chi.order, tuple(None if t is None else -t % chi.order for t in chi.exponents))


@st.composite
def hand_built_l_factors(draw):
    """(chi, shift, e) triples: characters of one or two random abelian fields
    of conductor below 60 as `characters_mod` gives them, imprimitive where
    the field's conductor is not theirs, or made primitive, so that one
    primitive character can come twice; some dropped, exponents in [-2, 2],
    shifts in [0, 2], and half the time each with its conjugate added."""
    chars = []
    for _ in range(draw(st.integers(1, 2))):
        f = draw(st.integers(1, 59))
        units = [a for a in range(1, f + 1) if gcd(a, f) == 1]
        field = AbelianFieldSpec(f, draw(st.lists(st.sampled_from(units), max_size=2)))
        chars += characters_mod(f, field.subgroup)
    factors = []
    for chi in draw(st.lists(st.sampled_from(chars), min_size=1, max_size=5)):
        chi = chi.primitive() if draw(st.booleans()) else chi
        factors.append((chi, draw(st.integers(0, 2)), draw(st.integers(-2, 2))))
    if draw(st.booleans()):
        factors += [(conjugate(chi), shift, e) for chi, shift, e in factors]
    return factors


@settings(deadline=None, max_examples=100)
@given(hand_built_l_factors(), st.integers(-4, -1))
def test_a_hand_built_product_is_real_exactly_when_closed_under_conjugation(factors, n):
    # the exponent of each (primitive character, weight), summed over the
    # factors inducing it, must be that of its conjugate; the order is then
    # the sum of the exponents at trivial zeros, and the value the product
    # of the factors' leading values (a complex one's modulus)
    exponents = Counter()
    for chi, shift, e in factors:
        p = chi.primitive()
        exponents[p.modulus, p.order, p.exponents, n - shift] += e
    closed = all(
        e == exponents[f, m, conjugate(DirichletCharacter(f, m, table)).exponents, w]
        for (f, m, table, w), e in exponents.items()
    )
    z = ZetaProduct([(LFactorShifted(chi, shift), e) for chi, shift, e in factors])
    if not closed:
        with pytest.raises(RationalityFailureError):
            evaluate_at(z, n, 10)
        return
    value = evaluate_at(z, n, 10)
    assert value.order == sum(e * trivial_zero_order(chi, n - shift) for chi, shift, e in factors)
    expected = prod(leading_value(chi, n - shift, 10).numeric ** e for chi, shift, e in factors)
    assert abs(value.numeric - expected) <= abs(expected) / 10**8


# (n, order, printed, exponent of each member chi^j), identified by the first three
CONJUGATE_CASES = [
    (-1, 0, "3.13383054136359812661984975795", {1: 1, 4: 1}),
    (-2, 2, "103.804952142780629697497551744", {1: 1, 4: 1}),
    (-3, 0, "1173.57204810953968075596094981", {1: 1, 4: 1}),
    # the whole orbit, with two exponents: not a power of its norm
    (-1, 0, "16.8779266413225921369796050661", {1: 1, 4: 1, 2: 2, 3: 2}),
]


@pytest.mark.parametrize(
    "n, order, printed, exponents", CONJUGATE_CASES, ids=["-".join(map(str, case[:3])) for case in CONJUGATE_CASES]
)
def test_conjugate_pair_outside_a_field_is_real(n, order, printed, exponents):
    # chi conj(chi) = chi chi^4 for an order-5 character mod 11 is closed
    # under conjugation but not under the Galois action: its value |L|^2
    # lies in Q(sqrt 5), not Q, and is the product of the two moduli
    chi, *others = [c for c in characters_mod(11, (1,)) if c.order == 5]
    powers = {j: next(c for c in [chi, *others] if c.exponents == tuple(k and k * j % 5 for k in chi.exponents))
              for j in exponents}
    z = ZetaProduct([(LFactorShifted(powers[j]), e) for j, e in exponents.items()])
    value = evaluate_at(z, n, 30)
    assert value.order == order and not value.is_exact
    assert format_decimal(value.numeric, 30) == printed
    with mp.workdps(60):
        s = mp.mpf(n)
        oracle, derivative = 1, order // sum(exponents.values())
        for j, e in exponents.items():
            # the leading coefficient of L(s, chi^j) at n: the value, or the first derivative
            L = 11 ** -s * mp.fsum(
                mp.expjpi(mp.mpf(2 * j * chi.exponent(a)) / 5) * mp.zeta(s, mp.mpf(a) / 11, derivative)
                for a in range(1, 11)
            )
            oracle *= abs(L) ** e
        assert abs(as_mpf(value.numeric) - oracle) <= as_mpf(value.error) < oracle * mp.mpf(10) ** -29


def test_value_path_takes_no_gauss_sum(monkeypatch):
    # a leading value is |r| |H| / (sqrt f pi^-n), signed for a real chi:
    # the anchor Q(zeta_61) at n = -2 has order-1 factors but needs no tau(chi)
    def no_gauss_sum(chi, wp):
        raise AssertionError("a Gauss sum was computed on the value path")

    monkeypatch.setattr(lfunctions, "_gauss_fixed", no_gauss_sum)
    code = cli.main(["value", "(numberring :conductor 61 :subgroup (1))", "-n", "-2", "--format", "json"])
    assert code == 0


def test_weil_violation():
    # numerator 2 - t vanishes at t = 2 = q^(-n) for n = -1: reject
    z = ZetaProduct([(FiniteCharFactor(2, RationalFunctionT((2, -1), (1, -1))), 1)])
    with pytest.raises(WeilViolationError):
        evaluate_at(z, -1)
    # pole case: denominator 1 - t vanishes at t = 1? only at n = 0, which is
    # out of range; a denominator 4 - t hits t = 4 at n = -2
    zp = ZetaProduct([(FiniteCharFactor(2, RationalFunctionT((1,), (4, -1))), 1)])
    with pytest.raises(WeilViolationError):
        evaluate_at(zp, -2)


def test_multiplicativity_of_order_and_value():
    a = ZetaProduct([(LFactorShifted(TRIVIAL_CHARACTER), 1)])
    b = ZetaProduct([(LFactorShifted(TRIVIAL_CHARACTER, 1), 1), (geometric(2), 1)])
    n = -1
    va, vb = evaluate_at(a, n), evaluate_at(b, n)
    vab = evaluate_at(multiply(a, b), n)
    assert vab.order == va.order + vb.order
    assert abs(vab.numeric - va.numeric * vb.numeric) <= (
        vab.error + abs(va.numeric * vb.numeric) * Fraction(1, 10**40)
    )


def test_shift_law_exact():
    z = ZetaProduct([(geometric(2), 1), (LFactorShifted(TRIVIAL_CHARACTER), 1)])
    for r in (0, 1, 2):
        for n in (-1, -2):
            lhs = evaluate_at(shift_s(z, r), n)
            rhs = evaluate_at(z, n - r)
            assert lhs.order == rhs.order
            with mp.workdps(55):
                assert abs(lhs.numeric - rhs.numeric) <= lhs.error + rhs.error


def test_finite_char_products_are_exact_nonzero():
    rng = random.Random(8)
    for _ in range(25):
        factors = []
        for _ in range(rng.randint(1, 3)):
            q = rng.choice([2, 3, 4, 5])
            factors.append((geometric(q, q ** rng.randint(0, 2)), rng.choice([-2, -1, 1, 2])))
        z = ZetaProduct(factors)
        for n in (-1, -2, -3):
            v = evaluate_at(z, n)
            assert v.order == 0 and v.is_exact and v.exact != 0


def test_series_with_non_unit_constant_term_is_exact():
    # t f'/f of f = 1/(2 + t) is -t/(2 + t) = sum_k (-1)^k t^k / 2^k, k >= 1:
    # the series the trace formula reads off a factor's num and den
    f = RationalFunctionT((1,), (2, 1))
    series = [a - b for a, b in zip(poly.log_derivative(f.num, 4), poly.log_derivative(f.den, 4))]
    expected = [0, Fraction(-1, 2), Fraction(1, 4), Fraction(-1, 8), Fraction(1, 16)]
    assert series == expected
    assert [str(c) for c in series] == ["0", "-1/2", "1/4", "-1/8", "1/16"]


def test_evaluate_chi_minus_4_pair_is_exact():
    # chi and conj(chi) coincide for the quadratic character: exact rational
    z = ZetaProduct([(LFactorShifted(CHI_MINUS_4, 0), 1)])
    v = evaluate_at(z, -2)
    assert v.is_exact and v.order == 0


@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 2**400),
    st.integers(-1600, 1200),
    st.integers(1, 100),
    st.booleans(),
)
@example(1, -3, 2, False)  # 0.125: a tie, rounded up
@example(999, 0, 2, True)  # rounds up into the next decade
@example(5, -1, 1, False)
@example(3, 60, 19, False)  # an exponent at the fixed-notation edge
def test_format_decimal_matches_mpmath_nstr(mantissa, exponent, digits, negative):
    # on exactly representable dyadic rationals of magnitude 2^-1600 to 2^1600
    sign = -1 if negative else 1
    x = sign * mantissa * Fraction(2) ** exponent
    with mp.workprec(mantissa.bit_length()):
        exact = mp.ldexp(mp.mpf(sign * mantissa), exponent)
    assert format_decimal(x, digits) == mp.nstr(exact, digits)


def test_format_decimal_of_a_huge_denominator():
    # about 10^-1023502: the digits come from one floor division of integers
    x = Fraction(1, 2**3400000 - 1)
    printed = "1.0345285106854847540736583454487029888969279911093e-1023502"
    assert format_decimal(x, 50) == format_decimal(-x, 50)[1:] == printed
    with mp.workprec(300):
        assert mp.nstr(1 / (mp.mpf(2) ** 3400000 - 1), 50) == printed


@pytest.fixture
def unlimited_int_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_exact_values_print_as_str_prints_them(unlimited_int_digits):
    # random integers of up to 10^5 digits, either sign, alone and over a
    # denominator, on both sides of the 8192 bits where the halving starts
    rng = random.Random(35)
    sizes = [1, 64, 8191, 8192, 8193, 16385, 100000, 332193] + [rng.randrange(1, 332193) for _ in range(4)]
    for bits in sizes:
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        d = rng.getrandbits(rng.randrange(1, bits + 1)) | 1
        for x in (Fraction(n), Fraction(-n), Fraction(n, d), Fraction(-d, n)):
            assert zetarep._exact_str(x) == str(x)


def fraction_round(x, bits):
    """The rounding of the leading-value product as it was done on Fractions."""
    n, d = x.numerator, x.denominator
    shift = bits - n.bit_length() + d.bit_length()
    if shift >= 0:
        return Fraction(((n << shift) + (d >> 1)) // d, 1 << shift)
    d <<= -shift
    return Fraction((n + (d >> 1)) // d << -shift)


def fraction_product(rational_part, values, exps, precision):
    """evaluate_at's numeric product and nominal bound, formed on Fractions."""
    tolerance = Fraction(1, 10 ** (precision + 5))
    dps = precision + 20
    bits = lfunctions._fixed_bits(dps, sum(map(abs, exps)))
    numeric, rel_err = rational_part, Fraction(0)
    for value, e in zip(values, exps):
        size = abs(value)
        rel_err = fraction_round(rel_err + abs(e) * (size + 1) * tolerance / (size + Fraction(1, 10**dps)), bits)
        numeric = fraction_round(numeric * value**e, bits)
    return numeric, (abs(numeric) + 1) * (rel_err + tolerance)


_NONZERO = st.integers(-(10**300), 10**300).filter(bool)
_DYADIC = st.builds(lambda m, k: Fraction(m) * Fraction(2) ** k, _NONZERO, st.integers(-1200, 1200))
_RATIONAL = st.builds(Fraction, _NONZERO, st.integers(1, 10**300))
# a leading value, and the factor its integer pair carries unreduced, as `_round` leaves dyadic pairs
_PAIRS = st.tuples(_DYADIC | _RATIONAL, st.sampled_from([1, 2, 4, 2**61]) | st.integers(1, 10**6))


@settings(deadline=None, max_examples=300)
@given(
    _DYADIC | _RATIONAL,
    st.lists(st.tuples(_PAIRS, st.integers(-3, 3).filter(bool)), min_size=1, max_size=6),
    st.integers(1, 300),
)
@example(Fraction(3), [((Fraction(5, 7), 2), 1), ((Fraction(-3, 4), 3), -3)], 1)
def test_the_integer_pair_product_rounds_as_the_fraction_product(rational_part, factors, precision):
    # numeric and error as the Fraction loop gives them, whatever the pairs' common factors
    values = [value for (value, _), _ in factors]
    pairs = [(value.numerator * k, value.denominator * k) for (value, k), _ in factors]
    exps = [e for _, e in factors]
    expected = fraction_product(rational_part, values, exps, precision)
    assert lfunctions._numeric_product(rational_part, pairs, exps, precision) == expected
