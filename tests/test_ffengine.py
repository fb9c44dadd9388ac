import random
from fractions import Fraction

import pytest

from zetaforge import ffengine, poly
from zetaforge.errors import (
    CharZeroAtomError,
    GradedDataUnavailableError,
    InvalidArgumentError,
    MixedBaseError,
)
from zetaforge.ffengine import (
    _newton_power_sums,
    ell_adic_check,
    p_part_check,
    point_count,
    trace_formula_check,
    verify_C_finite_char,
)
from zetaforge.intlinalg import rational_valuation
from zetaforge.lfunctions import Q
from zetaforge.scheme_algebra import (
    Affine,
    Cellular,
    Curve,
    Disjoint,
    Evaluation,
    Glue,
    Minus,
    NumberRing,
    Point,
    Proj,
    weil_order_data,
    zeta_of,
)
from zetaforge.zetarep import evaluate_at

from oracles import count_points_y2_plus_y_eq_x3, gf4_table, rational_taylor, series_exp


def nodal_cubic(q=2):
    pt = Point(q)
    return Glue(pt, Minus(Affine(1, pt), pt))


def test_verify_c_point():
    report = verify_C_finite_char(Point(3), -2)
    assert report.passed
    assert report.left == Fraction(1, 8) == report.right
    assert report.context["zeta"] == Fraction(-1, 8)


def test_verify_c_nodal_cubic():
    report = verify_C_finite_char(nodal_cubic(2), -1)
    assert report.passed and report.left == Fraction(1, 3)


def test_verify_c_p1():
    report = verify_C_finite_char(Proj(1, Point(2)), -1)
    assert report.passed and report.left == Fraction(1, 3)
    assert weil_order_data(Proj(1, Point(2)), -1).graded == {-1: 3, 1: 1}


def test_verify_c_rejects_number_rings():
    with pytest.raises(CharZeroAtomError):
        verify_C_finite_char(NumberRing(Q), -1)


def test_point_counts():
    assert point_count(Point(2, 2), 1) == 0
    assert point_count(Point(2, 2), 2) == 2
    assert point_count(Affine(1, Point(2)), 3) == 8
    assert point_count(Proj(2, Point(3)), 1) == 1 + 3 + 9


def test_point_count_curve_vs_enumeration():
    # y^2 + y = x^3 is supersingular over F_2 with L-polynomial 1 + 2t^2
    curve = Curve(2, (1, 0, 2))
    gf2 = ([0, 1], lambda a, b: (a + b) % 2, lambda a, b: (a * b) % 2)
    assert point_count(curve, 1) == count_points_y2_plus_y_eq_x3(*gf2) == 3
    elements, add, mul = gf4_table()
    assert point_count(curve, 2) == count_points_y2_plus_y_eq_x3(elements, add, mul) == 9


def test_point_count_mixed_base_rejected():
    with pytest.raises(MixedBaseError):
        point_count(Disjoint((Point(2), Point(4))), 1)


def test_nodal_cubic_counts_are_powers_of_q():
    for k in range(1, 6):
        assert point_count(nodal_cubic(2), k) == 2**k


def test_trace_formula_atoms():
    assert trace_formula_check(Point(2), 5).passed
    assert trace_formula_check(Point(3, 2), 6).passed
    assert trace_formula_check(Curve(2, (1, 0, 2)), 4).passed
    assert trace_formula_check(nodal_cubic(2), 6).passed
    assert trace_formula_check(Proj(2, Point(2)), 6).passed
    assert trace_formula_check(Minus(Proj(1, Point(3)), Point(3)), 6).passed


@pytest.mark.parametrize(
    "e, numerators, denominators",
    [
        (Curve(2, (1, 2, 2)), [(1, 2, 2)], [(1, -1), (1, -2)]),
        # Z(P^1_C, t) = Z(C, t) Z(C, 3t)
        (Proj(1, Curve(3, (1, -2, 3))), [(1, -2, 3), (1, -6, 27)], [(1, -1), (1, -3), (1, -3), (1, -9)]),
        # Z(Spec F_4) = 1/(1 - t^2) over F_2
        (Minus(Curve(2, (1, 1, 2)), Point(2, 2)), [(1, 1, 2), (1, 0, -1)], [(1, -1), (1, -2)]),
        (nodal_cubic(2), [(1,)], [(1, -2)]),
    ],
    ids=["curve", "proj", "minus", "glue"],
)
def test_trace_formula_counts_exponentiate_to_the_taylor_series_of_z(e, numerators, denominators):
    # exp(sum_k N_k t^k / k) of the report's counts is the Taylor series of
    # Z written out here, both in Fractions by the oracles
    report = trace_formula_check(e, 8)
    assert report.passed and report.right[0] == 1
    counts = report.right[1:]
    assert series_exp({k: Fraction(n, k) for k, n in enumerate(counts, 1)}, 8) == rational_taylor(
        numerators, denominators, 8
    )


def test_trace_formula_refuses_before_it_walks(monkeypatch):
    # the normal form's refusals and a second base come before any count
    monkeypatch.setattr(ffengine, "_point_counts", lambda *args: pytest.fail("walked"))
    with pytest.raises(MixedBaseError):
        trace_formula_check(Disjoint((Point(2), Point(4))), 4)
    with pytest.raises(InvalidArgumentError, match="bundle ranks"):
        trace_formula_check(Proj(70000, Point(2)), 4)


def test_newton_power_sums_are_kept_as_a_tuple():
    # kept per process, so no caller may change them: a tuple, the same one
    # on the next call; P(t) = 1 + t + 2t^2 has p_1 = -1 and p_2 = 1 - 2 * 2
    sums = _newton_power_sums((1, 1, 2), 6)
    assert type(sums) is tuple and _newton_power_sums((1, 1, 2), 6) is sums
    assert sums[:3] == (0, -1, -3)
    with pytest.raises(TypeError):
        sums[1] = 0


def fraction_log_derivative(p, K):
    """t p'/p to t^K, as t p' times the series of 1/p, all in Fractions."""
    inverse = []
    for k in range(K + 1):
        acc = Fraction(int(k == 0)) - sum(p[j] * inverse[k - j] for j in range(1, min(k, len(p) - 1) + 1))
        inverse.append(acc / p[0])
    return [sum(j * p[j] * inverse[k - j] for j in range(1, min(k, len(p) - 1) + 1)) for k in range(K + 1)]


@pytest.mark.parametrize(
    "p",
    [
        (2, 1),  # an exact Fraction wherever 2 does not divide
        (1, 0, 0, 5),
        (3, -3, 7, 1, 0, 4),
        (Fraction(1, 2), 3, Fraction(-2, 3)),
        (1, -3),  # A^1 over F_3: t p'/p = -(3t + 9t^2 + ...)
    ],
    ids=["non-unit-constant", "sparse", "dense", "fraction-coefficients", "affine-line"],
)
def test_log_derivative_matches_fraction_arithmetic(p):
    got = poly.log_derivative(p, 7)
    expected = fraction_log_derivative(p, 7)
    assert got == expected
    assert [str(c) for c in got] == [str(c) for c in expected]


def test_log_derivative_matches_fraction_arithmetic_on_random_polynomials():
    rng = random.Random(6)
    for _ in range(200):
        K = rng.randint(0, 12)
        p = [rng.choice([-3, -2, -1, 1, 2, 5])] + [rng.randint(-20, 50) for _ in range(rng.randint(0, 5))]
        assert [str(c) for c in poly.log_derivative(p, K)] == [str(c) for c in fraction_log_derivative(p, K)]


def test_log_derivative_of_geometric_factors():
    # t d/dt log(1 - a t^m) = -sum_j m a^j t^(jm): the point counts of the
    # factors 1 - q^r t and 1 - t^m of a zeta function, with the sign
    assert poly.log_derivative((1, -2), 4) == [0, -2, -4, -8, -16]
    assert poly.log_derivative((1, 0, 0, -1), 7) == [0, 0, 0, -3, 0, 0, -3, 0]
    assert poly.log_derivative((1,), 3) == [0, 0, 0, 0]


def test_log_derivative_of_a_product_is_the_sum():
    rng = random.Random(77)
    for _ in range(20):
        f = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
        g = [1] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
        fg = poly.log_derivative(poly.mul(f, g), 9)
        assert fg == [a + b for a, b in zip(poly.log_derivative(f, 9), poly.log_derivative(g, 9))]


@pytest.mark.parametrize("q, lpoly", [(2, (1, 1, 2)), (3, (1, -2, 3)), (9, (1, 5, 9))])
def test_trace_formula_series_stay_integral(q, lpoly):
    # Z(X, t) lies in 1 + tZ[[t]], so both sides are computed in ints alone
    curve = Curve(q, lpoly)
    for e in (
        curve,
        Proj(2, curve),
        Minus(curve, Point(q)),
        Glue(Point(q), Minus(Affine(1, curve), Point(q))),
    ):
        report = trace_formula_check(e, 40)
        assert report.passed
        assert all(type(c) is int for c in report.left + report.right)


def test_ell_adic_point():
    report = ell_adic_check(Point(3), -2, 2)
    assert report.passed and report.left == 8


def test_ell_adic_trivial_and_p1():
    assert ell_adic_check(Point(2), -1, 3).passed  # both sides 1
    report = ell_adic_check(Proj(1, Point(2)), -1, 3)
    assert report.passed and report.left == 3


def test_ell_adic_requires_graded_data():
    with pytest.raises(GradedDataUnavailableError):
        ell_adic_check(nodal_cubic(2), -1, 3)
    with pytest.raises(ValueError, match="characteristic"):
        ell_adic_check(Point(2), -1, 2)


def test_p_part():
    assert p_part_check(Point(2), -3).passed  # zeta = -1/7
    assert p_part_check(Curve(2, (1, 0, 2)), -1).passed  # value 3
    assert p_part_check(Affine(2, Point(3)), -1).passed  # zeta(point, -3) = -1/26
    assert p_part_check(nodal_cubic(2), -2).passed


def test_ell_reconstruction_from_parts():
    # prod over ell of the ell-parts (signed) recovers |zeta| when all prime
    # factors are below the bound
    e = Curve(2, (1, 0, 2))
    n = -2
    value = evaluate_at(zeta_of(e), n).exact
    recon = Fraction(1)
    for ell in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        recon *= Fraction(ell) ** rational_valuation(value, ell)
    assert recon == abs(value)


def test_battery_on_random_corpus():
    rng = random.Random(1234)
    atoms = [Point(2), Point(2, 2), Curve(2, (1, 0, 2)), Proj(1, Point(2)), nodal_cubic(2)]
    for _ in range(20):
        e = Disjoint(tuple(rng.sample(atoms, rng.randint(1, 3))))
        if rng.random() < 0.5:
            e = Glue(rng.choice(atoms), e)
        for n in (-1, -2, -3):
            assert verify_C_finite_char(e, n).passed
            assert p_part_check(e, n).passed
        assert trace_formula_check(e, 6).passed


@pytest.mark.parametrize("n", [0, 1])
def test_checks_reject_nonnegative_weights(n):
    for check in (verify_C_finite_char, p_part_check):
        with pytest.raises(InvalidArgumentError, match="strictly negative"):
            check(Disjoint((Point(2), Point(3))), n)
    with pytest.raises(InvalidArgumentError, match="strictly negative"):
        ell_adic_check(Point(3), n, 2)


def test_checks_read_an_evaluation_like_its_expression():
    e = Disjoint((Proj(1, Curve(2, (1, 1, 2))), Point(3, 2)))
    entry = Evaluation(e)
    assert verify_C_finite_char(entry, -2).as_dict() == verify_C_finite_char(e, -2).as_dict()
    assert p_part_check(entry, -2).as_dict() == p_part_check(e, -2).as_dict()
    assert ell_adic_check(entry, -2, 5).as_dict() == ell_adic_check(e, -2, 5).as_dict()
    curve = Proj(1, Curve(2, (1, 1, 2)))
    assert trace_formula_check(Evaluation(curve), 8).as_dict() == trace_formula_check(curve, 8).as_dict()
    assert zeta_of(entry) == zeta_of(e) and weil_order_data(entry, -2) == weil_order_data(e, -2)
    # the record read at -1 after -2 reports what a fresh record at -1 does
    for check in (verify_C_finite_char, p_part_check, lambda x, n: ell_adic_check(x, n, 5)):
        assert check(entry, -1).as_dict() == check(Evaluation(e), -1).as_dict()
