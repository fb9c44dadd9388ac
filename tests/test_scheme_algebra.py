from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetaforge import poly
from zetaforge.errors import CharZeroAtomError, NotPrimePowerError
from zetaforge.lfunctions import Q, QI
from zetaforge.scheme_algebra import (
    Affine,
    Cellular,
    Curve,
    Disjoint,
    Glue,
    Minus,
    NumberRing,
    Point,
    Proj,
    base_prime_powers,
    format_expr,
    is_finite_characteristic,
    validate,
    weil_order_data,
    zeta_of,
)
from zetaforge.zetarep import ZetaProduct, evaluate_at, multiply


def nodal_cubic(q=2):
    """P^1 with 0 glued to 1: a point glued to A^1 minus a point."""
    pt = Point(q)
    return Glue(pt, Minus(Affine(1, pt), pt))


def test_point_zeta():
    z = zeta_of(Point(3, 2))
    (factor, exp), = z.finite_char
    assert exp == 1 and factor.q == 3
    assert factor.Z.num == (1,) and factor.Z.den == (1, 0, -1)  # 1/(1-t^2)


def test_proj_line_is_product_of_two_geometric_factors():
    z = zeta_of(Proj(1, Point(2)))
    dens = sorted(f.Z.den for f, _ in z.finite_char)
    assert dens == [(1, -2), (1, -1)]


def test_nodal_cubic_zeta_collapses():
    z = zeta_of(nodal_cubic(2))
    (factor, exp), = z.finite_char
    assert exp == 1 and factor.Z.num == (1,) and factor.Z.den == (1, -2)  # 1/(1-qt)


def test_empty_disjoint_is_one():
    assert zeta_of(Disjoint(())) == ZetaProduct()


def test_glue_is_structural_product():
    Z, U = Point(2), Curve(2, (1, 0, 2))
    assert zeta_of(Glue(Z, U)) == multiply(zeta_of(Z), zeta_of(U))


def test_proj_equals_cellular():
    for r in (0, 1, 2, 3):
        assert zeta_of(Proj(r, Point(3))) == zeta_of(Cellular(Point(3), tuple(range(r + 1))))
        for n in (-1, -2):
            assert weil_order_data(Proj(r, Point(3)), n) == weil_order_data(
                Cellular(Point(3), tuple(range(r + 1))), n
            )


def test_number_ring_zeta():
    z = zeta_of(NumberRing(QI))
    assert len(z.char_zero) == 2 and not z.finite_char
    v = evaluate_at(z, -1)
    assert v.order == 1


def test_weil_order_data_point():
    data = weil_order_data(Point(3), -2)
    assert data.graded == {1: 8}
    assert data.chi_mult == Fraction(1, 8)


def test_weil_order_data_nodal_cubic():
    data = weil_order_data(nodal_cubic(2), -1)
    assert data.graded is None  # gluings keep only chi
    assert data.chi_mult == Fraction(1, 3)
    # the paper-style graded answer (3, 1, 1) in degrees (-1, 0, 1) is
    # consistent with the propagated chi: 3^-1 * 1 * 1^-1 = 1/3
    assert Fraction(1, 3) == Fraction(1, 3) * 1 * 1


def test_weil_order_data_curve():
    data = weil_order_data(Curve(2, (1, 0, 2)), -1)
    assert data.graded == {-1: 3, 0: 9, 1: 1}
    assert data.chi_mult == Fraction(3)


def test_weil_order_data_affine_shift():
    base = weil_order_data(Point(2), -2)  # graded {1: q^2-1}
    twisted = weil_order_data(Affine(1, Point(2)), -1)
    assert twisted.graded == {i - 2: v for i, v in base.graded.items()}
    assert twisted.chi_mult == base.chi_mult


def test_weil_order_data_proj_line():
    data = weil_order_data(Proj(1, Point(2)), -1)
    assert data.graded == {-1: 2 ** 2 - 1, 1: 2 - 1}
    assert data.chi_mult == Fraction(1, 3)


def test_weil_order_data_rejects_number_rings():
    with pytest.raises(CharZeroAtomError):
        weil_order_data(Disjoint((Point(2), NumberRing(Q))), -1)


def test_special_value_matches_chi_mult():
    # |zeta(X, n)| = chi_x for the finite-characteristic corpus
    exprs = [
        Point(2),
        Point(4, 2),
        Curve(2, (1, 0, 2)),
        Proj(2, Point(3)),
        nodal_cubic(2),
        Affine(2, Curve(3, (1, -3, 3))),
        Disjoint((Point(2), Proj(1, Point(2)))),
    ]
    for e in exprs:
        for n in (-1, -2, -3):
            v = evaluate_at(zeta_of(e), n)
            assert abs(v.exact) == weil_order_data(e, n).chi_mult, (e, n)


def test_weil_data_multiplicative_over_operations():
    a, b = Point(2), Curve(2, (1, 2, 2))
    for n in (-1, -2):
        da, db = weil_order_data(a, n), weil_order_data(b, n)
        assert weil_order_data(Disjoint((a, b)), n).chi_mult == da.chi_mult * db.chi_mult
        assert weil_order_data(Glue(a, b), n).chi_mult == da.chi_mult * db.chi_mult
        assert weil_order_data(Minus(b, a), n).chi_mult == db.chi_mult / da.chi_mult


def test_validate():
    diags = validate(Curve(2, (2, 1)))
    assert any(d["severity"] == "error" and "constant term" in d["message"] for d in diags)
    assert validate(Point(5)) == []
    diags = validate(Minus(Point(2), Curve(2, (1, 0, 2))))
    assert any(d["severity"] == "warning" and "not verified" in d["message"] for d in diags)


def test_validate_places_each_diagnostic_by_its_offset_in_the_print():
    e = Disjoint((Point(3), Glue(Curve(2, (2, 1)), Minus(Point(2), Point(2)))))
    printed = format_expr(e)
    assert printed == "(disjoint (point 3) (glue (curve 2 (2 1)) (minus (point 2) (point 2))))"
    diags = validate(e)
    assert [(d["severity"], d["where"]) for d in diags] == [
        ("warning", "glue at position 20"),
        ("error", "curve at position 26"),
        ("warning", "minus at position 42"),
    ]
    for d in diags:
        head, at = d["where"].split(" at position ")
        assert printed[int(at) :].startswith("(" + head + " ")


def test_validate_output_is_linear_in_depth():
    # each diagnostic names a head and an offset, not its printed subtree
    e = Point(2)
    for _ in range(2000):
        e = Glue(e, Point(2))
    diags = validate(e)
    assert len(diags) == 2000 and diags[-1]["where"] == "glue at position 11994"
    assert sum(len(d["where"]) for d in diags) < 50_000


def test_constructor_validation():
    with pytest.raises(NotPrimePowerError):
        Point(6)
    with pytest.raises(ValueError):
        Point(2, 0)
    with pytest.raises(ValueError):
        Cellular(Point(2), ())
    with pytest.raises(ValueError):
        Affine(-1, Point(2))


def test_base_bookkeeping():
    e = Disjoint((Point(2), Affine(1, Point(4)), NumberRing(Q)))
    assert base_prime_powers(e) == {2, 4}
    assert not is_finite_characteristic(e)
    assert is_finite_characteristic(Point(9))


def test_format_round_trip_examples():
    assert format_expr(Point(2)) == "(point 2)"
    assert format_expr(Point(2, 3)) == "(point 2 3)"
    assert format_expr(Curve(2, (1, 0, 2))) == "(curve 2 (1 0 2))"
    assert format_expr(NumberRing(Q)) == "(Q)"
    assert format_expr(NumberRing(QI)) == "(Qi)"
    assert (
        format_expr(nodal_cubic(2))
        == "(glue (point 2) (minus (affine 1 (point 2)) (point 2)))"
    )


@given(st.lists(st.integers(-5, 5), max_size=12), st.integers(0, 20))
def test_a_proj_weight_is_a_window_sum(weight, r):
    # P^r over a base weighs it by 1 + L + ... + L^r, written in one pass
    assert poly.window_sum(weight, r) == poly.mul(weight, [1] * (r + 1))
