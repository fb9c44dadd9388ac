from zetaforge.archimedean import equivariant_dims, vanishing_order_conjectural
from zetaforge.lfunctions import Q, QI, AbelianFieldSpec
from zetaforge.scheme_algebra import (
    Affine,
    Curve,
    Disjoint,
    Glue,
    Minus,
    NumberRing,
    Point,
    zeta_of,
)
from zetaforge.zetarep import vanishing_order


def test_finite_char_atoms_have_no_complex_points():
    for e in (Point(5), Curve(2, (1, 0, 2))):
        assert equivariant_dims(e, -1) == equivariant_dims(e, -2) == ({}, 0)
        assert vanishing_order_conjectural(e, -1) == 0
        assert vanishing_order_conjectural(e, -2) == 0


def test_number_ring_dims():
    assert equivariant_dims(NumberRing(QI), -1) == ({0: 1}, 1)  # r2 = 1 at odd n
    assert equivariant_dims(NumberRing(QI), -2) == ({0: 1}, 1)  # r1 + r2 = 1 at even n
    assert equivariant_dims(NumberRing(Q), -1) == ({}, 0)
    assert equivariant_dims(NumberRing(Q), -2) == ({0: 1}, 1)


def test_affine_twist_shifts_dims():
    # base is (Q, n = -2), even case r1 + r2 = 1, shifted into degree 2
    assert equivariant_dims(Affine(1, NumberRing(Q)), -1) == ({2: 1}, 1)
    assert vanishing_order_conjectural(Affine(1, NumberRing(Q)), -1) == 1


def test_vanishing_orders():
    assert vanishing_order_conjectural(NumberRing(Q), -2) == 1
    assert vanishing_order_conjectural(Point(7, 2), -3) == 0
    assert vanishing_order_conjectural(Disjoint((NumberRing(QI), Point(2))), -3) == 1


def test_glue_degrades_to_euler_only():
    e = Glue(NumberRing(Q), NumberRing(QI))
    assert equivariant_dims(e, -1) == (None, 0 + 1)
    assert equivariant_dims(e, -2) == (None, 1 + 1)


def test_additivity_over_glue_and_minus():
    a, b = NumberRing(QI), NumberRing(Q)
    for n in (-1, -2):
        assert vanishing_order_conjectural(
            Glue(a, b), n
        ) == vanishing_order_conjectural(a, n) + vanishing_order_conjectural(b, n)
        assert vanishing_order_conjectural(
            Minus(Glue(a, b), a), n
        ) == vanishing_order_conjectural(b, n)


def test_affine_bundle_law():
    for e in (NumberRing(Q), NumberRing(QI), Disjoint((NumberRing(Q), Point(3)))):
        for r in (0, 1, 2):
            for n in (-1, -2):
                assert vanishing_order_conjectural(
                    Affine(r, e), n
                ) == vanishing_order_conjectural(e, n - r)


def test_matches_dedekind_orders():
    fields = [Q, QI, AbelianFieldSpec(5, [4]), AbelianFieldSpec(5, (1,))]
    for F in fields:
        for n in range(-4, 0):
            analytic = vanishing_order(zeta_of(NumberRing(F)), n)
            assert vanishing_order_conjectural(NumberRing(F), n) == analytic

