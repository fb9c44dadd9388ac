import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaforge.archimedean import (
    ELLIPTIC_CURVE_HODGE,
    HodgeData,
    P1_HODGE,
    equivariant_dims,
    gamma_factor_order,
    hodge_equivariant_dims,
    vanishing_order_conjectural,
)
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
from zetaforge.intlinalg import parity_sign
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
    fields = [Q, QI, AbelianFieldSpec.from_generators(5, [4]), AbelianFieldSpec(5, (1,))]
    for F in fields:
        for n in range(-4, 0):
            analytic = vanishing_order(zeta_of(NumberRing(F)), n)
            assert vanishing_order_conjectural(NumberRing(F), n) == analytic


# ---------------------------------------------------------------------------
# Hodge route


def test_elliptic_curve_table():
    assert hodge_equivariant_dims(ELLIPTIC_CURVE_HODGE, -2) == {0: 1, 1: 1}  # (1,1,0)
    assert hodge_equivariant_dims(ELLIPTIC_CURVE_HODGE, -1) == {1: 1, 2: 1}  # (0,1,1)


def test_p1_dims():
    assert hodge_equivariant_dims(P1_HODGE, -2) == {0: 1}  # n even: (1,0,0)
    assert hodge_equivariant_dims(P1_HODGE, -1) == {2: 1}  # n odd: (0,0,1)


def test_gamma_factor_orders():
    assert gamma_factor_order(ELLIPTIC_CURVE_HODGE, -1) == 0
    assert gamma_factor_order(ELLIPTIC_CURVE_HODGE, -2) == 0
    assert gamma_factor_order(P1_HODGE, -1) == 1  # ord_{s=-1} zeta(s) zeta(s-1)
    assert gamma_factor_order(P1_HODGE, -2) == 1


def test_gamma_census_equals_hodge_chi():
    k3_like = HodgeData.make(
        {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 20, (2, 2): 1},
        {0: (1, 0), 1: (11, 9), 2: (1, 0)},
    )
    for H in (P1_HODGE, ELLIPTIC_CURVE_HODGE, k3_like):
        for n in (-1, -2, -3, -4):
            dims = hodge_equivariant_dims(H, n)
            chi = sum((-1) ** (i % 2) * d for i, d in dims.items())
            assert gamma_factor_order(H, n) == chi


def test_hodge_validation():
    with pytest.raises(ValueError, match="symmetry"):
        HodgeData.make({(0, 1): 1}, {})
    with pytest.raises(ValueError, match="h\\{?p,p\\}?|equal"):
        HodgeData.make({(0, 0): 2}, {0: (1, 0)})
    # every p with h^{p,p} > 0 needs its split, and no index is negative
    with pytest.raises(ValueError, match="split"):
        HodgeData.make({(0, 0): 1, (1, 1): 1}, {0: (1, 0)})
    with pytest.raises(ValueError, match="nonnegative"):
        HodgeData.make({(-1, -1): 1}, {-1: (1, 0)})
    with pytest.raises(ValueError, match="nonnegative"):
        HodgeData.make({(-1, 3): 1, (3, -1): 1}, {})
    with pytest.raises(ValueError, match="nonnegative"):
        HodgeData.make({}, {-1: (0, 0)})


def _loop_dims(w: dict, diag: dict, n: int) -> dict:
    """The equivariant dimensions by a walk over every p below each degree."""
    out = {}
    for i in sorted({p + q for p, q in w}):
        total = 0
        if i % 2 == 0:
            plus, minus = diag.get(i // 2, (0, 0))
            total += plus if (n - i // 2) % 2 == 0 else minus
        for p in range(0, (i + 1) // 2):
            if p < i - p:
                total += w.get((p, i - p), 0)
        if total:
            out[i] = total
    return out


def _loop_gamma_order(w: dict, diag: dict, n: int) -> int:
    """The Gamma-factor pole census by the same walk."""
    total = 0
    for i in sorted({p + q for p, q in w}):
        poles = 0
        if i % 2 == 0:
            p = i // 2
            plus, minus = diag.get(p, (0, 0))
            if n - p <= 0 and (n - p) % 2 == 0:
                poles += plus
            if n - p + 1 <= 0 and (n - p + 1) % 2 == 0:
                poles += minus
        for p in range(0, (i + 1) // 2):
            if p < i - p and n - p <= 0:
                poles += w.get((p, i - p), 0)
        total += parity_sign(i) * poles
    return total


@st.composite
def hodge_numbers(draw):
    """(weights, diagonal) with p, q <= 5: h^{p,q} = h^{q,p}, and a split of
    each diagonal h^{p,p}."""
    w, diag = {}, {}
    for p in range(6):
        for q in range(p, 6):
            h = draw(st.integers(0, 3))
            if h and p == q:
                plus = draw(st.integers(0, h))
                diag[p] = (plus, h - plus)
            if h:
                w[p, q] = w[q, p] = h
    return w, diag


@settings(deadline=None, max_examples=300)
@given(hodge_numbers(), st.integers(-6, -1))
def test_hodge_routes_match_the_walk_over_every_degree(numbers, n):
    w, diag = numbers
    H = HodgeData.make(w, diag)
    assert hodge_equivariant_dims(H, n) == _loop_dims(w, diag, n)
    assert gamma_factor_order(H, n) == _loop_gamma_order(w, diag, n)


def test_hodge_routes_take_no_time_in_the_degree():
    # a walk over every p below the degree would never finish here
    K = 10**30
    H = HodgeData.make({(0, K): 1, (K, 0): 1, (K, K): 2}, {K: (1, 1)})
    assert hodge_equivariant_dims(H, -1) == {K: 1, 2 * K: 1}
    assert gamma_factor_order(H, -1) == 2

