"""Laws of the normal form sum c * [atom] * L^r, checked on every fold."""

import ast
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zetaforge.archimedean import equivariant_dims
from zetaforge.errors import (
    CharZeroAtomError,
    ExprSyntaxError,
    NotPrimePowerError,
    ZetaforgeError,
)
from zetaforge.ffengine import point_count
from zetaforge.lfunctions import Q, QI, AbelianFieldSpec
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
    normalize,
    parse_expr,
    validate,
    weil_order_data,
    zeta_of,
)
from zetaforge.zetarep import ZetaProduct

from oracles import structurally_equal

SRC = Path(__file__).resolve().parent.parent / "src" / "zetaforge"

# atoms over the single base F_2 whose L-polynomials obey the Weil bounds,
# so no order datum vanishes at any n < 0
FINITE_ATOMS = [
    Point(2),
    Point(2, 2),
    Point(2, 3),
    Curve(2, (1,)),
    Curve(2, (1, 0, 2)),
    Curve(2, (1, 1, 2)),
    Curve(2, (1, -2, 2)),
]
NUMBER_RINGS = [NumberRing(Q), NumberRing(QI), NumberRing(AbelianFieldSpec(5, (1,)))]
WEIGHTS = (-1, -2)
LAWS = settings(deadline=None, max_examples=30)


def expressions(atoms):
    small = st.integers(0, 2)
    return st.recursive(
        st.sampled_from(atoms),
        lambda kids: st.one_of(
            st.lists(kids, max_size=3).map(lambda parts: Disjoint(tuple(parts))),
            st.tuples(kids, kids).map(lambda pair: Glue(*pair)),
            st.tuples(kids, kids).map(lambda pair: Minus(*pair)),
            st.tuples(small, kids).map(lambda pair: Affine(*pair)),
            st.tuples(small, kids).map(lambda pair: Proj(*pair)),
            st.tuples(kids, st.lists(small, min_size=1, max_size=3)).map(
                lambda pair: Cellular(pair[0], tuple(pair[1]))
            ),
        ),
        max_leaves=8,
    )


finite = expressions(FINITE_ATOMS)
anywhere = expressions(FINITE_ATOMS + NUMBER_RINGS)


def outcome(f, *args):
    try:
        return f(*args)
    except ZetaforgeError as exc:
        return exc.code


def finite_invariants(e, graded=True):
    """Every finite-characteristic fold; graded orders only when asked."""
    out = [zeta_of(e), base_prime_powers(e)]
    for n in WEIGHTS:
        data = weil_order_data(e, n)
        out += [data.chi_mult, data.graded if graded else None]
    out += [outcome(point_count, e, k) for k in (1, 2, 3)]
    return out


def archimedean_invariants(e, graded=True):
    """The folds that accept number rings; dimension tables when asked."""
    out = [zeta_of(e), is_finite_characteristic(e)]
    for n in WEIGHTS:
        dims, chi = equivariant_dims(e, n)
        out += [chi, dims if graded else None]
    return out


@LAWS
@given(finite, finite)
def test_glue_is_disjoint_union_finite(a, b):
    assert finite_invariants(Glue(a, b), graded=False) == finite_invariants(
        Disjoint((a, b)), graded=False
    )


@LAWS
@given(anywhere, anywhere)
def test_glue_is_disjoint_union_archimedean(a, b):
    assert archimedean_invariants(Glue(a, b), graded=False) == archimedean_invariants(
        Disjoint((a, b)), graded=False
    )


@LAWS
@given(finite, finite)
def test_minus_cancels_disjoint_part_finite(a, b):
    assume(base_prime_powers(a))  # point counts need a base field
    x = Minus(Disjoint((a, b)), b)
    assert zeta_of(x) == zeta_of(a)
    for n in WEIGHTS:
        assert weil_order_data(x, n).chi_mult == weil_order_data(a, n).chi_mult
    for k in (1, 2, 3):
        assert outcome(point_count, x, k) == outcome(point_count, a, k)


@LAWS
@given(anywhere, anywhere)
def test_minus_cancels_disjoint_part_archimedean(a, b):
    x = Minus(Disjoint((a, b)), b)
    assert zeta_of(x) == zeta_of(a)
    for n in WEIGHTS:
        assert equivariant_dims(x, n)[1] == equivariant_dims(a, n)[1]


@LAWS
@given(anywhere)
def test_equivariant_dims_are_dimensions_with_chi_their_euler_characteristic(e):
    # a graded normal form has positive coefficients (bundles only add
    # weight), so its table holds positive dimensions whose alternating sum
    # is chi; a gluing or complement keeps chi alone
    for n in WEIGHTS:
        dims, chi = equivariant_dims(e, n)
        if normalize(e).graded:
            assert all(d > 0 for d in dims.values())
            assert sum((-1) ** (i % 2) * d for i, d in dims.items()) == chi
        else:
            assert dims is None


@LAWS
@given(st.integers(0, 3), st.integers(0, 3), finite)
def test_affine_ranks_add_finite(i, j, x):
    assert finite_invariants(Affine(i, Affine(j, x))) == finite_invariants(Affine(i + j, x))


@LAWS
@given(st.integers(0, 3), st.integers(0, 3), anywhere)
def test_affine_ranks_add_archimedean(i, j, x):
    assert archimedean_invariants(Affine(i, Affine(j, x))) == archimedean_invariants(
        Affine(i + j, x)
    )


@LAWS
@given(st.integers(0, 3), finite)
def test_proj_is_cellular_finite(r, x):
    assert finite_invariants(Proj(r, x)) == finite_invariants(Cellular(x, tuple(range(r + 1))))


@LAWS
@given(st.integers(0, 3), anywhere)
def test_proj_is_cellular_archimedean(r, x):
    assert archimedean_invariants(Proj(r, x)) == archimedean_invariants(
        Cellular(x, tuple(range(r + 1)))
    )


@LAWS
@given(anywhere)
def test_parse_inverts_format(e):
    assert parse_expr(format_expr(e)) == e


# ---------------------------------------------------------------------------
# the zero-term rule


def test_cancelled_terms_are_kept():
    e = parse_expr("(minus (point 2) (point 2))")
    assert normalize(e).terms == {(Point(2), 0): 0}
    assert base_prime_powers(e) == {2}
    assert zeta_of(e) == ZetaProduct()


def test_cancelled_number_ring_is_still_char_zero():
    e = parse_expr("(minus (Q) (Q))")
    assert not is_finite_characteristic(e)
    with pytest.raises(CharZeroAtomError) as info:
        weil_order_data(e, -1)
    assert info.value.code == "char-zero-atom"


def test_atoms_are_built_once_in_order_of_first_occurrence():
    e = parse_expr("(disjoint (affine 1 (point 3)) (curve 2 (1 0 2)) (point 3) (minus (Q) (Q)))")
    assert normalize(e).atoms == (Point(3), Curve(2, (1, 0, 2)), NumberRing(Q))


def test_proj_weight_is_one_plus_L_to_the_r():
    assert normalize(Proj(2, Affine(1, Point(3)))) == (
        {(Point(3), 1): 1, (Point(3), 2): 1, (Point(3), 3): 1},
        True,
        (Point(3),),
    )
    assert normalize(Cellular(Point(3), (0, 2, 2))).terms == {(Point(3), 0): 1, (Point(3), 2): 2}
    assert normalize(Glue(Point(3), Point(3))) == ({(Point(3), 0): 2}, False, (Point(3),))


# ---------------------------------------------------------------------------
# depth


def deep_expression(depth=10**4):
    e = Point(2)
    for i in range(depth):
        e = (Disjoint((e,)), Affine(0, e), Glue(e, Disjoint(())))[i % 3]
    return e


def test_folds_accept_deep_expressions():
    e = deep_expression()
    assert [(str(f), k) for f, k in zeta_of(e).factors] == [("[q=2] (1)/(1 - t)", 1)]
    assert weil_order_data(e, -2).chi_mult == weil_order_data(Point(2), -2).chi_mult
    assert [point_count(e, k) for k in (1, 2, 3)] == [1, 1, 1]
    assert equivariant_dims(e, -1)[1] == 0
    assert base_prime_powers(e) == {2}
    assert format_expr(parse_expr(format_expr(e))) == format_expr(e)


def test_deep_expressions_compare_hash_and_print():
    # the default recursion limit stays in force
    assert sys.getrecursionlimit() <= 10**4
    a, b = deep_expression(), deep_expression()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != deep_expression(10**4 - 1) and a != Affine(0, a)
    assert repr(a).startswith("Disjoint(parts=(Glue(closed=Affine(r=0, base=Disjoint(parts=(")
    assert repr(a).count("Point(q=2, m=1)") == 1


def test_composite_nodes_keep_dataclass_equality_hash_and_repr():
    e = Disjoint((Cellular(Point(3), (0, 2)), Proj(1, Minus(Point(2), Point(2, 2)))))
    assert repr(e) == (
        "Disjoint(parts=(Cellular(base=Point(q=3, m=1), ranks=(0, 2)), "
        "Proj(r=1, base=Minus(total=Point(q=2, m=1), closed=Point(q=2, m=2)))))"
    )
    assert repr(Disjoint((Point(2),))) == "Disjoint(parts=(Point(q=2, m=1),))"
    assert repr(Disjoint(())) == "Disjoint(parts=())"
    assert Affine(1, Point(2)) != Affine(2, Point(2)) and Proj(1, Point(2)) != Affine(1, Point(2))
    assert Cellular(Point(2), (0, 1)) != Cellular(Point(2), (1, 0))
    assert Disjoint((Point(2),)) != Disjoint((Point(2), Point(2)))
    assert Glue(Point(2), Point(3)) != Minus(Point(2), Point(3))
    assert len({e, Disjoint(tuple(e.parts)), Disjoint(e.parts[::-1])}) == 2


@settings(deadline=None, max_examples=60)
@given(anywhere, anywhere)
def test_equal_expressions_hash_equal(a, b):
    # equality is the canonical print; the oracle compares fields instead
    assert (a == b) == structurally_equal(a, b)
    copy = parse_expr(format_expr(a))
    assert structurally_equal(a, copy) and a == copy and hash(a) == hash(copy)
    if a == b:
        assert hash(a) == hash(b)


def test_parse_builds_each_node_before_reading_later_siblings():
    # the walk is lazy: (point 6) is built, and fails, before (foo) is read
    with pytest.raises(NotPrimePowerError):
        parse_expr("(disjoint (point 6) (foo))")
    with pytest.raises(ExprSyntaxError):
        parse_expr("(disjoint (point 5) (foo))")


@LAWS
@given(anywhere)
def test_validate_points_into_the_print(e):
    printed = format_expr(e)
    diags = validate(e)
    for d in diags:
        head, at = d["where"].split(" at position ")
        assert printed[int(at) :].startswith(f"({head} ")
    assert len(diags) == printed.count("(glue ") + printed.count("(minus ")


# ---------------------------------------------------------------------------
# guards


TYPED_ERROR_MODULES = (
    "archimedean.py",
    "detcomplex.py",
    "intlinalg.py",
    "lfunctions.py",
    "scheme_algebra.py",
    "zetarep.py",
)


def _raises(node, name: str) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == name


def _library_nodes():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_no_assert_statements_in_library():
    # `python -O` strips asserts, so invariant guards must raise typed errors;
    # the listed layers raise ZetaforgeErrors, never a bare ValueError, and no
    # module raises the base class, whose code `error` the CLI does not document
    offenders = [
        f"{name}:{node.lineno}"
        for name, node in _library_nodes()
        if isinstance(node, ast.Assert)
        or (name in TYPED_ERROR_MODULES and _raises(node, "ValueError"))
        or _raises(node, "ZetaforgeError")
    ]
    assert not offenders


ENVIRONMENT_READS = ("environ", "environb", "getenv", "getenvb")


def test_library_reads_no_environment():
    # every setting is a parameter or a command-line option
    offenders = [
        f"{name}:{node.lineno}"
        for name, node in _library_nodes()
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS)
        or (isinstance(node, ast.alias) and node.name in ENVIRONMENT_READS)
    ]
    assert not offenders
