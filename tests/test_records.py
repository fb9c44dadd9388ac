"""The immutable records of every layer: one sample of each type, checked
for immutability, per-type equality, hashing, repr, the constructor's
signature and copying."""

import copy
import pickle
from fractions import Fraction

import pytest

import zetaforge.cli  # noqa: F401  (loads every module that defines a record)
from zetaforge.detcomplex import BoundedFreeComplex
from zetaforge.ffengine import VerificationReport
from zetaforge.intlinalg import FinGenAbGroup, IntMatrix, smith_normal_form
from zetaforge.lfunctions import (
    QI,
    TRIVIAL_CHARACTER,
    AbelianFieldSpec,
    CyclotomicNumber,
    DirichletCharacter,
    SpecialValue,
)
from zetaforge.record import Record
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
    WeilOrderData,
)
from zetaforge.zetarep import FiniteCharFactor, LFactorShifted, RationalFunctionT, ZetaProduct

Z = RationalFunctionT((1,), (1, -2))

# one instance of each record type, and its repr as a frozen dataclass
# prints it
SAMPLES = {
    "CyclotomicNumber": (lambda: CyclotomicNumber(3, (2, 4), 6), "CyclotomicNumber(level=3, num=(1, 2), den=3)"),
    "DirichletCharacter": (
        lambda: DirichletCharacter(5, 4, (None, 0, 1, 3, 2)),
        "DirichletCharacter(modulus=5, order=4, exponents=(None, 0, 1, 3, 2))",
    ),
    "AbelianFieldSpec": (lambda: AbelianFieldSpec(5, (1, 4)), "AbelianFieldSpec(conductor=5, subgroup=(1, 4))"),
    "RationalFunctionT": (lambda: RationalFunctionT((1,), (1, -2)), "RationalFunctionT(num=(1,), den=(1, -2))"),
    "FiniteCharFactor": (
        lambda: FiniteCharFactor(2, Z),
        "FiniteCharFactor(q=2, Z=RationalFunctionT(num=(1,), den=(1, -2)))",
    ),
    "LFactorShifted": (
        lambda: LFactorShifted(TRIVIAL_CHARACTER, 1),
        "LFactorShifted(character=DirichletCharacter(modulus=1, order=1, exponents=(0,)), shift=1)",
    ),
    "ZetaProduct": (
        lambda: ZetaProduct(((FiniteCharFactor(2, Z), 1),)),
        "ZetaProduct(finite_char=((FiniteCharFactor(q=2, Z=RationalFunctionT(num=(1,), den=(1, -2))), 1),), "
        "char_zero=())",
    ),
    "SpecialValue": (
        lambda: SpecialValue(0, Fraction(-1, 12), Fraction(-1, 12), Fraction(1, 10**9)),
        "SpecialValue(order=0, exact=Fraction(-1, 12), numeric=Fraction(-1, 12), error=Fraction(1, 1000000000))",
    ),
    "Point": (lambda: Point(2), "Point(q=2, m=1)"),
    "Curve": (lambda: Curve(3, (1, 0, 3)), "Curve(q=3, lpoly=(1, 0, 3))"),
    "NumberRing": (lambda: NumberRing(QI), "NumberRing(field_spec=AbelianFieldSpec(conductor=4, subgroup=(1,)))"),
    "Disjoint": (lambda: Disjoint((Point(2),)), "Disjoint(parts=(Point(q=2, m=1),))"),
    "Glue": (lambda: Glue(Point(2), Point(3)), "Glue(closed=Point(q=2, m=1), open_part=Point(q=3, m=1))"),
    "Minus": (lambda: Minus(Point(4), Point(2)), "Minus(total=Point(q=4, m=1), closed=Point(q=2, m=1))"),
    "Affine": (lambda: Affine(1, Point(2)), "Affine(r=1, base=Point(q=2, m=1))"),
    "Proj": (lambda: Proj(2, Point(5, 2)), "Proj(r=2, base=Point(q=5, m=2))"),
    "Cellular": (lambda: Cellular(Point(2), (0, 1)), "Cellular(base=Point(q=2, m=1), ranks=(0, 1))"),
    "Evaluation": (lambda: Evaluation(Point(2)), "Evaluation(expr=Point(q=2, m=1))"),
    "IntMatrix": (lambda: IntMatrix(1, 2, (1, 2)), "IntMatrix(rows=1, cols=2, entries=(1, 2))"),
    "SmithDecomposition": (
        lambda: smith_normal_form(IntMatrix(1, 2, (2, 4))),
        "SmithDecomposition(S=IntMatrix(rows=1, cols=2, entries=(2, 0)), A=IntMatrix(rows=1, cols=2, entries=(2, 4)))",
    ),
    "FinGenAbGroup": (lambda: FinGenAbGroup(1, (2,)), "FinGenAbGroup(rank=1, torsion=(2,))"),
    "WeilOrderData": (
        lambda: WeilOrderData({-1: 3, 0: 5, 1: 1}, Fraction(5, 3)),
        "WeilOrderData(graded={-1: 3, 0: 5, 1: 1}, chi_mult=Fraction(5, 3))",
    ),
    "BoundedFreeComplex": (
        lambda: BoundedFreeComplex({-1: 1, 0: 1}, {-1: IntMatrix(1, 1, (5,))}),
        "BoundedFreeComplex(ranks={-1: 1, 0: 1}, differentials={-1: IntMatrix(rows=1, cols=1, entries=(5,))})",
    ),
    "VerificationReport": (
        lambda: VerificationReport("p-part", 0, 0, {"n": -1}),
        "VerificationReport(claim='p-part', left=0, right=0, context={'n': -1})",
    ),
}
# the one record whose equality is identity: the memo of one expression
IDENTITY = {"Evaluation"}


def _record_types(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("zetaforge."):
            yield sub
            yield from _record_types(sub)


def _values(x) -> tuple:
    return tuple(getattr(x, name) for name in x._fields)


def test_every_record_type_has_a_sample():
    # the expression bases declare no field of their own
    assert {cls.__name__ for cls in _record_types() if cls._fields} == set(SAMPLES)


@pytest.mark.parametrize("name", SAMPLES)
def test_fields_cannot_be_assigned_or_deleted(name):
    x = SAMPLES[name][0]()
    before = _values(x)
    for field in (*x._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, field, 0)
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert _values(x) == before


@pytest.mark.parametrize("name", SAMPLES)
def test_a_record_equals_only_its_own_type(name):
    x = SAMPLES[name][0]()
    twin = type("Twin", (Record,), {"__slots__": x._fields, "__module__": __name__})(*_values(x))
    assert _values(twin) == _values(x)
    assert x != twin and twin != x
    assert x != _values(x) and _values(x) != x


@pytest.mark.parametrize("name", SAMPLES)
def test_equal_records_hash_equal(name):
    make = SAMPLES[name][0]
    x, y = make(), make()
    assert x is not y and x == x
    if name in IDENTITY:
        assert x != y and hash(x) == hash(x)
        return
    assert x == y and not x != y
    if _hashable(x):
        assert hash(x) == hash(y)
        if type(x).__hash__ is Record.__hash__:  # a frozen dataclass's hash
            assert hash(x) == hash(_values(x))


def _hashable(x) -> bool:
    """False for the records holding a dict, which cannot be hashed (as a
    tuple holding one cannot)."""
    try:
        hash(_values(x))
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
        return False
    return True


@pytest.mark.parametrize("name", SAMPLES)
def test_repr_is_the_dataclass_repr(name):
    make, text = SAMPLES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", sorted(set(SAMPLES) - IDENTITY))
def test_records_copy_and_pickle(name):
    x = SAMPLES[name][0]()
    assert copy.copy(x) == x and copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x


def test_constructor_takes_positions_keywords_and_defaults():
    assert Point(2) == Point(2, 1) == Point(q=2) == Point(m=1, q=2) == Point(2, m=1)
    assert SpecialValue(order=1, exact=None, numeric=Fraction(1), error=Fraction(0)).order == 1
    for call in (
        lambda: Point(),
        lambda: Point(2, 1, 3),
        lambda: Point(2, k=1),
        lambda: Point(2, q=2),
        lambda: Glue(Point(2)),
        lambda: VerificationReport("claim", 0, 0),
    ):
        with pytest.raises(TypeError):
            call()


def test_post_init_checks_and_normalizes():
    with pytest.raises(Exception, match="residue degree"):
        Point(2, 0)
    assert Disjoint([Point(2)]).parts == (Point(2),)
    assert CyclotomicNumber(1, (6,), -4) == CyclotomicNumber(1, (-3,), 2)
