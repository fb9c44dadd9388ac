import random
from fractions import Fraction

import pytest

from zetaforge.detcomplex import (
    BoundedFreeComplex,
    cohomology,
    complex_from_json_dict,
    determinant,
    multiplicative_euler_char,
)
from zetaforge.errors import InfiniteCohomologyError, InvalidArgumentError
from zetaforge.intlinalg import FinGenAbGroup, IntMatrix, smith_normal_form

from oracles import invariant_factors, termwise_snf_determinant_ideal
from complex_fixtures import (
    complex_to_json_dict,
    cone,
    direct_sum,
    random_chain_map,
    random_complex_with_groups,
    random_torsion_complex,
    two_term,
)


def test_cohomology_times_two():
    C = two_term(2, lower_degree=0)  # Z --2--> Z in degrees (0, 1)
    assert cohomology(C, 0) == FinGenAbGroup(0, ())
    assert cohomology(C, 1) == FinGenAbGroup(0, (2,))


def test_cohomology_acyclic_and_zero():
    C = two_term(1, lower_degree=0)
    for i in (-1, 0, 1, 2):
        assert cohomology(C, i).is_trivial
    Z = BoundedFreeComplex({}, {})
    assert cohomology(Z, 0).is_trivial


def test_cohomology_rank_bookkeeping():
    # Z^2 --(2 0 / 0 0)--> Z^2: H^0 = ker = Z, H^1 = Z + Z/2
    C = BoundedFreeComplex({0: 2, 1: 2}, {0: IntMatrix.from_rows([[2, 0], [0, 0]])})
    assert cohomology(C, 0) == FinGenAbGroup(1, ())
    assert cohomology(C, 1) == FinGenAbGroup(1, (2,))


def test_cohomology_matches_split_model():
    # every H^i of a scrambled split complex, free summands included, against
    # the group read off the summands before scrambling
    rng = random.Random(4242)
    for _ in range(60):
        C, groups = random_complex_with_groups(rng)
        for i in range(C.lo - 1, C.hi + 2):
            rank, orders = groups.get(i, (0, []))
            assert cohomology(C, i) == FinGenAbGroup(rank, invariant_factors(orders))


def test_chi_from_ranks_equals_chi_from_cohomology():
    rng = random.Random(11)
    for _ in range(30):
        C, _ = random_complex_with_groups(rng)
        chi = sum((-1) ** (i % 2) * H.rank for i, H in C.cohomology_table.items())
        assert chi == sum(((-1) ** (i % 2)) * C.rank(i) for i in C.degrees())


def test_multiplicative_euler_char():
    C = two_term(5)  # degrees (-1, 0): H^0 = Z/5
    assert multiplicative_euler_char(C) == 5
    D = direct_sum(two_term(2, -1), two_term(3, 0))
    assert multiplicative_euler_char(D) == Fraction(2, 3)
    acyclic = two_term(1, 0)
    assert multiplicative_euler_char(acyclic) == 1


def test_multiplicative_euler_char_error_names_degree():
    free = BoundedFreeComplex({2: 1}, {})
    with pytest.raises(InfiniteCohomologyError, match="H\\^2"):
        multiplicative_euler_char(free)


def test_determinant():
    assert determinant(two_term(5)) == (Fraction(1, 5), 0)
    assert determinant(BoundedFreeComplex({0: 1}, {})) == (None, 1)
    D = direct_sum(two_term(2, -1), two_term(3, 0))  # m = 2/3
    assert determinant(D) == (Fraction(3, 2), 0)


def test_mapping_cone_of_identity():
    A = two_term(1, 0)
    one = IntMatrix.from_rows([[1]])
    C = cone(A, A, {0: one, 1: one})
    assert multiplicative_euler_char(C) == 1
    for i in range(-2, 3):
        assert cohomology(C, i).is_trivial


def test_mapping_cone_multiplication_by_six():
    A = BoundedFreeComplex({0: 1}, {})
    C = cone(A, A, {0: IntMatrix.from_rows([[6]])})
    assert cohomology(C, 0) == FinGenAbGroup(0, (6,))
    assert multiplicative_euler_char(C) == 6


def test_quasi_isomorphic_placements():
    # the two placements of the resolution of Z/k give m = k and 1/k
    assert multiplicative_euler_char(two_term(4, -1)) == 4
    assert multiplicative_euler_char(two_term(4, 0)) == Fraction(1, 4)


def test_direct_sum_multiplicativity_and_grades():
    rng = random.Random(5150)
    for _ in range(25):
        A = random_torsion_complex(rng)
        B = random_torsion_complex(rng)
        D = direct_sum(A, B)
        assert multiplicative_euler_char(D) == multiplicative_euler_char(
            A
        ) * multiplicative_euler_char(B)
        assert determinant(D)[1] == determinant(A)[1] + determinant(B)[1]


def test_cone_multiplicativity_random():
    rng = random.Random(31337)
    for _ in range(40):
        A = random_torsion_complex(rng)
        B = random_torsion_complex(rng)
        f = random_chain_map(rng, A, B)
        assert multiplicative_euler_char(cone(A, B, f)) * multiplicative_euler_char(
            A
        ) == multiplicative_euler_char(B)


def test_termwise_route_agrees():
    rng = random.Random(2718)
    for _ in range(40):
        C = random_torsion_complex(rng)
        ideal, _ = determinant(C)
        assert ideal == termwise_snf_determinant_ideal(C, smith_normal_form)


def test_json_round_trip():
    data = {"ranks": {"-1": 1, "0": 1}, "differentials": {"-1": [[5]]}}
    C = complex_from_json_dict(data)
    assert determinant(C) == (Fraction(1, 5), 0)
    assert complex_from_json_dict(complex_to_json_dict(C)) == C


def test_complex_validation():
    with pytest.raises(ValueError, match="shape"):
        BoundedFreeComplex({0: 1, 1: 2}, {0: IntMatrix.from_rows([[1]])})
    with pytest.raises(ValueError, match="d\\^1 o d\\^0"):
        BoundedFreeComplex(
            {0: 1, 1: 1, 2: 1},
            {0: IntMatrix.from_rows([[1]]), 1: IntMatrix.from_rows([[1]])},
        )


def test_json_size_bound():
    # a rank, or a span of degrees, of 2^16 is read; one more is refused
    assert complex_from_json_dict({"ranks": {"0": 1 << 16}}).rank(0) == 1 << 16
    assert complex_from_json_dict({"ranks": {"-1": 1, str((1 << 16) - 1): 1}}).hi == (1 << 16) - 1
    assert complex_from_json_dict({"ranks": {"0": 1, "100000000000": 0}}).hi == 0
    for ranks in ({"0": (1 << 16) + 1}, {"-1": 1, str(1 << 16): 1}):
        with pytest.raises(InvalidArgumentError, match="above 65536"):
            complex_from_json_dict({"ranks": ranks})
