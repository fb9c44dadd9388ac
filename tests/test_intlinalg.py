import hashlib
import json
import random
import time
from math import prod
from pathlib import Path

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaforge.errors import InfiniteGroupError, InvalidArgumentError
from zetaforge.intlinalg import (
    FinGenAbGroup,
    IntMatrix,
    cokernel,
    factorize,
    group_order,
    is_prime,
    prime_power_base,
    rational_valuation,
    smith_normal_form,
)

from oracles import (
    brute_cokernel_order_and_exponent,
    determinantal_invariant_factors,
    invariant_factors,
    prime_powers_below,
)


def snf_is_valid(A, dec):
    if (dec.U @ dec.S @ dec.V).entries != A.entries:
        return False
    if abs(dec.U.determinant()) != 1 or abs(dec.V.determinant()) != 1:
        return False
    diag = dec.diagonal
    if any(d < 0 for d in diag):
        return False
    nonzero = [d for d in diag if d != 0]
    if list(diag[: len(nonzero)]) != nonzero:  # zeros must trail
        return False
    return all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


def test_snf_identity():
    A = IntMatrix.from_rows([[1, 0], [0, 1]])
    dec = smith_normal_form(A)
    assert dec.diagonal == (1, 1)
    assert snf_is_valid(A, dec)


def test_snf_2x2_invariant_factors():
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    dec = smith_normal_form(A)
    assert dec.diagonal == (2, 4)
    assert snf_is_valid(A, dec)
    # brute-force oracle: Z^2/col-span enumerated mod 8 is Z/2 + Z/4
    order, exponent = brute_cokernel_order_and_exponent([[2, 4], [6, 8]], 8)
    assert (order, exponent) == (8, 4)


def test_snf_zero_matrix():
    A = IntMatrix.from_rows([[0]])
    dec = smith_normal_form(A)
    assert dec.diagonal == (0,)
    assert snf_is_valid(A, dec)


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        A = IntMatrix.zero(rows, cols)
        dec = smith_normal_form(A)
        assert snf_is_valid(A, dec)
        assert dec.rank == 0


def test_snf_random_postconditions():
    rng = random.Random(20240817)
    for _ in range(300):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        A = IntMatrix(
            rows, cols, tuple(rng.randint(-9, 9) for _ in range(rows * cols))
        )
        assert snf_is_valid(A, smith_normal_form(A))
    # tall shapes reduce the transpose; small entries need non-unit pivots,
    # 30-digit ones long runs of remainders
    for k in range(40):
        short, long = rng.randint(0, 12), rng.randint(0, 30)
        rows, cols = (long, short) if k % 2 else (short, long)
        bound = 10**30 if k % 4 >= 2 else 9
        A = IntMatrix(rows, cols, tuple(rng.randint(-bound, bound) for _ in range(rows * cols)))
        assert snf_is_valid(A, smith_normal_form(A))


@st.composite
def small_matrices(draw):
    """Up to 4 x 6 or 6 x 4, each entry small times a common scale (so that
    invariant factors above 1 are common) or up to 10**30."""
    short, long = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    rows, cols = (long, short) if draw(st.booleans()) else (short, long)
    scale = draw(st.sampled_from((1, 6, 10**29)))
    entry = st.integers(-9, 9).map(lambda x: x * scale) | st.integers(-(10**30), 10**30)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)), cols


@settings(deadline=None, max_examples=150)
@given(small_matrices())
def test_snf_invariant_factors_are_the_determinantal_divisors(case):
    rows, cols = case
    A = IntMatrix(len(rows), cols, tuple(x for row in rows for x in row))
    assert smith_normal_form(A).invariant_factors == determinantal_invariant_factors(rows)


# sha256 of json.dumps([U.to_rows(), V.to_rows()]) for each differential of
# the det goldens, as the step-log replay built them: the tracked rerun must
# give the same transforms, square and wide and tall (rank50's -1 is 25 x 12)
GOLDEN_TRANSFORMS = {
    ("det_three_term_input", "-1"): "6266f9af22827111eec89d4ac98e0f1a46483a339dfef239231782c21be6316a",
    ("det_three_term_input", "0"): "9a7593dbc808024c0fdf95c40702e1265a5547d7f3078b0cefa6d66912610f2e",
    ("det_rank50_input", "-1"): "c5eb47917bcb8105cb0fb17fde2f3620f22813c62ad2e962e05199ad8bee00f7",
    ("det_rank50_input", "0"): "dc3dde1133c086014a26e1d03688464b8006528b9e6340dc9ea3625d66b99a32",
}


@pytest.mark.parametrize("name, degree", sorted(GOLDEN_TRANSFORMS))
def test_transforms_of_the_golden_differentials_are_pinned(name, degree):
    data = json.loads((Path(__file__).parent / "golden" / f"{name}.json").read_text())
    A = IntMatrix.from_rows(data["differentials"][degree])
    dec = smith_normal_form(A)
    assert snf_is_valid(A, dec)
    text = json.dumps([dec.U.to_rows(), dec.V.to_rows()])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_TRANSFORMS[name, degree]


def _unimodular(draw, n):
    """An n x n integer matrix of determinant +-1: the identity under random
    row additions R_i += k*R_j (i != j), each perhaps followed by a swap."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    steps = draw(st.integers(0, 3 * n)) if n > 1 else 0
    for _ in range(steps):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        k = draw(st.integers(-2, 2))
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        if draw(st.booleans()):
            m[i], m[j] = m[j], m[i]
    return IntMatrix(n, n, tuple(x for row in m for x in row))


@st.composite
def scrambled_diagonals(draw):
    """(P * diag(d) * Q, d) for a rows x cols diagonal d, P and Q unimodular."""
    rows, cols = draw(st.integers(0, 24)), draw(st.integers(0, 24))
    d = draw(st.lists(st.integers(0, 12), min_size=min(rows, cols), max_size=min(rows, cols)))
    D = IntMatrix(rows, cols, tuple(d[i] if i == j else 0 for i in range(rows) for j in range(cols)))
    return _unimodular(draw, rows) @ D @ _unimodular(draw, cols), d


@settings(deadline=None, max_examples=40)
@given(scrambled_diagonals())
def test_snf_of_scrambled_diagonal(case):
    # wide, tall and square, and the zero matrix when d is all zero
    A, d = case
    dec = smith_normal_form(A)
    assert snf_is_valid(A, dec)  # U*S*V = A, |det U| = |det V| = 1, the chain
    nonzero = [x for x in d if x]
    torsion = invariant_factors(nonzero)
    factors = (1,) * (len(nonzero) - len(torsion)) + torsion
    assert dec.invariant_factors == factors and dec.rank == len(nonzero)
    # the record holds the factors alone: the diagonal and S are read off them
    assert dec.diagonal == factors + (0,) * (len(d) - len(nonzero))
    assert dec.S == IntMatrix(A.rows, A.cols, tuple(dec.diagonal[i] if i == j else 0 for i in range(A.rows) for j in range(A.cols)))


def test_cokernel_examples():
    assert cokernel(IntMatrix.from_rows([[3]])) == FinGenAbGroup(0, (3,))
    # oracle: residues mod 3
    order, exponent = brute_cokernel_order_and_exponent([[3]], 3)
    assert (order, exponent) == (3, 3)
    assert cokernel(IntMatrix.from_rows([[1]])) == FinGenAbGroup(0, ())
    assert cokernel(IntMatrix.from_rows([[2, 0], [0, 0]])) == FinGenAbGroup(1, (2,))


def test_cokernel_invariant_under_elementary_ops():
    rng = random.Random(99)
    base = [[2, 4, 0], [6, 8, 2], [0, 4, 4]]
    expected = cokernel(IntMatrix.from_rows(base))
    for _ in range(40):
        m = [row[:] for row in base]
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(["rswap", "cswap", "radd", "cadd", "rneg"])
            i, j = rng.sample(range(3), 2)
            k = rng.randint(-3, 3)
            if kind == "rswap":
                m[i], m[j] = m[j], m[i]
            elif kind == "cswap":
                for row in m:
                    row[i], row[j] = row[j], row[i]
            elif kind == "radd":
                m[i] = [a + k * b for a, b in zip(m[i], m[j])]
            elif kind == "cadd":
                for row in m:
                    row[i] += k * row[j]
            else:
                m[i] = [-a for a in m[i]]
        assert cokernel(IntMatrix.from_rows(m)) == expected


def test_cokernel_order_equals_det():
    rng = random.Random(4242)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 4)
        A = IntMatrix(n, n, tuple(rng.randint(-6, 6) for _ in range(n * n)))
        det = A.determinant()
        if det == 0:
            continue
        assert group_order(cokernel(A)) == abs(det)
        checked += 1


def test_group_order():
    assert group_order(FinGenAbGroup(0, (2, 4))) == 8
    assert group_order(FinGenAbGroup(0, ())) == 1
    with pytest.raises(InfiniteGroupError):
        group_order(FinGenAbGroup(1, (3,)))


def test_invariant_factor_chain_enforced():
    with pytest.raises(ValueError):
        FinGenAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FinGenAbGroup(0, (1,))


def test_rational_valuation():
    assert rational_valuation(Fraction(-1, 8), 2) == -3
    assert rational_valuation(6, 3) == 1
    assert rational_valuation(Fraction(35, 18), 5) == 1  # 35 = 5*7, 18 has no 5
    with pytest.raises(ValueError):
        rational_valuation(0, 2)
    with pytest.raises(ValueError):
        rational_valuation(Fraction(1, 2), 4)


def test_rational_valuation_additive():
    rng = random.Random(7)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7])
        x = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        y = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        assert rational_valuation(x * y, p) == rational_valuation(x, p) + rational_valuation(y, p)


def test_prime_helpers():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_power_base(8) == (2, 3)
    assert prime_power_base(9) == (3, 2)
    assert prime_power_base(5) == (5, 1)
    assert prime_power_base(6) is None
    assert prime_power_base(1) is None


def test_factorization_matches_brute_force():
    primes = [p for p in range(2, 3000) if all(p % d for d in range(2, p))]
    powers = {p**k: (p, k) for p in primes for k in range(1, 12) if p**k < 3000}
    for n in range(1, 3000):
        factors = factorize(n)
        assert [p for p, _ in factors] == [p for p in primes if n % p == 0]
        assert prod(p**e for p, e in factors) == n
        assert is_prime(n) == (powers.get(n, (0, 0))[1] == 1)
        assert prime_power_base(n) == powers.get(n)


def test_primality_matches_the_sieve():
    powers = prime_powers_below(2 * 10**5)
    try:
        for n in range(2 * 10**5):
            assert is_prime(n) == (powers.get(n, (0, 0))[1] == 1), n
            assert prime_power_base(n) == powers.get(n), n
    finally:
        is_prime.cache_clear()
        prime_power_base.cache_clear()


# the least strong pseudoprimes to the prime bases up to 37 and up to 41
# (Sorenson and Webster 2017)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_primality_of_large_inputs_is_fast():
    p = 10**18 + 3
    start = time.perf_counter()
    assert is_prime(p) and prime_power_base(p) == (p, 1)
    assert prime_power_base(p**3) == (p, 3) and prime_power_base(p * 1000003) is None
    assert not is_prime(PSI_12) and prime_power_base(PSI_12) is None
    # a Carmichael number that every base passes unless 1 must come after -1
    assert not is_prime(43 * 211 * 337)
    assert not is_prime(2**89 + 1) and is_prime(2**61 - 1)
    # at or above the bound, a small prime factor still decides
    assert not is_prime(2 * PSI_13) and prime_power_base(2**200) == (2, 200)
    assert prime_power_base(3**150 * 5) is None
    assert time.perf_counter() - start < 1
    with pytest.raises(InvalidArgumentError):
        is_prime(PSI_13)
    with pytest.raises(InvalidArgumentError):
        prime_power_base(PSI_13)


def test_prime_power_base_takes_roots_of_prime_degree_only():
    # a composite exponent is reached through exact roots of prime degree
    assert prime_power_base(47**210) == (47, 210)
    assert prime_power_base((10**18 + 3) ** 6) == (10**18 + 3, 6)
    assert prime_power_base(47**6 * 53**6) is None
    # no prime factor up to 41 and no exact root: primality decides, and
    # above the Miller-Rabin bound it cannot
    start = time.perf_counter()
    with pytest.raises(InvalidArgumentError) as raised:
        prime_power_base(43**999 * 47)
    assert time.perf_counter() - start < 1
    assert raised.value.code == "invalid-argument"
