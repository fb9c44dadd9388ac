"""Generators for random complexes with known torsion cohomology, and the
constructions the tests build inputs with.

Strategy: assemble a direct sum of two-term complexes [Z --k--> Z] and,
optionally, free modules Z with zero differentials (so the cohomology and m
are known by construction), then scramble by unimodular basis changes,
accepting an operation only while all differential entries stay within the
requested bound.  Basis changes leave cohomology untouched, so the split
model remains the ground truth.

A chain map A -> B is a dict degree -> IntMatrix of f^i: A^i -> B^i (absent
degrees are zero); `cone` builds its mapping cone.
"""

from __future__ import annotations

from fractions import Fraction

from zetaforge.detcomplex import BoundedFreeComplex
from zetaforge.intlinalg import IntMatrix


def two_term(k, lower_degree=-1):
    """[Z --k--> Z] in degrees (lower_degree, lower_degree + 1)."""
    return BoundedFreeComplex(
        {lower_degree: 1, lower_degree + 1: 1},
        {lower_degree: IntMatrix.from_rows([[k]])},
    )


def _blocks(top_left, top_right, bottom_left, bottom_right):
    """The block matrix [[top_left, top_right], [bottom_left, bottom_right]]
    as rows; blocks in one row share their row count."""
    top = [a + b for a, b in zip(top_left.to_rows(), top_right.to_rows())]
    bottom = [a + b for a, b in zip(bottom_left.to_rows(), bottom_right.to_rows())]
    return IntMatrix(
        top_left.rows + bottom_left.rows,
        top_left.cols + top_right.cols,
        tuple(x for row in top + bottom for x in row),
    )


def direct_sum(A, B):
    degrees = set(A.degrees()) | set(B.degrees())
    diffs, zero = {}, IntMatrix.zero
    for i in degrees:
        dA, dB = A.differential(i), B.differential(i)
        diffs[i] = _blocks(dA, zero(dA.rows, dB.cols), zero(dB.rows, dA.cols), dB)
    return BoundedFreeComplex({i: A.rank(i) + B.rank(i) for i in degrees}, diffs)


def commutes(A, B, components):
    """d_B f^i = f^(i+1) d_A in every degree."""
    def f(i):
        return components.get(i, IntMatrix.zero(B.rank(i), A.rank(i)))

    return all(
        B.differential(i) @ f(i) == f(i + 1) @ A.differential(i)
        for i in set(A.degrees()) | set(B.degrees())
    )


def cone(A, B, components):
    """Cone(f)^i = B^i (+) A^(i+1), fitting in A -> B -> Cone(f) -> A[1],
    with differential [[d_B, f^(i+1)], [0, -d_A]]."""
    assert commutes(A, B, components)
    degrees = {j - 1 for j in A.degrees()} | set(B.degrees())
    diffs = {}
    for i in degrees:
        dB, dA = B.differential(i), A.differential(i + 1)
        f = components.get(i + 1, IntMatrix.zero(B.rank(i + 1), A.rank(i + 1)))
        minus_dA = IntMatrix(dA.rows, dA.cols, tuple(-x for x in dA.entries))
        diffs[i] = _blocks(dB, f, IntMatrix.zero(dA.rows, dB.cols), minus_dA)
    return BoundedFreeComplex({i: B.rank(i) + A.rank(i + 1) for i in degrees}, diffs)


def complex_to_json_dict(C):
    """The on-disk complex format that `complex_from_json_dict` reads."""
    return {
        "ranks": {str(i): C.rank(i) for i in C.degrees()},
        "differentials": {
            str(i): C.differential(i).to_rows()
            for i in C.degrees()
            if not C.differential(i).is_zero
        },
    }


class _Mutable:
    """Complex under construction: dict of list-of-list differentials."""

    def __init__(self, ranks, diffs):
        self.ranks = dict(ranks)
        self.diffs = diffs  # degree -> list of lists (rank(i+1) x rank(i))

    def matrices(self, degree):
        """(incoming, outgoing) differentials touching `degree`."""
        return self.diffs.get(degree - 1), self.diffs.get(degree)

    def freeze(self):
        return BoundedFreeComplex(
            {i: r for i, r in self.ranks.items() if r},
            {i: IntMatrix.from_rows(m) for i, m in self.diffs.items() if m},
        )


def _split_complex(rng, max_summands=4, degree_lo=-3, degree_hi=3, max_rank=4, bound=6, free=0):
    ranks = {}
    slots = {}
    summands = []
    for _ in range(rng.randint(1, max_summands)):
        d = rng.randint(degree_lo, degree_hi - 1)
        if ranks.get(d, 0) >= max_rank or ranks.get(d + 1, 0) >= max_rank:
            continue
        k = rng.choice([x for x in range(-bound, bound + 1) if x != 0])
        src = slots.setdefault(d, 0)
        slots[d] += 1
        tgt = slots.setdefault(d + 1, 0)
        slots[d + 1] += 1
        ranks[d] = ranks.get(d, 0) + 1
        ranks[d + 1] = ranks.get(d + 1, 0) + 1
        summands.append((d, k, src, tgt))
    if not summands:
        d, k = 0, rng.choice([2, 3, 4, 5])
        ranks = {0: 1, 1: 1}
        summands = [(d, k, 0, 0)]
    for _ in range(free):  # zero rows / columns of the differentials, added below
        d = rng.randint(degree_lo, degree_hi)
        if ranks.get(d, 0) < max_rank:
            ranks[d] = ranks.get(d, 0) + 1
    diffs = {}
    for d, k, src, tgt in summands:
        m = diffs.setdefault(d, None)
        if m is None:
            diffs[d] = [[0] * ranks.get(d, 0) for _ in range(ranks.get(d + 1, 0))]
        diffs[d][tgt][src] = k
    m_value = Fraction(1)
    for d, k, _, _ in summands:
        m_value *= Fraction(abs(k)) ** (-1 if (d + 1) % 2 else 1)
    return _Mutable(ranks, diffs), summands, m_value


def _within(mat, bound):
    return mat is None or all(abs(x) <= bound for row in mat for x in row)


def _basis_ops(rng, cx, chain_components=None, rounds=30, bound=6):
    """Random unimodular basis changes; `chain_components` (if given) maps
    degree -> mutable matrix of a chain map out of / into this complex,
    tagged ('src', f) or ('tgt', f)."""
    role, comps = chain_components or (None, {})
    for _ in range(rounds):
        candidates = [i for i, r in cx.ranks.items() if r >= 1]
        if not candidates:
            return
        i = rng.choice(candidates)
        r = cx.ranks[i]
        op = rng.choice(["swap", "neg", "add"] if r >= 2 else ["neg"])
        incoming, outgoing = cx.matrices(i)
        f_i = comps.get(i)
        if op == "add":
            a, b = rng.sample(range(r), 2)
            k = rng.choice([-1, 1])
            new_in = None
            if incoming is not None:
                new_in = [row[:] for row in incoming]
                new_in[a] = [x + k * y for x, y in zip(new_in[a], new_in[b])]
            new_out = None
            if outgoing is not None:
                new_out = [row[:] for row in outgoing]
                for row in new_out:
                    row[b] -= k * row[a]
            if not (_within(new_in, bound) and _within(new_out, bound)):
                continue
            if incoming is not None:
                cx.diffs[i - 1] = new_in
            if outgoing is not None:
                cx.diffs[i] = new_out
            if f_i is not None:
                if role == "src":  # f_i: this -> other, transform f_i E^{-1}
                    for row in f_i:
                        row[b] -= k * row[a]
                else:  # f_i: other -> this, transform E f_i
                    f_i[a] = [x + k * y for x, y in zip(f_i[a], f_i[b])]
        elif op == "swap":
            a, b = rng.sample(range(r), 2)
            if incoming is not None:
                incoming[a], incoming[b] = incoming[b], incoming[a]
            if outgoing is not None:
                for row in outgoing:
                    row[a], row[b] = row[b], row[a]
            if f_i is not None:
                if role == "src":
                    for row in f_i:
                        row[a], row[b] = row[b], row[a]
                else:
                    f_i[a], f_i[b] = f_i[b], f_i[a]
        else:
            a = rng.randrange(r)
            if incoming is not None:
                incoming[a] = [-x for x in incoming[a]]
            if outgoing is not None:
                for row in outgoing:
                    row[a] = -row[a]
            if f_i is not None:
                if role == "src":
                    for row in f_i:
                        row[a] = -row[a]
                else:
                    f_i[a] = [-x for x in f_i[a]]


def random_torsion_complex_with_m(rng, **kwargs):
    """(complex, m) with m known from the split model."""
    cx, _, m = _split_complex(rng, **kwargs)
    _basis_ops(rng, cx)
    return cx.freeze(), m


def random_torsion_complex(rng, **kwargs):
    return random_torsion_complex_with_m(rng, **kwargs)[0]


def random_complex_with_groups(rng, free=3, **kwargs):
    """(complex, {degree: (rank, cyclic orders)}) from the split model.

    Up to `free` free summands Z sit in random degrees; each [Z --k--> Z]
    from degree d adds Z/|k| to H^(d+1) (nothing when |k| = 1).
    """
    cx, summands, _ = _split_complex(rng, free=rng.randint(0, free), **kwargs)
    groups = {i: [r, []] for i, r in cx.ranks.items()}
    for d, k, _, _ in summands:
        groups[d][0] -= 1
        groups[d + 1][0] -= 1
        if abs(k) >= 2:
            groups[d + 1][1].append(abs(k))
    _basis_ops(rng, cx)
    return cx.freeze(), {i: (r, orders) for i, (r, orders) in groups.items()}


def random_chain_map(rng, A, B, entry_bound=2):
    """Null-homotopic chain map A -> B: f = d_B h + h d_A always commutes."""
    degrees = sorted(set(A.degrees()) | set(B.degrees()))
    h = {}
    for i in degrees:
        rows, cols = B.rank(i - 1), A.rank(i)
        if rows and cols:
            h[i] = IntMatrix(
                rows, cols, tuple(rng.randint(-entry_bound, entry_bound) for _ in range(rows * cols))
            )
    components = {}
    for i in degrees:
        rows, cols = B.rank(i), A.rank(i)
        if rows == 0 or cols == 0:
            continue
        h_i = h.get(i, IntMatrix.zero(B.rank(i - 1), A.rank(i)))
        h_next = h.get(i + 1, IntMatrix.zero(B.rank(i), A.rank(i + 1)))
        f = B.differential(i - 1) @ h_i
        g = h_next @ A.differential(i)
        components[i] = IntMatrix(rows, cols, tuple(x + y for x, y in zip(f.entries, g.entries)))
    return components


def random_chain_scenario(rng, bound=6):
    """(A, B, f, m_a, m_b) with f a typically non-null-homotopic chain map.

    A and B start split; matched summand pairs in the same degrees get
    multiplication components (t*a/g, t*b/g), which commute by hand.  Basis
    scrambles then transform the differentials and f together.
    """
    from math import gcd

    ax, a_summands, m_a = _split_complex(rng)
    bx, b_summands, m_b = _split_complex(rng)
    comps = {}

    def bump(i, row, col, value):
        m = comps.setdefault(
            i, [[0] * ax.ranks.get(i, 0) for _ in range(bx.ranks.get(i, 0))]
        )
        m[row][col] += value

    for d_a, a, src_a, tgt_a in a_summands:
        for d_b, b, src_b, tgt_b in b_summands:
            if d_a == d_b and rng.random() < 0.6:
                t = rng.randint(-2, 2)
                g = gcd(abs(a), abs(b))
                bump(d_a, src_b, src_a, (a // g) * t)
                bump(d_a + 1, tgt_b, tgt_a, (b // g) * t)
    _basis_ops(rng, ax, chain_components=("src", comps))
    _basis_ops(rng, bx, chain_components=("tgt", comps))
    A, B = ax.freeze(), bx.freeze()
    components = {
        i: IntMatrix.from_rows(m) for i, m in comps.items() if m and m[0] if any(any(row) for row in m)
    }
    assert commutes(A, B, components)
    return A, B, components, m_a, m_b
