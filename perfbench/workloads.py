"""Seeded op lists for the three workloads.

Each generator returns the op list of one pass: a list of dicts with the
CLI argv (`argv`), any input files to write (`files`: relative path ->
text), the scaling axes of the op (`axes`) and whatever the independent
check needs (`check`).  The same seed gives the same list.

The lists are stratified: every pass has the same slots (conductor band,
field kind, weight parity, precision; series order and expression size;
complex rank and length), and the seed picks within a slot.  That keeps the
cost of a pass nearly independent of the seed, so medians from different
seeds are comparable.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import isqrt, log10

from . import oracle

WORKLOADS = ("numfield_values", "mixed_batch", "snf_complexes")

# ---------------------------------------------------------------------------
# numfield_values: `value` on (numberring :conductor f :subgroup H)

ANCHOR = {"kind": "full", "f": 61, "n": -2, "precision": 50}

ODD = (-1, -3, -5)
EVEN = (-2, -4, -6)
ANY = ODD + EVEN

# (kind, conductor choices, weights, precision, largest index [G:H]).
# kind: full (H = 1), real (H = {+-1}), midreal / midcplx (H cyclic of
# index >= 3, with / without -1).  The slots form three cost bands below
# the anchor (about 0.05 s, 0.2 s and 0.35 s per op on a 2-core machine).
# With two passes the median op lies in the middle of the 0.2 s band and
# the tail percentile in the middle of the 0.35 s band, so neither sits on
# the steep edge between bands; choices within a slot cost about the same.
# The full-field slots at n = -2, precision 50 and the anchor make the
# conductor scaling curve.
NUMFIELD_SLOTS = (
    # low band
    ("midreal", (31, 37, 41, 43), ODD, 50, 4),
    ("midreal", (31, 37, 41, 43), ODD, 50, 4),
    ("midreal", (61, 67), ODD, 30, 4),
    ("midreal", (45, 49, 63), ODD, 100, 6),
    ("full", (16, 20, 24), ANY, 30, 0),
    ("full", (16, 20, 24), ANY, 30, 0),
    ("real", (21, 28, 36), EVEN, 30, 0),
    ("real", (15, 20, 24), EVEN, 100, 0),
    # middle band: choices kept within about 20 % of each other
    ("full", (11, 13), (-2,), 50, 0),
    ("full", (21, 28), (-2,), 50, 0),
    ("midreal", (41, 43), EVEN, 50, 4),
    ("midreal", (41, 43), EVEN, 50, 4),
    ("midcplx", (53,), ODD, 50, 4),
    ("midcplx", (43,), ODD, 50, 6),
    ("real", (37, 41), (-1, -3), 50, 0),
    ("real", (37, 41), (-1, -3), 50, 0),
    ("real", (17, 19), EVEN, 30, 0),
    ("real", (17, 19), EVEN, 30, 0),
    ("midreal", (61, 67), EVEN, 30, 3),
    ("midreal", (61, 67), EVEN, 30, 3),
    ("full", (11,), ODD, 100, 0),
    ("real", (43,), (-1, -3), 100, 0),
    # upper band
    ("full", (19,), (-2,), 50, 0),
    ("full", (25,), (-2,), 50, 0),
    ("full", (13,), ODD, 100, 0),
    ("full", (13,), ODD, 100, 0),
    ("real", (53,), ODD, 50, 0),
    ("real", (53,), ODD, 50, 0),
    ("real", (61,), (-1, -3), 50, 0),
    ("real", (43,), (-3, -5), 50, 0),
)


def _subgroup_generators(rng: random.Random, kind: str, f: int, max_index: int) -> list[int]:
    if kind == "full":
        return [1]
    if kind == "real":
        return [f - 1]
    phi = len(oracle.units(f))
    candidates = []
    for g in oracle.units(f):
        for gens in ([g], [g, f - 1]):
            H = oracle.subgroup_closure(f, gens)
            if not 3 <= phi // len(H) <= max_index or ((f - 1) in H) != (kind == "midreal"):
                continue
            if sorted(gens) not in candidates:
                candidates.append(sorted(gens))
    return rng.choice(candidates)


def numfield_ops(seed: int) -> list[dict]:
    rng = random.Random(f"numfield_values/{seed}")
    specs = [dict(ANCHOR, gens=[1], anchor=True)]
    for kind, conductors, weights, precision, max_index in NUMFIELD_SLOTS:
        f = rng.choice(conductors)
        specs.append(
            {
                "kind": kind,
                "f": f,
                "n": rng.choice(weights),
                "precision": precision,
                "gens": _subgroup_generators(rng, kind, f, max_index),
                "anchor": False,
            }
        )
    rng.shuffle(specs)
    ops = []
    for spec in specs:
        f, n, precision = spec["f"], spec["n"], spec["precision"]
        subgroup = sorted(oracle.subgroup_closure(f, spec["gens"]))
        gens = " ".join(str(g) for g in spec["gens"])
        expr = f"(numberring :conductor {f} :subgroup ({gens}))"
        index = len(oracle.units(f)) // len(subgroup)
        ops.append(
            {
                "argv": ["value", expr, "-n", str(n), "--precision", str(precision), "--format", "json"],
                "files": {},
                "anchor": spec["anchor"],
                "axes": {"f": f, "kind": spec["kind"], "index": index, "abs_n": -n, "precision": precision},
                "check": {"f": f, "subgroup": subgroup, "n": n, "precision": precision},
            }
        )
    return ops


# ---------------------------------------------------------------------------
# mixed_batch: `batch` on manifests of finite-characteristic expressions
# with a minority of number rings

# one base per group in each manifest
BASE_GROUPS = ((2, 3), (4, 5), (7, 8, 9), (11, 13))
# Series orders K of the manifests of one pass: twelve at low K and nine at
# high K.  The trace-formula check costs about (expression nodes) x K^2, so
# manifests above K = 30 hold fewer entries and smaller expressions (see
# `manifest_shape`); a high-K manifest then costs about 1.5 times a low-K
# one.  With two passes the median op falls among the low-K manifests and
# the tail percentile in the middle of the high-K ones.
SERIES_ORDERS = (10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 22, 35, 40, 45, 55, 65, 80, 100, 125, 150)
ENTRIES_PER_MANIFEST = 72
NUMBER_RING_SHARE = 0.1
REPEATED_SHARE = 0.11
MAX_NODES = 150
# Bundle ranks summed along any root-to-atom path.  proj and cellular
# multiply the number of zeta factors, so this also bounds their blow-up.
BUNDLE_BUDGET = 3
# Reported numbers (special values, series coefficients) stay below this
# many decimal digits: the program cannot print integers of more than
# 4300 digits (Python's int-to-str limit) and would crash.
DIGIT_LIMIT = 2500
WEIGHTS = 12  # mass tables cover weights -0 .. -11


class _Expr:
    """Expression text with the generator's own model of it.

    counts[k] is #X(F_{q^k}) for k = 0..K; mass[w] bounds the decimal digits
    of the exact special value at n = -w; graded is false once a gluing or
    complement is involved; factors counts the atom factors of the zeta
    function (bundles repeat their base), a proxy for the work it costs.
    """

    def __init__(self, text, nodes, counts, atoms, graded, mass, factors=1):
        self.text = text
        self.nodes = nodes
        self.counts = counts
        self.atoms = atoms
        self.graded = graded
        self.mass = mass
        self.factors = factors


def _curve_atom(rng: random.Random, q: int, K: int) -> _Expr:
    """A curve with a nonnegative number of closed points of each degree <= K.

    Random Weil-bounded traces alone can give negative point counts (the
    program then fails), and a curve missing the closed points of some
    degree would make `minus` of such a point impossible.
    """
    bound = isqrt(4 * q)  # |a| <= 2 sqrt(q)
    while True:
        genus = rng.choice((1, 1, 2, 2, 3))
        traces = [rng.randint(-bound, bound) for _ in range(genus)]
        counts = oracle.curve_counts(q, traces, K)
        if all(oracle.closed_points_of_degree(counts, m) >= 0 for m in range(1, K + 1)):
            break
    coeffs = " ".join(str(c) for c in oracle.lpoly_from_traces(q, traces))
    text = f"(curve {q} ({coeffs}))"
    mass = [((2 * genus + 2) * w + 2) * log10(q) + 1 for w in range(WEIGHTS)]
    return _Expr(text, 1, counts, frozenset([text]), True, mass)


def _point_atom(q: int, m: int, K: int) -> _Expr:
    text = f"(point {q})" if m == 1 else f"(point {q} {m})"
    counts = [m if k % m == 0 else 0 for k in range(K + 1)]
    mass = [m * w * log10(q) + 1 for w in range(WEIGHTS)]
    return _Expr(text, 1, counts, frozenset([text]), True, mass)


def _shifted_mass(base: _Expr, ranks) -> list[float]:
    return [
        sum(base.mass[w + r] if w + r < WEIGHTS else float("inf") for r in ranks)
        for w in range(WEIGHTS)
    ]


def _bundle(base: _Expr, q: int, text: str, ranks) -> _Expr:
    """Strata A^r_base for r in ranks (affine, proj and cellular alike)."""
    counts = [sum(q ** (r * k) for r in ranks) * c for k, c in enumerate(base.counts)]
    return _Expr(
        text, 1 + base.nodes, counts, base.atoms, base.graded, _shifted_mass(base, ranks), base.factors * len(ranks)
    )


def _union(op: str, kids: list[_Expr], counts=None) -> _Expr:
    """disjoint, glue or minus of `kids`; minus passes its own counts."""
    return _Expr(
        f"({op} {' '.join(k.text for k in kids)})",
        1 + sum(k.nodes for k in kids),
        counts or [sum(c) for c in zip(*(k.counts for k in kids))],
        frozenset().union(*(k.atoms for k in kids)),
        op == "disjoint" and all(k.graded for k in kids),
        [sum(m) for m in zip(*(k.mass for k in kids))],
        sum(k.factors for k in kids),
    )


def _build(rng: random.Random, pool: list[_Expr], q: int, size: int, budget: int) -> _Expr:
    """A random expression over base q with about `size` nodes.

    Bundle ranks along any path add at most `budget`.
    """
    if size <= 1:
        return rng.choice(pool)
    op = rng.choice(("disjoint", "disjoint", "glue", "affine", "proj", "cellular", "minus"))
    if op in ("disjoint", "glue") and size >= 3:
        arity = 2 if op == "glue" else rng.randint(2, min(4, size - 1))
        cuts = sorted(rng.sample(range(1, size - 1), arity - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [size - 1])]
        return _union(op, [_build(rng, pool, q, s, budget) for s in sizes])
    if op == "minus":
        return _minus(rng, pool, q, size, budget)
    if op == "proj":
        r = rng.randint(min(1, budget), min(2, budget))
        base = _build(rng, pool, q, size - 1, budget - r)
        return _bundle(base, q, f"(proj {r} {base.text})", range(r + 1))
    if op == "cellular":
        ranks = [rng.randint(0, min(2, budget)) for _ in range(rng.randint(1, min(3, budget + 1)))]
        base = _build(rng, pool, q, size - 1, budget - max(max(ranks), len(ranks) - 1))
        text = f"(cellular {base.text} ({' '.join(str(r) for r in ranks)}))"
        return _bundle(base, q, text, ranks)
    r = rng.randint(0, min(2, budget))
    base = _build(rng, pool, q, size - 1, budget - r)
    return _bundle(base, q, f"(affine {r} {base.text})", [r])


def _minus(rng: random.Random, pool: list[_Expr], q: int, size: int, budget: int) -> _Expr:
    """X - Z for a closed Z that X really contains."""
    form = rng.choice(("component", "hyperplane", "point"))
    if form == "point":
        options = [
            (c, m)
            for c in pool
            if c.text.startswith("(curve")
            for m in (1, 2, 3)
            if oracle.closed_points_of_degree(c.counts, m) >= 1
        ]
        if options:
            c, m = rng.choice(options)
            point = _point_atom(q, m, len(c.counts) - 1)
            counts = [a - b for a, b in zip(c.counts, point.counts)]
            return _union("minus", [c, point], counts=counts)
    if form == "hyperplane" and size >= 5 and budget >= 1:
        # P^r_B minus the hyperplane P^(r-1)_B at infinity leaves A^r_B
        r = rng.randint(1, min(2, budget))
        base = _build(rng, pool, q, max(1, (size - 3) // 2), budget - r)
        big = _bundle(base, q, f"(proj {r} {base.text})", range(r + 1))
        small = _bundle(base, q, f"(proj {r - 1} {base.text})", range(r)) if r > 1 else base
        return _union("minus", [big, small], counts=_bundle(base, q, "", [r]).counts)
    keep = _build(rng, pool, q, max(1, (size - 2) // 2), budget)
    drop = _build(rng, pool, q, max(1, size - 3 - keep.nodes), budget)
    return _union("minus", [_union("disjoint", [keep, drop]), drop], counts=keep.counts)


def _number_ring_entry(rng: random.Random) -> tuple[str, dict]:
    f = rng.choice((5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21, 24, 25, 27, 28, 29))
    gens = rng.choice(([1], [f - 1], [rng.choice(oracle.units(f))]))
    subgroup = sorted(oracle.subgroup_closure(f, gens))
    text = f"(numberring :conductor {f} :subgroup ({' '.join(str(h) for h in subgroup)}))"
    r = rng.choice((0, 0, 0, 1))
    if r:
        text = f"(affine {r} {text})"
    return text, {"f": f, "subgroup": subgroup, "shift": r}


def manifest_shape(K: int) -> tuple[int, int]:
    """(entries, largest node target) of a manifest at series order K."""
    if K <= 30:
        return ENTRIES_PER_MANIFEST, MAX_NODES
    entries = ENTRIES_PER_MANIFEST * 30 / K * min(1.0, (70 / K) ** 0.8)
    return max(8, round(entries)), max(3, round(MAX_NODES * (30 / K) ** 1.5))


def manifest(rng: random.Random, K: int) -> tuple[list[dict], list[dict]]:
    """(manifest entries, per-entry check data) for one batch op."""
    count, max_nodes = manifest_shape(K)
    rings = round(count * NUMBER_RING_SHARE)
    repeats = round(count * REPEATED_SHARE)
    finite = count - rings - repeats
    # node targets on a fixed skewed grid: mostly small, a few up to max_nodes
    targets = [max(1, round(max_nodes ** (((i + 0.5) / finite) ** 5))) for i in range(finite)]
    rng.shuffle(targets)
    pools: dict[int, list[_Expr]] = {}
    for group in BASE_GROUPS:
        q = rng.choice(group)
        curves = [_curve_atom(rng, q, K) for _ in range(3)]
        pools[q] = curves + [_point_atom(q, rng.choice((1, 2, 3, 4)), K) for _ in range(2)]
    # every base and weight gets the same share of the entries
    bases = [sorted(pools)[i % len(pools)] for i in range(finite)]
    weights = [-1 - i % 4 for i in range(finite)]
    rng.shuffle(bases)
    rng.shuffle(weights)
    entries, checks = [], []
    for size, q, n in zip(targets, bases, weights):
        # series coefficients have about dim * K * log10(q) digits
        budget = min(BUNDLE_BUDGET, int(DIGIT_LIMIT / (K * log10(q))) - 1)
        # of three candidates, keep the one whose work is closest to its size
        while True:
            options = [_build(rng, pools[q], q, size, budget) for _ in range(3)]
            options = [e for e in options if e.mass[-n] <= DIGIT_LIMIT]
            if options:
                break
            size = max(1, size * 3 // 4)
        e = min(options, key=lambda c: abs(c.factors - size))
        entries.append({"expr": e.text, "n": n})
        checks.append(
            {"kind": "finite", "counts": e.counts, "nodes": e.nodes, "atoms": sorted(e.atoms), "graded": e.graded}
        )
    for _ in range(rings):
        text, data = _number_ring_entry(rng)
        entries.append({"expr": text, "n": rng.randint(-4, -1)})
        checks.append(dict(data, kind="numberring", nodes=2 if data["shift"] else 1, atoms=[]))
    for _ in range(repeats):
        i = rng.randrange(len(entries))
        n = rng.choice([m for m in range(-4, 0) if m != entries[i]["n"]])
        entries.append({"expr": entries[i]["expr"], "n": n})
        checks.append(checks[i])
    order = list(range(len(entries)))
    rng.shuffle(order)
    return [entries[i] for i in order], [checks[i] for i in order]


def repeated_atom_share(checks: list[dict]) -> float:
    """Share of entries that use an atom an earlier entry already used."""
    seen: set = set()
    repeats = 0
    for c in checks:
        atoms = set(c["atoms"])
        if atoms & seen:
            repeats += 1
        seen |= atoms
    return repeats / len(checks)


def mixed_ops(seed: int, workdir: str) -> list[dict]:
    rng = random.Random(f"mixed_batch/{seed}")
    ops = []
    for i, K in enumerate(SERIES_ORDERS):
        entries, checks = manifest(rng, K)
        path = f"{workdir}/manifest-{i:02d}.json"
        ops.append(
            {
                "argv": ["batch", "--manifest", path, "--series-order", str(K), "--format", "json"],
                "files": {path: json.dumps(entries)},
                "anchor": False,
                "axes": {
                    "K": K,
                    "nodes": sum(c["nodes"] for c in checks),
                    "max_nodes": max(c["nodes"] for c in checks),
                },
                "check": {"K": K, "entries": entries, "checks": checks},
            }
        )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# snf_complexes: `det` on scrambled split complexes

SNF_RANKS = (10, 14, 18, 22, 26, 30, 34, 38, 42, 46, 50)
ENTRY_BOUND = 9
# each pass holds this many complexes per (terms, rank) slot
SNF_REPEATS = 10


def split_complex(rng: random.Random, terms: int, total_rank: int, lo: int):
    """Ranks, differentials and summands of a direct sum of [Z --k--> Z]."""
    pieces = total_rank // 2
    if terms == 2:
        counts = [pieces]
    else:
        first = rng.randint(pieces // 3, pieces - pieces // 3)
        counts = [first, pieces - first]
    ranks = {}
    summands = []  # (source degree, k, source slot, target slot)
    for j, count in enumerate(counts):
        d = lo + j
        for _ in range(count):
            k = rng.choice([x for x in range(-ENTRY_BOUND, ENTRY_BOUND + 1) if x != 0])
            src, tgt = ranks.get(d, 0), ranks.get(d + 1, 0)
            ranks[d], ranks[d + 1] = src + 1, tgt + 1
            summands.append((d, k, src, tgt))
    diffs = {d: [[0] * ranks[d] for _ in range(ranks[d + 1])] for d in range(lo, lo + terms - 1)}
    for d, k, src, tgt in summands:
        diffs[d][tgt][src] = k
    return ranks, diffs, summands


def scramble(rng: random.Random, ranks: dict, diffs: dict, rounds: int):
    """Unimodular basis changes, kept only while every entry stays within bound."""
    for _ in range(rounds):
        i = rng.choice(sorted(ranks))
        r = ranks[i]
        incoming, outgoing = diffs.get(i - 1), diffs.get(i)
        op = rng.choice(("swap", "neg", "add", "add", "add")) if r >= 2 else "neg"
        if op == "add":
            a, b = rng.sample(range(r), 2)
            k = rng.choice((-1, 1))
            # basis e_b -> e_b - k e_a: row a of incoming += k row b; column b of outgoing -= k column a
            if incoming is not None:
                new = [x + k * y for x, y in zip(incoming[a], incoming[b])]
                if any(abs(x) > ENTRY_BOUND for x in new):
                    continue
            if outgoing is not None:
                col = [row[b] - k * row[a] for row in outgoing]
                if any(abs(x) > ENTRY_BOUND for x in col):
                    continue
            if incoming is not None:
                incoming[a] = new
            if outgoing is not None:
                for row, x in zip(outgoing, col):
                    row[b] = x
        elif op == "swap":
            a, b = rng.sample(range(r), 2)
            if incoming is not None:
                incoming[a], incoming[b] = incoming[b], incoming[a]
            if outgoing is not None:
                for row in outgoing:
                    row[a], row[b] = row[b], row[a]
        else:
            a = rng.randrange(r)
            if incoming is not None:
                incoming[a] = [-x for x in incoming[a]]
            if outgoing is not None:
                for row in outgoing:
                    row[a] = -row[a]


def split_model(ranks: dict, summands) -> dict:
    """Expected `det` report fields from the split model."""
    lo, hi = min(ranks), max(ranks)
    torsion = {i: [] for i in range(lo, hi + 1)}
    for d, k, _, _ in summands:
        if abs(k) >= 2:
            torsion[d + 1].append(abs(k))
    cohomology, m = {}, Fraction(1)
    for i in range(lo, hi + 1):
        factors = oracle.invariant_factors(torsion[i])
        order = 1
        for t in factors:
            order *= t
        m *= Fraction(order) ** (1 if i % 2 == 0 else -1)
        cohomology[str(i)] = {"rank": 0, "torsion": factors, "group": oracle.group_string(0, factors)}
    grade = sum((1 if i % 2 == 0 else -1) * r for i, r in ranks.items())
    return {"grade": grade, "ideal": str(1 / m), "cohomology": cohomology}


def snf_ops(seed: int, workdir: str) -> list[dict]:
    rng = random.Random(f"snf_complexes/{seed}")
    ops = []
    for repeat in range(SNF_REPEATS):
        for terms, base_rank in [(t, r) for t in (2, 3) for r in SNF_RANKS]:
            total = base_rank + 2 * rng.randint(-1, 1)
            lo = rng.randint(-2, 1)
            ranks, diffs, summands = split_complex(rng, terms, total, lo)
            scramble(rng, ranks, diffs, rounds=2 * total * total)
            path = f"{workdir}/complex-{repeat}-{terms}-{base_rank:02d}.json"
            data = {
                "ranks": {str(i): r for i, r in sorted(ranks.items())},
                "differentials": {str(i): m for i, m in sorted(diffs.items())},
            }
            ops.append(
                {
                    "argv": ["det", path, "--format", "json"],
                    "files": {path: json.dumps(data)},
                    "anchor": False,
                    "axes": {"rank": sum(ranks.values()), "terms": terms},
                    "check": split_model(ranks, summands),
                }
            )
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int, workdir: str) -> list[dict]:
    if workload == "numfield_values":
        return numfield_ops(seed)
    if workload == "mixed_batch":
        return mixed_ops(seed, workdir)
    if workload == "snf_complexes":
        return snf_ops(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
