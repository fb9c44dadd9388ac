"""Expression calculus for desk-computable arithmetic schemes.

Atoms: finite-field points Spec F_{q^m}, smooth projective curves over F_q
given by the numerator L-polynomial of their zeta function, and spectra of
rings of integers of abelian number fields.  Operations: disjoint unions,
closed-open gluings Z u U = X (and the complement X - Z), relative affine
and projective spaces, and cellular assemblies over a base.

Every invariant computed here (the zeta function, chi_mult and graded
orders, equivariant Betti data, base bookkeeping) is a motivic measure:
additive over gluings and complements, multiplicative under affine
bundles, where A^r contributes L^r, and blind to nilpotents.
So `normalize` reduces every expression, with one explicit-stack walk, to
the normal form

    e = sum c * [atom] * L^r,        terms {(atom, r): c}, c an integer,

where P^r over a base weighs it by 1 + L + ... + L^r and a cellular
assembly by sum_j L^{r_j}.  Each invariant is a fold over the terms that
evaluates every distinct atom once: the zeta function of an atom shifted
by s -> s - r and raised to c, its order data at weight n - r, and so on;
`ffengine` counts points by walking the expression itself, so that the
trace formula checks these folds.

The `graded` flag of the normal form is false once any gluing or
complement occurs.  Their long exact sequences determine only Euler
characteristics, never the individual graded groups, so per-degree data
(graded orders, equivariant dimension tables) degrades by design.

Zero-term rule: a term whose coefficient cancels to 0, as in
(minus X X), is kept, and the folds still evaluate its atom.  Base
bookkeeping, the char-zero check and atom-level errors therefore see every
atom written in the expression.

There is no reduction node: every invariant computed here is insensitive
to nilpotents, so an expression always stands for its reduced scheme.

The s-expression parser `parse_expr` and its inverse `format_expr` live
here too.  One lazy walk, `_unfold`, drives the parser, `normalize`, the
printer, `repr` and `validate`; it keeps its own stack, so nesting depth is
bounded by memory, not by the recursion limit.  Composite nodes are equal
exactly when they print the same.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from . import poly
from .errors import ArityError, CharZeroAtomError, ExprSyntaxError, InvalidArgumentError
from .intlinalg import ensure_prime_power, prime_power_base, read_decimal
from .lfunctions import Q, QI, AbelianFieldSpec, SpecialValue
from .record import Record, kept_per_argument
from .zetarep import (
    FiniteCharFactor,
    LFactorShifted,
    RationalFunctionT,
    ZetaProduct,
    evaluate_at,
    shift_s,
    vanishing_order,
)

__all__ = [
    "SchemeExpr",
    "Point",
    "Curve",
    "NumberRing",
    "Disjoint",
    "Glue",
    "Minus",
    "Affine",
    "Proj",
    "Cellular",
    "NormalForm",
    "WeilOrderData",
    "Evaluation",
    "normalize",
    "zeta_of",
    "weil_order_data",
    "validate",
    "parse_expr",
    "format_expr",
    "base_prime_powers",
    "is_finite_characteristic",
]


def _unfold(root, expand):
    """The leaves below `root` in preorder; `expand(item)` lists the items
    directly below `item`, or is None for a leaf.  The walk keeps its own
    stack, so any depth works, and is lazy: an item is expanded only after
    every leaf before it has been consumed."""
    stack = [root]
    while stack:
        item = stack.pop()
        below = expand(item)
        if below is None:
            yield item
        else:
            stack.extend(reversed(below))


class SchemeExpr(Record):
    """Base class for expression nodes; all nodes are immutable records."""

    __slots__ = ()


class _Composite(SchemeExpr):
    """A node with subexpressions.

    Two composites are equal exactly when they print the same, and repr
    walks the tree with `_unfold`, so any depth works; atoms keep the
    record's equality and repr, which do not recurse.
    """

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, SchemeExpr):
            return NotImplemented
        return type(other) is type(self) and format_expr(self) == format_expr(other)

    def __hash__(self):
        return hash(format_expr(self))

    def __repr__(self):
        return "".join(_unfold(self, _repr_pieces))


def _repr_pieces(node) -> list | None:
    """The record repr of one node, `Glue(closed=..., open_part=...)`, as
    strings interleaved with child nodes; None for a string, which is its
    own text."""
    if isinstance(node, str):
        return None
    if not isinstance(node, _Composite):
        return [repr(node)]
    out: list = [f"{type(node).__name__}("]
    for k, field in enumerate(node._fields):
        value = getattr(node, field)
        out.append(f"{', ' if k else ''}{field}=")
        if isinstance(value, SchemeExpr):
            out.append(value)
        elif field == "parts":
            out.append("(")
            for j, child in enumerate(value):
                out += [", ", child] if j else [child]
            out.append(",)" if len(value) == 1 else ")")
        else:
            out.append(repr(value))
    return out + [")"]


class Point(SchemeExpr):
    """Spec F_{q^m} as a scheme over F_q; m is 1 by default."""

    __slots__ = ("q", "m")
    _defaults = {"m": 1}

    def __post_init__(self):
        ensure_prime_power(self.q)
        if self.m < 1:
            raise InvalidArgumentError("residue degree m must be >= 1")


class Curve(SchemeExpr):
    """Smooth projective curve over F_q with Z = P(t)/((1-t)(1-qt)).

    The tuple `lpoly` holds the coefficients of P ascending.  Only a zero
    constant term is refused and validate() flags P(0) != 1; no Weil bound
    is checked, and a value refuses only a zero or pole of Z at t = q^(-n).
    """

    __slots__ = ("q", "lpoly")

    def __post_init__(self):
        ensure_prime_power(self.q)
        if not self.lpoly or self.lpoly[0] == 0:
            raise InvalidArgumentError("L-polynomial needs a nonzero constant term")


class NumberRing(SchemeExpr):
    """Spec O_F for the abelian number field F given by `field_spec`."""

    __slots__ = ("field_spec",)


class Disjoint(_Composite):
    """The disjoint union of the tuple of expressions `parts`."""

    __slots__ = ("parts",)

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


class Glue(_Composite):
    """X assembled from a closed subscheme and its open complement.

    The decomposition is a user assertion; no geometry is verified.
    """

    __slots__ = ("closed", "open_part")


class Minus(_Composite):
    """Open complement U = X - Z of a user-asserted closed embedding."""

    __slots__ = ("total", "closed")


class Affine(_Composite):
    """Relative affine space A^r over the base expression."""

    __slots__ = ("r", "base")

    def __post_init__(self):
        if self.r < 0:
            raise InvalidArgumentError("affine rank must be nonnegative")


class Proj(_Composite):
    """Relative projective space P^r over the base expression."""

    __slots__ = ("r", "base")

    def __post_init__(self):
        if self.r < 0:
            raise InvalidArgumentError("projective rank must be nonnegative")


class Cellular(_Composite):
    """Cellular assembly over the base: strata A^{r_j}_B for the listed ranks."""

    __slots__ = ("base", "ranks")

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(self.ranks))
        if not self.ranks:
            raise InvalidArgumentError("cellular ranks must be nonempty")
        if any(r < 0 for r in self.ranks):
            raise InvalidArgumentError("cellular ranks must be nonnegative")


_ATOMS = (Point, Curve, NumberRing)


# ---------------------------------------------------------------------------
# the normal form


class NormalForm(NamedTuple):
    """e = sum c * [atom] * L^r as terms {(atom, r): c}, in the order the
    atoms first occur; `graded` is false once a gluing or complement occurs,
    and `atoms` are the distinct atoms in order of first occurrence."""

    terms: dict
    graded: bool
    atoms: tuple


# the largest degree written out densely: of Z = 1/(1 - t^m) in t, the
# residue degree m, and of a weight in L, the bundle ranks summed on a path
_MAX_ZETA_DEGREE = 1 << 16


def normalize(e: SchemeExpr) -> NormalForm:
    """The normal form of `e`; each node weighs its subtree by a polynomial
    in L, and zero coefficients that arise by cancellation are kept.  A
    weight of degree above `_MAX_ZETA_DEGREE` is refused before it is
    written out."""
    graded = True

    def check_rank(weight, rank):
        degree = len(weight) - 1 + rank
        if degree > _MAX_ZETA_DEGREE:
            raise InvalidArgumentError(
                f"bundle ranks summing to {degree} are above {_MAX_ZETA_DEGREE}: "
                "the weight in L is too large to write out"
            )

    def below(item):
        """The children of a node, each with its weight; None for an atom."""
        nonlocal graded
        node, weight = item
        if isinstance(node, _ATOMS):
            return None
        if isinstance(node, Disjoint):
            return [(child, weight) for child in node.parts]
        if isinstance(node, Glue):
            graded = False
            return [(node.closed, weight), (node.open_part, weight)]
        if isinstance(node, Minus):
            graded = False
            return [(node.total, weight), (node.closed, [-c for c in weight])]
        if isinstance(node, Affine):
            check_rank(weight, node.r)
            return [(node.base, [0] * node.r + weight)]
        if isinstance(node, Proj):
            check_rank(weight, node.r)
            return [(node.base, poly.window_sum(weight, node.r))]
        if isinstance(node, Cellular):
            check_rank(weight, max(node.ranks))
            cells = [0] * (max(node.ranks) + 1)
            for r in node.ranks:
                cells[r] += 1
            return [(node.base, poly.mul(weight, cells))]
        raise TypeError(f"unknown expression node {type(node).__name__}")

    terms: dict = {}
    for atom, weight in _unfold((e, [1]), below):
        for r, c in enumerate(weight):
            if c:
                terms[atom, r] = terms.get((atom, r), 0) + c
    return NormalForm(terms, graded, tuple(dict.fromkeys(atom for atom, _ in terms)))


# ---------------------------------------------------------------------------
# zeta propagation


# the atoms of one manifest recur across its expressions, so their zeta
# functions and order data are kept per process, and read, never changed;
# the bounds cap what a process keeps (one number ring's zeta function
# holds up to 65520 L-factors)
@lru_cache(maxsize=128)
def _atom_zeta(atom) -> ZetaProduct:
    if isinstance(atom, NumberRing):
        return ZetaProduct((LFactorShifted(chi, 0), 1) for chi in atom.field_spec.characters())
    if isinstance(atom, Point):
        if atom.m > _MAX_ZETA_DEGREE:
            raise InvalidArgumentError(
                f"residue degree {atom.m} is above {_MAX_ZETA_DEGREE}: "
                "its zeta function is too large to write out"
            )
        Z = RationalFunctionT((1,), (1,) + (0,) * (atom.m - 1) + (-1,))
    else:
        Z = RationalFunctionT(atom.lpoly, poly.mul((1, -1), (1, -atom.q)))
    return ZetaProduct([(FiniteCharFactor(atom.q, Z), 1)])


def zeta_of(e) -> ZetaProduct:
    """The zeta function of an expression (or of its Evaluation) as a formal
    product: prod zeta(atom)(s - r)^c over the terms of the normal form."""
    nf = Evaluation.of(e).nf
    atom_zeta = {atom: _atom_zeta(atom) for atom in nf.atoms}
    return ZetaProduct(
        (factor, c * exp)
        for (atom, r), c in nf.terms.items()
        for factor, exp in shift_s(atom_zeta[atom], r).factors
    )


# ---------------------------------------------------------------------------
# finite-characteristic cohomological order data


class WeilOrderData(Record):
    """Per-degree motivic cohomology orders (when determined) and their
    alternating product chi_mult = prod |H^i|^((-1)^i)."""

    __slots__ = ("graded", "chi_mult")

    def __post_init__(self):
        graded = None if self.graded is None else {int(i): int(v) for i, v in self.graded.items()}
        object.__setattr__(self, "graded", graded)
        object.__setattr__(self, "chi_mult", Fraction(self.chi_mult))
        if graded is not None:
            even = odd = 1  # chi_mult = even / odd
            for i, order in graded.items():
                if order < 1:
                    raise InvalidArgumentError("group orders must be positive")
                if i % 2:
                    odd *= order
                else:
                    even *= order
            if even * self.chi_mult.denominator != odd * self.chi_mult.numerator:
                raise InvalidArgumentError("graded orders do not multiply to chi_mult")


@lru_cache(maxsize=256)
def _atom_order_data(atom, n: int) -> WeilOrderData:
    if isinstance(atom, Point):
        order = atom.q ** (-atom.m * n) - 1
        return WeilOrderData({1: order}, Fraction(1, order))
    if isinstance(atom, Curve):
        middle = abs(poly.evaluate(atom.lpoly, atom.q ** (-n)))
        low = atom.q ** (1 - n) - 1
        high = atom.q ** (-n) - 1
        return WeilOrderData({-1: low, 0: middle, 1: high}, Fraction(middle, low * high))
    raise CharZeroAtomError(
        "order data is finite-characteristic only; the expression contains Spec O_F"
    )


def weil_order_data(e, n: int) -> WeilOrderData:
    """Cohomological order data at weight n < 0 for finite-characteristic
    expressions (or their Evaluations).

    A term c * [atom] * L^r contributes the atom's data at weight n - r,
    raised to the c-th power, with degree i moved to degree i - 2r.  Graded
    orders survive only when the normal form is graded.
    """
    if n >= 0:
        raise InvalidArgumentError("order data is defined for strictly negative weights")
    nf = Evaluation.of(e).nf
    graded = {} if nf.graded else None
    chi = Fraction(1)
    for (atom, r), c in nf.terms.items():
        data = _atom_order_data(atom, n - r)
        chi *= data.chi_mult**c
        if graded is not None:
            for i, order in data.graded.items():
                graded[i - 2 * r] = graded.get(i - 2 * r, 1) * order**c
    return WeilOrderData(graded, chi)


# ---------------------------------------------------------------------------
# the evaluation record


class Evaluation(Record):
    """One expression X and everything the checks of it read.

    The expression is normalized once; every other field is the module
    function that computes it (`zeta_of`, `weil_order_data`, `evaluate_at`,
    ...) applied to this record, called on first use and then kept, a field
    at a weight n (`order_data(n)`, `value(n)`, `order(n)`) once per n.  So
    checks of X at any weights normalize once, build one zeta product and
    evaluate it once per weight, in the order they first ask: the first
    error raised is the one the checks would raise one at a time.

    The public functions of this module, `ffengine` and `archimedean` take
    an expression or its Evaluation.
    """

    __slots__ = ("expr", "__dict__")
    # one record per expression: equal only to itself
    __eq__, __hash__ = object.__eq__, object.__hash__

    @classmethod
    def of(cls, e) -> Evaluation:
        """`e` itself when it is an Evaluation, else the Evaluation of e."""
        return e if isinstance(e, Evaluation) else cls(e)

    @cached_property
    def nf(self) -> NormalForm:
        return normalize(self.expr)

    @cached_property
    def printed(self) -> str:
        return format_expr(self.expr)

    @cached_property
    def zeta(self) -> ZetaProduct:
        return zeta_of(self)

    @cached_property
    def bases(self) -> frozenset[int]:
        return frozenset(base_prime_powers(self))

    @cached_property
    def characteristics(self) -> frozenset[int]:
        return frozenset(prime_power_base(q)[0] for q in self.bases)

    @cached_property
    def is_finite_characteristic(self) -> bool:
        return is_finite_characteristic(self)

    @kept_per_argument
    def order_data(self, n: int) -> WeilOrderData:
        return weil_order_data(self, n)

    @kept_per_argument
    def value(self, n: int) -> SpecialValue:
        return evaluate_at(self.zeta, n)

    @kept_per_argument
    def order(self, n: int) -> int:
        """ord_{s=n} zeta(X, s).  A finite-characteristic expression reads it
        off its value; any other takes only the analytic order, because
        leading values of number rings are expensive."""
        if self.is_finite_characteristic:
            return self.value(n).order
        return vanishing_order(self.zeta, n)


# ---------------------------------------------------------------------------
# structural validation


_BAD_CONSTANT_TERM = "curve L-polynomial must have constant term 1"
_ASSERTED = (
    "closed-open decomposition is a user assertion; complement plausibility is not verified"
)


def validate(e: SchemeExpr) -> list[dict]:
    """Structural diagnostics; gluing geometry is flagged, never verified.

    Each one is a dict of its "severity" ("error" or "warning"), its
    "message" and "where": "<head> at position <k>", with k the offset of
    its node in `format_expr(e)`, counted while the walk prints.
    """
    out: list[dict] = []
    at = 0

    def marked(item):
        """A node's pieces after the leaf (node,) that marks where it starts."""
        return None if isinstance(item, (str, tuple)) else [(item,), *_pieces(item)]

    for item in _unfold(e, marked):
        if isinstance(item, str):
            at += len(item)
            continue
        (node,) = item
        if isinstance(node, Curve) and node.lpoly[0] != 1:
            severity, message = "error", _BAD_CONSTANT_TERM
        elif isinstance(node, (Glue, Minus)):
            severity, message = "warning", _ASSERTED
        else:
            continue
        where = f"{type(node).__name__.lower()} at position {at}"
        out.append({"severity": severity, "message": message, "where": where})
    return out


# ---------------------------------------------------------------------------
# canonical printing


def _pieces(e) -> list | None:
    """The printed form of one node, as strings interleaved with child
    nodes; None for a string, which is its own text."""
    if isinstance(e, str):
        return None
    if isinstance(e, Point):
        return [f"(point {e.q})" if e.m == 1 else f"(point {e.q} {e.m})"]
    if isinstance(e, Curve):
        return [f"(curve {e.q} ({' '.join(str(c) for c in e.lpoly)}))"]
    if isinstance(e, NumberRing):
        if e.field_spec == Q:
            return ["(Q)"]
        if e.field_spec == QI:
            return ["(Qi)"]
        subgroup = " ".join(str(a) for a in e.field_spec.subgroup)
        return [f"(numberring :conductor {e.field_spec.conductor} :subgroup ({subgroup}))"]
    if isinstance(e, Disjoint):
        out: list = ["(disjoint"]
        for child in e.parts:
            out += [" ", child]
        return out + [")"]
    if isinstance(e, Glue):
        return ["(glue ", e.closed, " ", e.open_part, ")"]
    if isinstance(e, Minus):
        return ["(minus ", e.total, " ", e.closed, ")"]
    if isinstance(e, Affine):
        return [f"(affine {e.r} ", e.base, ")"]
    if isinstance(e, Proj):
        return [f"(proj {e.r} ", e.base, ")"]
    if isinstance(e, Cellular):
        return ["(cellular ", e.base, f" ({' '.join(str(r) for r in e.ranks)}))"]
    raise TypeError(f"unknown expression node {type(e).__name__}")


def format_expr(e: SchemeExpr) -> str:
    """Canonical s-expression form; parsing it back yields the same tree."""
    return "".join(_unfold(e, _pieces))


# ---------------------------------------------------------------------------
# s-expression parser


_TOKEN = re.compile(r"[()]|[^\s()]+")


def _tokenize(src: str) -> list[tuple[str, int]]:
    """(text, start) of each parenthesis and each run of other non-space characters."""
    return [(m.group(), m.start()) for m in _TOKEN.finditer(src)]


def _read(tokens):
    """Nested (value, position) pairs; a list value is a parenthesized group."""
    if not tokens:
        raise ExprSyntaxError("empty input")
    open_groups: list = []
    for idx, (text, pos) in enumerate(tokens):
        if text == "(":
            open_groups.append(([], pos))
            continue
        if text == ")":
            if not open_groups:
                raise ExprSyntaxError("unexpected ')'", pos)
            node = open_groups.pop()
        else:
            node = (text, pos)
        if open_groups:
            open_groups[-1][0].append(node)
            continue
        if idx + 1 != len(tokens):
            raise ExprSyntaxError("trailing input after expression", tokens[idx + 1][1])
        return node
    raise ExprSyntaxError("missing closing parenthesis", open_groups[-1][1])


def _expect_int(node, what: str) -> int:
    value, pos = node
    if isinstance(value, list):
        raise ExprSyntaxError(f"expected an integer for {what}", pos)
    try:
        return read_decimal(value)
    except InvalidArgumentError:
        raise ExprSyntaxError(f"expected an integer for {what}, got {value!r}", pos) from None


def _expect_int_list(node, what: str) -> list[int]:
    value, pos = node
    if not isinstance(value, list):
        raise ExprSyntaxError(f"expected a parenthesized list for {what}", pos)
    return [_expect_int(item, what) for item in value]


_NUMBER_RING_KEYWORDS = {":conductor": _expect_int, ":subgroup": _expect_int_list}


def _number_ring(args) -> NumberRing:
    values = {}
    for i in range(0, len(args), 2):
        key, key_pos = args[i]
        read = _NUMBER_RING_KEYWORDS.get(key) if isinstance(key, str) else None
        if read is None:
            raise ExprSyntaxError("expected the numberring keyword :conductor or :subgroup", key_pos)
        if key in values:
            raise ExprSyntaxError(f"numberring keyword {key} is given twice", key_pos)
        if i + 1 == len(args):
            raise ArityError(f"numberring keyword {key} needs a value")
        values[key] = read(args[i + 1], key[1:])
    if ":conductor" not in values:
        raise ArityError("(numberring ...) requires :conductor")
    return NumberRing(AbelianFieldSpec(values[":conductor"], values.get(":subgroup", [1])))


def _rule(node):
    """(subexpressions, make): the argument groups of `node` that are
    expressions, and the constructor applied to them once built."""
    value, pos = node
    if not isinstance(value, list):
        raise ExprSyntaxError(f"expected an expression, got atom {value!r}", pos)
    if not value:
        raise ExprSyntaxError("empty expression", pos)
    head, head_pos = value[0]
    if isinstance(head, list):
        raise ExprSyntaxError("expression head must be a symbol", head_pos)
    head = head.lower()
    args = value[1:]

    def arity(expected: str, ok: bool):
        if not ok:
            raise ArityError(f"({head} ...) expects {expected}")

    if head == "point":
        arity("q [m]", len(args) in (1, 2))
        q = _expect_int(args[0], "q")
        m = _expect_int(args[1], "m") if len(args) == 2 else 1
        return [], lambda _: Point(q, m)
    if head == "curve":
        arity("q (c0 c1 ...)", len(args) == 2)
        q = _expect_int(args[0], "q")
        coeffs = _expect_int_list(args[1], "L-polynomial coefficients")
        return [], lambda _: Curve(q, tuple(coeffs))
    if head in ("q", "qi"):
        arity("no arguments", len(args) == 0)
        return [], lambda _: NumberRing(Q if head == "q" else QI)
    if head == "numberring":
        ring = _number_ring(args)
        return [], lambda _: ring
    if head == "disjoint":
        return args, lambda parts: Disjoint(tuple(parts))
    if head in ("glue", "minus"):
        arity("two expressions", len(args) == 2)
        return args, lambda kids: (Glue if head == "glue" else Minus)(*kids)
    if head in ("affine", "proj"):
        arity("r and an expression", len(args) == 2)
        r = _expect_int(args[0], "r")
        return args[1:], lambda kids: (Affine if head == "affine" else Proj)(r, kids[0])
    if head == "cellular":
        arity("an expression and (r1 r2 ...)", len(args) == 2)
        return args[:1], lambda kids: Cellular(
            kids[0], tuple(_expect_int_list(args[1], "cell ranks"))
        )
    raise ExprSyntaxError(f"unknown operation {head!r}", head_pos)


def parse_expr(src: str) -> SchemeExpr:
    """Parse a scheme expression; raises with a position on bad syntax.

        (point q [m])                      Spec F_{q^m} over F_q
        (curve q (c0 c1 ...))              curve with L-polynomial c0 + c1 t + ...
        (numberring :conductor f :subgroup (a b ...))
        (Q) (Qi)                           shorthands for Spec Z, Spec Z[i]
        (disjoint e ...)  (glue z u)  (minus x z)
        (affine r e)  (proj r e)  (cellular e (r1 r2 ...))
    """

    def below(item):
        """A group's subexpressions, then its builder (make, count), a leaf."""
        if callable(item[0]):
            return None
        subexpressions, make = _rule(item)
        return [*subexpressions, (make, len(subexpressions))]

    built: list[SchemeExpr] = []
    for make, count in _unfold(_read(_tokenize(src)), below):
        kids = built[len(built) - count :]
        del built[len(built) - count :]
        built.append(make(kids))
    return built[0]


# ---------------------------------------------------------------------------
# base bookkeeping


def base_prime_powers(e) -> set[int]:
    """Set of finite-characteristic base prime powers appearing in atoms."""
    return {atom.q for atom in Evaluation.of(e).nf.atoms if not isinstance(atom, NumberRing)}


def is_finite_characteristic(e) -> bool:
    return not any(isinstance(atom, NumberRing) for atom in Evaluation.of(e).nf.atoms)
