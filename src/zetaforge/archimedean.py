"""Archimedean bookkeeping: equivariant Betti dimensions and Gamma factors.

The conjectural vanishing order of zeta(X, s) at s = n < 0 is the Euler
characteristic of compactly supported cohomology of X(C) fixed by complex
conjugation with R(n) = (2 pi i)^n R coefficients.  The dimensions depend
on n only through its parity.

For proper smooth X_C the same dimensions fall out of Hodge theory:

    dim H^i(X(C), R(n))^{G_R}
        = sum_{p = i/2} h^{p, (-1)^(n-p)} + sum_{p+q = i, p < q} h^{p,q},

and the identical count arises as the pole census of the archimedean
Gamma factors Gamma_R(s - p), Gamma_R(s - p + 1), Gamma_C(s - p).  Both
routes are implemented and compared in the tests.
"""

from __future__ import annotations

from .errors import InvalidArgumentError
from .intlinalg import parity_sign
from .record import Record
from .scheme_algebra import Evaluation, NumberRing

__all__ = [
    "HodgeData",
    "equivariant_dims",
    "vanishing_order_conjectural",
    "hodge_equivariant_dims",
    "gamma_factor_order",
    "P1_HODGE",
    "ELLIPTIC_CURVE_HODGE",
]


def _atom_dim(atom, parity: int) -> int:
    """dim H^0_c(X(C), R(n))^{G_R} of an atom at weights n of the given
    parity; finite-field atoms have no complex points."""
    if not isinstance(atom, NumberRing):
        return 0
    r1, r2 = atom.field_spec.signature
    return r2 if parity else r1 + r2


def equivariant_dims(e, n: int) -> tuple[dict | None, int]:
    """(dims, chi) of an expression or its Evaluation at the weight n < 0:
    dims maps degree i to dim H^i_c(X(C), R(n))^{G_R}, or is None when only
    the Euler characteristic chi survived the propagation (gluings).  A term
    c * [atom] * L^r adds c times the atom's dimension at weight n - r, of
    parity n + r, in degree 2r."""
    if n >= 0:
        raise InvalidArgumentError("defined for strictly negative weights")
    nf = Evaluation.of(e, n).nf
    dims = {} if nf.graded else None
    chi = 0
    for (atom, r), c in nf.terms.items():
        d = _atom_dim(atom, (n + r) % 2)
        chi += c * d
        if dims is not None and d:
            dims[2 * r] = dims.get(2 * r, 0) + c * d
    return dims, chi


def vanishing_order_conjectural(e, n: int) -> int:
    """Conjectural ord_{s=n} zeta(X, s): chi of the equivariant data."""
    return equivariant_dims(e, n)[1]


# ---------------------------------------------------------------------------
# Hodge-theoretic route (proper smooth complex fibers)


class HodgeData(Record):
    """Hodge numbers h^{p,q} plus the conjugation split of the diagonal.

    weights: map (p, q) -> h^{p,q}, p, q >= 0; diagonal: map p ->
    (h^{p,+}, h^{p,-}) with h^{p,+} + h^{p,-} = h^{p,p}, so every p with
    h^{p,p} > 0 has a split; each stored as a sorted tuple of its items.
    Conjugation swaps H^{p,q} and H^{q,p}, so h^{p,q} = h^{q,p} is
    required.
    """

    __slots__ = ("weights", "diagonal")

    @classmethod
    def make(cls, weights: dict, diagonal: dict) -> HodgeData:
        return cls(
            tuple(sorted(((p, q), h) for (p, q), h in weights.items() if h)),
            tuple(sorted((p, (plus, minus)) for p, (plus, minus) in diagonal.items())),
        )

    def __post_init__(self):
        w = dict(self.weights)
        diag = dict(self.diagonal)
        if any(min(p, q) < 0 for p, q in w) or any(p < 0 for p in diag):
            raise InvalidArgumentError("Hodge indices p and q must be nonnegative")
        for (p, q), h in w.items():
            if h < 0:
                raise InvalidArgumentError("Hodge numbers must be nonnegative")
            if w.get((q, p), 0) != h:
                raise InvalidArgumentError("Hodge symmetry h^{p,q} = h^{q,p} violated")
            if p == q and p not in diag:
                raise InvalidArgumentError(f"h^{{{p},{p}}} > 0 needs its split (h^{{{p},+}}, h^{{{p},-}})")
        for p, (plus, minus) in diag.items():
            if plus < 0 or minus < 0:
                raise InvalidArgumentError("eigenspace dimensions must be nonnegative")
            if plus + minus != w.get((p, p), 0):
                raise InvalidArgumentError("h^{p,+} + h^{p,-} must equal h^{p,p}")


# conjugation acts on H^2 of a curve by -1 (orientation reversal), which
# places the top class of P^1 and of an elliptic curve in the (+)-eigenspace
# for p = 1 since (-1)^p = -1 there
P1_HODGE = HodgeData.make({(0, 0): 1, (1, 1): 1}, {0: (1, 0), 1: (1, 0)})
ELLIPTIC_CURVE_HODGE = HodgeData.make(
    {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}, {0: (1, 0), 1: (1, 0)}
)


def hodge_equivariant_dims(H: HodgeData, n: int) -> dict:
    """dim H^i(X(C), R(n))^{G_R} per degree i, from the Hodge data: each
    h^{p,q} with p < q in degree p + q, and h^{p,(-1)^(n-p)} in degree 2p."""
    out: dict[int, int] = {}
    for (p, q), h in H.weights:
        if p < q:
            out[p + q] = out.get(p + q, 0) + h
    for p, (plus, minus) in H.diagonal:
        out[2 * p] = out.get(2 * p, 0) + (plus if (n - p) % 2 == 0 else minus)
    return {i: d for i, d in sorted(out.items()) if d}


def gamma_factor_order(H: HodgeData, n: int) -> int:
    """Expected vanishing order at n < 0 as a Gamma-factor pole census.

    ord = -sum_i (-1)^i ord_{s=n} L_infty(H^i, s), where Gamma_R(s-p) has
    a simple pole at n iff n-p is even (and <= 0), Gamma_R(s-p+1) iff
    n-p+1 is even, and Gamma_C(s-p) always for n-p <= 0.
    """
    if n >= 0:
        raise InvalidArgumentError("defined for strictly negative integers")
    total = 0
    for (p, q), h in H.weights:
        if p < q and n - p <= 0:
            total += parity_sign(p + q) * h
    for p, (plus, minus) in H.diagonal:
        if n - p <= 0 and (n - p) % 2 == 0:
            total += plus
        if n - p + 1 <= 0 and (n - p + 1) % 2 == 0:
            total += minus
    return total
