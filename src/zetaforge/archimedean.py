"""Archimedean bookkeeping: equivariant Betti dimensions.

The conjectural vanishing order of zeta(X, s) at s = n < 0 is the Euler
characteristic of compactly supported cohomology of X(C) fixed by complex
conjugation with R(n) = (2 pi i)^n R coefficients.  The dimensions depend
on n only through its parity.
"""

from __future__ import annotations

from .errors import InvalidArgumentError
from .scheme_algebra import Evaluation, NumberRing

__all__ = ["equivariant_dims", "vanishing_order_conjectural"]


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
    nf = Evaluation.of(e).nf
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

