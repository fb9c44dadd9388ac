"""Dense univariate polynomials as coefficient sequences, ascending.

The one helper set shared by the rational functions of `zetarep`, the
cyclotomic arithmetic of `lfunctions`, the logarithmic derivatives of the
trace formula in `ffengine`, the integer Bernoulli tables and the
L-weights of the expression calculus.  Coefficients may be ints or Fractions; results are
exact.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["trim", "mul", "window_sum", "evaluate", "quotient", "log_derivative"]


def trim(p) -> tuple:
    """Drop trailing zero coefficients; the zero polynomial is ()."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def mul(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def window_sum(p, r: int) -> list:
    """p * (1 + t + ... + t^r), as `mul` would give it, in one pass:
    coefficient k is the window sum p[k - r] + ... + p[k]."""
    out, total = [], 0
    for k in range(len(p) + r if p else 0):
        if k < len(p):
            total += p[k]
        if k > r:
            total -= p[k - r - 1]
        out.append(total)
    return out


def evaluate(p, t):
    """p(t) by Horner's rule."""
    total = 0
    for c in reversed(p):
        total = total * t + c
    return total


def quotient(a, b):
    """a / b: an int when b divides a, otherwise the exact Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def log_derivative(p, K: int) -> list:
    """Coefficients c_0..c_K of t p'/p, for p(0) != 0, by one long division
    from p c = t p' over the nonzero p_j, j >= 1; a coefficient is an int
    where p(0) divides and the exact Fraction otherwise."""
    terms = [(j, a) for j, a in enumerate(p) if j and a]
    c = [0] * (K + 1)
    for k in range(1, K + 1):
        acc = k * p[k] if k < len(p) else 0
        for j, a in terms:
            if j >= k:
                break
            acc -= a * c[k - j]
        c[k] = acc if p[0] == 1 else quotient(acc, p[0])
    return c
