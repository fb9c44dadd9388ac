"""zetaforge: exact-arithmetic toolkit for zeta functions of arithmetic
schemes at strictly negative integers.

Scheme expressions are built from finite-field points, curves given by
their L-polynomial, rings of integers of abelian number fields, and the
operations disjoint union / closed-open gluing / complements / affine and
projective bundles / cellular assemblies.  The package computes vanishing
orders and special values of the attached zeta functions by independent
analytic and cohomological routes and checks that they agree.

Every public name is imported from its module (`from zetaforge.scheme_algebra
import parse_expr, zeta_of`); the package itself binds only the modules.
"""

# every module loads with the package, in this fixed order (errors, poly,
# record, intlinalg, lfunctions, zetarep, scheme_algebra, then these four),
# so that a process forked after the import (a fork server) compiles none
# of them, and so that timings do not move with the layout of the imports
from . import archimedean, detcomplex, forkmap, ffengine  # noqa: F401
