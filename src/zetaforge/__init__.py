"""zetaforge: exact-arithmetic toolkit for zeta functions of arithmetic
schemes at strictly negative integers.

Scheme expressions are built from finite-field points, curves given by
their L-polynomial, rings of integers of abelian number fields, and the
operations disjoint union / closed-open gluing / complements / affine and
projective bundles / cellular assemblies.  The package computes vanishing
orders and special values of the attached zeta functions by independent
analytic and cohomological routes and checks that they agree.
"""

from .archimedean import (
    HodgeData,
    equivariant_dims,
    gamma_factor_order,
    hodge_equivariant_dims,
    vanishing_order_conjectural,
)
from .detcomplex import (
    BoundedFreeComplex,
    cohomology,
    determinant,
    multiplicative_euler_char,
)
from .errors import ZetaforgeError

# imported with the package, like every other module, so that a process
# forked after the import (a fork server) does not compile it for `batch`
from . import forkmap  # noqa: F401
from .ffengine import (
    VerificationReport,
    ell_adic_check,
    p_part_check,
    point_count,
    trace_formula_check,
    verify_C_finite_char,
)
from .intlinalg import (
    FinGenAbGroup,
    IntMatrix,
    SmithDecomposition,
    cokernel,
    group_order,
    rational_valuation,
    smith_normal_form,
)
from .lfunctions import (
    AbelianFieldSpec,
    CyclotomicNumber,
    DirichletCharacter,
    L_at_nonpositive,
    gen_bernoulli,
    leading_value,
    trivial_zero_order,
)
from .scheme_algebra import (
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
    SchemeExpr,
    parse_expr,
    validate,
    weil_order_data,
    zeta_of,
)
from .zetarep import (
    FiniteCharFactor,
    LFactorShifted,
    RationalFunctionT,
    SpecialValue,
    ZetaProduct,
    evaluate_at,
    multiply,
    shift_s,
    vanishing_order,
)

__version__ = "0.1.0"
