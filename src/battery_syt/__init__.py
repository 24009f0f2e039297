"""Exact counting of standard Young tableaux of battery shapes.

A battery shape [lam, a, k] is a partition diagram with a column of a extra
cells stacked above its k-th column. The package counts tableaux of such
shapes (and of straight, skew, and truncated shapes) with arbitrary-precision
arithmetic, by several mutually checking routes: terminating hypergeometric
series, the pivot decomposition summed as one Hankel determinant, a
closed-form catalog, and a linear-extension dynamic program.
"""

from .arith import Factorization, binomial, factorial, factorize, is_prime, pochhammer
from .counting import (
    CLOSED_FORM_CASES,
    COUNT_BY_COLUMN,
    NonIntegerCountError,
    closed_form,
    count_general,
    count_hyper,
    match_closed_form,
    rect_syt_count,
)
from .hypergeom import (
    AffineParam,
    ContiguousDecomposition,
    NonTerminatingSeriesError,
    PFQLevel,
    PFQParams,
    ZeroDenominatorFactorError,
    contiguous_step,
    eval_multi_pfq,
    eval_pfq,
    gauss_2f1_neg,
    pfq_terms,
    reduce_3f2,
    termination_index,
)
from .oracle import (
    BatteryTableau,
    count_line_convex,
    count_linear_extensions,
    enumerate_syt,
    is_valid_tableau,
    linear_extension_profile,
)
from .shapes import (
    BatteryShape,
    Partition,
    SkewShape,
    TruncatedShape,
    as_partition,
    conjugate,
    hook_lengths,
    rotated_complement,
    syt_count_straight,
    validate_battery,
)

__version__ = "0.1.0"
