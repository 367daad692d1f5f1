"""randlab: exact-rational randomness tests on finite binary prefixes.

Everything is computed with arbitrary-precision rationals; every inequality
the package asserts is decided exactly, never within a tolerance.
"""

from .exact import INF, fmt, parse_rational
from .measures import (
    MAX_DEPTH,
    Bernoulli,
    CapabilityError,
    DyadicMeasure,
    MeasureError,
    Mixture,
    block_frequency,
    count_upcrossings,
    realize,
)
from .machines import (
    MachineError,
    MonotoneMachine,
    PrefixMachine,
    canonical_machine,
    monotone_output_prob,
    semimeasure_total,
)
from .randtests import (
    CONVERT_AVG_BOUND,
    ExtendedTest,
    conditional_average,
    deficiency_profile,
    from_weights,
    martingale_check,
    min_extension,
    prob_bound_check,
    prob_to_avg_convert,
    validate_extended_test,
)
from .bernoulli import (
    bernoulli_poly,
    certify_bernoulli_test,
    extend_by_monotonicity,
    replacement_domination_check,
    validate_combinatorial_test,
)
from .coupling import (
    enumerate_upper_sets,
    is_coupled_below,
    monotone_criterion_check,
    pushdown_measure,
    sparsity_value,
)
from .separator import (
    SEPARATOR_NORMALIZER,
    chebyshev_tail_check,
    class_plus_separator,
    separator_value,
)
from .neutral import SpernerCell, sperner_search

__version__ = "0.1.0"
