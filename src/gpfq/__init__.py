"""Geometric-progression-free subsets of F_q[x].

Exact constructions and membership tests for the greedy progression-free
set, certified-interval evaluation of its density and of the published
lower/upper bounds, and exhaustive combinatorial searches, all in exact
rational arithmetic.
"""

from .density import (
    DensityReport,
    RnTable,
    checkpoint_density,
    empirical_greedy_density,
    figure1_data,
    greedy_counts,
    greedy_density,
    greedy_density_interval,
    lower_bound_mq,
    mq_interval,
    rn_sequence,
    upper_bound_no,
    upper_bound_no_interval,
    upper_bound_simple,
)
from .errors import (
    BudgetExceeded,
    CodeOutOfRange,
    CoefficientOutOfRange,
    DivisionByZero,
    Error,
    NeedsMorePrecision,
    NegativeOperand,
    NotPrime,
    PolySyntaxError,
    ReducibleModulus,
    SpecMismatch,
    WrongDegreeModulus,
    ZeroPolynomial,
)
from .factor import (
    Factorization,
    enumerate_irreducibles,
    factorization_exponents,
    factorize,
    is_irreducible,
)
from .ff import FieldElem, FieldSpec, make_field
from .intarith import count_irreducibles, nk
from .numeric import Interval, exp_upper, render_decimal, round_half_away
from .polyring import (
    NEG_INFINITY,
    Poly,
    canonical_key,
    derivative,
    enumerate_monic,
    enumerate_polys,
    enumerate_upto,
    format_poly,
    gcd,
    make_monic,
    one,
    parse_poly,
    x,
    zero,
)
from .progfree import (
    ProgressionWitness,
    a3_contains,
    a3_list,
    greedy_construct_bruteforce,
    greedy_member,
    greedy_members,
    has_progression,
    max_progression_free_subset,
    reflected_degrees,
)

__version__ = "0.1.0"
