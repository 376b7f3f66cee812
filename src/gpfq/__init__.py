"""Geometric-progression-free subsets of F_q[x].

Exact constructions and membership tests for the greedy progression-free
set, certified-interval evaluation of its density and of the published
lower/upper bounds, and exhaustive combinatorial searches, all in exact
rational arithmetic.

Importing the package runs only `errors`. Each other module below
(`intarith` and `rn` included) is in `sys.modules` and is an attribute of the
package from the start, but its code runs on the first attribute access
(`importlib.util.LazyLoader`), so a command runs only the layers it calls:
`gpfq rn` runs `cli` and `rn` alone, and `polydiv`, `polytext`, `extfield`,
`greedy` and `progsearch` hold the code of `polyring`, `ff` and `progfree` that
only some commands call. The exported names resolve through `_EXPORTS` on first use
(PEP 562).
"""

import importlib.util
import sys

from . import errors

# module: the names the package exports from it
_EXPORTS = {
    "density": """DensityReport checkpoint_density empirical_greedy_density figure1_data greedy_counts
        greedy_density greedy_density_interval lower_bound_mq mq_interval upper_bound_no
        upper_bound_no_interval upper_bound_simple""",
    "errors": """BudgetExceeded CodeOutOfRange CoefficientOutOfRange DivisionByZero Error
        NeedsMorePrecision NegativeOperand NotPrime PolySyntaxError ReducibleModulus SpecMismatch
        WrongDegreeModulus ZeroPolynomial""",
    "factor": "Factorization enumerate_irreducibles factorization_exponents factorize is_irreducible",
    "ff": "FieldElem FieldSpec make_field",
    "greedy": "greedy_construct_bruteforce greedy_members",
    "intarith": "count_irreducibles nk",
    "numeric": "Interval exp_upper render_decimal round_half_away",
    "polyring": """NEG_INFINITY Poly canonical_key derivative enumerate_monic enumerate_polys enumerate_upto
        format_poly gcd make_monic one x zero""",
    "polytext": "parse_poly",
    "progfree": "a3_contains a3_list greedy_member max_progression_free_subset reflected_degrees",
    "progsearch": "ProgressionWitness has_progression",
    "rn": "RnTable rn_sequence",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def _lazy(name):
    """The submodule `name`, registered in `sys.modules`; its code runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


(density, extfield, factor, ff, greedy, intarith, numeric, polydiv, polyring, polytext, progfree, progsearch, rn,
 tables) = map(_lazy, ("density", "extfield", "factor", "ff", "greedy", "intarith", "numeric", "polydiv", "polyring",
                       "polytext", "progfree", "progsearch", "rn", "tables"))


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_MODULE_OF[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
