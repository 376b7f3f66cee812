"""The package's layers import only downward: each module's module-level
`from .x import` set is pinned, so a layer that grows an upward import fails here.
The packed form's packer (its lane rule and fold in y), codec and lane reducer are each pinned
to one definition, in polyring, the Euclid and gcd to one in polydiv, and no other module reaches
the Euclid but through the gcd. Only the command modules (`gpfq.commands`) import `cli`, and they
reach the layers through its names alone. The package's public names (`gpfq.__all__`) are pinned too, so
adding or removing one shows in a diff, and every public argument check must still raise.

Imports made inside a function are not module-level and are not pinned: that is how a layer
reaches the module split from it that only some commands run (`ff` reaches `extfield`,
`polyring` reaches `polydiv`, `progsearch` reaches `polytext`, and `progfree` forwards the
progression check's names from `progsearch`), and how `extfield` reaches `factor` and
`polyring` to search a default modulus.
"""

import ast
from pathlib import Path

import pytest

import gpfq

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gpfq"

LAYERS = {
    "intarith": set(),
    "errors": set(),
    "numeric": {"errors"},
    "ff": {"errors", "intarith"},
    "extfield": {"errors", "ff", "intarith"},
    "polyring": {"errors", "ff"},
    "polydiv": {"errors", "polyring"},
    "polytext": {"errors", "polyring"},
    "factor": {"errors", "ff", "polydiv", "polyring"},
    "progfree": {"errors", "factor", "polyring"},
    "progsearch": {"errors", "polyring", "progfree"},
    "greedy": {"errors", "polyring", "progfree", "progsearch"},
    "rn": {"errors"},
    "density": {"errors", "intarith", "numeric", "rn"},
    "tables": {"density", "numeric"},
}


def _package_imports(name):
    """Modules of this package that `name` imports at module level."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(), filename=f"{name}.py")
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # `from .x import y` names module x; `from . import x, y` names x and y
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_every_layer_is_pinned():
    # a new module gets a row here; only the front end and the package root import freely
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"cli", "__init__"}
    assert modules == set(LAYERS)


def test_layer_imports_are_pinned():
    assert {name: _package_imports(name) for name in LAYERS} == LAYERS


PUBLIC = {
    "BudgetExceeded", "CodeOutOfRange", "CoefficientOutOfRange", "DensityReport", "DivisionByZero",
    "Error", "Factorization", "FieldElem", "FieldSpec", "Interval", "NEG_INFINITY",
    "NeedsMorePrecision", "NegativeOperand", "NotPrime", "Poly", "PolySyntaxError",
    "ProgressionWitness", "ReducibleModulus", "RnTable", "SpecMismatch", "WrongDegreeModulus",
    "ZeroPolynomial", "a3_contains", "a3_list", "canonical_key", "checkpoint_density",
    "count_irreducibles", "derivative", "empirical_greedy_density", "enumerate_irreducibles",
    "enumerate_monic", "enumerate_polys", "enumerate_upto", "exp_upper", "factorization_exponents",
    "factorize", "figure1_data", "format_poly", "gcd", "greedy_construct_bruteforce",
    "greedy_counts", "greedy_density", "greedy_density_interval", "greedy_member",
    "greedy_members", "has_progression", "is_irreducible", "lower_bound_mq", "make_field",
    "make_monic", "max_progression_free_subset", "mq_interval", "nk", "one", "parse_poly",
    "reflected_degrees", "render_decimal", "rn_sequence", "round_half_away", "upper_bound_no",
    "upper_bound_no_interval", "upper_bound_simple", "x", "zero",
}


def test_public_names_are_pinned():
    # the names resolve on first use (PEP 562), so they are pinned through __all__, not vars(gpfq)
    assert set(gpfq.__all__) == PUBLIC
    assert {name for name in PUBLIC if hasattr(gpfq, name)} == PUBLIC
    assert PUBLIC <= set(dir(gpfq))


# the packed form's mechanics and the one square and multiply, each defined in exactly one module
SHARED = {"_packer": "polyring", "_codec": "polyring", "_reducer": "polyring", "_euclid": "polydiv", "_gcd": "polydiv",
          "_power": "ff"}


def test_packed_mechanics_are_defined_once():
    # a second packer, codec, lane reducer, Euclid, gcd or power routine anywhere in the package (nested ones too)
    # fails here
    found = {name: [] for name in SHARED}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [leaf.id for target in targets for leaf in ast.walk(target) if isinstance(leaf, ast.Name)]
            else:
                continue
            for name in set(names) & set(SHARED):
                found[name].append(path.stem)
    assert found == {name: [module] for name, module in SHARED.items()}


def test_euclid_is_reached_only_through_gcd():
    # _gcd is the one gcd entry point: an import, call or attribute read of _euclid outside polydiv fails here
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if (isinstance(node, ast.Name) and node.id == "_euclid"
                    or isinstance(node, ast.Attribute) and node.attr == "_euclid"
                    or isinstance(node, ast.alias) and node.name == "_euclid"):
                found.add(path.stem)
    assert found == {"polydiv"}


def _imports_anywhere(path):
    """The modules that the file at `path` imports, at module level or inside a function,
    relative imports resolved (`from . import x` naming x)."""
    package = path.relative_to(PACKAGE.parent).with_suffix("").parts[:-1]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(package[:len(package) + 1 - node.level]) if node.level else ""
            names = [node.module] if node.module else [alias.name for alias in node.names]
            found |= {".".join(filter(None, (base, name))) for name in names}
    return found


def test_command_modules_reach_layers_through_cli():
    # only the command modules import the front end, and they take every layer from gpfq.cli's names (which a
    # tracer wraps there), so a handler that imports a layer itself, or a layer that imports cli, fails here
    commands = PACKAGE / "commands"
    modules = {path: _imports_anywhere(path) for path in sorted(PACKAGE.rglob("*.py"))}
    assert len([path for path in modules if path.parent == commands and path.stem != "__init__"]) == 11
    assert [path.name for path, found in modules.items() if commands not in path.parents and "gpfq.cli" in found] == []
    beside_cli = {path.name: {name for name in found if name.startswith("gpfq")} - {"gpfq.cli", "gpfq.errors"}
                  for path, found in modules.items() if commands in path.parents}
    assert {name: found for name, found in beside_cli.items() if found} == {}


F2 = gpfq.make_field(2)

# (call, exception): each public argument check, so that moving code between modules drops none
ARGUMENT_CHECKS = {
    "checkpoint_density k=0": (lambda: gpfq.checkpoint_density(2, 0), ValueError),
    "upper_bound_simple q=1": (lambda: gpfq.upper_bound_simple(1), ValueError),
    "upper_bound_simple terms=-1": (lambda: gpfq.upper_bound_simple(2, -1), ValueError),
    "certify q=1": (lambda: gpfq.density.certify("greedy", 1, 6), ValueError),
    "greedy_counts max_degree=-1": (lambda: gpfq.greedy_counts(2, -1), ValueError),
    "figure1_data q_max=1": (lambda: gpfq.figure1_data(1), ValueError),
    "rn_sequence n=0": (lambda: gpfq.rn_sequence(0), ValueError),
    "verify_table 4": (lambda: gpfq.tables.verify_table(4), ValueError),
    "factorize zero": (lambda: gpfq.factorize(gpfq.zero(F2)), gpfq.ZeroPolynomial),
    "enumerate_irreducibles degree=0": (lambda: list(gpfq.enumerate_irreducibles(F2, 0)), ValueError),
    "a3_contains -1": (lambda: gpfq.a3_contains(-1), ValueError),
    "a3_list -1": (lambda: gpfq.a3_list(-1), ValueError),
    "reflected_degrees -1": (lambda: gpfq.reflected_degrees(-1), ValueError),
    "make_field k=0": (lambda: gpfq.make_field(2, 0), ValueError),
    "make_field modulus coefficient 2 over GF(2)": (lambda: gpfq.make_field(2, 2, (1, 2, 1)), gpfq.CoefficientOutOfRange),
    "enumerate_polys degree=-1": (lambda: list(gpfq.enumerate_polys(F2, -1)), ValueError),
    "enumerate_monic degree=-1": (lambda: list(gpfq.enumerate_monic(F2, -1)), ValueError),
    "Poly + 3": (lambda: gpfq.one(F2) + 3, TypeError),
    "FieldElem + 3": (lambda: F2.one + 3, TypeError),
}


@pytest.mark.parametrize("name", ARGUMENT_CHECKS)
def test_argument_checks_raise(name):
    call, error = ARGUMENT_CHECKS[name]
    with pytest.raises(error):
        call()
