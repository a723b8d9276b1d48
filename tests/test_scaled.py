import ast
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

import ringload
from ringload.scaled import (
    SCALE,
    exact_div,
    from_fraction,
    from_int,
    halve,
    parse_rational,
    rational_str,
    unscale,
)


def test_scale_covers_the_algorithm_constants():
    D = from_int(10)
    for numerator, denominator in ((1, 2), (1, 14), (5, 14), (3, 7), (11, 14), (19, 14)):
        assert exact_div(numerator * D, denominator) * denominator == numerator * D


def test_round_trips():
    assert unscale(from_int(37)) == 37
    assert Fraction(from_fraction(Fraction(19, 14)), SCALE) == Fraction(19, 14)
    assert parse_rational("19/14") == from_fraction(Fraction(19, 14))
    assert parse_rational("-3/2") == -from_int(3) // 2


def test_rational_str():
    assert rational_str(from_int(37)) == "37"
    assert rational_str(from_fraction(Fraction(19, 14))) == "19/14"
    assert rational_str(halve(from_int(-3))) == "-3/2"
    assert rational_str(0) == "0"
    for scaled in (*range(-3 * SCALE, 3 * SCALE + 1), 10**21 + 1, -(10**21) - 14):
        value = Fraction(scaled, SCALE)
        expected = str(value.numerator) if value.denominator == 1 else str(value)
        assert rational_str(scaled) == expected


def test_exactness_violations_raise():
    with pytest.raises(ValueError):
        from_fraction(Fraction(1, 3))
    with pytest.raises(ValueError):
        halve(1)
    with pytest.raises(ValueError):
        exact_div(from_int(10), 3)
    with pytest.raises(ValueError):
        unscale(SCALE + 1)


def test_no_float_in_the_package_source():
    # Exact code takes no float detour: neither the name `float` nor a
    # float-valued math function appears in the package's code (strings
    # and comments are not name tokens).
    floats = {"float", "log", "log2", "log10", "sqrt", "exp"}
    found = []
    for path in sorted(Path(ringload.__file__).parent.glob("*.py")):
        with path.open("rb") as handle:
            for token in tokenize.tokenize(handle.readline):
                if token.type == tokenize.NAME and token.string in floats:
                    found.append(f"{path.name}:{token.start[0]}")
    assert found == []


def test_no_module_imports_a_private_name_of_another():
    # A module's underscore names are its own: no relative import in the
    # package names one of a sibling module.
    found = []
    for path in sorted(Path(ringload.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_only_model_names_the_demand_record():
    # Rings hold their demands as columns; the one Demand record type lives
    # in model, and __init__ only re-exports it.  No other module names it,
    # so no stage builds or reads a record per demand.
    found = []
    for path in sorted(Path(ringload.__file__).parent.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                named = any(alias.name == "Demand" for alias in node.names)
            elif isinstance(node, ast.Name):
                named = node.id == "Demand"
            elif isinstance(node, ast.Attribute):
                named = node.attr == "Demand"
            else:
                named = False
            if named:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _imported(node: ast.AST) -> set[str]:
    """Every dotted part of the modules and names an import statement names."""
    parts = set()
    if isinstance(node, ast.ImportFrom):
        parts.update((node.module or "").split("."))
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        parts.update(part for alias in node.names for part in alias.name.split("."))
    return parts


def _module_level(tree: ast.Module) -> tuple[set[str], set[str]]:
    """What a file imports, and every name it uses, in code that runs when it
    is imported: function bodies are left out, class bodies kept."""
    imported, named = set(), set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        imported |= _imported(node)
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return imported, named | imported


def test_numpy_stays_behind_exact_and_search():
    # Only the exact solvers and the search use numpy, so importing ringload,
    # or running a command that needs neither, must not load it.  At module
    # level only exact and search import numpy, only search imports exact, and
    # no module names exact or search otherwise: cli and __init__ reach them
    # inside functions.  Building or generating an instance needs no solver,
    # so instances imports neither anywhere.
    imports, names = {}, {}
    for path in sorted(Path(ringload.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imports[path.stem], names[path.stem] = _module_level(tree)
        if path.stem == "instances":
            anywhere = set().union(*map(_imported, ast.walk(tree)))
            assert anywhere.isdisjoint({"exact", "search"})
    assert {stem for stem, found in imports.items() if "numpy" in found} == {"exact", "search"}
    assert {stem for stem, found in names.items() if "exact" in found} == {"search"}
    assert {stem for stem, found in names.items() if "search" in found} == set()


PUBLIC_NAMES = [
    "BUILTIN_NAMES", "CCW", "CW", "CanonicalForm", "CrossingInstance", "Demand",
    "ExtensionResult", "LoadVector", "Pattern", "RingInstance", "SCALE", "Scaled",
    "SearchHit", "SolveReport", "SplitRouting", "StructuredFamily", "UnsplitRouting",
    "additive_increase", "approx", "backward_greedy", "brute_force_min_increase",
    "brute_force_optimum_L", "builtin", "certify_split_optimal", "crossover",
    "dp_feasible", "dp_min_increase", "edge_loads", "equalize_extension",
    "errors", "exact", "fileio", "find_close", "forward_greedy", "instances",
    "lift_solution", "medium_demand_solve", "model", "parse_instance", "patterns",
    "performance", "random_crossing", "rational_str", "reduce_to_crossing", "reduction",
    "scaled", "search", "search_lower_bound", "small_big_solve", "solution_from_pattern",
    "solve_19_14", "ssw_three_halves", "standalone_crossing", "validate_instance",
    "write_instance",
]


def test_the_public_names_resolve_whether_eager_or_lazy():
    # The exact and search names resolve on first access, to the very
    # objects their modules define; every other name is bound at import.
    assert ringload.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(ringload))
    for name, module in ringload._LAZY.items():
        value = getattr(ringload, name)
        expected = getattr(ringload, module)
        assert value is (expected if name == module else getattr(expected, name))
    namespace = {}
    exec("from ringload import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)
    with pytest.raises(AttributeError, match="module 'ringload' has no attribute 'nope'"):
        ringload.nope
    assert not hasattr(ringload, "level_masks")


def test_each_dp_mask_limit_is_read_in_one_function():
    # The bits of one position-major probe array are read in exact._probe
    # alone; no other module reads them.  The column-major masks have no
    # such limit: exact.level_masks takes as many words as t needs.
    limits = {"_MASK_BITS": "_probe"}
    readers = {name: set() for name in limits}
    for path in sorted(Path(ringload.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = (path.stem, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name in readers:
                    readers[name].add(owner)
    assert readers == {name: {("exact", function)} for name, function in limits.items()}


# Functions that no code of the package calls, kept as its public calls:
# the benchmark's per-layer replay (perfbench/spans.py) drives these and
# reads RingInstance.demands.  The CLI entry point and the calls the README
# documents have callers inside.
PUBLIC_ONLY = {"dp_feasible", "CanonicalForm.of", "StructuredFamily.decode",
               "additive_increase", "parse_rational", "RingInstance.demands"}


def test_every_function_has_a_caller_in_the_package():
    # A top-level function, or a method of a top-level class other than a
    # dunder, is named somewhere in the package outside its own body, or it
    # is on PUBLIC_ONLY.  Re-exports in __init__ are not callers.
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(ringload.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"]
    defs = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[node.name] = node
            elif isinstance(node, ast.ClassDef):
                defs.update((f"{node.name}.{sub.name}", sub) for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"))

    def names(node, skip):
        if node is not skip:
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            for child in ast.iter_child_nodes(node):
                yield from names(child, skip)

    uncalled = {qualified for qualified, node in defs.items()
                if not any(node.name in names(tree, node) for tree in trees)}
    assert uncalled <= PUBLIC_ONLY
    assert PUBLIC_ONLY <= set(defs)


def test_every_module_level_import_is_used():
    # Each name a module-level import binds in a package module other than
    # __init__ is named elsewhere in that module; __future__ imports bind
    # nothing.
    unused = []
    for path in sorted(Path(ringload.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [alias.asname or alias.name for alias in node.names]
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in bound if name not in named]
    assert unused == []
