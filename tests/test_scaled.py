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


def test_instances_imports_no_solver():
    # Building or generating an instance needs no solver: the built-ins are
    # data, and `ringload verify` alone checks their recorded facts.
    tree = ast.parse((Path(ringload.__file__).parent / "instances.py").read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            named.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(part for alias in node.names for part in alias.name.split("."))
    assert named.isdisjoint({"exact", "search"})


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
