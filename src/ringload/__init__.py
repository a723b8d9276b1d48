"""Unsplittable demand routing on ring networks.

Turn any split routing into an unsplittable one with a certified additive
load increase of at most 19/14 times the maximum demand, compute exact
optima by dynamic programming or branch and bound, and search the structured
instance family for lower-bound examples.  All arithmetic is exact
fixed-point on the 1/28 grid.

Every public name and every submodule resolves on first use (a module
__getattr__ reads _LAZY), so importing ringload imports none of its
modules, and a command loads only the modules it runs.  Only the exact
solvers and the search, `exact` and `search`, use numpy.
"""

# Name -> the module that defines it, imported on first access; each module
# also maps to itself.
_LAZY = {
    name: module
    for module, names in (
        ("approx", "SolveReport medium_demand_solve small_big_solve solution_from_pattern "
                   "solve_19_14 ssw_three_halves"),
        ("errors", ""),
        ("exact", "brute_force_min_increase brute_force_optimum_L dp_feasible dp_min_increase"),
        ("fileio", "parse_instance write_instance"),
        ("instances", "BUILTIN_NAMES ExtensionResult builtin certify_split_optimal "
                      "equalize_extension random_crossing"),
        ("model", "CCW CW Demand LoadVector RingInstance SplitRouting UnsplitRouting "
                  "additive_increase edge_loads validate_instance"),
        ("patterns", "Pattern backward_greedy crossover find_close forward_greedy performance"),
        ("reduction", "CrossingInstance lift_solution reduce_to_crossing standalone_crossing"),
        ("scaled", "SCALE Scaled rational_str"),
        ("search", "CanonicalForm SearchHit StructuredFamily search_lower_bound"),
    )
    for name in (module, *names.split())
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
