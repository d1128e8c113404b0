"""Exact zeon / idem-Clifford algebra kernel with hypergraph structure enumeration.

The public names load their module on first access (PEP 562), so importing one
submodule, such as the command line, does not import the others.  Each name
has one home module: ``Signature`` lives in the packed kernel (``kernel``),
the value types ``Element`` and ``AlgebraMatrix`` with the matrix builders in
``algebra``, and each enumerator in the module of its structure.
"""

from importlib import import_module

_EXPORTS = {
    "algebra": (
        "AlgebraMatrix", "Element", "annihilates", "build_bipartite", "build_blocks", "build_omega",
        "nilpotency_index",
    ),
    "conjectures": (
        "FranklReport", "RyserReport", "check_frankl", "check_ryser", "gamma_element",
        "generate_ryser_instance", "generate_union_closed", "run_frankl_trials",
        "run_ryser_trials", "ryser_partition",
    ),
    "errors": ("BudgetError", "ContextError", "InvariantError", "ParseError"),
    "hypergraph": ("Hypergraph", "emit", "parse", "parse_json", "parse_text", "to_json_dict"),
    "independent_sets": (
        "graph_cliques", "graph_independent_sets",
        "independent_set_representation", "k_independent_sets", "pairwise_adjacent_sets",
        "strong_independent_sets", "weak_independent_sets", "weak_representation",
    ),
    "kernel": ("Signature",),
    "matchings": (
        "incidence_representation", "j_intersecting_matchings", "k_matchings",
        "perfect_matching_count",
    ),
    "transversals": ("minimum_transversals", "transversal_number", "transversal_representation"),
    "walks": ("WalkRecord", "k_cycles", "k_paths", "k_trails"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
