"""idag: interfaced dags as a symmetric monoidal algebra.

Construct and compose weighted acyclic graphs with numbered borders, evaluate
generator expressions into graph, matrix and loop models, slice graphs back
into expressions along topological sortings, and decide expression equality
modulo the equational theory the weight system selects.
"""

from importlib import import_module

# every public name, by the submodule that defines it; a name is imported on
# first use, so a command loads only the submodules it runs
_NAMES_BY_MODULE = {
    "algebra": (
        "concat", "from_permutation", "identity", "is_forest", "juxt", "make_idag", "symmetry",
    ),
    "builders": ("expand_symmetry", "map_atoms", "seq_all", "ten_all"),
    "core": (
        "CANONICAL_SEARCH_BUDGET", "DEFAULT_LABEL", "MAX_WIDTH", "Idag", "In", "NodeRef", "Out",
        "Vertex", "canonical_form", "is_isomorphic", "prune_dangling", "transitive_closure",
    ),
    "decomposition": (
        "decompose", "default_sorting", "is_topological_sorting", "permutation_expression",
        "topological_sortings",
    ),
    "dot": ("idag_to_dot",),
    "equivalence": (
        "NO_DANGLING", "TRANSITIVE", "EqReport", "TheoryMode", "equal_mod_theory",
        "normalize",
    ),
    "errors": (
        "AntipodeWeight", "ArityMismatch", "BadEndpoint", "CycleDetected",
        "DuplicateNodeId", "ExprSyntaxError", "IdagError", "IndexOutOfRange",
        "InterfaceMismatch", "InvalidWeight", "ModeMismatch",
        "NotAdjacentTransposition", "NotATopologicalSorting", "NotBijective",
        "SchemaError", "SearchBudgetExceeded", "SizeLimitExceeded", "TypeMismatch",
        "UnsupportedGenerator", "WrongArgumentType", "ZeroWeight",
    ),
    "jsonio": ("idag_to_json", "idag_to_obj"),
    "jsonread": ("idag_from_json", "idag_from_obj"),
    "layers": (
        "TranspositionReport", "encode_relation", "interpret", "layer",
        "transposition_identities",
    ),
    "loops": ("LoopsModel", "LoopsMorphism", "loops_eval"),
    "matrices": ("MatrixModel", "MatrixMorphism", "matrix", "matrix_identity", "matrix_permutation"),
    "models": ("FreeIdagModel", "evaluate", "free_generator_image"),
    "printer": ("print_expression",),
    "randgen": ("random_expression", "random_idag", "random_matrix"),
    "sortings": ("count_topological_sortings", "sample_topological_sorting"),
    "terms": (
        "Anti", "Delta", "Eps", "Eta", "Expression", "Id", "Nabla", "Node", "Seq",
        "Sym", "Ten", "arity_of", "parse", "validate_for_mode",
    ),
    "weights": ("BOOL", "INT", "NAT", "WeightSystem"),
}
_MODULE_OF = {name: module for module, names in _NAMES_BY_MODULE.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, or a submodule in the table, imported on first use
    and then bound here."""
    if name in _NAMES_BY_MODULE:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
