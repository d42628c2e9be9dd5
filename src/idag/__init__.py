"""idag: interfaced dags as a symmetric monoidal algebra.

Construct and compose weighted acyclic graphs with numbered borders, evaluate
generator expressions into graph, matrix and loop models, slice graphs back
into expressions along topological sortings, and decide expression equality
modulo the equational theory the weight system selects.
"""

from types import ModuleType as _ModuleType

from .core import (
    CANONICAL_SEARCH_BUDGET,
    DEFAULT_LABEL,
    Idag,
    In,
    NodeRef,
    Out,
    Vertex,
    canonical_form,
    concat,
    from_permutation,
    identity,
    is_forest,
    is_isomorphic,
    juxt,
    make_idag,
    prune_dangling,
    symmetry,
    transitive_closure,
)
from .decomposition import (
    TopSort,
    TranspositionReport,
    count_topological_sortings,
    decompose,
    default_sorting,
    encode_relation,
    interpret,
    is_topological_sorting,
    layer,
    permutation_expression,
    sample_topological_sorting,
    topological_sortings,
    transposition_identities,
)
from .dot import idag_to_dot
from .equivalence import (
    NO_DANGLING,
    TRANSITIVE,
    EqReport,
    TheoryMode,
    equal_mod_theory,
    normalize,
)
from .errors import (
    AntipodeWeight,
    ArityMismatch,
    BadEndpoint,
    CycleDetected,
    DuplicateNodeId,
    ExprSyntaxError,
    IdagError,
    IndexOutOfRange,
    InterfaceMismatch,
    InvalidWeight,
    ModeMismatch,
    NotAdjacentTransposition,
    NotATopologicalSorting,
    NotBijective,
    SchemaError,
    SearchBudgetExceeded,
    TypeMismatch,
    UnsupportedGenerator,
    ZeroWeight,
)
from .jsonio import idag_from_json, idag_from_obj, idag_to_json, idag_to_obj
from .models import (
    FreeIdagModel,
    LoopsModel,
    LoopsMorphism,
    MatrixModel,
    MatrixMorphism,
    evaluate,
    free_generator_image,
    loops_eval,
    matrix,
    matrix_identity,
    matrix_permutation,
)
from .randgen import random_expression, random_idag, random_matrix
from .terms import (
    Anti,
    Delta,
    Eps,
    Eta,
    Expression,
    Id,
    Nabla,
    Node,
    Seq,
    Sym,
    Ten,
    arity_of,
    expand_symmetry,
    map_atoms,
    parse,
    print_expression,
    seq_all,
    ten_all,
    validate_for_mode,
)
from .weights import BOOL, INT, NAT, WeightSystem

# every public name but the submodules, which importing them binds here
__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]

__version__ = "0.1.0"
