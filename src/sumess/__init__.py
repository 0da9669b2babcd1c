"""Sum-essential graphs of finite modules.

Build a finite module from its additive moduli and scalar action, enumerate
its submodule lattice, construct the sum-essential graph (vertices are
nontrivial submodules, edges join pairs with essential sum) and its proper
variant (essential vertices removed), compute graph invariants, and check
the structural characterizations from the theorem catalog.
"""

from .analysis import ModuleAnalysis
from .corpus import (
    CorpusRow,
    CorpusSpec,
    abelian_presentations,
    enumerate_corpus,
    matrix_ring_presentation,
    run_corpus,
    write_csv,
)
from .errors import (
    ActionRingCapExceeded,
    Caps,
    CapExceeded,
    ElementCapExceeded,
    HypothesisNotMet,
    IllFormedGenerator,
    InvalidModuli,
    LatticeCapExceeded,
    SpecFileError,
    SumEssError,
    UnknownTheoremId,
    caps_from_env,
)
from .graphs import (
    EssGraph,
    GraphReport,
    NPartiteWitness,
    export_dot,
    export_json,
    n_partite_witness,
    proper_sum_essential_graph,
    sum_essential_graph,
)
from .lattice import StronglyDisjointReport, SubmoduleLattice, enumerate_lattice
from .modules import (
    FiniteModule,
    GeneratedAction,
    IntegerAction,
    ModulePresentation,
    Submodule,
    build_module,
    count_homs,
    generated_module,
    integer_module,
    is_isomorphic,
)
from .specfile import format_spec, load_spec, parse_spec_text
from .theorems import (
    CATALOG_ALL,
    CORPUS_GATES,
    REGISTRY,
    TheoremVerdict,
    run_catalog,
)

__version__ = "0.1.0"

__all__ = [
    "ModuleAnalysis",
    "CorpusRow",
    "CorpusSpec",
    "abelian_presentations",
    "enumerate_corpus",
    "matrix_ring_presentation",
    "run_corpus",
    "write_csv",
    "ActionRingCapExceeded",
    "Caps",
    "CapExceeded",
    "ElementCapExceeded",
    "HypothesisNotMet",
    "IllFormedGenerator",
    "InvalidModuli",
    "LatticeCapExceeded",
    "SpecFileError",
    "SumEssError",
    "UnknownTheoremId",
    "caps_from_env",
    "EssGraph",
    "GraphReport",
    "NPartiteWitness",
    "export_dot",
    "export_json",
    "n_partite_witness",
    "proper_sum_essential_graph",
    "sum_essential_graph",
    "StronglyDisjointReport",
    "SubmoduleLattice",
    "enumerate_lattice",
    "FiniteModule",
    "GeneratedAction",
    "IntegerAction",
    "ModulePresentation",
    "Submodule",
    "build_module",
    "count_homs",
    "generated_module",
    "integer_module",
    "is_isomorphic",
    "format_spec",
    "load_spec",
    "parse_spec_text",
    "CATALOG_ALL",
    "CORPUS_GATES",
    "REGISTRY",
    "TheoremVerdict",
    "run_catalog",
]
