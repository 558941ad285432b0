"""Higher-order logic programs with negation, under a graded
infinite-valued semantics: parsing, type checking, bounded grounding,
minimum models, classical collapses, and extensionality analysis."""

from .analysis import (
    ExtRelation,
    ExtReport,
    StrataAssignment,
    StratViolation,
    check_extensional,
    check_locally_stratified_bounded,
    check_stratified,
    ext_relation,
    type_geq,
)
from .ast import Clause, Program, RawClause, TypedProgram, expr_to_str
from .classical import (
    HasNegation,
    TooManyAtoms,
    Tv3,
    collapse,
    least_model_positive,
    reduct,
    stable_models,
    wf_oracle,
)
from .engine import (
    Comparison,
    InfModel,
    UnknownAtom,
    compare_alpha,
    is_model,
    minimum_model,
    tp_step,
)
from .herbrand import (
    BudgetExceeded,
    EmptyUniverse,
    GroundProgram,
    ground_instantiate,
)
from .parser import ParseError, parse_program, parse_term
from .truth import ZERO, TruthValue, false_at, true_at
from .typecheck import TypeCheckError, typecheck
from .types import IOTA, O, TypeExpr, arrow, classify_type

__version__ = "0.1.0"
