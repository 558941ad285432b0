"""Higher-order logic programs with negation, under a graded
infinite-valued semantics: parsing, type checking, bounded grounding,
minimum models, classical collapses, and extensionality analysis."""

from .analysis import (
    ExtReport,
    StrataAssignment,
    StratViolation,
    check_extensional,
    check_locally_stratified_bounded,
    check_stratified,
    type_geq,
)
from .ast import Clause, Program, RawClause, TypedProgram, expr_to_str
from .classical import TooManyAtoms, Tv3, collapse, stable_models, wf_oracle
from .engine import InfModel, UnknownAtom, minimum_model
from .herbrand import (
    BudgetExceeded,
    EmptyUniverse,
    GroundProgram,
    ground_instantiate,
)
from .parser import ParseError, parse_program, parse_term
from .truth import ZERO, TruthValue, false_at, true_at
from .typecheck import TypeCheckError, typecheck
from .types import IOTA, O, TypeExpr, arrow

__version__ = "0.1.0"
