"""First-order logic over linear integer arithmetic and booleans.

This package is the logical substrate used by every analysis in the
reproduction: weakest preconditions, Hoare-triple checking, abduction,
invariant inference and the SMT solver all operate on the expression AST
defined in :mod:`repro.logic.terms`.

The public surface re-exports the node classes plus the smart constructors
from :mod:`repro.logic.build` so that callers can write
``land(ge(v("readers"), i(0)), lnot(v("writerIn", BOOL)))`` style formulas.
"""

from repro.logic.terms import (
    BOOL,
    INT,
    Add,
    And,
    BoolConst,
    Eq,
    Exists,
    Expr,
    Forall,
    Ge,
    Gt,
    Iff,
    Implies,
    IntConst,
    Ite,
    Le,
    Lt,
    Mul,
    Ne,
    Neg,
    Not,
    Or,
    Sort,
    Sub,
    Var,
)
from repro.logic.build import (
    FALSE,
    TRUE,
    add,
    eq,
    ge,
    gt,
    i,
    iff,
    implies,
    ite,
    land,
    le,
    lnot,
    lor,
    lt,
    mul,
    ne,
    neg,
    sub,
    v,
)
from repro.logic.free_vars import free_vars, ordered_free_vars
from repro.logic.substitute import substitute, rename_vars
from repro.logic.evaluate import evaluate, Assignment, EvaluationError
from repro.logic.simplify import simplify
from repro.logic.nnf import to_dnf_clauses, atoms_of
from repro.logic.parser import parse_formula, parse_term, FormulaParseError
from repro.logic.pretty import pretty, to_smtlib

__all__ = [
    # sorts and nodes
    "Sort", "INT", "BOOL", "Expr", "Var", "IntConst", "BoolConst",
    "Add", "Sub", "Neg", "Mul", "Ite",
    "Eq", "Ne", "Lt", "Le", "Gt", "Ge",
    "Not", "And", "Or", "Implies", "Iff", "Forall", "Exists",
    # builders
    "v", "i", "TRUE", "FALSE", "add", "sub", "neg", "mul", "ite",
    "eq", "ne", "lt", "le", "gt", "ge",
    "lnot", "land", "lor", "implies", "iff",
    # operations
    "free_vars", "ordered_free_vars",
    "substitute", "rename_vars",
    "evaluate", "Assignment", "EvaluationError",
    "simplify", "to_dnf_clauses", "atoms_of",
    "parse_formula", "parse_term", "FormulaParseError",
    "pretty", "to_smtlib",
]
