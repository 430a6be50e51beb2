"""First-order logic over linear integer arithmetic and booleans.

This package is the logical substrate used by every analysis in the
reproduction: weakest preconditions, Hoare-triple checking, abduction,
invariant inference and the SMT solver all operate on the expression AST
defined in :mod:`repro.logic.terms`.

The public surface re-exports the node classes plus the smart constructors
from :mod:`repro.logic.build` so that callers can write
``land(ge(v("readers"), i(0)), lnot(v("writerIn", BOOL)))`` style formulas.
Those names are imported from their submodules on first use
(:func:`repro.lazy_exports`), except those that share a submodule's name
(``free_vars``, ``substitute``, ``evaluate``, ``simplify``, ``pretty``) and
the others from those submodules, which are bound eagerly.
"""

from repro import lazy_exports
# Each of these submodules shares its name with one of its exports.
from repro.logic.free_vars import free_vars, ordered_free_vars
from repro.logic.substitute import substitute, rename_vars
from repro.logic.evaluate import evaluate, Assignment, EvaluationError
from repro.logic.simplify import simplify
from repro.logic.pretty import pretty, to_smtlib

__getattr__ = lazy_exports(__name__, {
    "terms": "BOOL INT Add And BoolConst Eq Exists Expr Forall Ge Gt Iff Implies "
             "IntConst Ite Le Lt Mul Ne Neg Not Or Sort Sub Var",
    "build": "FALSE TRUE add eq ge gt i iff implies ite land le lnot lor lt mul "
             "ne neg sub v",
    "nnf": "to_dnf_clauses atoms_of",
    "parser": "parse_formula parse_term FormulaParseError"})

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
