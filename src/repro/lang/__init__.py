"""The implicit-signal monitor language (the paper's source language, Fig. 3).

The concrete syntax is Java-like; the abstract syntax mirrors the paper:

* a monitor is a set of field declarations plus ``atomic`` methods;
* each method body is a sequence of conditional critical regions
  (``waituntil (p) { s }``); plain statements are sugar for
  ``waituntil (true) { s }``;
* statements are assignments, conditionals, loops, and sequences over
  linear-integer/boolean expressions.

The frontend produces a :class:`repro.lang.ast.Monitor` whose guards and
expressions are :mod:`repro.logic` terms, ready for the analyses.

Names resolve on first use (:func:`repro.lazy_exports`): code that only
holds a parsed monitor loads no lexer, parser or checker.
"""

from repro import lazy_exports
from repro.lang.ast import Monitor

__getattr__ = lazy_exports(__name__, {
    "ast": "Assign ArrayAssign CCR FieldDecl If LocalDecl MethodDecl Param Seq "
           "Skip Stmt While seq",
    "lexer": "LexError Token tokenize",
    "parser": "MonitorParseError parse_monitor",
    "check": "MonitorCheckError check_monitor",
    "arrays": "scalarize_monitor",
    "pretty": "pretty_monitor pretty_stmt"})

__all__ = [
    "Monitor", "FieldDecl", "MethodDecl", "Param", "CCR",
    "Stmt", "Skip", "Assign", "ArrayAssign", "Seq", "If", "While", "LocalDecl", "seq",
    "tokenize", "Token", "LexError",
    "parse_monitor", "MonitorParseError",
    "check_monitor", "MonitorCheckError",
    "scalarize_monitor",
    "pretty_monitor", "pretty_stmt",
    "load_monitor",
]


def load_monitor(source: str) -> Monitor:
    """Parse, scalarize and check a monitor from DSL source text.

    This is the one-call frontend used by the pipeline, the examples and the
    benchmark registry.
    """
    from repro.lang.arrays import scalarize_monitor
    from repro.lang.check import check_monitor
    from repro.lang.parser import parse_monitor

    monitor = parse_monitor(source)
    monitor = scalarize_monitor(monitor)
    check_monitor(monitor)
    return monitor
