"""repro — reproduction of *Symbolic Reasoning for Automatic Signal Placement* (Expresso, PLDI 2018).

The package is organized as a compiler pipeline plus the substrates it needs:

``repro.logic``
    First-order formulas over linear integer arithmetic and booleans.
``repro.smt``
    A from-scratch decision procedure (DPLL over theory atoms, exact-rational
    simplex with branch-and-bound) and quantifier elimination.
``repro.lang``
    The implicit-signal monitor DSL (lexer, parser, semantic checks).
``repro.analysis``
    Weakest preconditions, Hoare-triple checking, alias analysis,
    commutativity, abduction and monitor-invariant inference.
``repro.placement``
    The signal-placement algorithm and the explicit-signal target language.
``repro.codegen``
    Java-like and executable-Python code generation.
``repro.runtime``
    Executable monitor runtimes (explicit, naive implicit, AutoSynch-style).
``repro.semantics``
    Reference trace semantics used for differential testing.
``repro.benchmarks_lib``
    The paper's 14 benchmark monitors and their workloads.
``repro.harness``
    Saturation tests, a deterministic cost-model scheduler, and report
    generation for every table and figure in the paper's evaluation.
"""

import importlib
import sys
from typing import Any, Callable, Dict

__all__ = ["ExpressoPipeline", "ExpressoResult", "compile_monitor", "__version__"]

__version__ = "1.0.0"


def lazy_exports(package: str, exports: Dict[str, str]) -> Callable[[str], Any]:
    """A PEP 562 ``__getattr__`` for *package*'s re-exports.

    *exports* maps each submodule to the space-separated names it
    re-exports.  The first access to a name imports its submodule and binds
    the name in the package, so ``from package import name`` loads only the
    submodule that defines it.  A name that is also a submodule's name is
    imported eagerly instead: importing that submodule later would rebind
    the package attribute to the module.
    """
    owners = {name: module for module, names in exports.items()
              for name in names.split()}
    assert not owners.keys() & exports.keys(), "bind these names eagerly"

    def __getattr__(name: str) -> Any:
        if name not in owners:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{owners[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


# Importing the pipeline lazily keeps ``import repro`` cheap for callers that
# only need the logic/SMT substrates.
__getattr__ = lazy_exports(__name__, {
    "placement.pipeline": "ExpressoPipeline ExpressoResult compile_monitor"})
