"""Static analyses used by the signal-placement pipeline.

* :mod:`repro.analysis.wp` — weakest preconditions over the statement language;
* :mod:`repro.analysis.hoare` — Hoare-triple representation and checking;
* :mod:`repro.analysis.renaming` — thread-local variable renaming (§4.2);
* :mod:`repro.analysis.symexec` — forward symbolic execution (transition maps);
* :mod:`repro.analysis.commutativity` — the Comm(w, M) check of §4.3;
* :mod:`repro.analysis.abduction` — abductive candidate-predicate inference;
* :mod:`repro.analysis.invariants` — monitor-invariant inference (Algorithm 2);
* :mod:`repro.analysis.alias` — Andersen-style may-alias analysis standing in
  for the paper's use of Doop, with §6's guarded store expansion.

What a statement reads and writes is answered in one place for all of them:
the effect walker :func:`repro.lang.effects.stmt_effects` (and
:func:`~repro.lang.effects.stmt_exprs`, the expressions it evaluates), which
commutativity, lint and ``wp`` share with codegen and exploration.

Every name below is imported from its submodule on first use
(:func:`repro.lazy_exports`), so importing the package loads none of them.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "wp": "weakest_precondition",
    "hoare": "HoareTriple check_triple",
    "renaming": "rename_thread_locals renamed_copy",
    "symexec": "symbolic_execute SymbolicState SymbolicExecutionError",
    "commutativity": "bodies_commute calls_semantically_independent ccr_commutes_with_all "
                     "methods_semantically_independent segments_semantically_independent "
                     "semantic_independence_for_explicit",
    "abduction": "abduce AbductionResult",
    "invariants": "infer_monitor_invariant InvariantInferenceResult"})

__all__ = [
    "weakest_precondition",
    "HoareTriple", "check_triple",
    "rename_thread_locals", "renamed_copy",
    "symbolic_execute", "SymbolicState", "SymbolicExecutionError",
    "bodies_commute", "calls_semantically_independent",
    "ccr_commutes_with_all",
    "methods_semantically_independent", "segments_semantically_independent",
    "semantic_independence_for_explicit",
    "abduce", "AbductionResult",
    "infer_monitor_invariant", "InvariantInferenceResult",
]
