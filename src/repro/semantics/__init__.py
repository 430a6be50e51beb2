"""Reference trace semantics for implicit- and explicit-signal monitors (§3).

This package is the executable counterpart of the paper's formal model:

* :mod:`repro.semantics.state` — monitor states (shared + per-thread locals)
  and a concrete statement interpreter;
* :mod:`repro.semantics.traces` — events, traces, and syntactic
  well-formedness (Appendix A);
* :mod:`repro.semantics.implicit` — the implicit-signal transition relation
  (Figure 4) and trace normalization (Definition 3.3);
* :mod:`repro.semantics.explicit` — the explicit-signal transition relation
  (Figures 5 and 6) driven by placed notifications;
* :mod:`repro.semantics.equivalence` — bounded differential checking of
  Definition 3.4, used to cross-validate the placement algorithm on small
  thread/step budgets.

The names below are imported from their submodules on first use
(:func:`repro.lazy_exports`): the exploration oracle's state interpreter
loads no trace enumerator.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "state": "MonitorState execute_statement",
    "traces": "Event trace_is_well_formed thread_projection",
    "implicit": "ImplicitSemantics TraceOutcome",
    "explicit": "ExplicitSemantics",
    "equivalence": "EquivalenceReport check_bounded_equivalence "
                   "enumerate_feasible_traces"})

__all__ = [
    "MonitorState", "execute_statement",
    "Event", "trace_is_well_formed", "thread_projection",
    "ImplicitSemantics", "ExplicitSemantics", "TraceOutcome",
    "EquivalenceReport", "check_bounded_equivalence", "enumerate_feasible_traces",
]
