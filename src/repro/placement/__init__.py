"""Signal placement: the paper's core contribution (Algorithm 1 + §4.2/§4.3).

* :mod:`repro.placement.target` — the explicit-signal target language
  (notifications ``(p, cond, bcast)``, explicit CCRs/monitors);
* :mod:`repro.placement.algorithm` — the ``PlaceSignals`` algorithm with
  thread-local renaming and the commutativity-based broadcast elimination;
* :mod:`repro.placement.instrument` — instrumentation of the source monitor
  with the computed notifications (Figure 7);
* :mod:`repro.placement.pipeline` — the end-to-end Expresso pipeline
  (parse → infer invariant → place signals → instrument → generate code).

The names below are imported from their submodules on first use
(:func:`repro.lazy_exports`), except :func:`instrument`, whose submodule
shares its name.  None of these modules loads the solver until a compile
runs.
"""

from repro import lazy_exports
from repro.placement.instrument import instrument

__getattr__ = lazy_exports(__name__, {
    "target": "ExplicitCCR ExplicitMethod ExplicitMonitor Notification",
    "algorithm": "PlacementDecision PlacementResult generate_placement_triples "
                 "place_signals",
    "pipeline": "ExpressoPipeline ExpressoResult compile_monitor"})

__all__ = [
    "Notification", "ExplicitCCR", "ExplicitMethod", "ExplicitMonitor",
    "PlacementDecision", "PlacementResult", "place_signals", "generate_placement_triples",
    "instrument",
    "ExpressoPipeline", "ExpressoResult", "compile_monitor",
]
