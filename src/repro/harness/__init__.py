"""Evaluation harness reproducing the paper's §7 methodology.

* :mod:`repro.harness.saturation` — saturation tests (threads only touch the
  monitor) over the four disciplines: Expresso-generated, hand-written
  explicit, AutoSynch-style, and naive implicit broadcast;
* :mod:`repro.harness.compile_time` — Table 1 (Expresso analysis time);
* :mod:`repro.harness.report` — figure/table series assembly and text reports
  (the same rows/series the paper plots).

The names below are imported from their submodules on first use
(:func:`repro.lazy_exports`): running saturation tests loads no compiler,
while :mod:`~repro.harness.compile_time`, which always compiles, loads it
with itself.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "saturation": "DISCIPLINES SaturationMeasurement build_monitor_class "
                  "run_saturation sweep_thread_ladder",
    "compile_time": "CompileTimeRow measure_compile_times",
    "report": "FigureSeries figure_report render_explore_table "
              "render_figure_table render_mutation_table render_table1 "
              "speedup_summary"})

__all__ = [
    "DISCIPLINES", "SaturationMeasurement", "build_monitor_class",
    "run_saturation", "sweep_thread_ladder",
    "CompileTimeRow", "measure_compile_times",
    "FigureSeries", "figure_report", "render_explore_table",
    "render_figure_table", "render_mutation_table", "render_table1",
    "speedup_summary",
]
