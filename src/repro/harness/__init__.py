"""Evaluation harness reproducing the paper's §7 methodology.

* :mod:`repro.harness.saturation` — saturation tests (threads only touch the
  monitor) over the four disciplines: Expresso-generated, hand-written
  explicit, AutoSynch-style, and naive implicit broadcast;
* :mod:`repro.harness.compile_time` — Table 1 (Expresso analysis time);
* :mod:`repro.harness.report` — figure/table series assembly and text reports
  (the same rows/series the paper plots).
"""

from repro.harness.saturation import (
    DISCIPLINES,
    SaturationMeasurement,
    build_monitor_class,
    run_saturation,
    sweep_thread_ladder,
)
from repro.harness.compile_time import CompileTimeRow, measure_compile_times
from repro.harness.report import (
    FigureSeries,
    figure_report,
    render_explore_table,
    render_figure_table,
    render_mutation_table,
    render_table1,
    speedup_summary,
)

__all__ = [
    "DISCIPLINES", "SaturationMeasurement", "build_monitor_class",
    "run_saturation", "sweep_thread_ladder",
    "CompileTimeRow", "measure_compile_times",
    "FigureSeries", "figure_report", "render_explore_table",
    "render_figure_table", "render_mutation_table", "render_table1",
    "speedup_summary",
]
