"""Table 1: Expresso compilation (analysis + synthesis) time per benchmark.

Each pytest-benchmark case times the *entire* pipeline — parsing, invariant
inference (abduction + predicate-abstraction fixed point), signal placement
(including the §4.3 commutativity checks), and instrumentation — for one of
the 14 benchmarks, i.e. exactly what the paper's Table 1 reports per row.

Since the solver rebuild (iterative CDCL SAT core, Farkas-certificate unsat
cores, per-compile validity-query cache) the suite compiles ~4x faster
than the seed revision on the same container (52.7s -> ~12.8s total); each
case's ``extra_info`` records the cache hit/miss counters so the effect of
memoization on that row is visible in the benchmark report.  Batch runs can
additionally spread benchmarks over worker processes via
``repro.harness.compile_time.measure_compile_times(workers=N)`` or
``expresso bench --table 1 --workers N``.

Script mode (``python benchmarks/bench_table1.py --json [--out
BENCH_compile.json]``) writes a machine-readable artifact mirroring
``BENCH_explore.json`` so the compile-time trajectory is tracked across PRs:
per-benchmark pipeline seconds, validity queries, solver-cache and
commute-cache counters, plus the semantic-independence-matrix build time the
exploration engine now adds on top of each compile.
"""

import argparse
import dataclasses
import json
import os
import sys
import time

from repro.benchmarks_lib import ALL_BENCHMARKS
from repro.placement.pipeline import ExpressoPipeline

try:
    import pytest
except ImportError:  # script mode does not need pytest
    pytest = None

_CASES = [
    pytest.param(spec, id=spec.name.replace(" ", ""))
    for spec in ALL_BENCHMARKS.values()
] if pytest is not None else []


if pytest is not None:
    @pytest.mark.parametrize("spec", _CASES)
    def test_table1_compilation_time(benchmark, spec):
        """One row of Table 1: wall-clock time to synthesize the explicit monitor."""
        monitor = spec.monitor()  # parse outside the measured region, as Soot would be

        def compile_benchmark():
            return ExpressoPipeline().compile(monitor)

        result = benchmark.pedantic(compile_benchmark, iterations=1, rounds=1)
        benchmark.extra_info["benchmark"] = spec.name
        benchmark.extra_info["notifications"] = result.placement.total_notifications()
        benchmark.extra_info["broadcasts"] = result.placement.broadcast_count()
        benchmark.extra_info["validity_queries"] = result.solver_statistics["validity_queries"]
        hits = result.solver_statistics.get("cache_hits", 0)
        misses = result.solver_statistics.get("cache_misses", 0)
        benchmark.extra_info["cache_hits"] = hits
        benchmark.extra_info["cache_misses"] = misses
        benchmark.extra_info["cache_hit_rate"] = round(hits / (hits + misses), 3) if hits + misses else 0.0
        # Per-phase wall breakdown (parse/invariants/placement/instrument/lint)
        # so a slow row can be attributed without re-running under the tracer.
        benchmark.extra_info["phase_seconds"] = {
            phase: round(seconds, 4)
            for phase, seconds in result.phase_seconds.items()
        }


# ---------------------------------------------------------------------------
# Script mode: the BENCH_compile.json perf artifact
# ---------------------------------------------------------------------------


def _measure_semantic_matrices() -> dict:
    """Time the exploration-side semantic matrix build per benchmark.

    Uses one shared solver/cache (as ``coop_class_for_explicit`` does), so
    the rows also witness the commute-verdict memo paying off across the
    suite.
    """
    from repro.analysis.commutativity import semantic_independence_for_explicit
    from repro.harness.saturation import expresso_result
    from repro.smt.cache import FormulaCache
    from repro.smt.solver import Solver

    solver = Solver(cache=FormulaCache())
    rows = []
    for spec in ALL_BENCHMARKS.values():
        explicit = expresso_result(spec).explicit
        start = time.perf_counter()
        matrix = semantic_independence_for_explicit(explicit, solver=solver)
        rows.append({
            "benchmark": spec.name,
            "seconds": round(time.perf_counter() - start, 4),
            "independent_pairs": sum(1 for v in matrix.values() if v),
            "pairs": len(matrix),
        })
    stats = solver.cache.statistics()
    return {
        "rows": rows,
        "total_seconds": round(sum(row["seconds"] for row in rows), 3),
        "commute_cache_hits": stats["commute_cache_hits"],
        "commute_cache_misses": stats["commute_cache_misses"],
        # Lives on the solver, not the cache: pre-filtered pairs never reach it.
        "commute_static_skips": solver.statistics["commute_static_skips"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true",
                        help="write the BENCH_compile.json perf artifact")
    parser.add_argument("--out", default="BENCH_compile.json",
                        help="artifact path (default: BENCH_compile.json)")
    parser.add_argument("--workers", type=int, default=1,
                        help="compile the suite on N processes "
                             "(default: 1 = in-process)")
    args = parser.parse_args(argv)
    if not args.json:
        parser.error("script mode only writes the JSON artifact; pass --json "
                     "(or run this file under pytest for the timing cells)")

    from repro.harness.compile_time import measure_compile_times

    start = time.perf_counter()
    rows = measure_compile_times(workers=args.workers)
    compile_wall = time.perf_counter() - start
    document = {
        "cpu_count": os.cpu_count(),
        "workers": args.workers,
        "rows": [dataclasses.asdict(row) for row in rows],
        "total_compile_seconds": round(sum(row.seconds for row in rows), 3),
        "wall_seconds": round(compile_wall, 3),
        "total_validity_queries": sum(row.validity_queries for row in rows),
        "semantic_matrix": _measure_semantic_matrices(),
    }
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}: {document['total_compile_seconds']}s suite compile, "
          f"{document['semantic_matrix']['total_seconds']}s semantic matrices")
    return 0


if __name__ == "__main__":
    sys.exit(main())
