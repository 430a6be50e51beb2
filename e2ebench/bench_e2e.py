#!/usr/bin/env python3
"""End-to-end benchmark of the Expresso reproduction, one workload per run.

Run from the repository root (no install step; the program is imported
from ``src/``)::

    python3 e2ebench/bench_e2e.py --workload compile-suite
    python3 e2ebench/bench_e2e.py --workload saturate --seed 7 --seconds 10
    python3 e2ebench/bench_e2e.py --workload fuzz-campaign --trace 1 \\
        --trace-out fuzz-trace.json

Workloads (README.md says why each was chosen).  Each is a closed loop: one
caller issues the next compile, exploration, monitor operation or fuzz
candidate only after the previous one returned.  Each uses this one process
and at most two threads.

* ``compile-suite``: Table 1.  A pass compiles the 14 benchmark monitors
  from source text, each with a fresh ``ExpressoPipeline()``.
* ``explore-suite``: time to verdict.  A pass exhausts all 14 generated
  monitors under the reference oracle (DPOR DFS, 3 threads x 3 ops).
* ``saturate``: Figures 8/9.  A pass runs a two-thread saturation test of
  every monitor under the Expresso, hand-written and AutoSynch disciplines.
* ``fuzz-campaign``: a pass is one cold coverage-guided campaign against an
  on-disk campaign store, corpus and journal.

A run first sets the workload up several times (each set-up imports the
program afresh, so module-level caches start cold) and keeps the last, then
runs passes until ``--seconds`` have elapsed (at least one).  With
``--trace 0`` it reports the end-to-end metrics: the median pass time, the
median set-up time and the peak RSS.  With ``--trace 1`` it runs one plain
pass, then one pass with layer wrappers installed, and reports the
per-layer metrics, the span coverage and the tracing overhead.  Every output
is checked against ``data/expected.json``; a failed operation is counted,
never raised.  The last line of standard output is the JSON result.

Times are in reference seconds: wall seconds scaled by the interpreter
speed measured next to the timed work (:class:`SpeedMeter`), so that the
host's speed swings do not read as changes of the program.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import json
import math
import os
import pickle
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "data" / "expected.json"
#: Build cache and fuzz scratch space, inside the checkout (git-ignored).
BUILD_DIR = ROOT / ".bench_build"

DEFAULT_SEED = 2026
RUN_SECONDS = 10.0
SETUP_REPEATS = 5
DISCIPLINES = ("expresso", "explicit", "autosynch")
#: One exploration: DPOR DFS over spec.workload(3, 3); one saturation run:
#: two threads of 6,000 operations each.
EXPLORE_THREADS = 3
EXPLORE_OPS = 3
EXPLORE_BUDGET = 50_000
SATURATION_THREADS = 2
SATURATION_OPS = 6000

#: The one fuzz campaign every run measures.  Campaign cost varies fifteen-
#: fold across campaign seeds (3.5 s to 52 s for the same 28 candidates), so
#: a seed-derived campaign's time would follow the seed, not the program.
FUZZ_SEED = 2026
FUZZ_FIXED = {"per_run_budget": 40, "bootstrap": 4, "batch_size": 4,
              "workers": 1}

#: Calibration units per reference second (see SpeedMeter).
REF_RATE = 20_000.0
#: Calibration time after a timed operation, as a share of it, and the
#: slice taken every SAMPLE_PERIOD seconds during a sampled pass.
CALIBRATION_SHARE = 0.2
SAMPLE_PERIOD = 0.25
SAMPLE_SLICE = CALIBRATION_SHARE * SAMPLE_PERIOD

#: (name, unit, better) of the metrics an untraced run prints.
END_TO_END = (
    ("pass_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of the metrics a traced run prints.
PER_LAYER = (
    ("lang.self_s", "s", "lower"),
    ("analysis.invariants.self_s", "s", "lower"),
    ("smt.self_s", "s", "lower"),
    ("smt.calls", "count", "lower"),
    ("smt.cache_hit_ratio", "ratio", "higher"),
    ("smt.validity_queries", "count", "lower"),
    ("placement.self_s", "s", "lower"),
    ("placement.notifications", "count", "lower"),
    ("analysis.lint.self_s", "s", "lower"),
    ("analysis.commutativity.self_s", "s", "lower"),
    ("codegen.self_s", "s", "lower"),
    ("explore.engine.self_s", "s", "lower"),
    ("explore.scheduler.self_s", "s", "lower"),
    ("explore.scheduler.calls", "count", "lower"),
    ("explore.oracle.self_s", "s", "lower"),
    ("explore.oracle_hit_ratio", "ratio", "higher"),
    ("explore.judged", "count", "lower"),
    ("explore.pruned", "count", "lower"),
    ("explore.por_skipped", "count", "higher"),
    ("explore.symmetry_skipped", "count", "higher"),
    ("explore.distinct_states", "count", "lower"),
    ("explore.useful_ratio", "ratio", "higher"),
    ("runtime.expresso.op_us", "us", "lower"),
    ("runtime.explicit.op_us", "us", "lower"),
    ("runtime.autosynch.op_us", "us", "lower"),
    ("runtime.speedup_vs_autosynch", "x", "higher"),
    ("runtime.ratio_vs_explicit", "x", "lower"),
    ("runtime.expresso.notifies_per_op", "1/op", "lower"),
    ("runtime.expresso.wakeups_per_op", "1/op", "lower"),
    ("runtime.expresso.spurious_wakeups_per_op", "1/op", "lower"),
    ("runtime.expresso.predicate_evals_per_op", "1/op", "lower"),
    ("runtime.autosynch.notifies_per_op", "1/op", "lower"),
    ("runtime.autosynch.wakeups_per_op", "1/op", "lower"),
    ("runtime.autosynch.spurious_wakeups_per_op", "1/op", "lower"),
    ("runtime.autosynch.predicate_evals_per_op", "1/op", "lower"),
    ("fuzz.candidates", "count", "higher"),
    ("fuzz.admitted_ratio", "ratio", "higher"),
    ("fuzz.mutate.self_s", "s", "lower"),
    ("fuzz.coverage.self_s", "s", "lower"),
    ("fuzz.corpus.self_s", "s", "lower"),
    ("resilience.journal.self_s", "s", "lower"),
    ("distrib.store.self_s", "s", "lower"),
    ("distrib.store.transactions", "count", "lower"),
    ("trace.span_coverage", "%", "higher"),
    ("trace.overhead", "%", "lower"),
)


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does.  ``FULL`` is the benchmark; the tests
    run a toy size."""

    monitors: Optional[Tuple[str, ...]] = None   # None: all 14 monitors
    fuzz_budget: int = 400


FULL = Sizes()


@dataclass
class PassResult:
    """One pass: its gated wall time, per-operation samples and failures.

    ``factor`` is the interpreter speed measured next to the pass relative
    to the reference; wall seconds times ``factor`` are reference seconds.
    """

    seconds: float
    samples: List[float]
    attempted: int
    failures: List[str] = field(default_factory=list)
    factor: float = 1.0


def _calibration_unit() -> dict:
    table: dict = {}
    for i in range(200):
        key = (i & 63, "k")
        table[key] = table.get(key, 0) + i
    return table


class SpeedMeter:
    """Measures interpreter speed next to the timed work.

    On the 2-vCPU virtual machine the benchmark was calibrated on, the
    vCPUs switch between two speeds 1.6x apart several times a second and
    the mix drifts over minutes: one explore-suite pass read 1.3 s to 2.1 s
    across runs of the same tree.  The meter runs a fixed
    pure-Python loop for a fifth of the timed work's duration and the pass
    is scaled by the loop's rate.  The loop runs either after each short
    operation (:meth:`after`) or, for passes with long operations, as a
    slice every ``SAMPLE_PERIOD`` seconds from a timer signal
    (:meth:`sampling`); ``seconds`` is the calibration time, which the
    workloads subtract from their timings.  The explore-suite interquartile
    range over ten runs fell from 16% of the median uncalibrated to
    0.8-7.3% in three calibrated sets.
    """

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def calibrate(self, budget: float) -> None:
        start = time.perf_counter()
        while True:
            for _ in range(10):
                _calibration_unit()
            self.units += 10
            elapsed = time.perf_counter() - start
            if elapsed >= budget:
                break
        self.seconds += elapsed

    def after(self, seconds: float) -> None:
        """Calibrate for a share of *seconds* of just-timed work."""
        self.calibrate(CALIBRATION_SHARE * seconds)

    @contextlib.contextmanager
    def sampling(self):
        """Take a calibration slice every SAMPLE_PERIOD seconds of the block."""
        previous = signal.signal(signal.SIGALRM,
                                 lambda _signum, _frame: self.calibrate(SAMPLE_SLICE))
        signal.siginterrupt(signal.SIGALRM, False)   # restart interrupted syscalls
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def factor(self) -> float:
        return self.units / self.seconds / REF_RATE if self.seconds else 1.0


class _NoMeter:
    """Stands in for a SpeedMeter where operations must not interleave."""

    seconds = 0.0

    def after(self, seconds: float) -> None:
        pass


NO_METER = _NoMeter()


def derive_seed(*parts) -> int:
    """A process-independent 32-bit seed from the run seed and a position."""
    digest = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def require_source() -> None:
    """Exit with status 1 (and no result line) when ``src/repro`` is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench_e2e: no program source at {SRC}/repro; "
                         f"run from the root of a repository checkout")


def fresh_import(module_names) -> SimpleNamespace:
    """Import the program as a new process would.

    Every ``repro`` module is dropped from ``sys.modules`` first, so the
    program's module-level caches (the fuzz worker pipeline, the shared
    commutativity solver, the harness class caches) start cold, and every
    set-up in a run pays the program's own import again.  The namespace maps
    each module's last dotted component to the module.
    """
    for name in [name for name in sys.modules
                 if name == "repro" or name.startswith("repro.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{name.rsplit(".", 1)[-1]: importlib.import_module(name)
                              for name in module_names})


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def fuzz_config_dict(sizes: Sizes) -> dict:
    return {"seed": FUZZ_SEED, "budget": sizes.fuzz_budget, **FUZZ_FIXED}


def fuzz_digest(result) -> str:
    """Digest of a campaign result without its timing-dependent lease counters."""
    record = {key: value for key, value in result.to_dict().items()
              if key != "distrib"}
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def placement_record(result, python_gen) -> dict:
    return {"signature": [list(row) for row in
                          python_gen.placement_signature(result.placement)],
            "notifications": result.placement.total_notifications(),
            "broadcasts": result.placement.broadcast_count()}


def placement_problem(expected: dict, name: str, result, python_gen) -> Optional[str]:
    want = expected["placements"].get(name)
    if want is None:
        return f"{name}: no expected placement"
    if placement_record(result, python_gen) != want:
        return f"{name}: placement differs from data/expected.json"
    return None


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _no_span(_name: str):
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Suite build (explore-suite and saturate measure the compiler's output)
# ---------------------------------------------------------------------------


def tree_digest(names: Tuple[str, ...]) -> str:
    """Key of a suite build: the program source, Python version and monitors."""
    digest = hashlib.sha256(sys.version.encode())
    digest.update("\0".join(names).encode())
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:20]


def build_suite(names: Tuple[str, ...], build_dir: Path) -> Tuple[Path, float]:
    """Compile the suite once per source tree; return (pickle path, seconds).

    The compile is the build step of the programs explore-suite and
    saturate run, so it is cached under *build_dir* and excluded from their
    set-up time; compile-suite measures it.  A child process compiles, so
    the build's memory peak stays out of the measured process.  The pickle
    is written by this benchmark only.
    """
    path = build_dir / f"suite-{tree_digest(names)}.pickle"
    if path.is_file():
        return path, 0.0
    build_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    # A plain child interpreter, waited for (and killed on interrupt) by
    # subprocess.run.  multiprocessing's spawn context would also start a
    # resource-tracker process that outlives this one.
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--build-suite",
         str(path), *names],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    if child.returncode != 0 or not path.is_file():
        raise RuntimeError(f"suite build failed (exit code {child.returncode})")
    return path, time.perf_counter() - start


def _compile_suite(names: Tuple[str, ...], path: str) -> None:
    repro = fresh_import(("repro.benchmarks_lib", "repro.placement.pipeline"))
    suite = repro.benchmarks_lib.ALL_BENCHMARKS
    results = {name: repro.pipeline.ExpressoPipeline().compile(suite[name].source)
               for name in names}
    partial = Path(f"{path}.{os.getpid()}.tmp")
    with partial.open("wb") as handle:
        pickle.dump(results, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(partial, path)


class PrebuiltPipeline:
    """Serves the suite build to the harness APIs that take a ``pipeline``."""

    def __init__(self, results: dict) -> None:
        self._by_monitor = {result.monitor.name: result for result in results.values()}

    def config_key(self) -> tuple:
        return ("e2ebench-suite-build",)

    def compile(self, monitor):
        return self._by_monitor[monitor.name]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A set-up plus a pass; subclasses define both.

    ``run_pass`` times each operation with :meth:`clock`, which leaves out
    the calibration slices the timer inserts during the pass.
    """

    name = ""
    modules: Tuple[str, ...] = ()
    #: Set up afresh (cold caches) before every pass, not only once.
    fresh_setup_per_pass = False
    #: Calibrates with ``self.meter.after`` between its own operations
    #: instead of timer slices.
    self_calibrating = False
    #: Run pinned to one CPU.  The saturation threads hand the interpreter
    #: lock back and forth; across two vCPUs every hand-off is a cross-CPU
    #: wake-up whose cost follows the host's load (2.6x between runs),
    #: while one CPU measures the monitor's own switching within 3%.
    single_cpu = False
    sample_unit = "s"
    sample_name = "operation"
    pass_name = "pass"
    seed_note = "not used: the workload is deterministic"

    def __init__(self, sizes: Sizes, expected: dict, build_dir: Path) -> None:
        self.sizes = sizes
        self.expected = expected
        self.build_dir = build_dir
        self.repro = None
        #: Per-layer values the workload measures itself (``--trace 1``).
        self.layer_counts: Counter = Counter()
        self.setup_attempted = 0
        self.setup_failures: List[str] = []
        self.meter = NO_METER
        #: Replaced by the traced run's span factory.
        self.span: Callable = _no_span

    def clock(self) -> float:
        """Wall seconds minus the calibration time spent so far."""
        return time.perf_counter() - self.meter.seconds

    def specs(self, repro) -> list:
        suite = repro.benchmarks_lib.ALL_BENCHMARKS
        names = self.sizes.monitors or tuple(suite)
        return [suite[name] for name in names]

    def build(self, repro) -> float:
        """Prepare what set-ups share across runs; returns seconds spent."""
        return 0.0

    def setup(self, before_prepare: Callable = lambda: None) -> float:
        """One set-up (a fresh import plus :meth:`prepare`); wall seconds."""
        start = time.perf_counter()
        repro = fresh_import(self.modules)
        before_prepare()
        self.prepare(repro)
        return time.perf_counter() - start

    def prepare(self, repro) -> None:
        self.repro = repro

    def run_pass(self, index: int, seed: int) -> PassResult:
        raise NotImplementedError

    def layer_values(self) -> Dict[str, float]:
        return {}

    def derived_lines(self, pass_s: float, passes: List[PassResult]) -> List[str]:
        """Report lines for the workload's own figures derived from pass_s."""
        return []


class CompileSuite(Workload):
    name = "compile-suite"
    modules = ("repro.benchmarks_lib", "repro.placement.pipeline",
               "repro.codegen.python_gen")
    sample_name = "monitor compile"
    pass_name = "Table 1 suite compile (compile_s)"

    def run_pass(self, index: int, seed: int) -> PassResult:
        repro = self.repro
        samples: List[float] = []
        failures: List[str] = []
        specs = self.specs(repro)
        for spec in specs:
            began = self.clock()
            try:
                result = repro.pipeline.ExpressoPipeline().compile(spec.source)
                problem = placement_problem(self.expected, spec.name, result,
                                            repro.python_gen)
            except Exception as exc:
                problem = f"{spec.name}: compile: {_describe(exc)}"
            samples.append(self.clock() - began)
            if problem:
                failures.append(problem)
        return PassResult(sum(samples), samples, len(specs), failures)


class SuiteWorkload(Workload):
    """Shared set-up of the two workloads that run the compiled suite."""

    def build(self, repro) -> float:
        self.build_path, seconds = build_suite(
            tuple(spec.name for spec in self.specs(repro)), self.build_dir)
        return seconds

    def prepare(self, repro) -> None:
        self.repro = repro
        with self.build_path.open("rb") as handle:
            self.results = pickle.load(handle)
        self.setup_attempted = len(self.results)
        self.setup_failures = [problem for name, result in self.results.items()
                               if (problem := placement_problem(
                                   self.expected, name, result, repro.python_gen))]
        self.layer_counts["placement.notifications"] = sum(
            result.placement.total_notifications() for result in self.results.values())
        self.pipeline = PrebuiltPipeline(self.results)


class ExploreSuite(SuiteWorkload):
    name = "explore-suite"
    modules = ("repro.benchmarks_lib", "repro.placement.pipeline",
               "repro.codegen.python_gen", "repro.explore.engine")
    sample_name = "monitor exploration"
    pass_name = "suite time to verdict (verdict_s)"
    # Explorations take 3 ms to 0.9 s; calibrating after each one tracked
    # the host's speed better (2.7% spread) than timer slices (5.7%).
    self_calibrating = True
    seed_note = "not used: the exploration is deterministic and exhaustive"

    def prepare(self, repro) -> None:
        super().prepare(repro)
        self.items = []
        for spec in self.specs(repro):
            reference, coop_class = repro.engine.coop_monitor_and_class(
                spec, "expresso", self.pipeline)
            programs = spec.workload(EXPLORE_THREADS, EXPLORE_OPS)
            self.items.append((spec.name, reference, coop_class, programs))

    def explore(self, name: str, reference, coop_class, programs):
        return self.repro.engine.explore_class(
            reference, coop_class, programs, strategy="dfs",
            budget=EXPLORE_BUDGET, por=True, semantic=True,
            symmetry=True, minimize=False, benchmark=name, discipline="expresso")

    def run_pass(self, index: int, seed: int) -> PassResult:
        samples: List[float] = []
        failures: List[str] = []
        for item in self.items:
            name = item[0]
            began = self.clock()
            try:
                result = self.explore(*item)
                verdict = {"ok": result.ok, "exhausted": result.exhausted}
                problem = (None if verdict == self.expected["verdicts"].get(name)
                           and result.ok and result.exhausted
                           else f"{name}: verdict {verdict}")
            except Exception as exc:
                problem = f"{name}: explore: {_describe(exc)}"
            samples.append(self.clock() - began)
            self.meter.after(samples[-1])
            if problem:
                failures.append(problem)
        return PassResult(sum(samples), samples, len(self.items), failures)


class Saturate(SuiteWorkload):
    name = "saturate"
    modules = ("repro.benchmarks_lib", "repro.placement.pipeline",
               "repro.codegen.python_gen", "repro.harness.saturation")
    single_cpu = True
    # A timer slice would take the interpreter lock from the saturation
    # threads mid-run; calibrate between runs instead.
    self_calibrating = True
    sample_unit = "us/op"
    sample_name = "Expresso saturation run"
    pass_name = "Expresso-generated monitors' saturation runs"
    seed_note = "derives every run's thread-shuffle seed"

    def prepare(self, repro) -> None:
        super().prepare(repro)
        with self.span("codegen"):
            for spec in self.specs(repro):
                for discipline in DISCIPLINES:
                    repro.saturation.build_monitor_class(spec, discipline,
                                                         self.pipeline)

    def saturate(self, spec, discipline: str, seed: int):
        return self.repro.saturation.run_saturation(
            spec, discipline, SATURATION_THREADS, SATURATION_OPS,
            timeout_seconds=30.0, pipeline=self.pipeline, seed=seed)

    def run_pass(self, index: int, seed: int) -> PassResult:
        saturation = self.repro.saturation
        samples: List[float] = []
        failures: List[str] = []
        expresso_seconds = 0.0
        attempted = 0
        for spec in self.specs(self.repro):
            for discipline in DISCIPLINES:
                attempted += 1
                label = f"{spec.name}/{discipline}"
                try:
                    with self.span(f"runtime.{discipline}"):
                        run = self.saturate(spec, discipline, derive_seed(
                            seed, index, spec.name, discipline))
                except saturation.SaturationTimeout as exc:
                    failures.append(f"{label}: {exc}")
                    continue
                except Exception as exc:
                    failures.append(f"{label}: {_describe(exc)}")
                    continue
                self.meter.after(run.elapsed_seconds)
                counted = run.metrics["operations"]
                want = self.expected["saturation"]["operations"][spec.name][discipline]
                if counted != want:
                    failures.append(f"{label}: {counted} operations counted, "
                                    f"expected {want}")
                prefix = f"runtime.{discipline}."
                self.layer_counts[prefix + "seconds"] += run.elapsed_seconds
                self.layer_counts[prefix + "ops"] += run.operations
                for key, value in run.metrics.items():
                    self.layer_counts[prefix + key] += value
                if discipline == "expresso":
                    expresso_seconds += run.elapsed_seconds
                    # H2O Barrier's two-thread workload is empty: a
                    # molecule needs three threads.
                    if run.operations:
                        samples.append(run.elapsed_seconds * 1e6 / run.operations)
        return PassResult(expresso_seconds, samples, attempted, failures)

    def derived_lines(self, pass_s: float, passes: List[PassResult]) -> List[str]:
        ops = self.layer_counts["runtime.expresso.ops"] / len(passes)
        return [f"op_us        {pass_s * 1e6 / ops:.4f} us per "
                f"Expresso-generated monitor operation"]

    def layer_values(self) -> Dict[str, float]:
        counts = self.layer_counts

        def per_op(discipline: str, *keys: str) -> float:
            ops = counts[f"runtime.{discipline}.ops"]
            total = sum(counts[f"runtime.{discipline}.{key}"] for key in keys)
            return total / ops if ops else 0.0

        values = {f"runtime.{d}.op_us": 1e6 * per_op(d, "seconds")
                  for d in DISCIPLINES}
        expresso = values["runtime.expresso.op_us"]
        values["runtime.speedup_vs_autosynch"] = (
            values["runtime.autosynch.op_us"] / expresso if expresso else 0.0)
        values["runtime.ratio_vs_explicit"] = (
            expresso / values["runtime.explicit.op_us"]
            if values["runtime.explicit.op_us"] else 0.0)
        for discipline in ("expresso", "autosynch"):
            prefix = f"runtime.{discipline}."
            values[prefix + "notifies_per_op"] = per_op(discipline, "signals",
                                                        "broadcasts")
            values[prefix + "wakeups_per_op"] = per_op(discipline, "wakeups")
            values[prefix + "spurious_wakeups_per_op"] = per_op(
                discipline, "spurious_wakeups")
            values[prefix + "predicate_evals_per_op"] = per_op(
                discipline, "predicate_evaluations")
        return values


class FuzzCampaign(Workload):
    name = "fuzz-campaign"
    modules = ("repro.fuzz.campaign", "repro.fuzz.corpus", "repro.distrib")
    fresh_setup_per_pass = True
    sample_name = "candidate evaluation"
    pass_name = "one cold campaign"
    seed_note = f"not used: every run measures the one campaign with seed {FUZZ_SEED}"

    def prepare(self, repro) -> None:
        self.repro = repro
        self.candidate_seconds: List[float] = []
        campaign = repro.campaign
        evaluate = campaign._evaluate_candidate
        bench = self

        # Candidate timing for the tail.  functools.wraps keeps the module
        # path, so the work queue still pickles the job's function by
        # reference.
        @functools.wraps(evaluate)
        def timed_evaluate(job: dict) -> dict:
            began = bench.clock()
            try:
                return evaluate(job)
            finally:
                bench.candidate_seconds.append(bench.clock() - began)

        campaign._evaluate_candidate = timed_evaluate

    def run_pass(self, index: int, seed: int) -> PassResult:
        repro = self.repro
        self.candidate_seconds.clear()
        self.build_dir.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="fuzz-", dir=self.build_dir))
        config_dict = fuzz_config_dict(self.sizes)
        start = self.clock()
        try:
            config = repro.campaign.FuzzConfig(
                **config_dict, distrib=repro.distrib.DistribConfig(
                    store_path=str(workdir / "store.sqlite")))
            result = repro.campaign.run_campaign(
                config, repro.corpus.CorpusStore(str(workdir / "corpus")))
        except Exception as exc:
            return PassResult(self.clock() - start, [], 1,
                              [f"campaign: {_describe(exc)}"])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        seconds = self.clock() - start
        self.last_result = result
        failures = [f"finding: {finding.get('kind')} in {finding.get('monitor')}"
                    for finding in result.findings]
        failures += ["duplicate finding"] * result.duplicate_findings
        failures += [f"{error['entry_id']}: {error['error']}"
                     for error in result.compile_errors]
        want = self.expected["fuzz"]
        if want["config"] == config_dict and fuzz_digest(result) != want["digest"]:
            failures.append("campaign result digest differs from data/expected.json")
        self.layer_counts["fuzz.candidates"] += result.monitors
        self.layer_counts["fuzz.admitted"] += result.corpus_size
        return PassResult(seconds, list(self.candidate_seconds), result.monitors,
                          failures)

    def derived_lines(self, pass_s: float, passes: List[PassResult]) -> List[str]:
        return [f"candidates   {passes[-1].attempted / pass_s:.4f} per second "
                f"(candidates_per_s)"]

    def layer_values(self) -> Dict[str, float]:
        candidates = self.layer_counts["fuzz.candidates"]
        return {"fuzz.candidates": candidates,
                "fuzz.admitted_ratio": (self.layer_counts["fuzz.admitted"] / candidates
                                        if candidates else 0.0)}


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (CompileSuite, ExploreSuite, Saturate, FuzzCampaign)}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def tail(samples: List[float]) -> Optional[Tuple[float, float]]:
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    for percentile in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(percentile / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            return percentile, ordered[rank - 1]
    return None


def timed_pass(bench: Workload, index: int, seed: int, span: Callable = _no_span,
               interleave: bool = True) -> PassResult:
    """One pass with the cyclic garbage collector off, as ``timeit`` does.

    Collection points fall at different places in repeated passes, which
    spread one explore-suite monitor's time by 20-30% (interquartile range
    over 25 repetitions) against 3% with the collector off.  The program
    makes few reference cycles: a full pass peaks within 2 MB of the same
    pass with the collector on.  Calibration interleaves with the pass, or
    follows it when *interleave* is off (the traced comparison, whose spans
    must hold program work only).
    """
    meter = SpeedMeter()
    bench.meter = meter if interleave else NO_METER
    sampled = interleave and not bench.self_calibrating
    gc.collect()
    gc.disable()
    try:
        began = time.perf_counter()
        with span("pass"), (meter.sampling() if sampled
                            else contextlib.nullcontext()):
            result = bench.run_pass(index, seed)
        if not interleave:
            meter.after(time.perf_counter() - began)
    finally:
        gc.enable()
        bench.meter = NO_METER
    result.factor = meter.factor
    return result


def timed_setup(bench: Workload) -> Tuple[float, float]:
    """(reference seconds, wall seconds) of one set-up."""
    seconds = bench.setup()
    meter = SpeedMeter()
    meter.after(seconds)
    return seconds * meter.factor, seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(metrics: Dict[str, float], units: Dict[str, str], attempted: int,
            failures: List[str]) -> Tuple[dict, List[str]]:
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}, failures


def _timed_run(bench: Workload, seed: int, seconds: float,
               report: Callable[[str], None]) -> Tuple[dict, List[str]]:
    setups = [timed_setup(bench) for _ in range(SETUP_REPEATS)]
    passes: List[PassResult] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if passes and bench.fresh_setup_per_pass:
            setups.append(timed_setup(bench))
        passes.append(timed_pass(bench, len(passes), seed))
    failures = bench.setup_failures + [f for p in passes for f in p.failures]
    attempted = bench.setup_attempted + sum(p.attempted for p in passes)
    metrics = {"pass_s": statistics.median(p.seconds * p.factor for p in passes),
               "setup_s": statistics.median(ref for ref, _wall in setups),
               "peak_rss_mb": peak_rss_mb()}
    report(f"pass_s       {metrics['pass_s']:.4f} s  median of {len(passes)} "
           f"pass(es), each the {bench.pass_name}; wall "
           f"{statistics.median(p.seconds for p in passes):.4f} s at speed factor "
           f"{statistics.median(p.factor for p in passes):.3f}")
    samples = [value * p.factor for p in passes for value in p.samples]
    found = tail(samples)
    if found is None:
        report(f"tail         none: {len(samples)} {bench.sample_name} samples "
               f"leave fewer than 10 beyond the median")
    else:
        report(f"tail         p{found[0]:g} {found[1]:.6g} {bench.sample_unit} "
               f"over n={len(samples)} {bench.sample_name}s "
               f"(median {statistics.median(samples):.6g})")
    for line in bench.derived_lines(metrics["pass_s"], passes):
        report(line)
    report(f"setup_s      {metrics['setup_s']:.4f} s  median of {len(setups)} "
           f"set-ups (fresh import + inputs); wall "
           f"{statistics.median(wall for _ref, wall in setups):.4f} s")
    report(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    return _result(metrics, {name: unit for name, unit, _ in END_TO_END},
                   attempted, failures)


def _traced_run(bench: Workload, seed: int, trace_out: Optional[str],
                report: Callable[[str], None]) -> Tuple[dict, List[str]]:
    from layer_trace import LayerTrace

    bench.setup()
    baseline = timed_pass(bench, 0, seed, interleave=False)
    bench.layer_counts.clear()
    trace = LayerTrace()
    bench.span = trace.span
    try:
        with trace.span("setup"):
            bench.setup(before_prepare=trace.install)
        traced = timed_pass(bench, 1, seed, span=trace.span, interleave=False)
    finally:
        trace.uninstall()
        bench.span = _no_span
    self_s = trace.self_seconds()
    counts = trace.counts
    smt_calls = trace.calls("smt")
    scheduler_calls = trace.calls("explore.scheduler")
    oracle_lookups = counts["explore.oracle_hits"] + counts["explore.oracle_misses"]
    plain = baseline.seconds * baseline.factor
    values: Dict[str, float] = {
        "smt.calls": smt_calls,
        "smt.cache_hit_ratio": counts["smt.cache_hits"] / smt_calls if smt_calls else 0.0,
        "smt.validity_queries": counts["smt.validity_queries"],
        "placement.notifications": (counts["placement.notifications"]
                                    + bench.layer_counts["placement.notifications"]),
        "explore.scheduler.calls": scheduler_calls,
        "explore.oracle_hit_ratio": (counts["explore.oracle_hits"] / oracle_lookups
                                     if oracle_lookups else 0.0),
        "explore.judged": counts["explore.schedules_run"],
        "explore.pruned": counts["explore.pruned"],
        "explore.por_skipped": counts["explore.por_skipped"],
        "explore.symmetry_skipped": counts["explore.symmetry_skipped"],
        "explore.distinct_states": counts["explore.distinct_states"],
        "explore.useful_ratio": (counts["explore.schedules_run"] / scheduler_calls
                                 if scheduler_calls else 0.0),
        "distrib.store.transactions": trace.calls("distrib.store"),
        "trace.span_coverage": 100.0 * trace.coverage("pass"),
        "trace.overhead": 100.0 * (traced.seconds * traced.factor - plain) / plain,
    }
    values.update(bench.layer_values())
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, unit in units.items():
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[:-len(".self_s")], 0.0)
        values.setdefault(name, 0.0)
        if unit in ("s", "us"):   # times, like pass_s, in reference units
            values[name] *= traced.factor
    if set(values) != set(units):
        raise RuntimeError(f"per-layer metrics out of sync: {sorted(set(values) ^ set(units))}")
    report(f"traced pass  {traced.seconds * traced.factor:.4f} s vs plain {plain:.4f} s "
           f"(reference seconds): overhead {values['trace.overhead']:.2f}%")
    report(f"coverage     {values['trace.span_coverage']:.2f}% of the traced pass "
           f"is inside layer spans (set-up: {100.0 * trace.coverage('setup'):.2f}%)")
    for name, unit, _ in PER_LAYER:
        report(f"  {name:<44} {values[name]:.6g} {unit}")
    if trace_out:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(trace.chrome_document(), handle)
            handle.write("\n")
        report(f"trace        wrote {trace_out}")
    failures = bench.setup_failures + baseline.failures + traced.failures
    attempted = bench.setup_attempted + baseline.attempted + traced.attempted
    return _result({name: values[name] for name in units}, units, attempted, failures)


def run_benchmark(workload: str, seed: int = DEFAULT_SEED,
                  seconds: float = RUN_SECONDS, trace: bool = False,
                  trace_out: Optional[str] = None, sizes: Sizes = FULL,
                  expected: Optional[dict] = None, build_dir: Path = BUILD_DIR,
                  report: Callable[[str], None] = print) -> dict:
    """Run one workload and return the result object the CLI prints last."""
    require_source()
    bench = WORKLOADS[workload](sizes, load_expected() if expected is None
                                else expected, build_dir)
    report(f"workload     {workload}: closed loop, 1 caller; seed {seed} "
           f"{bench.seed_note}")
    # The first import also loads the standard-library modules the program
    # uses, so the timed set-ups that follow all start alike.
    built = bench.build(fresh_import(bench.modules))
    if built:
        report(f"build        compiled the suite in {built:.1f} s "
               f"(cached under {build_dir.name}/, not part of setup_s)")
    cpus = os.sched_getaffinity(0)
    if bench.single_cpu:
        os.sched_setaffinity(0, {max(cpus)})
        report(f"cpu          pinned to CPU {max(cpus)} of {sorted(cpus)}")
    try:
        if trace:
            result, failures = _traced_run(bench, seed, trace_out, report)
        else:
            result, failures = _timed_run(bench, seed, seconds, report)
    finally:
        os.sched_setaffinity(0, cpus)
    report(f"operations   {result['attempted']} attempted, {result['failed']} failed")
    for failure in failures[:20]:
        report(f"  FAILED     {failure}")
    return result


# ---------------------------------------------------------------------------
# data/expected.json
# ---------------------------------------------------------------------------


def write_expected(path: Path = EXPECTED_PATH, build_dir: Path = BUILD_DIR) -> dict:
    """Record the reference outputs every run is checked against."""
    require_source()
    document: dict = {"placements": {}, "verdicts": {}, "saturation": {
        "threads": SATURATION_THREADS, "ops_per_thread": SATURATION_OPS,
        "operations": {}}, "fuzz": {"config": None}}
    explore = ExploreSuite(FULL, document, build_dir)
    explore.build(fresh_import(explore.modules))
    explore.setup()
    for name, result in explore.results.items():
        document["placements"][name] = placement_record(result,
                                                        explore.repro.python_gen)
    for item in explore.items:
        explored = explore.explore(*item)
        document["verdicts"][item[0]] = {"ok": explored.ok,
                                         "exhausted": explored.exhausted}
    saturate = Saturate(FULL, document, build_dir)
    saturate.build_path = explore.build_path
    saturate.setup()
    for spec in saturate.specs(saturate.repro):
        document["saturation"]["operations"][spec.name] = {
            discipline: saturate.saturate(spec, discipline, DEFAULT_SEED)
            .metrics["operations"] for discipline in DISCIPLINES}
    fuzz = FuzzCampaign(FULL, document, build_dir)
    fuzz.setup()
    fuzz.run_pass(0, DEFAULT_SEED)
    result = fuzz.last_result
    document["fuzz"] = {"config": fuzz_config_dict(FULL), "candidates": result.monitors,
                        "findings": len(result.findings),
                        "compile_errors": len(result.compile_errors),
                        "digest": fuzz_digest(result)}
    with path.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the Expresso reproduction.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long to run passes (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced pass reporting per-layer metrics")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="with --trace 1, write the spans as Chrome-trace JSON")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate data/expected.json from this source tree")
    parser.add_argument("--build-suite", nargs="+", metavar="ARG",
                        help=argparse.SUPPRESS)   # PATH MONITOR...: build_suite's child
    args = parser.parse_args(argv)
    if args.build_suite:
        _compile_suite(tuple(args.build_suite[1:]), args.build_suite[0])
        return 0
    if args.write_expected:
        write_expected()
        print(f"wrote {EXPECTED_PATH}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run_benchmark(args.workload, seed=args.seed, seconds=args.seconds,
                           trace=bool(args.trace), trace_out=args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
