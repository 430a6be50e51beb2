"""Which `repro` modules the benchmark workloads load, and when.

Signal analysis happens at compile time, so code that only reads a compile
result or runs a generated monitor loads none of it: unpickling an
`ExpressoResult` loads no solver, saturate's set-up (the compiled suite plus
its materialized classes) loads no solver, exploration or campaign layer,
and explore-suite's set-up loads no solver, commutativity checker, harness,
campaign layer, abduction, lint check or trace enumerator.  Saturate's and
fuzz-campaign's passes import nothing their set-ups did not, so no import
lands in a timed pass.  Explore-suite's first pass proves the DPOR
dependence relation's matrix entries on first consult, so it may load the
solver layer and nothing else; its second pass loads nothing.

Each case runs in a fresh interpreter with the workload classes of
`e2ebench/bench_e2e.py` at the toy size of `e2ebench/test_bench_e2e.py`, and
reads `sys.modules` after the set-up and again after each of two passes.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.benchmarks_lib import get_benchmark
from repro.placement.pipeline import ExpressoPipeline

ROOT = Path(__file__).resolve().parents[1]

WORKLOAD_CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import bench_e2e

def loaded():
    return sorted(name for name in sys.modules
                  if name == "repro" or name.startswith("repro."))

sizes = bench_e2e.Sizes(monitors=("BoundedBuffer",), fuzz_budget=10)
bench = bench_e2e.WORKLOADS[sys.argv[2]](sizes, bench_e2e.load_expected(),
                                         Path(sys.argv[3]))
bench.build(bench_e2e.fresh_import(bench.modules))
bench.setup()
setup = loaded()
result = bench.run_pass(0, bench_e2e.DEFAULT_SEED)
first = loaded()
again = bench.run_pass(1, bench_e2e.DEFAULT_SEED)
print(json.dumps({"setup": setup, "pass": first, "second": loaded(),
                  "failures": result.failures + again.failures}))
"""

UNPICKLE_CHILD = """
import json, pickle, sys
with open(sys.argv[1], "rb") as handle:
    result = pickle.load(handle)
print(json.dumps({"monitor": result.monitor.name, "modules": sorted(
    name for name in sys.modules
    if name == "repro" or name.startswith("repro."))}))
"""


def _child(code, *argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                           capture_output=True, text=True, env=env,
                           timeout=600)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])


def _under(modules, *prefixes):
    """The *modules* that are one of *prefixes* or inside one of them."""
    return [name for name in modules
            if any(name == prefix or name.startswith(prefix + ".")
                   for prefix in prefixes)]


@pytest.fixture(scope="module")
def workload_modules(tmp_path_factory):
    """``{"setup", "pass", "failures"}`` of one toy run per workload."""
    build_dir = tmp_path_factory.mktemp("import-build")
    runs = {}

    def run(workload):
        if workload not in runs:
            runs[workload] = _child(WORKLOAD_CHILD, ROOT / "e2ebench",
                                    workload, build_dir)
            assert runs[workload]["failures"] == []
        return runs[workload]

    return run


@pytest.mark.parametrize("workload", ["saturate", "fuzz-campaign"])
def test_a_pass_imports_nothing_its_setup_did_not(workload_modules, workload):
    run = workload_modules(workload)
    assert sorted(set(run["pass"]) - set(run["setup"])) == []


def test_explore_first_pass_adds_only_the_solver_layer(workload_modules):
    run = workload_modules("explore-suite")
    added = sorted(set(run["pass"]) - set(run["setup"]))
    assert "repro.smt.solver" in added
    assert _under(added, "repro.smt", "repro.analysis",
                  "repro.resilience") == added
    assert _under(added, "repro.analysis.abduction", "repro.smt.qe",
                  "repro.analysis.lint.checks") == []
    assert sorted(set(run["second"]) - set(run["pass"])) == []


def test_saturate_setup_loads_no_solver_exploration_or_campaign(workload_modules):
    setup = workload_modules("saturate")["setup"]
    assert "repro.harness.saturation" in setup
    assert _under(setup, "repro.smt", "repro.explore", "repro.fuzz",
                  "repro.distrib", "repro.analysis.abduction",
                  "repro.analysis.commutativity") == []


def test_explore_setup_loads_no_campaign_layer_or_abduction(workload_modules):
    setup = workload_modules("explore-suite")["setup"]
    # The dependence relation proves its matrix entries in the pass.
    assert _under(setup, "repro.smt", "repro.analysis.commutativity",
                  "repro.harness") == []
    assert _under(setup, "repro.distrib", "repro.fuzz",
                  "repro.analysis.abduction", "repro.smt.qe",
                  "repro.analysis.lint.checks",
                  "repro.semantics.equivalence") == []


def test_unpickling_a_result_loads_no_solver(tmp_path):
    path = tmp_path / "result.pickle"
    result = ExpressoPipeline().compile(get_benchmark("BoundedBuffer").source)
    path.write_bytes(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    document = _child(UNPICKLE_CHILD, path)
    assert document["monitor"] == "BoundedBuffer"
    assert "repro.placement.pipeline" in document["modules"]
    assert _under(document["modules"], "repro.smt") == []
