"""Which `repro` modules each `expresso` command loads.

Parsing argv loads nothing beyond `repro` and `repro.cli`, and the commands
that compile nothing (`list`, `status`, `watch`, `report`, `stitch`) load
no compiler package.  Each case runs in a fresh interpreter and reads
`sys.modules` once the command has returned.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.benchmarks_lib import get_benchmark
from repro.distrib import CampaignStore

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = ("compile", "explain", "bench", "explore", "fuzz", "mutate",
            "profile", "lint", "list", "status", "watch", "report", "stitch")

#: The packages that compile, explore or run monitors.
COMPILER = ("repro.analysis", "repro.placement", "repro.smt", "repro.codegen",
            "repro.explore", "repro.fuzz", "repro.harness")

CHILD = """
import contextlib, io, json, sys
from repro import cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as stop:
        code = stop.code
print(json.dumps({"code": code, "modules": sorted(
    name for name in sys.modules
    if name == "repro" or name.startswith("repro."))}))
"""


def _run(*argv):
    """``(exit code, sorted repro modules)`` of one fresh `expresso` run."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", CHILD, *map(str, argv)],
                           capture_output=True, text=True, env=env,
                           timeout=300, check=True)
    document = json.loads(child.stdout)
    return document["code"], document["modules"]


def _compiler_modules(modules):
    return [name for name in modules
            if any(name == package or name.startswith(package + ".")
                   for package in COMPILER)]


@pytest.mark.parametrize("command", ["", *COMMANDS])
def test_help_loads_only_the_cli(command):
    code, modules = _run(*filter(None, [command]), "--help")
    assert code == 0
    assert modules == ["repro", "repro.cli"]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A bound campaign store and two one-span traces."""
    root = tmp_path_factory.mktemp("console")
    store = CampaignStore(root / "campaign.sqlite3")
    store.bind_campaign({"campaign": "imports", "seed": 0})
    store.close()
    for name in ("driver", "helper"):
        span = {"name": "campaign", "cat": "fuzz", "pid": 0, "tid": 0,
                "args": {}}
        (root / f"{name}.json").write_text(json.dumps({
            "traceEvents": [{**span, "ph": "B", "ts": 0},
                            {**span, "ph": "E", "ts": 1}],
            "displayTimeUnit": "ms",
            "otherData": {"deterministic": True, "metrics": {}}}))
    return root


@pytest.mark.parametrize("argv", [
    ["list"],
    ["status", "--store", "{root}/campaign.sqlite3", "--now", "0"],
    ["watch", "--store", "{root}/campaign.sqlite3", "--ticks", "1",
     "--now", "0"],
    ["report", "--store", "{root}/campaign.sqlite3", "--now", "0",
     "--trace", "{root}/driver.json", "--out", "{root}/report"],
    ["stitch", "{root}/driver.json", "{root}/helper.json",
     "--out", "{root}/stitched.json"],
], ids=lambda argv: argv[0])
def test_console_commands_load_no_compiler(argv, artifacts):
    code, modules = _run(*(arg.format(root=artifacts) for arg in argv))
    assert code == 0
    assert _compiler_modules(modules) == []


def test_compile_loads_the_compiler(tmp_path):
    """The probe sees what a command imports: `compile` loads placement."""
    path = tmp_path / "queue.mon"
    path.write_text(get_benchmark("PendingPostQueue").source)
    code, modules = _run("compile", path)
    assert code == 0
    assert "repro.placement.pipeline" in _compiler_modules(modules)
