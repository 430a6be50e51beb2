"""Golden trace digests: the exact bytes of ``--trace`` artifacts.

Each configuration runs the CLI in a fresh subprocess under
``PYTHONHASHSEED=0`` and pins the SHA-256 of the trace file it writes.
Deterministic export (``ts`` = sequence number, no wall-clock fields) makes
the bytes a pure function of the run's logical event stream, so any change
to how spans, instants, shards or counters reach the artifact shows up
here — whichever process recorded them.  Explore traces are also
worker-count-stable: ``--workers 1`` and ``--workers 3`` share a digest.

To re-pin after a deliberate trace change, run the configuration by hand
and take ``sha256sum`` of the file.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.benchmarks_lib.registry import get_benchmark

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

_EXPLORE = ["explore", "--benchmark", "BoundedBuffer",
            "--benchmark", "Readers-Writers", "--threads", "2", "--ops", "2"]
_RANDOM = _EXPLORE + ["--strategy", "random", "--schedules", "40"]
#: One digest for both worker counts: sharding must not show in the trace.
_RANDOM_DIGEST = (
    "6ce003e064885db5e6ebae1d5dbad22eae92d601732acf589c547f1892d27172")

#: name -> (CLI arguments before ``--trace``, SHA-256 of the trace bytes).
GOLDEN = {
    "explore-dfs": (
        _EXPLORE + ["--strategy", "dfs", "--schedules", "200"],
        "3928ba1d99cc57473803aa271e89de0ea9370cec293de770893543a4b94c3f49"),
    "explore-random-w1": (
        _RANDOM + ["--workers", "1"],
        _RANDOM_DIGEST),
    "explore-random-w3": (
        _RANDOM + ["--workers", "3"],
        _RANDOM_DIGEST),
    "explore-pct-store": (
        _EXPLORE + ["--strategy", "pct", "--schedules", "40", "--workers",
                    "2", "--store", "{tmp}/store.sqlite3"],
        "b6944b8246399b0df43eaf90d7975c0b1010ca5376d286e2e9a2a115a6115ab9"),
    "fuzz": (
        ["fuzz", "--budget", "60", "--seed", "5", "--workers", "1",
         "--bootstrap", "4", "--batch-size", "4", "--per-run-budget", "30",
         "--json"],
        "f017d003fa9c765782a4c3bf72e4bb37675cb0067f31c106daf6e97908f585a5"),
    "compile": (
        ["compile", "{tmp}/BoundedBuffer.mon"],
        "1e8286767a562ea35e68abf3559929dc00a26fa0e2d90440aaadd62fb771eba1"),
}


def _trace_digest(arguments, tmp_path):
    (tmp_path / "BoundedBuffer.mon").write_text(
        get_benchmark("BoundedBuffer").source)
    trace = tmp_path / "trace.json"
    command = [argument.format(tmp=tmp_path) for argument in arguments]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=_SRC)
    subprocess.run([sys.executable, "-m", "repro.cli", *command,
                    "--trace", str(trace)],
                   env=env, check=True, capture_output=True, timeout=300)
    return hashlib.sha256(trace.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_bytes_match_the_golden_digest(name, tmp_path):
    arguments, digest = GOLDEN[name]
    assert _trace_digest(arguments, tmp_path) == digest
