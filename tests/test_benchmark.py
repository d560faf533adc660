"""The benchmark harness in `benchmark/` still finds every library name it uses.

The harness imports filtlab functions by name and wraps some of them, so a
library change that renames or removes one breaks the benchmark, not the
library's own tests.  These run the tracer's install/uninstall here and one
untraced repetition of each workload at seed 0.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from filtlab import groups, walksim

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("probes", BENCH / "probes.py")
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    before = (groups.multiply, walksim.WalkDistanceEngine.distance)
    tracer = probes.Tracer()
    tracer.install()
    try:
        assert groups.multiply is not before[0]
    finally:
        tracer.uninstall()
    assert (groups.multiply, walksim.WalkDistanceEngine.distance) == before


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_runs_without_mismatches(workload):
    done = subprocess.run(
        [sys.executable, str(BENCH / "job.py"), workload, "0", "0"], cwd=ROOT, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr[-2000:]
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["mismatches"] == []
