"""filtlab benchmark: one workload, one seed, a fixed measuring window.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition is a fresh interpreter
(`job.py`) that imports filtlab from `src/`, sets up the workload's inputs
from the seed and runs its fixed job once with one worker: a closed loop of
one client, the next repetition starting when the previous one has exited.
Process-global state (the Heisenberg BFS ball, the `hamming_base` cache, the
scipy import) is therefore cold in every repetition, as it is for a user of
`filtlab run`.  Repetitions start until the next one would end after S
seconds (at least one runs), and the metrics are their medians.

With --trace 0 the result carries the end-to-end metrics; with --trace 1
repetitions alternate untraced and traced, and the result carries the
per-layer metrics of the traced ones plus the tracing overhead.  Every
repetition's outputs are checked (job.py), and all repetitions of a run must
produce the same outputs and the same operation counts; the result's
`attempted` and `failed` are one repetition's.  The last line of standard output is the result
JSON; the lines before it give the machine, each repetition and the sample
counts.  See WORKLOADS.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("walk-f2-standardness", "walk-z1-scaling", "finite-certify", "group-streams")
CHILD_TIMEOUT_S = 150
# single-threaded numerics: the job measures one worker, not the BLAS pool
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "loadavg": list(os.getloadavg()),
    }


def spawn(workload: str, seed: int, traced: bool) -> dict:
    """Run job.py once; return its record with `setup_s` and `wall_s` added."""
    cmd = [sys.executable, str(HERE / "job.py"), workload, str(seed), "1" if traced else "0"]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV}, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - spawned
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"job.py {workload} exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready_at"] - spawned
    record["wall_s"] = wall
    return record


def quartiles(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4g} (q1 {q1:.4g}, q3 {q3:.4g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    facts = machine_facts()
    if facts["loadavg"][0] > facts["nproc"]:
        print(f"warning: load average {facts['loadavg'][0]:.2f} exceeds nproc {facts['nproc']}; "
              "timings will not be steady", file=sys.stderr)

    reps = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = spawn(args.workload, args.seed, traced)
        rep["traced"] = traced
        reps.append(rep)
        print(json.dumps({"rep": len(reps), "traced": traced, "setup_s": rep["setup_s"],
                          "run_s": rep["run_s"], "attempted": rep["attempted"],
                          "failed": rep["failed"], "digest": rep["digest"], "info": rep["info"],
                          "mismatches": rep["mismatches"]}))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in reps)
        if elapsed + typical > args.seconds and (not args.trace or len(reps) >= 2):
            break

    setups = [r["setup_s"] for r in reps]
    print(json.dumps({"machine": facts}))
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        print(f"outputs differ between repetitions: {sorted(digests)}", file=sys.stderr)
    for r in reps:
        for line in r["mismatches"]:
            print(f"check failed: {line}", file=sys.stderr)
    # Every repetition makes the same operations on the same inputs, so the
    # counts are one repetition's: they must agree across repetitions, and
    # they do not depend on how many repetitions fit in the window.
    counts = {(r["attempted"], r["failed"]) for r in reps}
    if len(counts) > 1:
        print(f"operation counts differ between repetitions: {sorted(counts)}", file=sys.stderr)
    attempted, failed = max(counts)
    correct = len(digests) == 1 and len(counts) == 1 and not any(r["mismatches"] for r in reps)

    run_s = [r["run_s"] for r in plain]
    print(f"samples: {len(plain)} untraced repetitions, {len(traced)} traced, {len(setups)} set-ups")
    print(f"run_s {quartiles(run_s)} s; setup_s {quartiles(setups)} s")
    print(f"failed_share {failed}/{attempted} = {failed / attempted:.4g}")
    if args.trace:
        layers = {key: statistics.median(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        layers["cli.import_s"] = statistics.median(r["import_s"] for r in reps)
        layers["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                      - statistics.median(run_s))
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {key: {"value": layers[key], "unit": units[key]} for key in units}
    else:
        metrics = {
            "run_s": {"value": statistics.median(run_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MiB"},
            "ok_share": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
