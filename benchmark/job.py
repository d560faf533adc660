"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 benchmark/job.py WORKLOAD SEED TRACE

Run from the root of a checkout (run.py starts it).  It imports filtlab from
the checkout's `src/`, loads the workload's config and generates its inputs
from SEED (set-up), then runs the workload's fixed job once with one worker
and checks the outputs.  With TRACE 1 the job runs under `probes.Tracer`.
The last line of standard output is one JSON object:

    ready_at     time.perf_counter() when set-up ended (CLOCK_MONOTONIC is
                 system-wide, so the parent subtracts its spawn time)
    import_s     time spent in `import filtlab.cli`
    run_s        wall time of the job
    peak_rss_mb  peak resident set of this process, MiB
    attempted, failed   public calls made by the job, and those that raised,
                 returned a wrong value or whose output failed a check
    mismatches   failed checks that make the run invalid (empty when all hold):
                 a call that succeeds on today's code raised, an output is
                 wrong, or, at a seed in expected.json, more operations
                 failed than recorded
    digest       sha256 over the job's outputs, equal for equal inputs
    info         workload-specific facts (output hashes, bracket widths)
    layers       per-layer metrics, only with TRACE 1
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = json.loads((HERE / "expected.json").read_text())


class Ops:
    """Counts the job's public calls.  A call that raises one of `errors` is a
    failed operation and yields None.  Through `call` it also makes the run
    invalid, since every such call succeeds on today's code; through
    `attempt`, kept for the transport calls off unit scale that today's code
    is known to fail (HiGHS and the brute force's flow both use absolute
    tolerances), it only counts."""

    def __init__(self, errors: tuple):
        self.errors = errors
        self.attempted = 0
        self.failed = 0
        self.raised: list = []  # the `call`s that raised, as mismatches

    def call(self, fn, *args, **kwargs):
        return self._run(True, fn, args, kwargs)

    def attempt(self, fn, *args, **kwargs):
        return self._run(False, fn, args, kwargs)

    def _run(self, required, fn, args, kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except self.errors as exc:
            self.failed += 1
            if required:
                self.raised.append(f"{fn.__name__} raised {type(exc).__name__}: {exc}")
            return None


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Walk workloads: a demo config run through cli.run_experiment
# ---------------------------------------------------------------------------

WALK_CONFIGS = {
    # demos/configs/f2_standardness.json with 32 pairs instead of 200
    "walk-f2-standardness": {
        "version": 1,
        "experiment": "standardness",
        "group": {"kind": "free", "s": 2},
        "walk": {"n_max": 6, "m": 6, "pairs": 32, "leaf_cap": 16384},
        "output": {"basename": "f2_standardness"},
    },
    # demos/configs/z1_scaling.json with 48 sample points instead of 32
    "walk-z1-scaling": {
        "version": 1,
        "experiment": "scaling-fit",
        "group": {"kind": "lattice", "d": 1},
        "entropy_grid": {"epsilons": [0.1, 0.2, 0.3], "levels": [3, 4, 5, 6, 7, 8],
                         "sample_points": 48},
        "walk": {"leaf_cap": 65536},
        "output": {"basename": "z1_scaling"},
    },
}


class WalkWorkload:
    def __init__(self, name, seed, work_dir):
        from filtlab import cli

        self.name = name
        self.seed = seed
        self.out_dir = work_dir
        path = work_dir / "config.json"
        path.write_text(json.dumps(dict(WALK_CONFIGS[name], seed=seed)))
        self.cfg = cli.load_config(str(path))

    def run(self, ops):
        from filtlab import cli

        self.paths = ops.call(cli.run_experiment, self.cfg, str(self.out_dir), threads=1)

    def check(self):
        if self.paths is None:  # a mismatch already
            return [], 0, {}, b""
        base = self.cfg["output"]["basename"]
        csv_bytes = (self.out_dir / f"{base}.csv").read_bytes()
        json_bytes = (self.out_dir / f"{base}.json").read_bytes()
        info = {"csv_sha256": _sha(csv_bytes), "json_sha256": _sha(json_bytes)}
        lines = [ln for ln in csv_bytes.decode().splitlines() if not ln.startswith("#")]
        header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
        col = {key: [float(r[header.index(key)]) for r in rows] for key in header
               if key not in ("method",)}
        bad = []
        if self.cfg["experiment"] == "standardness":
            if len(rows) != self.cfg["walk"]["n_max"]:
                bad.append(f"{len(rows)} rows, expected n_max")
            for lo, c, hi in zip(col["ci_low"], col["c_n"], col["ci_high"]):
                if not (0.0 <= c <= 1.0 and lo <= c <= hi):
                    bad.append(f"c_n {c!r} outside [0, 1] or its interval [{lo!r}, {hi!r}]")
        else:
            top = math.log2(self.cfg["entropy_grid"]["sample_points"]) + 1e-12
            widths = [hi - lo for lo, hi in zip(col["H_lower"], col["H_upper"])]
            info["bracket_width"] = sum(widths) / len(widths)
            for lo, hi in zip(col["H_lower"], col["H_upper"]):
                if not 0.0 <= lo <= hi <= top:
                    bad.append(f"bracket [{lo!r}, {hi!r}] not inside [0, log2(points)]")
        expected = EXPECTED[self.name].get(str(self.seed))
        if expected is not None:
            for key in ("csv_sha256", "json_sha256"):
                if info[key] != expected[key]:
                    bad.append(f"{key} {info[key]} != recorded {expected[key]}")
        return bad, 0, info, csv_bytes + json_bytes


# ---------------------------------------------------------------------------
# finite-certify: random Euclidean metric-measure spaces, no walks
# ---------------------------------------------------------------------------

ORACLE_SIZES = (2, 3, 4, 4, 5, 5, 5)  # atoms; sized so oracle and transport each take about half
EPSILONS = (0.05, 0.1, 0.3)
BRACKET_SIZES = (32, 128)
SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9)
SOLVES_PER_SCALE = ((8, 2), (32, 1), (128, 1))  # (support size, solves)
BRUTE_PER_SCALE = 8  # kantorovich vs brute force on 8-atom spaces, <= 5-atom supports
TERNARY_DIGITS = 4  # 81 points, 351 + 36 + 3 HiGHS solves


class FiniteWorkload:
    def __init__(self, name, seed, work_dir):
        from filtlab.filtration import cylinder_hamming, dyadic_bernoulli_chain
        from filtlab.mmspace import DiscreteMeasure, Partition, PartitionChain, SemimetricMatrix
        import numpy as np

        self.name = name
        self.seed = seed
        rng = np.random.default_rng(seed)

        def metric(n, scale=1.0):
            pts = rng.random((n, 3))
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            np.fill_diagonal(d, 0.0)
            return SemimetricMatrix(d * scale)

        def measure(n, support=None):
            w = np.zeros(n)
            idx = np.arange(n) if support is None else rng.choice(n, support, replace=False)
            raw = rng.random(len(idx)) + 1e-3
            w[idx] = raw / raw.sum()
            return DiscreteMeasure(w)

        self.oracle_cases = [(metric(n), measure(n)) for n in ORACLE_SIZES]
        self.bracket_cases = [(metric(n), measure(n)) for n in BRACKET_SIZES]
        self.solve_cases = [
            (measure(n), measure(n), metric(n, scale), scale)
            for scale in SCALES
            for n, count in SOLVES_PER_SCALE
            for _ in range(count)
        ]
        self.brute_cases = [
            (measure(8, int(rng.integers(1, 6))), measure(8, int(rng.integers(1, 6))), metric(8, scale), scale)
            for scale in SCALES
            for _ in range(BRUTE_PER_SCALE)
        ]
        self.dyadic = (cylinder_hamming(7, 7), *dyadic_bernoulli_chain(7))
        size = 3**TERNARY_DIGITS
        pts = np.arange(size)
        chain = PartitionChain(size, tuple(Partition(pts // 3**k) for k in range(1, TERNARY_DIGITS + 1)))
        self.ternary = (metric(size), measure(size), chain)

    def run(self, ops):
        from filtlab import entropy, filtration, transport

        def at(scale):  # off unit scale transport is known to fail today
            return ops.call if scale == 1.0 else ops.attempt

        self.brackets = []  # (atoms, bounds)
        self.oracle = []  # (atoms, bounds, oracle value)
        for d, mu in self.oracle_cases:
            for eps in EPSILONS:
                bounds = ops.call(entropy.epsilon_entropy_bounds, d, mu, eps)
                value = ops.call(entropy.epsilon_entropy_oracle, d, mu, eps)
                self.brackets.append((d.size, bounds))
                self.oracle.append((d.size, bounds, value))
        for d, mu in self.bracket_cases:
            for eps in EPSILONS:
                self.brackets.append((d.size, ops.call(entropy.epsilon_entropy_bounds, d, mu, eps)))
        self.solves = [
            at(scale)(transport.kantorovich, mu, nu, d) for mu, nu, d, scale in self.solve_cases
        ]
        self.brute = [
            (at(scale)(transport.kantorovich, mu, nu, d),
             at(scale)(transport.kantorovich_bruteforce, mu, nu, d))
            for mu, nu, d, scale in self.brute_cases
        ]
        self.profiles = [
            ops.call(filtration.standardness_profile, *self.dyadic),
            ops.call(filtration.standardness_profile, *self.ternary),
        ]

    def check(self):
        import numpy as np

        bad = []
        widths = []
        values = []
        for atoms, b in self.brackets:
            if b is None:
                continue
            widths.append(b.upper - b.lower)
            values += [b.lower, b.upper]
            if not 0.0 <= b.lower <= b.upper <= math.log2(atoms) + 1e-12:
                bad.append(f"bracket [{b.lower!r}, {b.upper!r}] outside [0, log2 {atoms}]")
        for atoms, b, o in self.oracle:
            if b is None or o is None:
                continue
            values.append(o.value)
            if not b.contains(o.value, slack=o.grid_error):
                bad.append(f"oracle {o.value!r} outside [{b.lower!r}, {b.upper!r}] "
                           f"by more than {o.grid_error!r} ({atoms} atoms, eps {b.epsilon})")
        for (_, _, d, _), res in zip(self.solve_cases, self.solves):
            if res is None:
                continue
            values.append(res[0])
            if not 0.0 <= res[0] <= d.d.max() * (1 + 1e-12):
                bad.append(f"kantorovich {res[0]!r} outside [0, diameter {d.d.max()!r}]")
        wrong = {}
        for (_, _, _, scale), (res, brute) in zip(self.brute_cases, self.brute):
            if res is None or brute is None:
                continue
            values += [res[0], brute]
            if abs(res[0] - brute) <= 1e-9 * scale:
                continue
            # Off unit scale the solver's absolute certification tolerances are
            # known not to hold: a wrong value there is a failed operation,
            # and only at unit scale does it invalidate the run.
            if scale == 1.0:
                bad.append(f"kantorovich {res[0]!r} vs brute force {brute!r} at unit scale")
            else:
                wrong[repr(scale)] = wrong.get(repr(scale), 0) + 1
        dyadic, ternary = self.profiles
        if dyadic is not None:
            values += dyadic.c.tolist()
            expected = np.array([(7 - k) / 14 for k in range(8)])
            if dyadic.c.shape != expected.shape or np.max(np.abs(dyadic.c - expected)) > 1e-12:
                bad.append(f"dyadic profile {dyadic.c.tolist()} != (7-k)/14")
        if ternary is not None:
            values += ternary.c.tolist()
            if len(ternary.c) != TERNARY_DIGITS + 1 or ternary.c[-1] != 0.0:
                bad.append(f"ternary profile {ternary.c.tolist()} does not end at c_4 = 0")
        info = {"bracket_width": sum(widths) / len(widths) if widths else 0.0,
                "ternary_c": ternary.c.tolist() if ternary is not None else None,
                "wrong_by_scale": wrong}
        recorded = EXPECTED[self.name].get(str(self.seed))
        if recorded is not None:
            # a change may tighten the brackets but not loosen them
            if info["bracket_width"] > recorded["bracket_width"] + 1e-12:
                bad.append(f"mean bracket width {info['bracket_width']!r} exceeds the recorded "
                           f"{recorded['bracket_width']!r}")
            # HiGHS solves at unit scale, optimal within 1e-9 each
            if ternary is not None and not np.allclose(ternary.c, recorded["ternary_c"],
                                                       rtol=0, atol=1e-7):
                bad.append(f"ternary profile {ternary.c.tolist()} != recorded {recorded['ternary_c']}")
        return bad, sum(wrong.values()), info, repr(values).encode()


# ---------------------------------------------------------------------------
# group-streams: meeting diagnostics and orbit partitions
# ---------------------------------------------------------------------------

MEETING_H = 4
MEETING_CAP = 1024
MEETING_C = (0.5, 1.0)
MEETING_PAIRS = 60  # per (group, c)
ORBIT_LEVELS = (1, 2, 3, 4)
ORBIT_COUNTS = {1: 3, 2: 6, 3: 21, 4: 231}  # binary words on the binary tree: a(n+1) = a(n)(a(n)+1)/2


class GroupWorkload:
    def __init__(self, name, seed, work_dir):
        from filtlab.groups import GroupSpec
        from filtlab.treewalk import iid_word_measure
        import numpy as np

        rng = np.random.default_rng(seed)
        specs = (GroupSpec.heisenberg(), GroupSpec.lattice(2), GroupSpec.free(2))
        self.meetings = [
            (spec, rng.integers(0, spec.alphabet_size, MEETING_CAP),
             rng.integers(0, spec.alphabet_size, MEETING_CAP), c)
            for spec in specs
            for c in MEETING_C
            for _ in range(MEETING_PAIRS)
        ]
        p = float(rng.uniform(0.2, 0.8))
        self.orbits = [(n, iid_word_measure(2, 2**n, probs=[p, 1.0 - p])) for n in ORBIT_LEVELS]

    def run(self, ops):
        from filtlab import groups, treewalk

        self.results = [
            ops.call(groups.meeting_diagnostic, spec, u, v, MEETING_H, c, cap=MEETING_CAP)
            for spec, u, v, c in self.meetings
        ]
        self.orbit_results = [ops.call(treewalk.orbit_partition, n, 2, 2, mu) for n, mu in self.orbits]

    def check(self):
        from filtlab.groups import identity, multiply, symbol_element, word_norm_bounds

        bad = []
        values = []
        for (spec, u, v, c), res in zip(self.meetings, self.results):
            if res is None:
                continue
            values.append((res.n, res.norm_bound_u, res.norm_bound_v, res.uncertain_skips))
            if not res.found:
                continue
            # replay both running products through multiply, independently of
            # the streaming tracker, and re-derive the certified bounds
            for word, claimed in ((u, res.norm_bound_u), (v, res.norm_bound_v)):
                prod = identity(spec)
                for sym in word[: res.n]:
                    prod = multiply(prod, symbol_element(spec, int(sym)))
                upper = word_norm_bounds(prod)[1]
                if upper != claimed or not upper < c * math.sqrt(res.n):
                    bad.append(f"{spec.describe()} meeting at n={res.n}: bound {claimed!r}, "
                               f"replayed {upper!r}, threshold {c * math.sqrt(res.n)!r}")
        for (n, _), orb in zip(self.orbits, self.orbit_results):
            if orb is None:
                continue
            values.append((orb.orbit_count, orb.entropy_bits))
            if orb.orbit_count != ORBIT_COUNTS[n]:
                bad.append(f"{orb.orbit_count} orbits at n={n}, expected {ORBIT_COUNTS[n]}")
            if not 0.0 <= orb.entropy_bits <= math.log2(orb.orbit_count) + 1e-12:
                bad.append(f"orbit entropy {orb.entropy_bits!r} outside [0, log2 {orb.orbit_count}]")
        return bad, 0, {}, repr(values).encode()


WORKLOADS = {
    "walk-f2-standardness": WalkWorkload,
    "walk-z1-scaling": WalkWorkload,
    "finite-certify": FiniteWorkload,
    "group-streams": GroupWorkload,
}


def main(argv) -> int:
    name, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import filtlab.cli

    import_s = time.perf_counter() - start
    if src not in Path(filtlab.__file__).resolve().parents:
        print(f"filtlab was imported from {filtlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    from filtlab.errors import FiltlabError

    import probes

    work_dir = ROOT / ".bench_out" / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](name, seed, work_dir)
        record = {"ready_at": time.perf_counter(), "import_s": import_s}
        ops = Ops((FiltlabError, RuntimeError, ValueError))  # what the CLI reports as runtime errors
        tracer = probes.Tracer() if trace else None
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            workload.run(ops)
        finally:
            if tracer:
                tracer.uninstall()
        record["run_s"] = time.perf_counter() - start
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        bad, wrong, info, output = workload.check()
        failed = min(ops.attempted, ops.failed + wrong + len(bad))
        bad = ops.raised + bad
        recorded = EXPECTED[name].get(str(seed))
        if recorded is not None and failed > recorded["failed"]:
            bad.append(f"{failed} failed operations, recorded {recorded['failed']}")
        record.update(
            attempted=ops.attempted,
            failed=failed,
            mismatches=bad,
            digest=_sha(output),
            info=info,
        )
        if tracer:
            layers = probes.summarize(tracer)
            layers["cli.import_s"] = import_s
            layers["cli.scipy_loaded"] = int("scipy.optimize" in sys.modules)
            record["layers"] = layers
            tracer.dump(ROOT / ".bench_out" / f"spans-{name}.jsonl")
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
