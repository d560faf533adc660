"""Spans and counters recorded around calls into filtlab's public functions.

The benchmark reaches each layer only from outside.  `Tracer.install` swaps
each probed function for a wrapper in every filtlab module that holds it (the
modules import each other's functions by name) and `Tracer.uninstall` puts
the originals back, so only the timed job is traced.

Spans stay in memory as lists ``[name, start, end, parent, ok, attr, note]``:
`parent` is the index of the innermost span open at the call (-1 for none),
`ok` is False when the call raised, `attr` is a number taken from the
arguments and `note` one taken from the result.  Calls to `multiply` and
`Scenery.value` are too frequent for spans and are only counted.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = {"groups.multiply": 0, "groups.scenery_read": 0}
        self._stack: list = []
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, attr=None, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, True,
                   attr(*args, **kwargs) if attr else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = False
                raise
            finally:
                stack.pop()
                rec[2] = clock()
            if note is not None:
                rec[6] = note(result)
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _swap_function(self, original, replacement):
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("filtlab"):
                continue
            for attr in [a for a, v in vars(mod).items() if v is original]:
                setattr(mod, attr, replacement)
                self._undo.append((mod, attr, original))

    def _swap_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def install(self):
        from filtlab import cli, entropy, filtration, groups, transport, treewalk, walksim

        def support(mu, nu, d):
            return max(int(np.count_nonzero(mu.w)), int(np.count_nonzero(nu.w)))

        def bracket(bounds):
            return (float(bounds.upper - bounds.lower), int(bounds.clamped))

        fn = self._swap_function
        fn(groups.multiply, self._counter("groups.multiply", groups.multiply))
        fn(walksim._read_bits, self._span("groups.read", walksim._read_bits))
        fn(groups.meeting_diagnostic, self._span("groups.meeting", groups.meeting_diagnostic))
        fn(treewalk.orbit_partition, self._span("treewalk.orbit", treewalk.orbit_partition))
        fn(transport.kantorovich, self._span("transport.solve", transport.kantorovich, attr=support))
        fn(transport.kantorovich_bruteforce,
           self._span("transport.bruteforce", transport.kantorovich_bruteforce))
        fn(entropy.epsilon_entropy_oracle, self._span("entropy.oracle", entropy.epsilon_entropy_oracle))
        fn(entropy.epsilon_entropy_bounds,
           self._span("entropy.bounds", entropy.epsilon_entropy_bounds, note=bracket))
        fn(filtration.iterate_semimetric,
           self._span("filtration.iterate", filtration.iterate_semimetric))
        fn(cli.run_experiment, self._span("cli.run", cli.run_experiment))
        self._swap_method(groups.Scenery, "value", lambda f: self._counter("groups.scenery_read", f))
        self._swap_method(walksim.WalkDistanceEngine, "profile",
                          lambda f: self._span("walksim.profile", f))
        self._swap_method(walksim.WalkDistanceEngine, "distance",
                          lambda f: self._span("walksim.distance", f))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, ok, attr, note in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "ok": ok, "attr": attr, "note": note}) + "\n")


def _pct(values, q):
    """Nearest-rank percentile of a list of numbers; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(np.ceil(q / 100 * len(ordered))) - 1))]


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics from one traced job (units as in BENCHMARK.json)."""
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child_total = [0.0] * len(spans)
    children: list = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_total[s[3]] += dur[i]
            children[s[3]].append(i)
    idx: dict = {}
    for i, s in enumerate(spans):
        idx.setdefault(s[0], []).append(i)

    def of(name):
        return idx.get(name, [])

    def total(name):
        return sum(dur[i] for i in of(name))

    def ms(ids):
        return [dur[i] * 1e3 for i in ids]

    def self_time(name):
        return sum(dur[i] - child_total[i] for i in of(name))

    def parent_is(name, parent_name):
        return [i for i in of(name) if spans[i][3] >= 0 and spans[spans[i][3]][0] == parent_name]

    builds = [i for i in of("walksim.profile")
              if any(spans[c][0] == "groups.read" for c in children[i])]
    solves = of("transport.solve")
    top_solves = [i for i in solves if spans[i][3] < 0]
    bounds = [i for i in of("entropy.bounds") if spans[i][6] is not None]
    out = {
        "groups.multiply_calls": tracer.counts["groups.multiply"],
        "groups.scenery_reads": tracer.counts["groups.scenery_read"],
        "groups.read_s": total("groups.read"),
        "groups.meeting_calls": len(of("groups.meeting")),
        "groups.meeting_ms.p50": _pct(ms(of("groups.meeting")), 50),
        "groups.meeting_ms.p99": _pct(ms(of("groups.meeting")), 99),
        "walksim.points": len(builds),
        "walksim.profile_self_s": self_time("walksim.profile"),
        "walksim.profile_ms.p50": _pct(ms(builds), 50),
        "walksim.profile_ms.p99": _pct(ms(builds), 99),
        "walksim.pairs": len(of("walksim.distance")),
        "walksim.distance_s": total("walksim.distance"),
        "walksim.distance_ms.p50": _pct(ms(of("walksim.distance")), 50),
        "walksim.distance_ms.p99": _pct(ms(of("walksim.distance")), 99),
        "treewalk.orbit_calls": len(of("treewalk.orbit")),
        "treewalk.orbit_s": total("treewalk.orbit"),
        "transport.calls": len(solves),
        "transport.failed": sum(1 for i in solves if not spans[i][4]),
        "transport.solve_s": total("transport.solve"),
        "transport.solve_ms.p50": _pct(ms(solves), 50),
        "transport.solve_ms.p99": _pct(ms(solves), 99),
        "transport.bruteforce_calls": len(of("transport.bruteforce")),
        "transport.bruteforce_s": total("transport.bruteforce"),
        "entropy.oracle_calls": len(of("entropy.oracle")),
        "entropy.oracle_s": total("entropy.oracle"),
        "entropy.oracle_ms.p50": _pct(ms(of("entropy.oracle")), 50),
        "entropy.oracle_ms.p99": _pct(ms(of("entropy.oracle")), 99),
        "entropy.bounds_calls": len(of("entropy.bounds")),
        "entropy.bounds_s": total("entropy.bounds"),
        "entropy.bounds_ms.p50": _pct(ms(of("entropy.bounds")), 50),
        "entropy.bounds_ms.p99": _pct(ms(of("entropy.bounds")), 99),
        "entropy.verify_calls": len(parent_is("transport.solve", "entropy.bounds")),
        "entropy.clamped": sum(spans[i][6][1] for i in bounds),
        "entropy.bracket_width": (statistics.fmean(spans[i][6][0] for i in bounds)
                                  if bounds else 0.0),
        "filtration.iterate_s": total("filtration.iterate"),
        "filtration.kantorovich_calls": len(parent_is("transport.solve", "filtration.iterate")),
        "cli.self_s": self_time("cli.run"),
        "trace.spans": len(spans),
    }
    for size in (8, 32, 128):
        out[f"transport.solve_ms.s{size}"] = statistics.median(
            [dur[i] * 1e3 for i in top_solves if spans[i][5] == size] or [0.0])
    return out
