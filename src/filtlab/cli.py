"""Experiment runner: JSON configs in, CSV/JSON tables out.

Five experiment kinds are wired to the library drivers:

* ``standardness``       mean iterated distance c_n over a walk filtration
* ``ball-measure``       fraction of sampled points within epsilon of a center
* ``scaling-fit``        Monte Carlo entropy table over an (epsilon, n) grid
                         plus the fitted growth exponent
* ``orbit-entropy``      exact orbit counts and normalized entropies
* ``meeting-diagnostic`` two-trajectory small-norm search outcomes

Every run is a pure function of (config, seed): outputs carry the config hash
and seed in their headers, contain no timestamps, and are written atomically.

Exit codes: 0 success, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .entropy import epsilon_entropy_bounds, scaling_exponent_fit
from .errors import FiltlabError, SizeCapError, StructuralError
from .groups import GroupSpec, meeting_diagnostic, sample_increments
from .mmspace import DiscreteMeasure, SemimetricMatrix
from .treewalk import exponential_entropy_estimate, iid_word_measure, orbit_partition
from .walksim import (
    DEFAULT_LEAF_CAP,
    ball_measure_profile,
    mean_distance_profile,
    sample_distance_matrix,
    walk_point,
)

EXPERIMENTS = ("standardness", "ball-measure", "scaling-fit", "orbit-entropy", "meeting-diagnostic")


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if cfg.get("version") != 1 or type(cfg["version"]) is not int:  # nor true, nor 1.0
        raise ConfigError(f"{path}: unsupported config version {cfg.get('version')!r}")
    kind = cfg.get("experiment")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"{path}: unknown experiment {kind!r}; expected one of {EXPERIMENTS}")
    if type(cfg.get("seed")) is not int:  # a boolean is not a seed
        raise ConfigError(f"{path}: 'seed' must be an integer master seed")
    return cfg


def _group_from_config(cfg: dict) -> GroupSpec:
    section = _section(cfg, "group", ["kind"])
    kind = section["kind"]
    try:
        if kind == "lattice":
            return GroupSpec.lattice(_positive(section, "group", "d"))
        if kind == "free":
            return GroupSpec.free(_positive(section, "group", "s"))
        if kind == "heisenberg":
            return GroupSpec.heisenberg()
    except (KeyError, StructuralError) as exc:
        raise ConfigError(f"'group' section invalid: {exc}") from exc
    raise ConfigError(f"unknown group kind {kind!r}")


def _section(cfg: dict, section: str, required=()) -> dict:
    """`cfg[section]`, an object holding every key in `required`; {} if absent."""
    sec = cfg.get(section, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"'{section}' section must be an object, got {sec!r}")
    for key in required:
        if key not in sec:
            raise ConfigError(f"'{section}.{key}' missing")
    return sec


def _positive(sec, section: str, key, least: int = 1) -> int:
    """`sec[key]` as an integer (or integral float, never a bool) of at least `least`."""
    value = sec[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ConfigError(f"'{section}.{key}' must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"'{section}.{key}' must be at least {least}, got {value}")
    return value


def _listed(sec: dict, section: str, key: str) -> list:
    """`sec[key]`, which must be a list."""
    if not isinstance(sec[key], list):
        raise ConfigError(f"'{section}.{key}' must be a list, got {sec[key]!r}")
    return sec[key]


def _depths(sec: dict, section: str, key: str) -> list[int]:
    """`sec[key]` as a list of integers of at least 1."""
    given = _listed(sec, section, key)
    return [_positive(given, f"{section}.{key}", i) for i in range(len(given))]


def _leaf_cap(walk: dict) -> int:
    return _positive(walk, "walk", "leaf_cap") if "leaf_cap" in walk else DEFAULT_LEAF_CAP


def _positive_real(sec, section: str, key, below: float = sys.float_info.max) -> float:
    """`sec[key]` as a number (never a bool) above 0 and below `below`."""
    value = sec[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{section}.{key}' must be a number, got {value!r}")
    if not 0 < value < below:  # compared before float(), which overflows past the bound
        raise ConfigError(f"'{section}.{key}' must lie in (0, {below}), got {value!r}")
    return float(value)


def config_hash(cfg: dict, seed: int) -> str:
    payload = dict(cfg)
    payload["seed"] = seed
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Experiments: each returns (csv_rows, csv_header, json_payload)
# ---------------------------------------------------------------------------


def _run_standardness(cfg, seed):
    spec = _group_from_config(cfg)
    walk = _section(cfg, "walk", ["n_max", "pairs"])
    estimates = mean_distance_profile(
        spec,
        n_max=_positive(walk, "walk", "n_max"),
        m=None if walk.get("m") is None else _positive(walk, "walk", "m"),
        pairs=_positive(walk, "walk", "pairs"),
        master_seed=seed,
        leaf_cap=_leaf_cap(walk),
    )
    header = ["n", "c_n", "ci_low", "ci_high"]
    rows = [[e.n, repr(e.mean), repr(e.ci_low), repr(e.ci_high)] for e in estimates]
    payload = {
        "group": spec.describe(),
        "estimates": [e.__dict__ for e in estimates],
        "terminal_ratio": estimates[-1].mean / estimates[0].mean if estimates[0].mean > 0 else 0.0,
    }
    return rows, header, payload


def _run_ball_measure(cfg, seed):
    spec = _group_from_config(cfg)
    walk = _section(cfg, "walk", ["levels", "m", "epsilon", "samples"])
    m = _positive(walk, "walk", "m")
    levels = _depths(walk, "walk", "levels")
    samples = _positive(walk, "walk", "samples", least=100)
    epsilon = _positive_real(walk, "walk", "epsilon")
    leaf_cap = _leaf_cap(walk)
    center = walk_point(spec, seed ^ 0x5EED, m)
    header = ["group", "n", "m", "epsilon", "statistic", "value", "ci_low", "ci_high", "seed"]
    estimates = ball_measure_profile(
        center, spec, levels, epsilon, samples, master_seed=seed, leaf_cap=leaf_cap
    )
    rows = [
        [spec.describe(), e.n, e.m, repr(e.epsilon), "ball_fraction",
         repr(e.fraction), repr(e.ci_low), repr(e.ci_high), seed]
        for e in estimates
    ]
    return rows, header, {"group": spec.describe(), "estimates": [e.__dict__ for e in estimates]}


def _run_scaling_fit(cfg, seed):
    spec = _group_from_config(cfg)
    grid = _section(cfg, "entropy_grid", ["epsilons", "levels", "sample_points"])
    points = _positive(grid, "entropy_grid", "sample_points")
    # the fit takes log2(1 / epsilon), so every epsilon lies in (0, 1)
    given = _listed(grid, "entropy_grid", "epsilons")
    epsilons = [_positive_real(given, "entropy_grid.epsilons", i, 1.0) for i in range(len(given))]
    walk = _section(cfg, "walk")
    leaf_cap = _leaf_cap(walk)
    m = None if walk.get("m") is None else _positive(walk, "walk", "m")
    header = ["n", "epsilon", "H_lower", "H_upper", "method", "seed"]
    rows = []
    table = {}
    for n in _depths(grid, "entropy_grid", "levels"):
        dmat = sample_distance_matrix(
            spec,
            n,
            n if m is None else m,
            points=points,
            master_seed=seed + n,
            leaf_cap=leaf_cap,
        )
        mu = DiscreteMeasure.uniform(points)
        space = SemimetricMatrix(dmat)
        for eps in epsilons:
            bounds = epsilon_entropy_bounds(space, mu, eps)
            table[(eps, n)] = bounds.upper
            rows.append(
                [n, repr(eps), repr(bounds.lower), repr(bounds.upper), "mc_upper", seed]
            )
    payload = {"group": spec.describe(), "points": points}
    try:
        fit = scaling_exponent_fit(table)
        payload["fit"] = {
            "beta_hat": fit.beta_hat,
            "stderr": fit.stderr,
            "r_squared": fit.r_squared,
            "points": fit.points,
        }
    except FiltlabError as exc:
        payload["fit"] = {"error": str(exc)}
    return rows, header, payload


def _run_orbit_entropy(cfg, seed):
    sec = _section(cfg, "orbit", ["n_max", "r", "alphabet"])
    n_max, k = _positive(sec, "orbit", "n_max"), _positive(sec, "orbit", "alphabet")
    r = _positive(sec, "orbit", "r", least=2)
    header = ["n", "orbit_count", "H_bits", "h_normalized"]
    rows = []
    entropies = []
    for n in range(1, n_max + 1):
        measure = iid_word_measure(k, r**n)
        result = orbit_partition(n, r, k, measure)
        entropies.append(result.entropy_bits)
        h_norm = result.entropy_bits / (r**n)
        rows.append([n, result.orbit_count, repr(result.entropy_bits), repr(h_norm)])
    estimate = exponential_entropy_estimate(entropies, [r] * n_max)
    payload = {
        "h_sequence": estimate.h.tolist(),
        "limit_estimate": estimate.limit_estimate,
    }
    return rows, header, payload


def _run_meeting_diagnostic(cfg, seed):
    spec = _group_from_config(cfg)
    sec = _section(cfg, "meeting", ["pairs", "h", "c"])
    pairs, h = _positive(sec, "meeting", "pairs"), _positive(sec, "meeting", "h")
    c = _positive_real(sec, "meeting", "c")
    # the diagnostic reads at most h^5 steps of each walk, so only those are drawn
    steps = min(h**5, _positive(sec, "meeting", "cap")) if "cap" in sec else h**5
    header = ["pair", "found", "n", "norm_bound_u", "norm_bound_v", "uncertain_skips"]
    rows = []
    found = 0
    for i in range(pairs):
        u = sample_increments(spec, steps, seed, stream=2 * i)
        v = sample_increments(spec, steps, seed, stream=2 * i + 1)
        res = meeting_diagnostic(spec, u, v, h, c)
        found += int(res.found)
        rows.append(
            [
                i,
                int(res.found),
                res.n if res.found else "",
                repr(res.norm_bound_u) if res.found else "",
                repr(res.norm_bound_v) if res.found else "",
                res.uncertain_skips,
            ]
        )
    payload = {"group": spec.describe(), "pairs": pairs, "found": found}
    return rows, header, payload


_RUNNERS = {
    "standardness": _run_standardness,
    "ball-measure": _run_ball_measure,
    "scaling-fit": _run_scaling_fit,
    "orbit-entropy": _run_orbit_entropy,
    "meeting-diagnostic": _run_meeting_diagnostic,
}


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _render_csv(header, rows, meta: dict) -> bytes:
    buf = io.StringIO()
    for key, value in sorted(meta.items()):
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _render_json(payload: dict, meta: dict) -> bytes:
    return json.dumps({"meta": meta, "result": payload}, indent=2, sort_keys=True).encode()


def _atomic_write(path: Path, data: bytes):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def run_experiment(cfg: dict, out_dir: str, seed_override=None, threads: int = 1) -> list:
    """Run one experiment and write its CSV and JSON; `threads` is accepted
    and ignored, every experiment runs serially."""
    seed = int(cfg["seed"]) if seed_override is None else int(seed_override)
    digest = config_hash(cfg, seed)
    basename = _section(cfg, "output").get("basename", f"{cfg['experiment']}_{digest}")
    if not isinstance(basename, str) or not basename or {"/", "\\"} & set(basename):
        raise ConfigError(f"'output.basename' must be a non-empty file name, got {basename!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{basename}.csv"
    json_path = out / f"{basename}.json"
    runner = _RUNNERS[cfg["experiment"]]
    rows, header, payload = runner(cfg, seed)
    meta = {"config_hash": digest, "seed": seed, "experiment": cfg["experiment"], "filtlab": __version__}
    csv_bytes = _render_csv(header, rows, meta)
    json_bytes = _render_json(payload, meta)
    _atomic_write(csv_path, csv_bytes)
    _atomic_write(json_path, json_bytes)
    return [csv_path, json_path]


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _read_result_csv(path: str):
    """(header, rows) of a result CSV, its `#` meta lines skipped."""
    try:
        with open(path, newline="") as fh:
            table = list(csv.reader(line for line in fh if not line.startswith("#")))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if len(table) < 2:
        raise ConfigError(f"{path}: empty result file")
    return table[0], table[1:]


def compare_results(paths, out_path=None) -> dict:
    """Join result files sharing a schema; fit slope differences when possible."""
    if not paths:
        raise ConfigError("compare needs at least one result file")
    loaded = [_read_result_csv(p) for p in paths]
    header0 = loaded[0][0]
    for path, (header, _) in zip(paths, loaded):
        if header != header0:
            raise ConfigError(f"{path}: schema {header} does not match {header0}")

    report = {"files": list(map(str, paths)), "schema": header0, "rows": [len(r) for _, r in loaded]}
    report["table"] = [
        dict(zip(["source"] + header0, [str(path)] + row))
        for path, (_, rows) in zip(paths, loaded)
        for row in rows
    ]
    if {"n", "epsilon", "H_upper"}.issubset(header0):
        fits = []
        for path, (header, rows) in zip(paths, loaded):
            idx_n = header.index("n")
            idx_eps = header.index("epsilon")
            idx_h = header.index("H_upper")
            table = {
                (float(r[idx_eps]), int(r[idx_n])): float(r[idx_h])
                for r in rows
            }
            fit = scaling_exponent_fit(table)
            fits.append({"file": str(path), "beta_hat": fit.beta_hat, "stderr": fit.stderr})
        report["fits"] = fits
        diffs = []
        for i in range(len(fits)):
            for j in range(i + 1, len(fits)):
                delta = fits[j]["beta_hat"] - fits[i]["beta_hat"]
                stderr = math.hypot(fits[i]["stderr"], fits[j]["stderr"])
                diffs.append(
                    {
                        "minuend": fits[j]["file"],
                        "subtrahend": fits[i]["file"],
                        "beta_difference": delta,
                        "stderr": stderr,
                    }
                )
        report["beta_differences"] = diffs
    if out_path:
        _atomic_write(Path(out_path), json.dumps(report, indent=2, sort_keys=True).encode())
    return report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="filtlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("config_path", help="path to the config file")
    run_p.add_argument("--out-dir", default=".", help="directory for result files")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--threads", type=int, default=1, help="accepted and ignored; runs are serial")

    cmp_p = sub.add_parser("compare", help="compare result files sharing a schema")
    cmp_p.add_argument("files", nargs="+", help="result CSV files")
    cmp_p.add_argument("--out", default=None, help="write the report JSON here")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            run_experiment(
                load_config(args.config_path),
                out_dir=args.out_dir,
                seed_override=args.seed,
                threads=args.threads,
            )
            return 0
        if args.command == "compare":
            report = compare_results(args.files, out_path=args.out)
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0
    except (ConfigError, SizeCapError) as exc:
        # cap violations are config problems: the config demanded an over-cap run
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FiltlabError, RuntimeError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
