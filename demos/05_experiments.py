"""Running experiments from JSON configs, and comparing their results.

Everything the library computes is also reachable through `filtlab run
<config.json>`: the config names the experiment, the group, the sampling
parameters and a master seed; results land as a CSV table plus a JSON mirror,
both headed by the config hash and seed and free of timestamps, so a rerun is
byte-identical.  `filtlab compare` joins scaling-fit results and reports
exponent differences.
"""

import json
import tempfile
from pathlib import Path

from filtlab.cli import compare_results, load_config, run_experiment

HERE = Path(__file__).resolve().parent

with tempfile.TemporaryDirectory(prefix="filtlab_demo_") as tmp:
    out = Path(tmp)
    print("results go to", out)

    cfg = load_config(str(HERE / "configs" / "dyadic_orbit.json"))
    csv_path, json_path = run_experiment(cfg, out_dir=str(out))
    print()
    print("orbit-entropy experiment:")
    print((out / "dyadic_orbit.csv").read_text())

    small = {
        "version": 1,
        "experiment": "scaling-fit",
        "entropy_grid": {"epsilons": [0.05, 0.1, 0.2], "levels": [2, 3, 4, 5], "sample_points": 16},
        "seed": 1,
        "output": {"basename": "demo_z1"},
        "group": {"kind": "lattice", "d": 1},
    }
    run_experiment(small, out_dir=str(out))
    small2 = dict(small, group={"kind": "lattice", "d": 2}, output={"basename": "demo_z2"}, seed=2)
    run_experiment(small2, out_dir=str(out))

    report = compare_results([str(out / "demo_z1.csv"), str(out / "demo_z2.csv")])
    print("compare report:")
    print(json.dumps(report["beta_differences"], indent=2))
