"""Re-record expected.json: output hashes, bracket widths and failures per seed.

    python3 benchmark/record_expected.py [SEED ...]    (default: seeds 0-9)

Run from the root of a checkout whose outputs are known to be right.  At
these seeds job.py then requires, for every workload, no more failed
operations than recorded; for the walk workloads the recorded CSV and JSON
sha256; for finite-certify a mean bracket width no wider than recorded and
the recorded ternary profile.  A change that claims to keep the result bytes
must not need this script.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORDED = {  # facts recorded from the job's `info`, besides `failed`
    "walk-f2-standardness": ("csv_sha256", "json_sha256"),
    "walk-z1-scaling": ("csv_sha256", "json_sha256"),
    "finite-certify": ("bracket_width", "ternary_c"),
    "group-streams": (),
}


def main(argv) -> int:
    seeds = [int(s) for s in argv[1:]] or list(range(10))
    path = HERE / "expected.json"
    path.write_text(json.dumps({name: {} for name in RECORDED}))
    expected = {name: {} for name in RECORDED}
    for name, keys in RECORDED.items():
        for seed in seeds:
            proc = subprocess.run([sys.executable, str(HERE / "job.py"), name, str(seed), "0"],
                                  cwd=HERE.parent, capture_output=True, text=True, check=True)
            record = json.loads(proc.stdout.strip().splitlines()[-1])
            if record["mismatches"]:
                raise SystemExit(f"{name} seed {seed}: {record['mismatches']}")
            expected[name][str(seed)] = {key: record["info"][key] for key in keys}
            expected[name][str(seed)]["failed"] = record["failed"]
            print(name, seed, expected[name][str(seed)], flush=True)
    path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
