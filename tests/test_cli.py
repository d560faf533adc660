import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import pytest

from filtlab.cli import compare_results, load_config, main, run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"


def small_standardness_config(**overrides):
    cfg = {
        "version": 1,
        "experiment": "standardness",
        "group": {"kind": "lattice", "d": 1},
        "walk": {"n_max": 3, "m": 3, "pairs": 30},
        "seed": 777,
        "output": {"basename": "probe"},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfigValidation:
    def test_demo_configs_load(self):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            cfg = load_config(str(path))
            assert cfg["experiment"]

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_unknown_experiment_exit_2(self, tmp_path):
        path = write_config(tmp_path, small_standardness_config(experiment="mystery"))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2

    def test_missing_section_exit_2(self, tmp_path):
        cfg = small_standardness_config()
        del cfg["walk"]
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2

    def test_cap_violation_exit_2(self, tmp_path):
        cfg = small_standardness_config()
        cfg["group"] = {"kind": "free", "s": 2}
        cfg["walk"] = {"n_max": 9, "m": 9, "pairs": 4, "leaf_cap": 1024}
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2

    def assert_config_error(self, tmp_path, capsys, cfg):
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize(
        "section, key",
        [("walk", "n_max"), ("walk", "pairs"), ("entropy_grid", "sample_points"), ("orbit", "n_max")],
    )
    def test_size_below_one_exit_2(self, tmp_path, capsys, section, key):
        cfg = {
            "walk": small_standardness_config,
            "entropy_grid": lambda: scaling_config("probe", {"kind": "lattice", "d": 1}, [1, 2], 8, 5, m=2),
            "orbit": lambda: small_standardness_config(
                experiment="orbit-entropy", orbit={"n_max": 3, "r": 2, "alphabet": 2}
            ),
        }[section]()
        cfg[section][key] = 0
        self.assert_config_error(tmp_path, capsys, cfg)

    @pytest.mark.parametrize(
        "experiment, path, value",
        [
            ("standardness", ("walk", "m"), 0),
            ("ball-measure", ("walk", "m"), 0),
            ("scaling-fit", ("walk", "m"), 0),
            ("ball-measure", ("walk", "samples"), 99),
            ("ball-measure", ("walk", "levels"), [2, 0]),
            ("scaling-fit", ("entropy_grid", "levels"), [1, 0]),
            ("standardness", ("walk", "leaf_cap"), "big"),
            ("scaling-fit", ("walk", "leaf_cap"), 0),
            ("ball-measure", ("walk", "epsilon"), -1),
            ("ball-measure", ("walk", "epsilon"), "x"),
            ("scaling-fit", ("entropy_grid", "epsilons"), [0.05, 0]),
            ("scaling-fit", ("entropy_grid", "epsilons"), [0.1, 1.0]),
            ("scaling-fit", ("entropy_grid", "epsilons"), 0.1),
            ("scaling-fit", ("entropy_grid", "levels"), 3),
            ("ball-measure", ("walk", "levels"), 3),
            ("orbit-entropy", ("orbit", "r"), 1),
            ("orbit-entropy", ("orbit", "alphabet"), 0),
            ("meeting-diagnostic", ("meeting", "h"), 0),
            ("meeting-diagnostic", ("meeting", "pairs"), "x"),
            ("meeting-diagnostic", ("meeting", "pairs"), -3),
            ("meeting-diagnostic", ("meeting", "cap"), 0),
            ("meeting-diagnostic", ("meeting", "c"), -1.0),
            ("meeting-diagnostic", ("meeting", "c"), 0),
            ("orbit-entropy", ("orbit", "n_max"), 2.7),
            ("standardness", ("walk", "pairs"), True),
            ("standardness", ("walk", "n_max"), "3"),
            ("ball-measure", ("walk", "levels"), [2, 2.5]),
            ("ball-measure", ("walk", "epsilon"), True),
            ("ball-measure", ("walk", "epsilon"), 10**400),
            ("meeting-diagnostic", ("meeting", "c"), False),
            ("standardness", ("group", "d"), 1.5),
            ("standardness", ("group", "d"), True),
            ("standardness", ("output", "basename"), ""),
            ("standardness", ("output", "basename"), 3),
            ("standardness", ("output", "basename"), "../probe"),
            ("standardness", ("output", "basename"), "sub\\probe"),
        ],
        ids=[
            "standardness-m", "ball-m", "scaling-m", "ball-samples", "ball-levels", "scaling-levels",
            "standardness-leaf-cap", "scaling-leaf-cap", "ball-epsilon", "ball-epsilon-text",
            "scaling-epsilon-0", "scaling-epsilon-1", "scaling-epsilons-scalar",
            "scaling-levels-scalar", "ball-levels-scalar", "orbit-r", "orbit-alphabet", "meeting-h",
            "meeting-pairs-text", "meeting-pairs", "meeting-cap", "meeting-c", "meeting-c-0",
            "orbit-n-max-fraction", "standardness-pairs-bool", "standardness-n-max-text",
            "ball-levels-fraction", "ball-epsilon-bool", "ball-epsilon-huge", "meeting-c-bool", "group-d-fraction",
            "group-d-bool", "basename-empty", "basename-number", "basename-parent",
            "basename-backslash",
        ],
    )
    def test_walk_size_out_of_range_exit_2(self, tmp_path, capsys, experiment, path, value):
        cfg = {
            "standardness": small_standardness_config,
            "ball-measure": lambda: small_standardness_config(
                experiment="ball-measure",
                walk={"levels": [1, 2], "m": 2, "epsilon": 0.2, "samples": 100},
            ),
            "scaling-fit": lambda: scaling_config("probe", {"kind": "lattice", "d": 1}, [1, 2], 8, 5, m=2),
            "orbit-entropy": lambda: small_standardness_config(
                experiment="orbit-entropy", orbit={"n_max": 2, "r": 2, "alphabet": 2}
            ),
            "meeting-diagnostic": lambda: meeting_config("probe", {"kind": "lattice", "d": 2}, 0.5, 2),
        }[experiment]()
        section, key = path
        cfg[section][key] = value
        self.assert_config_error(tmp_path, capsys, cfg)
        assert list(tmp_path.glob("probe.*")) == []

    @pytest.mark.parametrize(
        "experiment, key, value",
        [
            ("scaling-fit", "walk", [1]),
            ("standardness", "output", "x"),
            ("standardness", "seed", True),
            ("standardness", "group", {"kind": "free", "s": 2.5}),
            ("standardness", "group", {"kind": "free", "s": True}),
            ("standardness", "version", True),
            ("standardness", "version", 1.0),
        ],
        ids=["walk-list", "output-text", "seed-bool", "group-s-fraction", "group-s-bool", "version-bool",
             "version-float"],
    )
    def test_top_level_value_invalid_exit_2(self, tmp_path, capsys, experiment, key, value):
        cfg = {
            "standardness": small_standardness_config,
            "scaling-fit": lambda: scaling_config("probe", {"kind": "lattice", "d": 1}, [1, 2], 8, 5, m=2),
        }[experiment]()
        cfg[key] = value
        self.assert_config_error(tmp_path, capsys, cfg)

    def test_group_dimension_zero_exit_2(self, tmp_path, capsys):
        cfg = small_standardness_config(group={"kind": "lattice", "d": 0})
        self.assert_config_error(tmp_path, capsys, cfg)


# sha256 of (CSV, JSON) recorded with the element-at-a-time scenery reader;
# any faster path must keep every result byte.  The JSON meta carries
# filtlab.__version__, so a version bump re-records these and the pins below.
PINNED_RESULTS = [
    (
        "z1_standardness",  # demos/configs/z1_standardness.json as it stands
        None,
        "4b7b9b74402325e596b5b8f434f6a8e4332687f644d62dc9a5f02f97d263c6f5",
        "c1e0069165d8fc0af963667927896bd20229523d65063e159875f743792169d6",
    ),
    (
        "f2_small",
        {"group": {"kind": "free", "s": 2}, "walk": {"n_max": 5, "m": 4, "pairs": 12}, "seed": 31},
        "bdcf2db2102a07a0911da347c23842390e32a0ff6937899c64ace49769cce66d",
        "697e82c042ebca60443f1cf27018e988288d9a1e4e87c77febe8b189f6b17419",
    ),
    (
        "z2_small",
        {"group": {"kind": "lattice", "d": 2}, "walk": {"n_max": 5, "pairs": 12}, "seed": 32},
        "c0bdcac307b2112e7a745edf71471673bd495bae4795f8a4c66a29757721ce5c",
        "02a868871376cb79e6e4115435d01dc2a8bf66426ef1c7a1ca032f6af6772257",
    ),
    (
        "heisenberg_small",
        {"group": {"kind": "heisenberg"}, "walk": {"n_max": 4, "m": 4, "pairs": 12}, "seed": 33},
        "a2f19c83d4492e6c11d789c0a03ca517fb95528137c56ee2cab7ba5891aecdc4",
        "5d90f3329b2aa53f0f662c579d0a9f8152fc633c7cbe586423c653f14bb336c1",
    ),
]


def meeting_config(name, group, c, pairs):
    # h 4 up to 1024 steps: Heisenberg products leave the exact-norm ball
    return {
        "version": 1,
        "experiment": "meeting-diagnostic",
        "group": group,
        "meeting": {"pairs": pairs, "h": 4, "c": c, "cap": 1024},
        "seed": 41,
        "output": {"basename": name},
    }


# sha256 of (CSV, JSON) of meeting and orbit results, recorded with the
# element-at-a-time product tracker and the lazily grown Heisenberg ball.  A
# config of None is the demo config of that name.
PINNED_GROUP_RESULTS = [
    (
        "heisenberg_meeting",
        None,
        "3ed3b999fffd6adb112198ae59df39fb9fd14ea9269b7dbc594a99a5185c5013",
        "2c15712057d80bbc8481c781215e7167526c5a13a4e360477be911f3e8921806",
    ),
    (
        "z2_meeting",
        meeting_config("z2_meeting", {"kind": "lattice", "d": 2}, 0.5, 6),
        "8269aac5efd8738ab1fc7f616943aedb60b09c4bf794a36e57606b140df16ae1",
        "0add782d54a1ce9df0af560918939704666fefe26dc3629d72d528305c1a1acd",
    ),
    (
        "f2_meeting",
        meeting_config("f2_meeting", {"kind": "free", "s": 2}, 1.0, 6),
        "992bb304fe01d47b69303c9ba0d8bff1259df99effb36b409bbbbde009b973db",
        "a6291dc566a2bc8ab15da47c0c14eead259609c3969d00987798d293c47c5cbe",
    ),
    # two of the twelve pairs miss with uncertain skips (344 and 67)
    (
        "heisenberg_far",
        meeting_config("heisenberg_far", {"kind": "heisenberg"}, 1.0, 12),
        "3ccd2825300d933066553a16404b21b3cb11a93f331a7c848127e5810a89fae6",
        "a754fa3ae0807933fff7a4e696c935f0d725ec18e0acff4ae5afa70f4ad672bf",
    ),
    (
        "orbit_small",
        {
            "version": 1,
            "experiment": "orbit-entropy",
            "orbit": {"n_max": 3, "r": 2, "alphabet": 3},
            "seed": 5,
            "output": {"basename": "orbit_small"},
        },
        "c069af19d26d36090c9a6a0bbfaa00bb86ec74da199fe91d29eced1d2bce7b70",
        "6db157028e4dca29c51f89ae308d4e8d6a5de5101e8657bbdb85bc0bc5e99a98",
    ),
]


def scaling_config(name, group, levels, points, seed, m):
    return {
        "version": 1,
        "experiment": "scaling-fit",
        "group": group,
        "entropy_grid": {"epsilons": [0.05, 0.1, 0.2], "levels": levels, "sample_points": points},
        "walk": {"m": m},
        "seed": seed,
        "output": {"basename": name},
    }


# sha256 of (CSV, JSON) of scaling-fit and ball-measure results, recorded with
# one per-pair distance computation for each pair of points.  A config of
# None is the demo config of that name.
PINNED_TABLE_RESULTS = [
    (
        "z1_scaling",
        None,
        "7c5584198a8964a2625bb8df9a1fd2a29bec4cc2ea207aa566e0dbafd04f055b",
        "93d666626ea864e14fde59ac462c7b9ff36c031590dfb0a2065699d93296c38c",
    ),
    # r = 6: sums of child costs are not dyadic
    (
        "z3_scaling",
        scaling_config("z3_scaling", {"kind": "lattice", "d": 3}, [1, 2, 3], 12, 51, m=2),
        "82b51c392911ec0d97f0480949010b11d833089ef2c2e134cfa3f59f7e83f9dd",
        "33f0eb0d334be7d980b3ccc147926a3ffda7e50ebd7811ae5aa42b98663b1451",
    ),
    (
        "heisenberg_scaling",
        scaling_config("heisenberg_scaling", {"kind": "heisenberg"}, [2, 3, 4], 16, 52, m=3),
        "3661ccc4d084b8c3a7a1886f55bb1c3dc69334b5b94c7aa1cb0e98876b35ef0e",
        "86c1d3bf6e643e373a80a691f45b7e3196ad9b85176f6794929b0d9754dfd081",
    ),
    (
        "f2_ball_small",
        {
            "version": 1,
            "experiment": "ball-measure",
            "group": {"kind": "free", "s": 2},
            "walk": {"levels": [2, 3, 4], "m": 3, "epsilon": 0.2, "samples": 100},
            "seed": 53,
            "output": {"basename": "f2_ball_small"},
        },
        "053972cfb2296c60ae933482371d536aa02a33d6a7dfcb0ade5f7c6dd9b76954",
        "540e4a074e07ff3de6d3204d5b2e97f3cce0900864c1d15e34b3f783ccbd1049",
    ),
]


class TestResultBytes:
    @pytest.mark.parametrize(
        "name,overrides,csv_sha,json_sha", PINNED_RESULTS, ids=[p[0] for p in PINNED_RESULTS]
    )
    def test_standardness_bytes_pinned(self, tmp_path, name, overrides, csv_sha, json_sha):
        if overrides is None:
            cfg = load_config(str(CONFIG_DIR / f"{name}.json"))
        else:
            cfg = small_standardness_config(**overrides, output={"basename": name})
        csv_path, json_path = run_experiment(cfg, out_dir=str(tmp_path))
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == json_sha

    @pytest.mark.parametrize(
        "name,cfg,csv_sha,json_sha",
        PINNED_GROUP_RESULTS + PINNED_TABLE_RESULTS,
        ids=[p[0] for p in PINNED_GROUP_RESULTS + PINNED_TABLE_RESULTS],
    )
    def test_group_result_bytes_pinned(self, tmp_path, name, cfg, csv_sha, json_sha):
        if cfg is None:
            cfg = load_config(str(CONFIG_DIR / f"{name}.json"))
        csv_path, json_path = run_experiment(cfg, out_dir=str(tmp_path))
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == json_sha


class TestRun:
    def test_standardness_run_writes_expected_columns(self, tmp_path):
        path = write_config(tmp_path, small_standardness_config())
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "probe.csv").read_text().splitlines()
        data_header = [l for l in lines if not l.startswith("#")][0]
        assert data_header == "n,c_n,ci_low,ci_high"
        meta = [l for l in lines if l.startswith("#")]
        assert any("config_hash=" in l for l in meta)
        assert any("seed=777" in l for l in meta)
        payload = json.loads((tmp_path / "probe.json").read_text())
        assert payload["meta"]["seed"] == 777

    def test_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path, small_standardness_config())
        run_experiment(load_config(str(path)), out_dir=str(tmp_path / "a"))
        run_experiment(load_config(str(path)), out_dir=str(tmp_path / "b"))
        assert (tmp_path / "a" / "probe.csv").read_bytes() == (tmp_path / "b" / "probe.csv").read_bytes()
        assert (tmp_path / "a" / "probe.json").read_bytes() == (tmp_path / "b" / "probe.json").read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        path = write_config(tmp_path, small_standardness_config())
        run_experiment(load_config(str(path)), out_dir=str(tmp_path / "a"))
        run_experiment(load_config(str(path)), out_dir=str(tmp_path / "b"), seed_override=778)
        assert (tmp_path / "a" / "probe.csv").read_bytes() != (tmp_path / "b" / "probe.csv").read_bytes()

    def test_run_takes_one_config_path_and_three_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {
            "--help", "--out-dir", "--seed", "--threads"
        }

    def test_missing_config_path_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--out-dir", "."])
        assert exc.value.code == 2

    def test_workers_do_not_change_bytes(self, tmp_path):
        path = write_config(tmp_path, small_standardness_config())
        cfg = load_config(str(path))
        run_experiment(cfg, out_dir=str(tmp_path / "w1"), threads=1)
        run_experiment(cfg, out_dir=str(tmp_path / "w4"), threads=4)
        assert (tmp_path / "w1" / "probe.csv").read_bytes() == (tmp_path / "w4" / "probe.csv").read_bytes()

    def test_threads_flag_accepted_and_ignored(self, tmp_path):
        path = write_config(tmp_path, small_standardness_config())
        assert main(["run", str(path), "--out-dir", str(tmp_path / "plain")]) == 0
        assert main(["run", str(path), "--out-dir", str(tmp_path / "t4"), "--threads", "4"]) == 0
        for name in ("probe.csv", "probe.json"):
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "t4" / name).read_bytes()

    def test_orbit_entropy_run(self, tmp_path):
        cfg = {
            "version": 1,
            "experiment": "orbit-entropy",
            "orbit": {"n_max": 3, "r": 2, "alphabet": 2},
            "seed": 5,
            "output": {"basename": "orbits"},
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 0
        lines = [l for l in (tmp_path / "orbits.csv").read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "n,orbit_count,H_bits,h_normalized"
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "3"
        assert float(first[3]) == pytest.approx(0.75, abs=1e-12)

    def test_orbit_entropy_of_one_letter_is_plus_zero(self, tmp_path):
        cfg = {
            "version": 1,
            "experiment": "orbit-entropy",
            "orbit": {"n_max": 3, "r": 2, "alphabet": 1},
            "seed": 5,
            "output": {"basename": "orbits"},
        }
        csv_path, json_path = run_experiment(cfg, out_dir=str(tmp_path))
        rows = [l.split(",") for l in csv_path.read_text().splitlines() if not l.startswith("#")]
        values = [float(v) for row in rows[1:] for v in row[2:]]
        payload = json.loads(json_path.read_text())["result"]
        values += payload["h_sequence"] + [payload["limit_estimate"]]
        assert len(values) == 10
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values)

    def test_meeting_diagnostic_run(self, tmp_path):
        cfg = {
            "version": 1,
            "experiment": "meeting-diagnostic",
            "group": {"kind": "lattice", "d": 1},
            "meeting": {"pairs": 5, "h": 2, "c": 1.5, "cap": 32},
            "seed": 6,
            "output": {"basename": "meet"},
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 0

    def test_meeting_draws_only_the_steps_it_reads(self, tmp_path):
        # at h 2 the diagnostic reads 2^5 = 32 steps of each walk, whatever the cap
        rows = {}
        for cap in (32, 10**7):
            cfg = meeting_config("meet", {"kind": "heisenberg"}, 1.0, 3)
            cfg["meeting"].update(h=2, cap=cap)
            tracemalloc.start()
            try:
                csv_path, _ = run_experiment(cfg, out_dir=str(tmp_path / str(cap)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20
            rows[cap] = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
        assert rows[10**7] == rows[32]


class TestCompare:
    def _scaling_run(self, tmp_path, d, seed, basename):
        cfg = {
            "version": 1,
            "experiment": "scaling-fit",
            "group": {"kind": "lattice", "d": d},
            "entropy_grid": {"epsilons": [0.05, 0.1, 0.2], "levels": [2, 3, 4, 5], "sample_points": 16},
            "seed": seed,
            "output": {"basename": basename},
        }
        run_experiment(cfg, out_dir=str(tmp_path))
        return tmp_path / f"{basename}.csv"

    def test_compare_two_scaling_files(self, tmp_path):
        a = self._scaling_run(tmp_path, 1, 11, "a")
        b = self._scaling_run(tmp_path, 2, 12, "b")
        report = compare_results([str(a), str(b)])
        assert len(report["fits"]) == 2
        assert len(report["beta_differences"]) == 1
        diff = report["beta_differences"][0]
        assert diff["stderr"] > 0
        assert len(report["table"]) == 24  # 12 grid rows per file, source-tagged
        assert {row["source"] for row in report["table"]} == {str(a), str(b)}

    def test_single_file_identity_report(self, tmp_path):
        a = self._scaling_run(tmp_path, 1, 13, "solo")
        report = compare_results([str(a)])
        assert report["rows"] == [12]

    def test_empty_file_exit_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["compare", str(empty)]) == 2

    def test_undecodable_file_exit_2(self, tmp_path):
        binary = tmp_path / "binary.csv"
        binary.write_bytes(bytes(range(128, 256)) * 2)
        assert main(["compare", str(binary)]) == 2

    def test_schema_mismatch_exit_2(self, tmp_path):
        a = self._scaling_run(tmp_path, 1, 14, "sch")
        other = tmp_path / "other.csv"
        other.write_text("x,y\n1,2\n")
        assert main(["compare", str(a), str(other)]) == 2

    def test_epsilon_outside_the_fit_names_the_row(self, tmp_path, capsys):
        # log2(n log2(1/eps)) is undefined at eps = 1; the error names the row
        a = self._scaling_run(tmp_path, 1, 15, "dom")
        lines = a.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        header, row = lines[at].split(","), lines[at + 1].split(",")
        row[header.index("epsilon")] = "1.0"
        lines[at + 1] = ",".join(row)
        a.write_text("\n".join(lines) + "\n")
        assert main(["compare", str(a)]) == 3
        assert f"entry (epsilon=1.0, n={row[header.index('n')]})" in capsys.readouterr().err
