"""End-to-end CLI runs: files, exit codes, determinism."""

import json
import os
import re

import pytest

from droneplace.cli import main
from droneplace.experiments import rate_cdf_from_rates
from droneplace.users import read_users_csv

# a scenario small enough that every subcommand finishes in well under a second
SMALL = {
    "x_max_m": 600.0,
    "y_max_m": 600.0,
    "grid_step_m": 300.0,
    "h_min_m": 100.0,
    "h_max_m": 200.0,
    "backhaul_mbps": 4.0,
    "parent_density_per_m2": 2.0 / 360_000.0,
    "mean_users_per_cluster": 6.0,
    "cluster_radius_m": 80.0,
    "seeds": [0, 1],
    "backhaul_values_mbps": [2.0, 4.0],
    "displacement_values_m": [0.0, 50.0],
}


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def read_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as f:
            out[name] = f.read()
    return out


def test_gen_users_writes_one_csv_per_seed(tmp_path, small_cfg, capsys):
    out = tmp_path / "out"
    assert run_cli("gen-users", "--config", small_cfg, "--output-dir", str(out)) == 0
    files = sorted(os.listdir(out))
    assert len(files) == 2
    assert files[0].startswith("users_seed0_cfg") and files[0].endswith(".csv")
    assert files[1].startswith("users_seed1_cfg")
    printed = capsys.readouterr().out
    assert printed.count("wrote ") == 2
    assert "done in" in printed


def test_place_emits_result_json_and_served_csv(tmp_path, small_cfg, capsys):
    out = tmp_path / "out"
    assert run_cli("place", "--config", small_cfg, "--seed", "0",
                   "--output-dir", str(out)) == 0
    files = sorted(os.listdir(out))
    assert any(f.startswith("placement_seed0_cfg") and f.endswith(".json") for f in files)
    assert any(f.startswith("served_seed0_cfg") and f.endswith(".csv") for f in files)
    doc = json.loads((out / files[0]).read_text())
    assert doc["seed"] == 0
    assert doc["mode"] == "network_centric"
    assert doc["served_count"] == len(doc["served_user_ids"])
    assert doc["placement"]["h_m"] in (100.0, 200.0)
    assert doc["rate_used_mbps"] <= SMALL["backhaul_mbps"] + 1e-9
    assert doc["config"]["backhaul_mbps"] == 4.0
    assert "threads" not in doc["config"]
    assert "seed 0: drone at" in capsys.readouterr().out


def test_place_verbose_counts_link_budgets_and_writes_the_same_files(tmp_path, small_cfg, capsys):
    plain, verbose = tmp_path / "plain", tmp_path / "verbose"
    assert run_cli("place", "--config", small_cfg, "--seed", "0",
                   "--output-dir", str(plain)) == 0
    capsys.readouterr()
    assert run_cli("place", "--config", small_cfg, "--seed", "0",
                   "--output-dir", str(verbose), "--verbose") == 0
    line = next(s for s in capsys.readouterr().out.splitlines() if "link budgets" in s)
    words = line.split()
    links, eligible = int(words[4]), int(words[6])
    rows, candidates = int(words[9]), int(words[11])
    assert 0 < links <= eligible and 0 < rows <= candidates == 3 * 3 * 2
    assert read_tree(plain) == read_tree(verbose)


def test_place_verbose_counts_the_margin_stage(tmp_path, small_cfg, capsys):
    assert run_cli("place", "--config", small_cfg, "--seed", "0",
                   "--output-dir", str(tmp_path), "--verbose") == 0
    line = next(s for s in capsys.readouterr().out.splitlines() if "margin stage" in s)
    tiles, split, rows, rescreens, cuts = (int(v) for v in re.findall(r"\d+", line))
    # the 3 x 3 grid is one tile on each of its two layers
    assert tiles == 2 and 0 < split <= tiles
    assert rows > 0 and cuts > 0 and rescreens >= 0


def test_place_is_deterministic_across_reruns_and_threads(tmp_path, small_cfg):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d, threads in zip(dirs, ("1", "1", "4")):
        assert run_cli("place", "--config", small_cfg, "--seed", "1",
                       "--threads", threads, "--output-dir", str(d)) == 0
    a, b, c = (read_tree(d) for d in dirs)
    assert a == b == c


def test_place_mode_comparison_on_the_same_seed(tmp_path, small_cfg):
    served = {}
    for mode in ("network_centric", "user_centric"):
        out = tmp_path / mode
        assert run_cli("place", "--config", small_cfg, "--seed", "0",
                       "--mode", mode, "--output-dir", str(out)) == 0
        name = next(f for f in os.listdir(out) if f.startswith("placement"))
        served[mode] = json.loads((out / name).read_text())
    assert served["network_centric"]["served_count"] >= served["user_centric"]["served_count"]
    assert served["network_centric"]["config_sha256_12"] != served["user_centric"]["config_sha256_12"]


def test_sweep_backhaul_outputs(tmp_path, small_cfg):
    out = tmp_path / "out"
    assert run_cli("sweep-backhaul", "--config", small_cfg,
                   "--output-dir", str(out), "--verbose") == 0
    files = sorted(os.listdir(out))
    assert files[0].startswith("sweep_backhaul_seeds0-1_cfg")
    csv_name = next(f for f in files if f.endswith(".csv"))
    lines = (out / csv_name).read_text().splitlines()
    assert lines[0] == "seed,x_value,metric,value"
    assert len(lines) == 1 + 2 * 2 * 4  # seeds x R values x metrics
    meta = json.loads((out / next(f for f in files if f.endswith(".meta.json"))).read_text())
    assert meta["x_values"] == [2.0, 4.0]
    assert meta["config"]["grid_step_m"] == 300.0


def test_single_seed_single_point_sweep(tmp_path, small_cfg):
    out = tmp_path / "out"
    assert run_cli("sweep-backhaul", "--config", small_cfg, "--seed", "0",
                   "--set", "backhaul_values_mbps=[4.0]",
                   "--output-dir", str(out)) == 0
    csv_name = next(f for f in os.listdir(out) if f.endswith(".csv"))
    assert csv_name.startswith("sweep_backhaul_seed0_cfg")
    lines = (out / csv_name).read_text().splitlines()
    # one observation cell: a row per recorded metric
    assert len(lines) == 1 + 4
    assert all(line.startswith("0,4.0,") for line in lines[1:])


def test_robustness_outputs(tmp_path, small_cfg):
    out = tmp_path / "out"
    assert run_cli("robustness", "--config", small_cfg, "--output-dir", str(out)) == 0
    csv_name = next(f for f in os.listdir(out) if f.endswith(".csv"))
    assert csv_name.startswith("robustness_seeds0-1_cfg")
    rows = [l.split(",") for l in (out / csv_name).read_text().splitlines()[1:]]
    zero_delta_drops = [
        float(v) for s, x, m, v in rows if m == "dropped_pct" and float(x) == 0.0
    ]
    assert zero_delta_drops == [0.0, 0.0]


def test_cdf_places_both_modes_with_one_search_per_seed(tmp_path, small_cfg, monkeypatch):
    from droneplace.placement import PlacementSearch

    built = []
    init = PlacementSearch.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PlacementSearch, "__init__", spy)
    assert run_cli("cdf", "--config", small_cfg, "--output-dir", str(tmp_path / "out")) == 0
    assert len(built) == len(SMALL["seeds"])


def test_cdf_pools_both_modes(tmp_path, small_cfg):
    out = tmp_path / "out"
    assert run_cli("cdf", "--config", small_cfg, "--output-dir", str(out)) == 0
    csv_name = next(f for f in os.listdir(out) if f.endswith(".csv"))
    lines = (out / csv_name).read_text().splitlines()
    assert lines[0] == "mode,rate_mbps,cdf"
    assert len(lines) == 1 + 2 * 5  # both modes x rate set
    by_mode = {}
    for line in lines[1:]:
        mode, rho, v = line.split(",")
        by_mode.setdefault(mode, []).append(float(v))
    for mode, cdf in by_mode.items():
        assert cdf[-1] == 1.0
        assert all(a <= b for a, b in zip(cdf, cdf[1:]))
    meta = json.loads((out / next(f for f in os.listdir(out) if f.endswith(".meta.json"))).read_text())
    assert set(meta["cdf"]) == {"network_centric", "user_centric"}

    # the table pools only served users: it equals the CDF of the served
    # sets `place` writes for the same seeds, which differs from everyone's
    users_dir = tmp_path / "users"
    assert run_cli("gen-users", "--config", small_cfg, "--output-dir", str(users_dir)) == 0
    everyone = [u.rate_mbps for f in sorted(users_dir.iterdir()) for u in read_users_csv(f)]
    for mode, cdf in by_mode.items():
        rate_set = [float(line.split(",")[1]) for line in lines[1:] if line.startswith(mode + ",")]
        place_dir = tmp_path / f"place_{mode}"
        for seed in SMALL["seeds"]:
            assert run_cli("place", "--config", small_cfg, "--mode", mode, "--seed", str(seed),
                           "--output-dir", str(place_dir)) == 0
        served = [
            u.rate_mbps
            for f in sorted(place_dir.glob("served_seed*.csv"))
            for u in read_users_csv(f)
        ]
        assert len(served) < len(everyone)
        assert cdf == rate_cdf_from_rates(served, rate_set)
        assert cdf != rate_cdf_from_rates(everyone, rate_set)


def test_experiment_outputs_are_thread_invariant(tmp_path, small_cfg):
    dirs = [tmp_path / d for d in ("t1", "t8")]
    for d, threads in zip(dirs, ("1", "8")):
        assert run_cli("sweep-backhaul", "--config", small_cfg, "--threads", threads,
                       "--output-dir", str(d)) == 0
        assert run_cli("robustness", "--config", small_cfg, "--threads", threads,
                       "--output-dir", str(d)) == 0
    assert read_tree(dirs[0]) == read_tree(dirs[1])


def test_config_errors_exit_2_and_write_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("place", "--set", "no_such_key=1", "--output-dir", str(out)) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("place", "--config", str(tmp_path / "missing.json"),
                   "--output-dir", str(out)) == 2
    assert run_cli("place", "--seed", "-1", "--output-dir", str(out)) == 2
    assert "config error: seeds" in capsys.readouterr().err
    assert not out.exists()
    for command in ("place", "gen-users"):
        assert run_cli(command, "--set", "mean_users_per_cluster=0", "--output-dir", str(out)) == 2
        assert "config error: mean_users_per_cluster" in capsys.readouterr().err
        assert not out.exists()


def test_non_finite_numbers_exit_2_and_write_nothing(tmp_path, capsys):
    # NaN once served nobody and wrote NaN into the placement JSON, and a
    # non-finite grid step or altitude failed later as a runtime error
    out = tmp_path / "out"
    for text in ("backhaul_mbps=NaN", "grid_step_m=NaN", "h_max_m=Infinity"):
        assert run_cli("place", "--set", text, "--output-dir", str(out)) == 2
        assert f"config error: {text.split('=')[0]}" in capsys.readouterr().err
        assert not out.exists()


def test_runtime_errors_exit_3_and_leave_no_partial_files(tmp_path, capsys):
    out = tmp_path / "out"
    # a population that is empty on every resample attempt
    code = run_cli(
        "gen-users",
        "--set", "parent_density_per_m2=1e-18",
        "--set", "seeds=[0]",
        "--output-dir", str(out),
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("seeds", ["[1,0]", "[0,1]"], ids=["in_a_child", "in_the_parent"])
def test_a_failing_worker_exits_3_and_leaves_no_process(tmp_path, small_cfg, forked, capsys, seeds):
    # at pl_max_db = 80 dB seed 1 serves one user and seed 0 nobody, which
    # robustness rejects; with 2 workers the second seed runs in the child
    import multiprocessing

    out = tmp_path / "out"
    code = run_cli("robustness", "--config", small_cfg, "--threads", "2",
                   "--set", "pl_max_db=80", "--set", f"seeds={seeds}", "--output-dir", str(out))
    assert code == 3
    assert "served no users" in capsys.readouterr().err
    assert os.listdir(out) == []
    assert len(forked) == 1
    assert multiprocessing.active_children() == []


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2


def test_output_dir_env_var_is_honored(tmp_path, small_cfg, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("DRONEPLACE_OUTPUT_DIR", str(env_dir))
    assert run_cli("gen-users", "--config", small_cfg, "--seed", "0") == 0
    assert len(os.listdir(env_dir)) == 1
    flag_dir = tmp_path / "from_flag"
    assert run_cli("gen-users", "--config", small_cfg, "--seed", "0",
                   "--output-dir", str(flag_dir)) == 0
    assert len(os.listdir(flag_dir)) == 1
