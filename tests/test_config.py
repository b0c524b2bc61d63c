"""Configuration resolution: defaults, file, overrides, validation, hashing."""

import json

import pytest

from droneplace.config import DEFAULTS, ConfigError, load_config, parse_override


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_defaults_reproduce_the_reference_scenario():
    cfg = load_config()
    r = cfg.resolved
    assert r["carrier_hz"] == 2.0e9
    assert r["tx_power_w"] == 5.0
    assert r["bandwidth_mhz"] == 15.0
    assert r["backhaul_mbps"] == 80.0
    assert r["pl_max_db"] == 120.0
    assert (r["a"], r["b"]) == (9.61, 0.16)
    assert (r["eta_los_db"], r["eta_nlos_db"]) == (1.0, 20.0)
    assert (r["x_max_m"], r["y_max_m"]) == (4000.0, 4000.0)
    assert (r["h_min_m"], r["h_max_m"], r["grid_step_m"]) == (100.0, 400.0, 100.0)
    assert r["parent_density_per_m2"] == 1.0e-7
    assert r["mean_users_per_cluster"] == 90.0
    assert r["cluster_radius_m"] == 700.0
    assert r["rate_set_mbps"] == [0.1, 0.5, 1.0, 1.5, 2.0]
    assert r["seeds"] == list(range(20))
    assert r["mode"] == "network_centric"
    assert r["backhaul_values_mbps"] == [float(v) for v in range(10, 201, 10)]
    assert r["displacement_values_m"] == [0.0, 25.0, 50.0, 100.0, 150.0, 200.0]


def test_default_grid_matches_the_candidate_count():
    from droneplace.placement import candidate_grid

    assert len(candidate_grid(load_config().system)) == 6724


def test_file_values_override_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, {"backhaul_mbps": 150}))
    assert cfg.resolved["backhaul_mbps"] == 150.0
    # nothing else moves
    for key, val in DEFAULTS.items():
        if key != "backhaul_mbps":
            assert cfg.resolved[key] == val


def test_cli_overrides_beat_the_file(tmp_path):
    path = write_config(tmp_path, {"backhaul_mbps": 150, "mode": "user_centric"})
    cfg = load_config(path, overrides=["backhaul_mbps=60"])
    assert cfg.resolved["backhaul_mbps"] == 60.0
    assert cfg.resolved["mode"] == "user_centric"


def test_unknown_key_is_named_in_the_error():
    with pytest.raises(ConfigError, match="carrier_mhz"):
        load_config(overrides=["carrier_mhz=2000"])


def test_type_mismatch_is_named_in_the_error():
    with pytest.raises(ConfigError, match="bandwidth_mhz"):
        load_config(overrides=["bandwidth_mhz=wide"])
    with pytest.raises(ConfigError, match="seeds"):
        load_config(overrides=["seeds=[0.5]"])
    with pytest.raises(ConfigError, match="threads"):
        load_config(overrides=["threads=2.5"])


def test_non_finite_numbers_are_named_in_the_error(tmp_path):
    # JSON parsing accepts NaN and Infinity in overrides and files alike
    for text in ("backhaul_mbps=NaN", "grid_step_m=NaN", "h_max_m=Infinity",
                 "pl_max_db=-Infinity", "backhaul_values_mbps=[10, NaN]",
                 "rate_set_mbps=[0.5, Infinity]"):
        key = text.split("=")[0]
        with pytest.raises(ConfigError, match=f"{key}: expected .*finite"):
            load_config(overrides=[text])
    path = tmp_path / "nan.json"
    path.write_text('{"tx_power_w": NaN}')
    with pytest.raises(ConfigError, match="tx_power_w"):
        load_config(str(path))


def test_domain_invariants_become_config_errors():
    with pytest.raises(ConfigError):
        load_config(overrides=["pl_max_db=-1"])
    with pytest.raises(ConfigError):
        load_config(overrides=["h_min_m=500"])  # above h_max
    with pytest.raises(ConfigError):
        load_config(overrides=["threads=0"])
    with pytest.raises(ConfigError, match="mode"):
        load_config(overrides=["mode=greedy"])
    # numpy's seeding would reject it later, without naming the key
    with pytest.raises(ConfigError, match="seeds"):
        load_config(overrides=["seeds=[0, 3, -2]"])
    # every draw would be empty: a config error, not a failed resample loop
    with pytest.raises(ConfigError, match="mean_users_per_cluster"):
        load_config(overrides=["mean_users_per_cluster=0"])
    with pytest.raises(ConfigError, match="strictly increasing"):
        load_config(overrides=["backhaul_values_mbps=[10, 10]"])
    with pytest.raises(ConfigError, match="strictly increasing"):
        load_config(overrides=["displacement_values_m=[0, 50, 25]"])


def test_bad_files_are_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(bad))
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(str(array))


def test_override_syntax_errors():
    with pytest.raises(ConfigError, match="KEY=VALUE"):
        parse_override("backhaul_mbps")
    key, value = parse_override("mode=user_centric")
    assert (key, value) == ("mode", "user_centric")
    key, value = parse_override("seeds=[1, 2]")
    assert (key, value) == ("seeds", [1, 2])


def test_explicit_sigmoid_values_beat_the_preset():
    cfg = load_config(overrides=["a=5.0"])
    assert cfg.resolved["a"] == 5.0
    assert cfg.resolved["b"] == 0.16  # untouched keys still follow the preset
    with pytest.raises(ConfigError, match="environment"):
        load_config(overrides=["environment=lunar"])


def test_scenario_round_trips_through_a_file(tmp_path):
    original = load_config(overrides=["backhaul_mbps=42", "seeds=[3, 4]"])
    path = write_config(tmp_path, original.scenario, name="echo.json")
    reloaded = load_config(path)
    assert reloaded.scenario == original.scenario
    assert reloaded.config_hash == original.config_hash


def test_hash_ignores_execution_keys_but_not_scenario_keys():
    base = load_config()
    assert base.config_hash == load_config(overrides=["threads=8"]).config_hash
    assert base.config_hash == load_config(overrides=["output_dir=/somewhere"]).config_hash
    assert base.config_hash != load_config(overrides=["backhaul_mbps=81"]).config_hash
    assert len(base.config_hash) == 12
    int(base.config_hash, 16)  # hex digest prefix


def test_output_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("DRONEPLACE_OUTPUT_DIR", str(tmp_path / "envout"))
    assert load_config().output_dir == str(tmp_path / "envout")
    # file and explicit overrides still win
    path = write_config(tmp_path, {"output_dir": "fromfile"})
    assert load_config(path).output_dir == "fromfile"
    assert load_config(overrides=["output_dir=flag"]).output_dir == "flag"
    monkeypatch.delenv("DRONEPLACE_OUTPUT_DIR")
    assert load_config().output_dir == "."


def test_typed_views_expose_the_resolved_values():
    cfg = load_config(overrides=["backhaul_mbps=55"])
    assert cfg.system.backhaul_mbps == 55.0
    assert cfg.system.bounds.area_m2 == 16_000_000.0
    assert cfg.environment.a == 9.61
    assert cfg.cluster.cluster_radius_m == 700.0
    assert cfg.sweep_spec().mode == cfg.mode
    assert cfg.robustness_spec().displacement_values_m[0] == 0.0
