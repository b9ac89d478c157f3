"""Config parsing, packaged scenario files, and the command-line surface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import risrates
from risrates import (
    ConfigError,
    ScenarioKnown,
    ScenarioUnknown,
    config_digest,
    load_config,
    load_packaged,
    packaged_config_path,
)
from risrates import montecarlo
from risrates.cli import fmt9, main, read_csv, render_csv, write_csv
from risrates.scenarios import Deterministic, Uniform

KNOWN_CONFIGS = [
    "table3-static-noobstacle", "table3-static-obstacle",
    "table3-static-selfblock", "table3-uniform-noobstacle",
    "table3-uniform-obstacle", "table3-uniform-selfblock",
]
UNKNOWN_CONFIGS = [
    "table4-unknown", "mobility-dip", "obstacle-density",
    "dimensioning-speed10", "dimensioning-speed15",
]


def _geometry_error_raw() -> dict:
    # exclusion circle pokes out of the displaced coverage disk inside the
    # wall shadow, so the closed-form area subtraction is rejected
    return {
        "kind": "known",
        "room": [0.0, 0.0, 10.0, 10.0],
        "enb": [0.0, 4.0],
        "walls": [[[4.0, 2.8], [4.0, 5.0]]],
        "extra_obstacles": [],
        "ue": [6.0, 4.2],
        "serving_ris_distance": 2.0,
        "ris_direction_deg": 0.0,
        "orientation": "ccw",
        "lambda_RIS": {"value": 0.1, "unit": "per-m2"},
        "mobility": {"speed": {"kind": "deterministic", "value": 0.5},
                     "angle_deg": {"kind": "deterministic", "value": 90.0}},
    }


# ---------------------------------------------------------------------------
# packaged configs


@pytest.mark.parametrize("name", KNOWN_CONFIGS)
def test_packaged_known_configs_load(name):
    cfg = load_packaged(name)
    assert cfg.kind == "known"
    assert isinstance(cfg.scenario, ScenarioKnown)
    assert cfg.name == name
    assert len(cfg.digest) == 64


@pytest.mark.parametrize("name", UNKNOWN_CONFIGS)
def test_packaged_unknown_configs_load(name):
    cfg = load_packaged(name)
    assert cfg.kind == "unknown"
    assert isinstance(cfg.scenario, ScenarioUnknown)


def test_packaged_config_path_rejects_unknown_name():
    with pytest.raises(ConfigError):
        packaged_config_path("no-such-scenario")


def test_static_scene_fields():
    s = load_packaged("table3-static-obstacle").scenario
    assert s.ris_direction == pytest.approx(math.radians(149.3))
    assert s.orientation == -1  # "cw"
    assert s.lambda_RIS == pytest.approx(0.1)
    assert isinstance(s.mobility.speed_law, Deterministic)
    assert s.mobility.angle_law.value == pytest.approx(math.pi / 4)


def test_uniform_scene_fields():
    s = load_packaged("table3-uniform-selfblock").scenario
    assert s.orientation == 1  # "ccw"
    assert isinstance(s.mobility.speed_law, Uniform)
    assert (s.mobility.speed_law.low, s.mobility.speed_law.high) == (1.0, 2.5)
    assert s.self_block.theta == pytest.approx(math.radians(90.0))
    assert s.self_block_direction == pytest.approx(math.radians(70.0))
    assert s.extra_obstacles == ()


def test_density_unit_conversion():
    s = load_packaged("obstacle-density").scenario
    # 1000 per km^2 is 1e-3 per m^2
    assert s.obstacle_model.lambda_B == pytest.approx(1e-3, rel=1e-12)


def test_unknown_config_rejects_self_block_direction():
    from risrates import parse_config
    raw = json.loads(
        packaged_config_path("table4-unknown").read_text(encoding="utf-8"))
    raw["self_block"]["direction_deg"] = 30.0
    with pytest.raises(ConfigError, match=r"self_block\.direction_deg"):
        parse_config(raw)
    raw["self_block"]["direction_deg"] = None
    assert parse_config(raw).scenario.self_block.theta == pytest.approx(
        math.radians(45.0))


def test_self_block_defaults_to_disabled():
    from risrates import parse_config
    raw = json.loads(
        packaged_config_path("table4-unknown").read_text(encoding="utf-8"))
    del raw["self_block"]
    s = parse_config(raw).scenario
    assert s.self_block.theta == 0.0


# ---------------------------------------------------------------------------
# parse errors name the offending field


def _write(tmp_path, raw):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    return p


def test_missing_field_named_in_error(tmp_path):
    raw = _geometry_error_raw()
    del raw["ue"]
    with pytest.raises(ConfigError, match="ue"):
        load_config(_write(tmp_path, raw))


def test_bad_density_unit_named(tmp_path):
    raw = _geometry_error_raw()
    raw["lambda_RIS"] = {"value": 0.1, "unit": "per-acre"}
    with pytest.raises(ConfigError, match="lambda_RIS"):
        load_config(_write(tmp_path, raw))


def test_bad_orientation_named(tmp_path):
    raw = _geometry_error_raw()
    raw["orientation"] = "widdershins"
    with pytest.raises(ConfigError, match="orientation"):
        load_config(_write(tmp_path, raw))


def test_bad_law_kind_named(tmp_path):
    raw = _geometry_error_raw()
    raw["mobility"]["speed"] = {"kind": "gaussian", "mean": 2.0}
    with pytest.raises(ConfigError, match="speed"):
        load_config(_write(tmp_path, raw))


def test_invalid_json_reports_file(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)


def test_config_digest_is_order_independent():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest({"x": 2, "y": [1, 2]})


# ---------------------------------------------------------------------------
# CLI


def test_fmt9():
    assert fmt9(0.1) == "0.1"
    assert fmt9(1 / 3) == "0.333333333"
    assert fmt9(302.52577929597766) == "302.525779"
    assert fmt9(2.0) == "2"


def test_csv_round_trip(tmp_path):
    p = tmp_path / "data.csv"
    header = ["a", "b"]
    rows = [["1", "x,y"], ["2", 'quo"te']]
    write_csv(p, header, rows)
    h2, r2 = read_csv(p)
    assert (h2, r2) == (header, rows)
    assert render_csv(h2, r2).encode() == p.read_bytes()


def test_analytic_writes_data_and_manifest(tmp_path):
    out = tmp_path / "analytic.csv"
    rc = main(["analytic", "--config",
               str(packaged_config_path("table4-unknown")),
               "--out", str(out), "--seed", "3"])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["quantity", "value"]
    got = dict(rows)
    assert got["p_rr"] == "0.999377549"
    assert got["p_ho"] == "0.0362363836"
    assert got["e_gamma"] == "302.525779"
    assert "created_utc" not in out.read_text()

    manifest = json.loads((tmp_path / "analytic.csv.manifest.json").read_text())
    assert manifest["tool"] == "risrates"
    assert manifest["seed"] == 3
    assert manifest["config"] == "table4-unknown"
    assert manifest["config_sha256"] == load_packaged("table4-unknown").digest
    assert "created_utc" in manifest
    assert "mc_workers" not in manifest and "mc_shards" not in manifest


@pytest.mark.parametrize("workers", [1, 3])
def test_monte_carlo_manifest_records_workers_and_shards(tmp_path,
                                                         monkeypatch, workers):
    monkeypatch.setattr(montecarlo, "WORKERS", workers)
    known = str(packaged_config_path("table3-static-obstacle"))
    unknown = str(packaged_config_path("table4-unknown"))
    runs = {
        # 9000 trials: 3 shards; a 5-row sweep runs 5 estimates
        "rr": (["simulate", "--config", known, "--trials", "9000"],
               min(workers, 3), 3),
        "ho": (["simulate", "--config", unknown, "--trials", "9000"], 1, 3),
        "sweep": (["sweep", "--config", known, "--var", "d_U",
                   "--values", "1,2,3,4,5", "--outputs", "p_rr,mc_rr",
                   "--trials", "9000"], min(workers, 3), 15),
        "no-mc": (["sweep", "--config", known, "--var", "d_U",
                   "--values", "1,2", "--outputs", "p_rr"], None, None),
    }
    for name, (argv, mc_workers, mc_shards) in runs.items():
        out = tmp_path / f"{name}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        manifest = json.loads(
            (tmp_path / f"{name}.csv.manifest.json").read_text())
        assert manifest.get("mc_workers") == mc_workers, name
        assert manifest.get("mc_shards") == mc_shards, name


def test_analytic_stdout_includes_manifest(capsys):
    rc = main(["analytic", "--config",
               str(packaged_config_path("table3-static-noobstacle"))])
    assert rc == 0
    outp = capsys.readouterr().out
    assert "p_rr,0.640418444" in outp
    assert "--- manifest ---" in outp


def test_simulate_mc_known_room(tmp_path):
    out = tmp_path / "mc.csv"
    rc = main(["simulate", "--config",
               str(packaged_config_path("table3-static-noobstacle")),
               "--trials", "4000", "--seed", "1", "--out", str(out)])
    assert rc == 0
    got = dict(read_csv(out)[1])
    assert got["trials"] == "4000"
    assert abs(float(got["mc_rr"]) - 0.6404184444780048) < 0.04


def test_simulate_kind_mismatch_is_config_error(capsys):
    rc = main(["simulate", "--config",
               str(packaged_config_path("table3-static-noobstacle")),
               "--kind", "ho", "--trials", "10"])
    assert rc == 2
    assert "known" in capsys.readouterr().err


def test_simulate_load_run(tmp_path):
    out = tmp_path / "load.csv"
    rc = main(["simulate", "--config",
               str(packaged_config_path("table4-unknown")),
               "--duration", "20", "--seed", "2", "--out", str(out)])
    assert rc == 0
    got = dict(read_csv(out)[1])
    assert got["duration"] == "20"
    assert int(got["rr_initiations"]) > 0
    assert "rate_UE" in got


def test_missing_config_file_exits_2(capsys):
    rc = main(["analytic", "--config", "/nonexistent/cfg.json"])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_geometry_failure_exits_3(tmp_path, capsys):
    p = _write(tmp_path, _geometry_error_raw())
    rc = main(["analytic", "--config", str(p)])
    assert rc == 3
    assert "geometry error" in capsys.readouterr().err


def test_sweep_requires_monotone_values(capsys):
    rc = main(["sweep", "--config",
               str(packaged_config_path("table4-unknown")),
               "--var", "lambda_RIS", "--values", "0.1,0.3,0.2",
               "--outputs", "p_rr"])
    assert rc == 2
    assert "monotone" in capsys.readouterr().err


def test_sweep_output_kind_validation(capsys):
    rc = main(["sweep", "--config",
               str(packaged_config_path("table3-static-noobstacle")),
               "--var", "lambda_RIS", "--values", "0.1,0.2",
               "--outputs", "e_gamma"])
    assert rc == 2
    assert "unknown" in capsys.readouterr().err


def test_sweep_lambda_ris_leaves_ho_outputs_identical(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config",
               str(packaged_config_path("table4-unknown")),
               "--var", "lambda_RIS", "--values", "1e-05,2e-05,4e-05",
               "--outputs", "p_ho,e_ho,p_rr", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["lambda_RIS", "p_ho", "e_ho", "p_rr"]
    assert len(rows) == 3
    assert len({row[1] for row in rows}) == 1  # p_ho strings identical
    assert len({row[2] for row in rows}) == 1
    p_rr_vals = [float(row[3]) for row in rows]
    assert p_rr_vals == sorted(p_rr_vals)
    assert p_rr_vals[0] < p_rr_vals[-1]


@pytest.mark.parametrize("config, outputs, columns", [
    ("table3-static-obstacle", "mc_rr,p_rr",
     ["lambda_RIS", "mc_rr", "mc_rr_stderr", "p_rr"]),
    ("table4-unknown", "p_ho,mc_ho",
     ["lambda_RIS", "p_ho", "mc_ho", "mc_ho_stderr"]),
])
def test_sweep_mc_outputs_carry_stderr(tmp_path, config, outputs, columns):
    out = tmp_path / "sweep.csv"
    values = "0.05,0.1" if config.startswith("table3") else "1e-05,2e-05"
    rc = main(["sweep", "--config", str(packaged_config_path(config)),
               "--var", "lambda_RIS", "--values", values,
               "--outputs", outputs, "--trials", "3000", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == columns
    mc = next(i for i, c in enumerate(header) if c.startswith("mc_"))
    for row in rows:
        p = float(row[mc])
        assert 0.0 < p < 1.0
        # p is read back at 9 digits, so compare at that precision
        assert float(row[mc + 1]) == pytest.approx(
            math.sqrt(p * (1.0 - p) / 3000), rel=1e-8)


def test_sweep_keeps_rows_outside_the_domain(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config",
               str(packaged_config_path("table3-static-noobstacle")),
               "--var", "d_U", "--values", "1,2,3,4,5",
               "--outputs", "p_rr,mc_rr", "--trials", "2000",
               "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert [row[0] for row in rows] == ["1", "2", "3", "4", "5"]
    assert all(0.0 < float(row[1]) < 1.0 for row in rows[:4])
    assert rows[4][1] == "nan"
    assert all(0.0 < float(row[2]) < 1.0 for row in rows)  # trials still run
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["failed"] == [{
        "value": 5.0, "output": "p_rr",
        "reason": "displaced position left the wall shadow"}]


def test_sweep_exits_3_when_every_row_fails(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config",
               str(packaged_config_path("table3-static-noobstacle")),
               "--var", "d_U", "--values", "5,6", "--outputs", "p_rr",
               "--out", str(out)])
    assert rc == 3
    assert "left the wall shadow" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_server_split_preserves_totals(tmp_path):
    out = tmp_path / "split.csv"
    rc = main(["sweep", "--config",
               str(packaged_config_path("table4-unknown")),
               "--var", "N_RISM", "--values", "1,2,4",
               "--outputs", "e_rr,e_gamma", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert len({row[1] for row in rows}) == 1  # total e_rr unchanged by split
    assert len({row[2] for row in rows}) == 1


def test_sweep_server_split_rejects_fractional(capsys):
    rc = main(["sweep", "--config",
               str(packaged_config_path("table4-unknown")),
               "--var", "N_RISM", "--values", "1,2.5",
               "--outputs", "e_rr"])
    assert rc == 2
    assert "integer" in capsys.readouterr().err


def test_dimension_command(tmp_path):
    out = tmp_path / "dim.csv"
    rc = main(["dimension", "--config",
               str(packaged_config_path("dimensioning-speed10")),
               "--threshold", "55", "--kind", "rism", "--out", str(out)])
    assert rc == 0
    got = dict(read_csv(out)[1])
    assert got["servers"] == "2"
    assert float(got["per_server_load"]) == pytest.approx(
        float(got["class_load"]) / 2.0)


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_dimension_rejects_non_finite_threshold(threshold, capsys):
    rc = main(["dimension", "--config",
               str(packaged_config_path("dimensioning-speed10")),
               "--threshold", threshold])
    assert rc == 2
    assert "positive finite number" in capsys.readouterr().err


def test_protocol_trace_file(tmp_path):
    out = tmp_path / "rr.txt"
    assert main(["protocol", "--kind", "rr", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 14
    assert lines[7] == "7 | serving-eNB -> RIS-M | RR request"

    out2 = tmp_path / "ho.txt"
    assert main(["protocol", "--kind", "ho", "--mode", "s1",
                 "--out", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 17


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "table4-unknown", "--duration", "100"],
    ["protocol", "--kind", "rr"],
])
def test_closed_stdout_exits_without_traceback(argv):
    # the reader goes away before anything is written, as `| head -0` would
    if argv[1] == "--config":
        argv = argv[:2] + [str(packaged_config_path(argv[2]))] + argv[3:]
    src = Path(risrates.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    with subprocess.Popen([sys.executable, "-m", "risrates.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1, stderr
    assert stderr == ""
