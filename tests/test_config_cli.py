"""Config parsing, packaged scenario files, and the command-line surface."""

import csv
import importlib
import json
import logging
import math
import os
import re
import subprocess
import sys
import time
from datetime import datetime, timezone
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
    simulate_load,
)
from risrates import cli, montecarlo
from risrates.cli import build_parser, fmt9, main, render_csv
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


def _packaged_raw(name: str) -> dict:
    return json.loads(packaged_config_path(name).read_text(encoding="utf-8"))


def _edited(name: str, path: tuple, value) -> dict:
    """The packaged config `name` with the entry at `path` set to `value`."""
    raw = _packaged_raw(name)
    *parents, last = path
    node = raw
    for key in parents:
        node = node[key]
    node[last] = value
    return raw


KNOWN = "table3-static-obstacle"
UNKNOWN = "table4-unknown"


@pytest.mark.parametrize("name, path, value, message", [
    # a model constructor's ValueError, prefixed with the field it came from
    (KNOWN, ("mobility", "speed"),
     {"kind": "uniform", "low": 3.0, "high": 1.0},
     "mobility.speed: uniform law requires low <= high"),
    (KNOWN, ("walls", 0), [[4.0, 2.8], [4.0, 2.8]],
     "walls[0]: obstacle endpoints must be distinct"),
    (KNOWN, ("mobility", "speed"), {"kind": "deterministic", "value": -1.0},
     "mobility: speeds must be nonnegative"),
    (UNKNOWN, ("signaling", "p_a"), 2.0,
     "signaling: p_a must lie in [0, 1]"),
    (UNKNOWN, ("self_block", "theta_deg"), 400.0,
     "self_block: theta must lie in [0, 2*pi]"),
    (KNOWN, ("serving_ris_distance",), 0.0,
     "serving_ris_distance must be positive"),
    (UNKNOWN, ("obstacles", "mean_width"), -1.0,
     "obstacles: mean obstacle dimensions must be nonnegative"),
    (UNKNOWN, ("R_LoS",), -5.0, "R_LoS must be positive"),
    # a field error raised while a constructor's arguments are parsed keeps
    # its own field name and gets no second prefix
    (UNKNOWN, ("signaling", "p_a"), "x",
     "signaling.p_a: expected a number, got str"),
    (KNOWN, ("ue",), [1.0], "ue: expected [x, y]"),
    (KNOWN, ("walls", 0, 1), [4.0], "walls[0][1]: expected [x, y]"),
    (KNOWN, ("walls",), 5, "walls: expected a list of segments"),
    (KNOWN, ("extra_obstacles",), {"a": 1},
     "extra_obstacles: expected a list of segments"),
    (UNKNOWN, ("signaling", "rism_rates"), 1.0,
     "signaling.rism_rates: expected a list of rates"),
    (UNKNOWN, ("obstacles", "lambda_B", "unit"), "per-acre",
     "obstacles.lambda_B.unit: must be 'per-m2' or 'per-km2', "
     "got 'per-acre'"),
], ids=["uniform-law", "segment", "mobility", "signaling", "self-block",
        "known-scenario", "obstacles", "unknown-scenario", "signaling-field",
        "known-field", "segment-field", "walls-list", "obstacles-list",
        "rates-list", "obstacles-field"])
def test_constructor_errors_name_their_field(name, path, value, message):
    from risrates import parse_config
    with pytest.raises(ConfigError) as info:
        parse_config(_edited(name, path, value))
    assert str(info.value) == message


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


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a data file the CLI wrote."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_csv_round_trip(tmp_path):
    # quoting survives a file: reading back and re-rendering is byte-identical
    p = tmp_path / "data.csv"
    header = ["a", "b"]
    rows = [["1", "x,y"], ["2", 'quo"te']]
    p.write_bytes(render_csv(header, rows).encode("utf-8"))
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


def _created_utc(tmp_path) -> str:
    out = tmp_path / "analytic.csv"
    assert main(["analytic", "--config",
                 str(packaged_config_path("table4-unknown")),
                 "--out", str(out)]) == 0
    manifest = (tmp_path / "analytic.csv.manifest.json").read_text()
    return json.loads(manifest)["created_utc"]


def test_manifest_time_stamp_is_a_utc_isoformat_of_the_call(tmp_path):
    before = datetime.now(timezone.utc)
    stamp = _created_utc(tmp_path)
    after = datetime.now(timezone.utc)
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d{6})?\+00:00",
                        stamp), stamp
    assert before <= datetime.fromisoformat(stamp) <= after


@pytest.mark.parametrize("us", [0, 1, 999_999])
def test_manifest_time_stamp_drops_only_a_zero_fraction(tmp_path, monkeypatch,
                                                        us):
    # the shape of datetime.now(timezone.utc).isoformat(): the microseconds
    # are floored, and written only when they are not zero
    when = datetime(2026, 3, 1, 23, 59, 59, us, timezone.utc)
    seconds = int(when.replace(microsecond=0).timestamp())
    monkeypatch.setattr(time, "time_ns",
                        lambda: seconds * 10**9 + us * 1000 + 999)
    stamp = _created_utc(tmp_path)
    assert stamp == when.isoformat()
    assert ("." in stamp) == (us != 0)


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


SWEEP = ["sweep", "--var", "lambda_RIS", "--values", "1e-05,2e-05"]


@pytest.mark.parametrize("config, argv, message", [
    ("known", ["simulate", "--duration", "10"],
     "load simulation needs an 'unknown' config"),
    ("no-signaling", ["simulate", "--duration", "10"],
     "load simulation needs a 'signaling' section"),
    ("known", ["dimension", "--threshold", "55"],
     "dimensioning needs an 'unknown' config"),
    ("no-signaling", ["dimension", "--threshold", "55"],
     "dimensioning needs a 'signaling' section"),
    ("known", SWEEP + ["--outputs", "p_ho"],
     "output 'p_ho' needs an 'unknown' config"),
    ("known", SWEEP + ["--outputs", "mc_ho"],
     "output 'mc_ho' needs an 'unknown' config"),
    # the config kind is checked before the signaling section
    ("known", SWEEP + ["--outputs", "e_gamma"],
     "output 'e_gamma' needs an 'unknown' config"),
    ("no-signaling", SWEEP + ["--outputs", "e_rr"],
     "output 'e_rr' needs a 'signaling' section"),
    ("no-signaling", SWEEP + ["--outputs", "e_ho"],
     "output 'e_ho' needs a 'signaling' section"),
    ("no-signaling", SWEEP + ["--outputs", "e_gamma"],
     "output 'e_gamma' needs a 'signaling' section"),
    ("unknown", SWEEP + ["--outputs", "mc_rr"],
     "output 'mc_rr' needs a 'known' config"),
    # outputs are checked in the order given
    ("no-signaling", SWEEP + ["--outputs", "p_rr,mc_rr,e_rr"],
     "output 'mc_rr' needs a 'known' config"),
    ("unknown", SWEEP + ["--outputs", "p_rr,bogus"],
     "unknown output 'bogus'; choose from p_rr, p_ho, e_rr, e_ho, e_gamma, "
     "mc_rr, mc_ho"),
    ("known", ["simulate", "--kind", "ho", "--trials", "10"],
     "a 'known' config only supports --kind rr"),
    ("unknown", ["simulate", "--kind", "rr", "--trials", "10"],
     "an 'unknown' config only supports --kind ho"),
    # a flag of the other simulate mode is refused, not ignored
    ("unknown", ["simulate", "--trials", "10", "--duration", "5"],
     "--trials does not apply with --duration"),
    ("unknown", ["simulate", "--duration", "10", "--kind", "rr"],
     "--kind does not apply with --duration"),
    ("unknown", ["simulate", "--trials", "5000", "--mode", "s1"],
     "--mode only applies with --duration"),
    # a column name read twice would keep only one of the two columns
    ("unknown", SWEEP + ["--outputs", "p_ho,p_ho"],
     "--outputs: 'p_ho' listed twice"),
    ("unknown", SWEEP + ["--outputs", "mc_ho,p_rr,mc_ho"],
     "--outputs: 'mc_ho' listed twice"),
])
def test_command_requirements_exit_2_with_one_line(tmp_path, capsys, config,
                                                   argv, message):
    paths = {"known": packaged_config_path("table3-static-noobstacle"),
             "unknown": packaged_config_path(UNKNOWN)}
    raw = _packaged_raw(UNKNOWN)
    del raw["signaling"]
    paths["no-signaling"] = _write(tmp_path, raw)
    rc = main([argv[0], "--config", str(paths[config]), *argv[1:]])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


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
    manifest = json.loads((tmp_path / "load.csv.manifest.json").read_text())
    cfg = load_packaged("table4-unknown")
    assert manifest["load_sessions"] == simulate_load(
        cfg.scenario, cfg.signaling, 20.0, seed=2).sessions


def test_simulate_duration_too_long_to_draw_exits_2(capsys):
    rc = main(["simulate", "--config",
               str(packaged_config_path("table4-unknown")),
               "--duration", "1e300"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: duration 1e+300 s at rate 100/s expects "
                            "1e+302 sessions, too many to draw\n")
    assert captured.out == ""


def test_simulate_duration_beyond_session_limit_exits_2_at_once(capsys):
    # 1e17 sessions a server: numpy could draw the count, but the run
    # would take years; it is refused before any draw
    t0 = time.perf_counter()
    rc = main(["simulate", "--config",
               str(packaged_config_path("table4-unknown")),
               "--duration", "1e15"])
    assert time.perf_counter() - t0 < 5.0
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: duration 1e+15 s at rate 100/s expects "
                            "1e+17 sessions, too many to draw\n")
    assert captured.out == ""


@pytest.mark.parametrize("argv, mean", [
    (["simulate", "--trials", "10"], "1e+302"),
    (["sweep", "--config", str(packaged_config_path(UNKNOWN)), "--var",
      "lambda_eNB", "--values", "1,1e300", "--outputs", "mc_ho"],
     "4.29043e+301"),
], ids=["simulate-room", "sweep-disk"])
def test_poisson_mean_too_large_to_draw_exits_2_named(tmp_path, capsys, argv,
                                                      mean):
    # numpy's own message names no quantity: the mean is named with it
    if argv[0] == "simulate":
        cfg = _write(tmp_path, _edited(KNOWN, ("lambda_RIS", "value"), 1e300))
        argv = [*argv, "--config", str(cfg)]
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: Poisson mean {mean} is too large "
                                   f"to draw (")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("trials", ["0", "-5"])
@pytest.mark.parametrize("command", [
    ["simulate", "--config", "table3-static-obstacle"],
    ["simulate", "--config", "table4-unknown"],
    ["sweep", "--config", "table3-static-obstacle", "--var", "lambda_RIS",
     "--values", "0.1,0.2", "--outputs", "p_rr,mc_rr"],
], ids=["simulate-known", "simulate-unknown", "sweep"])
def test_trials_below_one_exit_2_before_any_work(monkeypatch, capsys,
                                                 command, trials):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --trials was checked")

    # a sweep used to compute its closed-form column first
    monkeypatch.setattr("risrates.cli.load_config", no_work)
    argv = [str(packaged_config_path(a)) if prev == "--config" else a
            for prev, a in zip([""] + command, command)]
    rc = main(argv + ["--trials", trials])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: --trials: must be at least 1, "
                            f"got {trials}\n")
    assert captured.out == ""


def test_missing_config_file_exits_2(capsys):
    rc = main(["analytic", "--config", "/nonexistent/cfg.json"])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_geometry_failure_exits_3(tmp_path, capsys):
    p = _write(tmp_path, _geometry_error_raw())
    rc = main(["analytic", "--config", str(p)])
    assert rc == 3
    assert "geometry error" in capsys.readouterr().err


def _set_speed_high(raw):
    raw["mobility"]["speed"]["high"] = 1e6


def _move_wall_end(raw):
    raw["walls"][0][0][0] = 1e6


@pytest.mark.parametrize("edit", [_set_speed_high, _move_wall_end],
                         ids=["speed-high", "wall-end"])
def test_spread_law_leaving_the_domain_exits_3(tmp_path, capsys, edit):
    # some quadrature nodes of the speed law leave the wall shadow: the
    # marginal is refused at the first one, not patched from its neighbours
    raw = json.loads(packaged_config_path("table3-uniform-obstacle").read_text(
        encoding="utf-8"))
    edit(raw)
    rc = main(["analytic", "--config", str(_write(tmp_path, raw))])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("geometry error: d_U = ")
    assert lines[0].endswith("displaced position left the wall shadow")


@pytest.mark.parametrize("config", KNOWN_CONFIGS + UNKNOWN_CONFIGS)
def test_packaged_configs_log_nothing(caplog, capsys, config):
    caplog.set_level(logging.WARNING, logger="risrates")
    rc = main(["analytic", "--config", str(packaged_config_path(config))])
    assert rc == 0
    assert caplog.records == []
    assert capsys.readouterr().err == ""


def test_sweep_requires_monotone_values(capsys):
    rc = main(["sweep", "--config",
               str(packaged_config_path("table4-unknown")),
               "--var", "lambda_RIS", "--values", "0.1,0.3,0.2",
               "--outputs", "p_rr"])
    assert rc == 2
    assert "monotone" in capsys.readouterr().err


@pytest.mark.parametrize("config", ["table4-unknown",
                                    "table3-static-obstacle"])
def test_simulate_negative_seed_exits_2(capsys, config):
    rc = main(["simulate", "--config", str(packaged_config_path(config)),
               "--trials", "1000", "--seed", "-1"])
    assert rc == 2
    assert "expected non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["analytic", "--config", "table3-static-obstacle"],
    ["sweep", "--config", "table4-unknown", "--var", "lambda_RIS",
     "--values", "1e-05,2e-05", "--outputs", "p_ho,mc_ho"],
], ids=["analytic", "sweep-mc_ho"])
def test_negative_seed_exits_2_before_any_work(monkeypatch, capsys, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --seed was checked")

    # analytic used to record the seed; a sweep ran its p_ho column first
    monkeypatch.setattr("risrates.cli.load_config", no_work)
    argv = [str(packaged_config_path(a)) if prev == "--config" else a
            for prev, a in zip([""] + command, command)]
    rc = main(argv + ["--seed", "-1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: --seed: expected non-negative integer, "
                            "got -1\n")
    assert captured.out == ""


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_sweep_rejects_non_finite_values(capsys, token):
    rc = main(["sweep", "--config",
               str(packaged_config_path("table4-unknown")),
               "--var", "lambda_RIS", "--values", f"{token},0.1",
               "--outputs", "p_rr"])
    assert rc == 2
    assert (f"--values: not a finite number: '{token}'"
            in capsys.readouterr().err)


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
        "reason": "d_U = 5 m, angle = 45 deg: displaced position left the "
                  "wall shadow"}]


def test_sweep_exits_3_when_every_row_fails(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config",
               str(packaged_config_path("table3-static-noobstacle")),
               "--var", "d_U", "--values", "5,6", "--outputs", "p_rr",
               "--out", str(out)])
    assert rc == 3
    assert "left the wall shadow" in capsys.readouterr().err
    assert not out.exists()


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_MODULES = ("spans", "workloads", "check")


@pytest.fixture
def bench_spans():
    """perfbench/spans.py, imported from its directory. Its sibling modules
    have generic names, so sys.path and sys.modules are put back after."""
    saved_path = list(sys.path)
    saved = {name: sys.modules.pop(name) for name in BENCH_MODULES
             if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("spans")
    finally:
        sys.path[:] = saved_path
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def test_bench_hooks_resolve_and_see_sweep_marginals(bench_spans, tmp_path):
    # entering instrument() looks up every name the benchmark wraps, and a
    # sweep must call its marginals through the names risrates.cli imported
    tracer = bench_spans.Tracer()
    with bench_spans.instrument(tracer):
        rc = main(["sweep", "--config",
                   str(packaged_config_path("table4-unknown")),
                   "--var", "lambda_RIS", "--values", "1e-05,2e-05,4e-05",
                   "--outputs", "p_ho", "--out", str(tmp_path / "s.csv")])
    assert rc == 0
    names = [span.name for span in tracer.spans]
    assert names.count("analytic.marginal") == 3


def test_bench_hooks_see_trials_and_load_runs(bench_spans, tmp_path):
    # trials and load runs import their modules when they start; they must
    # still go through the names the benchmark wraps in risrates.cli
    tracer = bench_spans.Tracer()
    with bench_spans.instrument(tracer):
        for name, extra in [("table3-static-obstacle", ["--trials", "5000"]),
                            ("table4-unknown", ["--duration", "2"])]:
            assert main(["simulate", "--config",
                         str(packaged_config_path(name)), *extra,
                         "--out", str(tmp_path / f"{name}.csv")]) == 0
    names = [span.name for span in tracer.spans]
    assert names.count("montecarlo.rr") == 1
    assert names.count("protocol.load") == 1
    rr = next(span for span in tracer.spans if span.name == "montecarlo.rr")
    assert rr.counts == {"trials": 5000}


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


def test_dimension_refuses_a_threshold_that_overflows_the_ratio(capsys):
    rc = main(["dimension", "--config",
               str(packaged_config_path("table4-unknown")),
               "--threshold", "1e-310"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no server count suffices" in err
    assert len(err.strip().splitlines()) == 1


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


def test_protocol_mode_is_refused_for_rr_and_defaults_to_x2(capsys):
    # the RR trace has no variants: --mode is refused, not ignored
    for mode in ("x2", "s1"):
        assert main(["protocol", "--kind", "rr", "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --mode does not apply with --kind rr\n"
        assert captured.out == ""
    assert main(["protocol", "--kind", "ho"]) == 0
    default = capsys.readouterr().out
    assert main(["protocol", "--kind", "ho", "--mode", "x2"]) == 0
    assert capsys.readouterr().out == default
    assert main(["protocol", "--kind", "ho", "--mode", "s1"]) == 0
    assert capsys.readouterr().out != default


@pytest.mark.parametrize("argv", [
    ["protocol", "--kind", "rr"],
    ["analytic", "--config",
     str(packaged_config_path("table3-static-noobstacle"))],
])
def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.txt"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --out: ")
    assert captured.err.count("\n") == 1
    assert str(out) in captured.err
    assert captured.out == ""


def test_out_that_fails_midway_leaves_no_file(tmp_path, capsys):
    # the data file is written, then its manifest's path is a directory
    out = tmp_path / "a.csv"
    (tmp_path / "a.csv.manifest.json").mkdir()
    rc = main(["analytic", "--config",
               str(packaged_config_path("table3-static-noobstacle")),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --out: ")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("walls", 5),
                                        ("extra_obstacles", {"a": 1})])
def test_config_list_fields_exit_2(tmp_path, capsys, key, value):
    raw = _edited(KNOWN, (key,), value)
    rc = main(["analytic", "--config", str(_write(tmp_path, raw))])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"error: {key}: expected a list of segments\n"


@pytest.mark.parametrize("path, field", [
    (("R_LoS",), "R_LoS"),
    (("signaling", "p_a"), "signaling.p_a"),
    (("walls", 0, 1, 0), "walls[0][1][0]"),
], ids=["top-level", "nested", "in-a-list"])
def test_integer_literal_beyond_float_range_exits_2(tmp_path, capsys, path,
                                                    field):
    # a 401-digit integer parses as a Python int that no float holds
    name = KNOWN if path[0] == "walls" else UNKNOWN
    raw = _edited(name, path, 10 ** 400)
    rc = main(["analytic", "--config", str(_write(tmp_path, raw))])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {field}: must be finite\n"
    assert captured.out == ""


def _config_directory(tmp_path):
    (tmp_path / "cfg.json").mkdir()
    return tmp_path / "cfg.json"


def _config_nested_too_deep(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("[" * 200_000, encoding="utf-8")
    return p


def _config_not_utf8(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_bytes(b"\xff\xfe{}")
    return p


@pytest.mark.parametrize("make", [_config_directory, _config_nested_too_deep,
                                  _config_not_utf8],
                         ids=["directory", "nested-too-deep", "not-utf-8"])
def test_unreadable_config_exits_2_with_one_line(tmp_path, capsys, make):
    path = make(tmp_path)
    assert main(["analytic", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


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


def test_python_m_risrates_runs_the_cli():
    src = Path(risrates.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "risrates", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, f"risrates {risrates.__version__}\n", "")


# subcommand -> (a valid call, then a bad choice and a bad type to append to
# it, None where the subcommand takes no such argument); the commands do not
# run, so the config path need not exist
PARSER_CASES = {
    "analytic": (["--config", "c.json"], None, ["--seed", "x"]),
    "simulate": (["--config", "c.json", "--trials", "10"], ["--kind", "zz"],
                 ["--seed", "x"]),
    "sweep": (["--config", "c.json", "--var", "theta", "--values", "1,2",
               "--outputs", "p_rr"], ["--var", "zz"], ["--seed", "x"]),
    "dimension": (["--config", "c.json", "--threshold", "55"],
                  ["--kind", "zz"], ["--threshold", "x"]),
    "protocol": (["--kind", "rr"], ["--mode", "zz"], None),
}


def _parser_argvs():
    yield from ([], ["-h"], ["--version"], ["bogus"])
    for name, (valid, bad_choice, bad_type) in PARSER_CASES.items():
        yield [name, *valid]
        yield [name, "-h"]
        yield [name, *valid[2:]]  # its first required flag left out
        # "--=x" could match more than one option of either parser
        for extra in (bad_choice, bad_type, ["--bogus"], ["--=x"]):
            if extra is not None:
                yield [name, *valid, *extra]
        yield [name, valid[0][:-2], *valid[1:]]  # --conf, --ki


@pytest.mark.parametrize("argv", list(_parser_argvs()),
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_parses_as_the_full_parser_tree(monkeypatch, capsys, argv):
    seen = []

    def record(args):
        seen.append(vars(args))
        return 0

    for name in PARSER_CASES:
        monkeypatch.setattr(cli, f"cmd_{name}", record)

    def fresh_tree(argv):
        args = build_parser.__wrapped__().parse_args(argv)
        return getattr(cli, f"cmd_{args.command}")(args)

    def outcome(call, argv):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # main's one cached tree first parses every earlier case in turn, so
    # whatever a call left behind in it would show against a fresh tree
    cases = list(_parser_argvs())
    for earlier in cases[:cases.index(argv)]:
        outcome(main, earlier)
    seen.clear()
    assert outcome(main, argv) == outcome(fresh_tree, argv)
    assert seen[:1] == seen[1:]


# counts the ArgumentParsers built by two calls and by -h in a new process,
# where the parser cache starts cold
_COUNT_PARSERS = """
import argparse, json, sys
from risrates import cli, packaged_config_path
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
counts = []
for name, rest in [
        ("table3-static-noobstacle", ["analytic"]),
        ("table4-unknown", ["sweep", "--var", "lambda_RIS", "--values",
                            "1e-05,2e-05", "--outputs", "p_ho"])]:
    assert cli.main([*rest, "--config", str(packaged_config_path(name)),
                     "--out", sys.argv[1] + "/" + rest[0] + ".csv"]) == 0
    counts.append(len(built))
    built.clear()
try:
    cli.main(["-h"])
except SystemExit as exc:
    counts += [len(built), exc.code]
sys.stderr.write(json.dumps(counts))
"""


def test_the_parser_tree_is_built_once_per_process(tmp_path):
    src = Path(risrates.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-c", _COUNT_PARSERS,
                           str(tmp_path)], capture_output=True, text=True,
                          env=env, timeout=60)
    # the first call builds the top level and five subcommands; no later
    # call, -h included, builds any
    assert json.loads(proc.stderr) == [6, 0, 0, 0]
    for name, summary in [
            ("analytic", "closed-form probabilities and rates"),
            ("simulate", "Monte Carlo estimate or load run"),
            ("sweep", "sweep one variable, CSV output"),
            ("dimension", "server count for a load threshold"),
            ("protocol", "export a signaling sequence trace")]:
        assert re.search(rf"^ +{name} +{summary}$", proc.stdout, re.M), name


# which of numpy, logging, datetime and protocol each call has loaded in a
# new process: every closed-form command first, then both trace kinds, a
# Monte Carlo and a load run
_NUMPY_LOADS = """
import json, sys
from pathlib import Path
from risrates import cli
def loaded():
    return [name for name in ("numpy", "logging", "datetime",
                              "risrates.protocol") if name in sys.modules]
configs = sorted(Path(cli.__file__).parent.joinpath("configs").glob("*.json"))
calls = [["analytic", "--config", str(c)] for c in configs]
calls += [["dimension", "--config", str(c), "--threshold", "55",
           "--kind", kind]
          for c in configs if c.stem.startswith("dimensioning-")
          for kind in ("rism", "sgw")]
calls += [["protocol", "--kind", "rr"], ["protocol", "--kind", "ho"]]
calls += [["simulate", "--config", str(configs[0]), "--trials", "10"],
          ["simulate", "--config", str(configs[0]), "--duration", "1"]]
seen = [("import", 0, loaded())]
try:
    cli.main(["--version"])
except SystemExit as exc:
    seen.append(("--version", exc.code, loaded()))
for argv in calls:
    code = cli.main([*argv, "--out", sys.argv[1]])
    seen.append((" ".join(argv[:1] + argv[-2:]), code, loaded()))
sys.stderr.write(json.dumps([configs[0].stem, seen]))
"""

# every public name in a new process, the Monte Carlo ones through the
# package's __getattr__ before anything else imported montecarlo
_PUBLIC_NAMES = """
import sys
from risrates import Estimate, estimate_rr, estimate_ho, poisson_counts
import risrates
missing = [name for name in risrates.__all__ if not hasattr(risrates, name)]
sys.stderr.write(repr((Estimate.__module__, estimate_rr.__module__,
                       estimate_ho.__module__, missing)))
"""


def test_numpy_loads_only_when_draws_start(tmp_path):
    src = Path(risrates.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_LOADS,
                           str(tmp_path / "out.csv")], capture_output=True,
                          text=True, env=env, timeout=120)
    first, seen = json.loads(proc.stderr)
    assert first == "dimensioning-speed10"  # the runs below need 'unknown'
    assert all(code == 0 for _, code, _ in seen), seen
    assert len(seen) == 2 + 11 + 4 + 2 + 2

    def loading(module):
        return [step for step, _, loaded in seen if module in loaded]
    assert loading("numpy") == ["simulate --trials 10", "simulate --duration 1"]
    assert loading("logging") == []
    # no command imports datetime; numpy, once drawing, may
    assert set(loading("datetime")) <= set(loading("numpy"))
    # imported with the cli (see its docstring)
    assert loading("risrates.protocol") == [step for step, _, _ in seen]
    proc = subprocess.run([sys.executable, "-c", _PUBLIC_NAMES],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stderr == repr(("risrates.montecarlo",) * 3 + ([],))


def test_help_wraps_to_the_terminal_width_of_each_call(monkeypatch, capsys):
    build_parser()  # the tree exists before the width is set
    outputs = f"comma-separated from: {', '.join(cli.SWEEP_OUTPUTS)}"
    for columns, one_line in ((40, False), (200, True)):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert (outputs in out) == one_line
        # only the --var choices, one unbreakable word, may run past
        assert max(len(line) for line in out.splitlines()
                   if "{" not in line) <= columns
