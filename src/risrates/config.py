"""JSON scenario configs: schema, unit handling, loading.

Configs carry densities as tagged values ({"value": x, "unit": "per-m2" |
"per-km2"}) and every angle in degrees; both are normalized to SI (per-m2,
radians) at the load boundary so the rest of the package never sees units.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Optional, Union

from .geometry import Point2D, SegmentObstacle
from .scenarios import (Deterministic, Law, MobilitySpec, ScenarioKnown,
                        ScenarioUnknown, SignalingConfig, Uniform)
from .stochastic import RandomObstacleModel, SelfBlockModel


class ConfigError(ValueError):
    """Malformed config; the message names the offending field."""


@dataclass(frozen=True)
class LoadedConfig:
    name: str
    kind: str
    scenario: Union[ScenarioKnown, ScenarioUnknown]
    signaling: Optional[SignalingConfig]
    digest: str
    raw: dict


def config_digest(raw: dict) -> str:
    """sha256 over the canonical (sorted, compact) JSON encoding."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _fail(path: str, why: str) -> None:
    raise ConfigError(f"{path}: {why}")


def _get(d: Any, key: str, path: str) -> Any:
    if not isinstance(d, dict):
        _fail(path, "expected an object")
    if key not in d:
        _fail(f"{path}.{key}" if path else key, "missing")
    return d[key]


def _num(v: Any, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, f"expected a number, got {type(v).__name__}")
    x = float(v)
    if not math.isfinite(x):
        _fail(path, "must be finite")
    return x


def _density(v: Any, path: str) -> float:
    value = _num(_get(v, "value", path), f"{path}.value")
    unit = _get(v, "unit", path)
    if unit == "per-m2":
        return value
    if unit == "per-km2":
        return value / 1e6
    _fail(f"{path}.unit", f"must be 'per-m2' or 'per-km2', got {unit!r}")
    raise AssertionError  # unreachable


def _law(v: Any, path: str, to_radians: bool = False) -> Law:
    kind = _get(v, "kind", path)
    scale = math.radians(1.0) if to_radians else 1.0
    if kind == "deterministic":
        return Deterministic(scale * _num(_get(v, "value", path), f"{path}.value"))
    if kind == "uniform":
        low = scale * _num(_get(v, "low", path), f"{path}.low")
        high = scale * _num(_get(v, "high", path), f"{path}.high")
        try:
            return Uniform(low, high)
        except ValueError as exc:
            _fail(path, str(exc))
    _fail(f"{path}.kind", f"must be 'deterministic' or 'uniform', got {kind!r}")
    raise AssertionError


def _point(v: Any, path: str) -> Point2D:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        _fail(path, "expected [x, y]")
    return Point2D(_num(v[0], f"{path}[0]"), _num(v[1], f"{path}[1]"))


def _segment(v: Any, path: str) -> SegmentObstacle:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        _fail(path, "expected [[ax, ay], [bx, by]]")
    try:
        return SegmentObstacle(_point(v[0], f"{path}[0]"),
                               _point(v[1], f"{path}[1]"))
    except ValueError as exc:
        _fail(path, str(exc))
    raise AssertionError


def _mobility(v: Any, path: str) -> MobilitySpec:
    speed = _law(_get(v, "speed", path), f"{path}.speed")
    angle = _law(_get(v, "angle_deg", path), f"{path}.angle_deg",
                 to_radians=True)
    try:
        return MobilitySpec(speed_law=speed, angle_law=angle)
    except ValueError as exc:
        _fail(path, str(exc))
    raise AssertionError


def _signaling(v: Any, path: str) -> SignalingConfig:
    sgw = _get(v, "sgw_rates", path)
    rism = _get(v, "rism_rates", path)
    for name, rates in (("sgw_rates", sgw), ("rism_rates", rism)):
        if not isinstance(rates, list):
            _fail(f"{path}.{name}", "expected a list of rates")
    try:
        return SignalingConfig(
            sgw_rates=tuple(_num(x, f"{path}.sgw_rates[{i}]")
                            for i, x in enumerate(sgw)),
            rism_rates=tuple(_num(x, f"{path}.rism_rates[{i}]")
                             for i, x in enumerate(rism)),
            p_a=_num(_get(v, "p_a", path), f"{path}.p_a"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        _fail(path, str(exc))
    raise AssertionError


def _self_block(v: Any, path: str) -> tuple[SelfBlockModel, Optional[float]]:
    theta = math.radians(_num(_get(v, "theta_deg", path), f"{path}.theta_deg"))
    direction = None
    if isinstance(v, dict) and v.get("direction_deg") is not None:
        direction = math.radians(_num(v["direction_deg"],
                                      f"{path}.direction_deg"))
    try:
        return SelfBlockModel(theta=theta), direction
    except ValueError as exc:
        _fail(path, str(exc))
    raise AssertionError


def parse_config(raw: dict, name: str = "<memory>") -> LoadedConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    kind = _get(raw, "kind", "")
    if kind == "known":
        scenario = _parse_known(raw)
    elif kind == "unknown":
        scenario = _parse_unknown(raw)
    else:
        _fail("kind", f"must be 'known' or 'unknown', got {kind!r}")
    signaling = None
    if raw.get("signaling") is not None:
        signaling = _signaling(raw["signaling"], "signaling")
    return LoadedConfig(name=name, kind=kind, scenario=scenario,
                        signaling=signaling, digest=config_digest(raw),
                        raw=raw)


def _parse_known(raw: dict) -> ScenarioKnown:
    room_v = _get(raw, "room", "")
    if not isinstance(room_v, list) or len(room_v) != 4:
        _fail("room", "expected [x0, y0, x1, y1]")
    room = tuple(_num(x, f"room[{i}]") for i, x in enumerate(room_v))
    walls = tuple(_segment(w, f"walls[{i}]")
                  for i, w in enumerate(raw.get("walls", [])))
    extra = tuple(_segment(w, f"extra_obstacles[{i}]")
                  for i, w in enumerate(raw.get("extra_obstacles", [])))
    orientation_v = _get(raw, "orientation", "")
    if orientation_v == "cw":
        orientation = -1
    elif orientation_v == "ccw":
        orientation = 1
    else:
        _fail("orientation", f"must be 'cw' or 'ccw', got {orientation_v!r}")
    self_block = None
    self_block_direction = None
    if raw.get("self_block") is not None:
        self_block, self_block_direction = _self_block(raw["self_block"],
                                                       "self_block")
    try:
        return ScenarioKnown(
            room=room,
            enb=_point(_get(raw, "enb", ""), "enb"),
            walls=walls,
            extra_obstacles=extra,
            ue=_point(_get(raw, "ue", ""), "ue"),
            serving_ris_distance=_num(_get(raw, "serving_ris_distance", ""),
                                      "serving_ris_distance"),
            ris_direction=math.radians(_num(_get(raw, "ris_direction_deg", ""),
                                            "ris_direction_deg")),
            orientation=orientation,
            lambda_RIS=_density(_get(raw, "lambda_RIS", ""), "lambda_RIS"),
            mobility=_mobility(_get(raw, "mobility", ""), "mobility"),
            self_block=self_block,
            self_block_direction=self_block_direction,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_unknown(raw: dict) -> ScenarioUnknown:
    obs = _get(raw, "obstacles", "")
    try:
        model = RandomObstacleModel(
            lambda_B=_density(_get(obs, "lambda_B", "obstacles"),
                              "obstacles.lambda_B"),
            mean_l=_num(_get(obs, "mean_length", "obstacles"),
                        "obstacles.mean_length"),
            mean_w=_num(_get(obs, "mean_width", "obstacles"),
                        "obstacles.mean_width"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"obstacles: {exc}") from exc
    if raw.get("self_block") is not None:
        self_block, direction = _self_block(raw["self_block"], "self_block")
        if direction is not None:
            _fail("self_block.direction_deg", "an 'unknown' config's body "
                  "shadow has no direction; remove the field")
    else:
        self_block = SelfBlockModel(theta=0.0)
    try:
        return ScenarioUnknown(
            lambda_RIS=_density(_get(raw, "lambda_RIS", ""), "lambda_RIS"),
            lambda_eNB=_density(_get(raw, "lambda_eNB", ""), "lambda_eNB"),
            obstacle_model=model,
            self_block=self_block,
            R_LoS=_num(_get(raw, "R_LoS", ""), "R_LoS"),
            r_RIS=_num(_get(raw, "r_RIS", ""), "r_RIS"),
            r_eNB=_num(_get(raw, "r_eNB", ""), "r_eNB"),
            mobility=_mobility(_get(raw, "mobility", ""), "mobility"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: Union[str, Path]) -> LoadedConfig:
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
    return parse_config(raw, name=p.stem)


def packaged_config_path(name: str) -> Path:
    """Path of a config shipped inside the package (name without .json)."""
    ref = resources.files("risrates").joinpath("configs", f"{name}.json")
    with resources.as_file(ref) as p:
        if not p.exists():
            raise ConfigError(f"no packaged config named {name!r}")
        return Path(p)


def load_packaged(name: str) -> LoadedConfig:
    return load_config(packaged_config_path(name))
