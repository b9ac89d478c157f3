"""JSON scenario configs: schema, unit handling, loading.

Configs carry densities as tagged values ({"value": x, "unit": "per-m2" |
"per-km2"}) and every angle in degrees; both are normalized to SI (per-m2,
radians) at the load boundary so the rest of the package never sees units.

A malformed field raises ConfigError, its message led by the field's path;
a model's own ValueError is re-raised that way by `_checked`.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterator, NoReturn, Optional, Union

from .geometry import Point2D, SegmentObstacle
from .scenarios import (Deterministic, Law, MobilitySpec, ScenarioKnown,
                        ScenarioUnknown, SignalingConfig, Uniform)
from .stochastic import RandomObstacleModel, SelfBlockModel

# CPython's built-in SHA-256 (the same bytes as hashlib's), so a
# closed-form command does not load OpenSSL's _hashlib for one digest;
# hashlib only where neither built-in module exists.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256


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
    return sha256(canon.encode("utf-8")).hexdigest()


def _fail(path: str, why: str) -> NoReturn:
    raise ConfigError(f"{path}: {why}")


@contextmanager
def _checked(path: str) -> Iterator[None]:
    """Re-raise a model constructor's ValueError as a ConfigError naming
    `path` (the top level, "", adds no prefix). A ConfigError from parsing
    the constructor's arguments already names its field and passes through."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def _get(d: Any, key: str, path: str,
         parse: Optional[Callable[..., Any]] = None, **kw: Any) -> Any:
    """The entry `key` of the object at `path`, or, given `parse`, the
    entry parsed by parse(entry, its own path, **kw)."""
    if not isinstance(d, dict):
        _fail(path, "expected an object")
    here = f"{path}.{key}" if path else key
    if key not in d:
        _fail(here, "missing")
    return d[key] if parse is None else parse(d[key], here, **kw)


def _num(v: Any, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, f"expected a number, got {type(v).__name__}")
    try:
        x = float(v)
    except OverflowError:  # an integer literal beyond float range
        x = math.inf
    if not math.isfinite(x):
        _fail(path, "must be finite")
    return x


def _choice(v: Any, path: str, choices: dict[str, Any]) -> Any:
    """What `choices` maps the string v to."""
    if not (isinstance(v, str) and v in choices):
        _fail(path, f"must be {' or '.join(map(repr, choices))}, got {v!r}")
    return choices[v]


def _density(v: Any, path: str) -> float:
    value = _get(v, "value", path, _num)
    return value / _get(v, "unit", path, _choice,
                        choices={"per-m2": 1.0, "per-km2": 1e6})


# law kind -> (class, the fields that are its arguments)
_LAWS = {"deterministic": (Deterministic, ("value",)),
         "uniform": (Uniform, ("low", "high"))}


def _law(v: Any, path: str, to_radians: bool = False) -> Law:
    law, keys = _get(v, "kind", path, _choice, choices=_LAWS)
    scale = math.radians(1.0) if to_radians else 1.0
    args = [scale * _get(v, key, path, _num) for key in keys]
    with _checked(path):
        return law(*args)


def _point(v: Any, path: str) -> Point2D:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        _fail(path, "expected [x, y]")
    return Point2D(_num(v[0], f"{path}[0]"), _num(v[1], f"{path}[1]"))


def _items(v: Any, path: str, item: Callable[[Any, str], Any],
           what: str) -> tuple:
    """The entries of the list v, each parsed by item(entry, its path)."""
    if not isinstance(v, list):
        _fail(path, f"expected a list of {what}")
    return tuple(item(x, f"{path}[{i}]") for i, x in enumerate(v))


def _segment(v: Any, path: str) -> SegmentObstacle:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        _fail(path, "expected [[ax, ay], [bx, by]]")
    with _checked(path):
        return SegmentObstacle(_point(v[0], f"{path}[0]"),
                               _point(v[1], f"{path}[1]"))


def _mobility(v: Any, path: str) -> MobilitySpec:
    speed = _get(v, "speed", path, _law)
    angle = _get(v, "angle_deg", path, _law, to_radians=True)
    with _checked(path):
        return MobilitySpec(speed_law=speed, angle_law=angle)


def _signaling(v: Any, path: str) -> SignalingConfig:
    sgw = _get(v, "sgw_rates", path, _items, item=_num, what="rates")
    rism = _get(v, "rism_rates", path, _items, item=_num, what="rates")
    with _checked(path):
        return SignalingConfig(sgw_rates=sgw, rism_rates=rism,
                               p_a=_get(v, "p_a", path, _num))


def _self_block(v: Any, path: str) -> tuple[SelfBlockModel, Optional[float]]:
    theta = math.radians(_get(v, "theta_deg", path, _num))
    direction = None
    if isinstance(v, dict) and v.get("direction_deg") is not None:
        direction = math.radians(_num(v["direction_deg"],
                                      f"{path}.direction_deg"))
    with _checked(path):
        return SelfBlockModel(theta=theta), direction


def parse_config(raw: dict, name: str = "<memory>") -> LoadedConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    kind = _get(raw, "kind", "")
    parse = _choice(kind, "kind", {"known": _parse_known,
                                   "unknown": _parse_unknown})
    scenario = parse(raw)
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
    walls, extra = (_items(raw.get(key, []), key, _segment, "segments")
                    for key in ("walls", "extra_obstacles"))
    orientation = _get(raw, "orientation", "", _choice,
                       choices={"cw": -1, "ccw": 1})
    self_block = None
    self_block_direction = None
    if raw.get("self_block") is not None:
        self_block, self_block_direction = _self_block(raw["self_block"],
                                                       "self_block")
    with _checked(""):
        return ScenarioKnown(
            room=room,
            enb=_get(raw, "enb", "", _point),
            walls=walls,
            extra_obstacles=extra,
            ue=_get(raw, "ue", "", _point),
            serving_ris_distance=_get(raw, "serving_ris_distance", "", _num),
            ris_direction=math.radians(_get(raw, "ris_direction_deg", "",
                                            _num)),
            orientation=orientation,
            lambda_RIS=_get(raw, "lambda_RIS", "", _density),
            mobility=_get(raw, "mobility", "", _mobility),
            self_block=self_block,
            self_block_direction=self_block_direction,
        )


def _parse_unknown(raw: dict) -> ScenarioUnknown:
    obs = _get(raw, "obstacles", "")
    with _checked("obstacles"):
        model = RandomObstacleModel(
            lambda_B=_get(obs, "lambda_B", "obstacles", _density),
            mean_l=_get(obs, "mean_length", "obstacles", _num),
            mean_w=_get(obs, "mean_width", "obstacles", _num),
        )
    if raw.get("self_block") is not None:
        self_block, direction = _self_block(raw["self_block"], "self_block")
        if direction is not None:
            _fail("self_block.direction_deg", "an 'unknown' config's body "
                  "shadow has no direction; remove the field")
    else:
        self_block = SelfBlockModel(theta=0.0)
    with _checked(""):
        return ScenarioUnknown(
            lambda_RIS=_get(raw, "lambda_RIS", "", _density),
            lambda_eNB=_get(raw, "lambda_eNB", "", _density),
            obstacle_model=model,
            self_block=self_block,
            R_LoS=_get(raw, "R_LoS", "", _num),
            r_RIS=_get(raw, "r_RIS", "", _num),
            r_eNB=_get(raw, "r_eNB", "", _num),
            mobility=_get(raw, "mobility", "", _mobility),
        )


def load_config(path: Union[str, Path]) -> LoadedConfig:
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except OSError as exc:
        raise ConfigError(f"{p}: cannot read ({exc.strerror or exc})") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge ints
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
