"""Scenario containers shared by the analytic, Monte Carlo and CLI layers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from .geometry import Point2D, SegmentObstacle
from .stochastic import RandomObstacleModel, SelfBlockModel

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Deterministic:
    """Point-mass law."""

    value: float


@dataclass(frozen=True)
class Uniform:
    """Uniform law on [low, high]."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low <= self.high:
            raise ValueError("uniform law requires low <= high")


Law = Union[Deterministic, Uniform]


def law_bounds(law: Law) -> tuple[float, float]:
    if isinstance(law, Deterministic):
        return law.value, law.value
    return law.low, law.high


def is_point_mass(law: Law) -> bool:
    lo, hi = law_bounds(law)
    return lo == hi


def draw_law(rng: np.random.Generator, law: Law, n: int) -> np.ndarray:
    """n draws from the law: one double each from rng, except that a point
    mass takes nothing from rng."""
    import numpy as np
    lo, hi = law_bounds(law)
    if is_point_mass(law):
        return np.full(n, lo)
    return rng.uniform(lo, hi, n)


@dataclass(frozen=True)
class MobilitySpec:
    """Speed and movement-angle laws for the one-step displacement model.

    Either law may be deterministic or uniform; random angle with fixed
    speed is the waypoint-style mode and random angle with random speed the
    random-direction mode. Angles are radians in [0, pi], 0 = directly away
    from the serving node.
    """

    speed_law: Law
    angle_law: Law

    def __post_init__(self) -> None:
        lo, hi = law_bounds(self.speed_law)
        if lo < 0.0:
            raise ValueError("speeds must be nonnegative")
        lo, hi = law_bounds(self.angle_law)
        if lo < 0.0 or hi > math.pi:
            raise ValueError("movement angles must lie in [0, pi]")


@dataclass(frozen=True)
class SignalingConfig:
    """Per-server session arrival rates plus the session success probability."""

    sgw_rates: tuple[float, ...]
    rism_rates: tuple[float, ...]
    p_a: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sgw_rates", tuple(self.sgw_rates))
        object.__setattr__(self, "rism_rates", tuple(self.rism_rates))
        if not all(math.isfinite(r) and r >= 0.0
                   for r in self.sgw_rates + self.rism_rates):
            raise ValueError("arrival rates must be finite and nonnegative")
        if not 0.0 <= self.p_a <= 1.0:
            raise ValueError("p_a must lie in [0, 1]")


@dataclass(frozen=True)
class ScenarioUnknown:
    """Unknown-obstacle scenario: homogeneous densities, no explicit map."""

    lambda_RIS: float
    lambda_eNB: float
    obstacle_model: RandomObstacleModel
    self_block: SelfBlockModel
    R_LoS: float
    r_RIS: float
    r_eNB: float
    mobility: MobilitySpec

    def __post_init__(self) -> None:
        if self.lambda_RIS < 0.0 or self.lambda_eNB < 0.0:
            raise ValueError("densities must be nonnegative")
        if self.r_RIS <= 0.0 or self.r_eNB <= 0.0:
            raise ValueError("serving radii must be positive")
        if self.R_LoS <= 0.0:
            raise ValueError("R_LoS must be positive")


@dataclass(frozen=True)
class ScenarioKnown:
    """Known-room scenario: explicit walls, obstacles, and user placement.

    The user sits at `ue` with its serving node `serving_ris_distance` away
    along bearing `ris_direction`; `orientation` (+1 ccw, -1 cw) fixes which
    side the movement angle opens toward. `self_block_direction` is the
    absolute bearing the body shadow faces; None aligns it with the movement
    heading of each displacement.
    """

    room: tuple[float, float, float, float]
    enb: Point2D
    walls: tuple[SegmentObstacle, ...]
    extra_obstacles: tuple[SegmentObstacle, ...]
    ue: Point2D
    serving_ris_distance: float
    ris_direction: float
    orientation: int
    lambda_RIS: float
    mobility: MobilitySpec
    self_block: SelfBlockModel | None = None
    self_block_direction: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "walls", tuple(self.walls))
        object.__setattr__(self, "extra_obstacles", tuple(self.extra_obstacles))
        x0, y0, x1, y1 = self.room
        if not (x1 > x0 and y1 > y0):
            raise ValueError("room must have positive area")
        if not (x0 <= self.enb.x <= x1 and y0 <= self.enb.y <= y1):
            raise ValueError("enb must lie inside or on the room boundary")
        if not (x0 <= self.ue.x <= x1 and y0 <= self.ue.y <= y1):
            raise ValueError("ue must lie inside the room")
        if self.serving_ris_distance <= 0.0:
            raise ValueError("serving_ris_distance must be positive")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 (ccw) or -1 (cw)")
        if self.lambda_RIS < 0.0:
            raise ValueError("lambda_RIS must be nonnegative")
