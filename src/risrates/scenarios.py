"""Scenario containers shared by the analytic, Monte Carlo and CLI layers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .geometry import Point2D, SegmentObstacle
from .stochastic import RandomObstacleModel, SelfBlockModel


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
        if not lo >= 0.0:  # NaN fails too
            raise ValueError("speeds must be nonnegative")
        if not math.isfinite(hi):
            raise ValueError("speeds must be finite")
        lo, hi = law_bounds(self.angle_law)
        if not 0.0 <= lo <= hi <= math.pi:
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
        if not (self.lambda_RIS >= 0.0 and self.lambda_eNB >= 0.0):
            raise ValueError("densities must be nonnegative")
        if not (self.r_RIS > 0.0 and self.r_eNB > 0.0):
            raise ValueError("serving radii must be positive")
        if not self.R_LoS > 0.0:
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
        if not self.serving_ris_distance > 0.0:  # NaN fails too
            raise ValueError("serving_ris_distance must be positive")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 (ccw) or -1 (cw)")
        if not self.lambda_RIS >= 0.0:
            raise ValueError("lambda_RIS must be nonnegative")

    @property
    def has_body_shadow(self) -> bool:
        """Does the user's body hide a sector of nonzero width?"""
        return self.self_block is not None and self.self_block.theta > 0.0

    def body_shadow_start(self, heading):
        """Bearing at which the body shadow's sector starts, for a move
        along `heading` (a float, or an array of one heading per move):
        the sector is centred on self_block_direction, or on the heading
        when that is None."""
        direction = (heading if self.self_block_direction is None
                     else self.self_block_direction)
        return direction - 0.5 * self.self_block.theta
