"""Signaling-rate analysis for RIS-assisted networks.

Closed-form handover and reassignment probabilities, room-geometry area
calculations, Monte Carlo cross-checks, signaling sequence accounting, and
server dimensioning, driven by JSON scenario configs or the Python API.
"""

__version__ = "0.1.0"

from .analytic import (RateReport, adaptive_simpson, blocked_bite_area,
                       class_load, dimension_servers, ho_rate,
                       marginal_p_ho, marginal_p_rr_unknown, p_ho,
                       p_rr_known, p_rr_marginal, p_rr_unknown,
                       p_rr_with_areas, rr_probability_known, rr_rate,
                       signaling_rate)
from .config import (ConfigError, LoadedConfig, config_digest, load_config,
                     load_packaged, packaged_config_path, parse_config)
from .geometry import (AreaEstimate, BlockageWedge, BlockedRegionError,
                       CircularSector, DegenerateIntersectionError,
                       GeometryDomainError, MoveGeometry, Point2D,
                       SegmentObstacle, blocked_candidate_area, bearing,
                       displaced_distance, displaced_position, excess_area,
                       numeric_blocked_area, shadowed_visible_area,
                       visible_excess_area_A1, visible_region_predicate,
                       wall_shadow_interval, wedge_from_wall)
from .protocol import (ENTITY_KINDS, LoadResult, SequenceTemplate,
                       SignalingMessage, basic_sequence, export_trace,
                       ho_sequence, rr_sequence, simulate_load)
from .scenarios import (Deterministic, MobilitySpec, ScenarioKnown,
                        ScenarioUnknown, SignalingConfig, Uniform)
from .stochastic import (RandomObstacleModel, SelfBlockModel,
                         p_blocked_static, p_not_blocked_Z, p_self_blocked,
                         survival_bracket)

__all__ = [
    "__version__",
    # geometry
    "Point2D", "SegmentObstacle", "CircularSector", "MoveGeometry",
    "BlockageWedge", "AreaEstimate", "GeometryDomainError",
    "DegenerateIntersectionError", "BlockedRegionError", "bearing",
    "displaced_distance", "displaced_position", "excess_area",
    "blocked_candidate_area", "visible_excess_area_A1", "wedge_from_wall",
    "wall_shadow_interval", "shadowed_visible_area", "numeric_blocked_area",
    "visible_region_predicate",
    # stochastic
    "RandomObstacleModel", "SelfBlockModel", "p_blocked_static",
    "p_self_blocked", "p_not_blocked_Z", "survival_bracket",
    # scenarios
    "Deterministic", "Uniform", "MobilitySpec", "SignalingConfig",
    "ScenarioKnown", "ScenarioUnknown",
    # analytic
    "RateReport", "adaptive_simpson", "p_rr_known", "p_rr_with_areas",
    "blocked_bite_area", "rr_probability_known", "p_rr_marginal", "p_ho",
    "p_rr_unknown", "marginal_p_ho", "marginal_p_rr_unknown", "ho_rate",
    "rr_rate", "signaling_rate", "class_load", "dimension_servers",
    # montecarlo
    "Estimate", "estimate_rr", "estimate_ho", "poisson_counts",
    # protocol
    "ENTITY_KINDS", "SignalingMessage", "SequenceTemplate",
    "rr_sequence", "ho_sequence", "basic_sequence", "export_trace",
    "LoadResult", "simulate_load",
    # config
    "ConfigError", "LoadedConfig", "parse_config", "load_config",
    "load_packaged", "packaged_config_path", "config_digest",
]


def __getattr__(name: str):
    """Estimate, estimate_rr, estimate_ho and poisson_counts: montecarlo,
    and numpy with it, is imported on first access."""
    if name in ("Estimate", "estimate_rr", "estimate_ho", "poisson_counts"):
        from . import montecarlo
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
