"""Spans around risrates' layers, recorded from outside the package.

`instrument(tracer)` replaces public functions at the name their caller looks
up (modules import names directly, so `risrates.analytic.numeric_blocked_area`
is wrapped, not `risrates.geometry.numeric_blocked_area`) and restores every
original on exit. Spans stay in memory; `layer_metrics` reduces them.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import workloads


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at the root
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")

    def as_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, **s.counts} for s in self.spans]


CountFn = Callable[[tuple, dict, object], dict]


def _wrap(tracer: Tracer, fn: Callable, name: str,
          count: Optional[CountFn] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if count is not None:
            tracer.spans[i].counts.update(count(args, kwargs, result))
        return result
    return wrapper


def _wrap_region_factory(tracer: Tracer, fn: Callable, name: str) -> Callable:
    """visible_region_predicate returns (predicate, bbox); the span goes
    around each call of the returned predicate, counting drawn points and
    the points it accepts."""
    @functools.wraps(fn)
    def factory(*args, **kwargs):
        predicate, bbox = fn(*args, **kwargs)

        def traced(pts):
            i = tracer.open(name)
            try:
                mask = predicate(pts)
            finally:
                tracer.close(i)
            tracer.spans[i].counts.update(points=len(pts),
                                          accepted=int(mask.sum()))
            return mask
        return traced, bbox
    return factory


def _samples(args, kwargs, result) -> dict:
    return {"samples": result.samples}


def _trials(args, kwargs, result) -> dict:
    return {"trials": result.trials}


def _sessions(args, kwargs, result) -> dict:
    sig = args[1] if len(args) > 1 else kwargs["sig"]
    duration = args[2] if len(args) > 2 else kwargs["duration"]
    return {"sessions": workloads.expected_sessions(sig.sgw_rates,
                                                    sig.rism_rates, duration)}


# (module, attribute, span name, counter); the module is the caller's.
TARGETS = (
    ("risrates.cli", "load_config", "config.load", None),
    ("risrates.cli", "parse_config", "config.load", None),
    ("risrates.cli", "p_rr_marginal", "analytic.marginal", None),
    ("risrates.cli", "marginal_p_ho", "analytic.marginal", None),
    ("risrates.cli", "marginal_p_rr_unknown", "analytic.marginal", None),
    ("risrates.analytic", "marginal_p_ho", "analytic.marginal", None),
    ("risrates.analytic", "marginal_p_rr_unknown", "analytic.marginal", None),
    ("risrates.cli", "signaling_rate", "analytic.rates", None),
    ("risrates.cli", "rr_rate", "analytic.rates", None),
    ("risrates.cli", "ho_rate", "analytic.rates", None),
    ("risrates.cli", "class_load", "analytic.rates", None),
    ("risrates.cli", "dimension_servers", "analytic.rates", None),
    ("risrates.analytic", "rr_probability_known", "analytic.point", None),
    ("risrates.analytic", "p_ho", "analytic.point", None),
    ("risrates.analytic", "p_rr_unknown", "analytic.point", None),
    ("risrates.analytic", "blocked_bite_area", "analytic.bite", None),
    ("risrates.analytic", "numeric_blocked_area", "geometry.mc_area",
     _samples),
    ("risrates.analytic", "visible_excess_area_A1", "geometry.a1", None),
    ("risrates.analytic", "p_not_blocked_Z", "stochastic.p_not_blocked",
     None),
    ("risrates.protocol", "p_not_blocked_Z", "stochastic.p_not_blocked",
     None),
    ("risrates.cli", "estimate_rr", "montecarlo.rr", _trials),
    ("risrates.cli", "estimate_ho", "montecarlo.ho", _trials),
    ("risrates.cli", "simulate_load", "protocol.load", _sessions),
    ("risrates.cli", "export_trace", "protocol.trace", None),
    ("risrates.cli", "rr_sequence", "protocol.trace", None),
    ("risrates.cli", "ho_sequence", "protocol.trace", None),
)
REGION_TARGET = ("risrates.analytic", "visible_region_predicate",
                 "geometry.region_pred")


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore."""
    patches = [(module, attr, functools.partial(_wrap, tracer, name=name,
                                                count=count))
               for module, attr, name, count in TARGETS]
    module, attr, name = REGION_TARGET
    patches.append((module, attr, functools.partial(_wrap_region_factory,
                                                    tracer, name=name)))
    saved = []
    try:
        for module_name, attr, wrap in patches:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _self_times(spans: list[Span]) -> list[float]:
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and busy times of one traced pass of a workload."""
    from risrates.montecarlo import SHARD_SIZE  # shards are computed from Z
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def calls(name: str) -> int:
        return len(by.get(name, ()))

    def busy(name: str) -> float:
        return sum(s.duration for s in by.get(name, ()))

    def total(name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in by.get(name, ()))

    own = _self_times(spans)

    def self_time(prefix: str) -> float:
        return sum(t for s, t in zip(spans, own) if s.name.startswith(prefix))

    m: dict[str, float] = {}
    m["geometry.mc_area_calls"] = calls("geometry.mc_area")
    m["geometry.mc_area_s"] = busy("geometry.mc_area")
    m["geometry.mc_area_samples"] = total("geometry.mc_area", "samples")
    m["geometry.mc_area_samples_per_s"] = _ratio(m["geometry.mc_area_samples"],
                                                 m["geometry.mc_area_s"])
    m["geometry.region_pred_s"] = busy("geometry.region_pred")
    m["geometry.region_pred_points"] = total("geometry.region_pred", "points")
    m["geometry.region_accept_ratio"] = _ratio(
        total("geometry.region_pred", "accepted"),
        m["geometry.region_pred_points"])
    m["geometry.a1_calls"] = calls("geometry.a1")
    m["geometry.a1_s"] = busy("geometry.a1")

    m["analytic.marginal_calls"] = calls("analytic.marginal")
    m["analytic.marginal_s"] = busy("analytic.marginal")
    m["analytic.point_evals"] = calls("analytic.point")
    m["analytic.point_evals_per_marginal"] = _ratio(
        m["analytic.point_evals"], m["analytic.marginal_calls"])
    m["analytic.bite_calls"] = calls("analytic.bite")
    m["analytic.bite_s"] = busy("analytic.bite")
    m["analytic.self_s"] = self_time("analytic.")

    for kind in ("rr", "ho"):
        name = f"montecarlo.{kind}"
        m[f"{name}_calls"] = calls(name)
        m[f"{name}_trials"] = total(name, "trials")
        m[f"{name}_s"] = busy(name)
        m[f"{name}_trials_per_s"] = _ratio(m[f"{name}_trials"], m[f"{name}_s"])
    m["montecarlo.shards"] = sum(
        math.ceil(s.counts.get("trials", 0) / SHARD_SIZE)
        for name in ("montecarlo.rr", "montecarlo.ho")
        for s in by.get(name, ()))

    m["protocol.load_calls"] = calls("protocol.load")
    m["protocol.load_s"] = busy("protocol.load")
    m["protocol.sessions"] = total("protocol.load", "sessions")
    m["protocol.sessions_per_s"] = _ratio(m["protocol.sessions"],
                                          m["protocol.load_s"])
    m["protocol.trace_s"] = busy("protocol.trace")

    m["stochastic.p_not_blocked_calls"] = calls("stochastic.p_not_blocked")
    m["stochastic.p_not_blocked_s"] = busy("stochastic.p_not_blocked")

    m["config.load_calls"] = calls("config.load")
    m["config.load_s"] = busy("config.load")

    m["cli.jobs"] = calls("cli.main")
    m["cli.output_bytes"] = total("cli.main", "output_bytes")
    m["cli.self_s"] = self_time("cli.")
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced passes; counts repeat exactly."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
