"""Signaling sequence templates and event-driven load accounting.

The templates enumerate every message of the reassignment and handover
procedures with a global step ordinal, so a combined trace (reassignment
steps 1-13, handover steps 14-29) reads as one numbered diagram. Steps a
node performs purely locally (decisions, admission control) are marked
internal and excluded from wire-message counts.

The load simulator draws through numpy, which it imports when it runs: the
templates and traces work without it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .geometry import displaced_distance_sq
from .scenarios import (ScenarioUnknown, SignalingConfig, draw_law,
                        is_point_mass)
from .stochastic import _ahead, p_not_blocked_Z, poisson_counts

if TYPE_CHECKING:
    import numpy as np

ENTITY_KINDS = frozenset({
    "UE", "serving-RIS", "target-RIS", "serving-eNB", "target-eNB",
    "RIS-M", "MME", "SGW", "RIS-controller",
})


@dataclass(frozen=True)
class Entity:
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ENTITY_KINDS:
            raise ValueError(f"unknown entity kind: {self.kind!r}")


@dataclass(frozen=True)
class SignalingMessage:
    """One numbered step. `sender`/`receiver` stand in for the from/to pair
    of a sequence diagram (`from` is reserved in Python); an internal step
    keeps both equal and stays off the wire."""

    step: int
    sender: Entity
    receiver: Entity
    name: str
    internal: bool = False

    def __post_init__(self) -> None:
        if self.step < 1:
            raise ValueError("step ordinals start at 1")
        if self.internal and self.sender.kind != self.receiver.kind:
            raise ValueError("internal steps must stay within one entity")


@dataclass(frozen=True)
class SequenceTemplate:
    name: str
    messages: tuple[SignalingMessage, ...]

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("a template needs at least one message")
        first = self.messages[0].step
        for offset, msg in enumerate(self.messages):
            if msg.step != first + offset:
                raise ValueError(
                    f"template {self.name!r}: step {msg.step} breaks the "
                    f"gapless ordinal run starting at {first}")

    @property
    def wire_messages(self) -> tuple[SignalingMessage, ...]:
        return tuple(m for m in self.messages if not m.internal)

    @property
    def wire_count(self) -> int:
        return len(self.wire_messages)


def _msg(step: int, sender: str, receiver: str, name: str,
         internal: bool = False) -> SignalingMessage:
    return SignalingMessage(step, Entity(sender), Entity(receiver), name,
                            internal)


def rr_sequence() -> SequenceTemplate:
    """Reassignment procedure, steps 1-13."""
    return SequenceTemplate("rr", (
        _msg(1, "serving-RIS", "UE", "DL reference signal"),
        _msg(2, "serving-eNB", "UE", "measurement control"),
        _msg(3, "UE", "serving-eNB", "measurement report"),
        _msg(4, "target-RIS", "UE", "DL reference signal"),
        _msg(5, "UE", "serving-RIS", "measurement report"),
        _msg(6, "serving-eNB", "serving-eNB", "RR decision", internal=True),
        _msg(7, "serving-eNB", "RIS-M", "RR request"),
        _msg(8, "RIS-M", "RIS-M", "RIS admission control", internal=True),
        _msg(9, "RIS-M", "serving-eNB", "RR request acknowledgment"),
        _msg(10, "serving-eNB", "target-RIS", "RIS configuration"),
        _msg(11, "target-RIS", "serving-RIS", "RIS reconfiguration complete"),
        _msg(12, "serving-RIS", "UE", "RRC connection reconfiguration"),
        _msg(13, "UE", "serving-RIS", "RRC connection reconfiguration complete"),
    ))


def ho_sequence(mode: str = "x2") -> SequenceTemplate:
    """Handover procedure, steps 14-29, in the direct inter-node variant
    ("x2") or the core-anchored variant ("s1")."""
    if mode == "x2":
        return SequenceTemplate("ho-x2", (
            _msg(14, "UE", "serving-eNB", "measurement report"),
            _msg(15, "serving-eNB", "serving-eNB", "HO decision", internal=True),
            _msg(16, "serving-eNB", "target-eNB", "HO request"),
            _msg(17, "target-eNB", "target-eNB", "admission control", internal=True),
            _msg(18, "target-eNB", "serving-eNB", "HO request acknowledgment"),
            _msg(19, "serving-eNB", "UE", "RRC connection reconfiguration"),
            _msg(20, "serving-eNB", "target-eNB", "SN status transfer"),
            _msg(21, "UE", "target-eNB", "synchronisation"),
            _msg(22, "target-eNB", "UE", "UL allocation and timing advance"),
            _msg(23, "UE", "target-eNB", "RRC connection reconfiguration complete"),
            _msg(24, "target-eNB", "MME", "path switch request"),
            _msg(25, "MME", "SGW", "modify bearer request"),
            _msg(26, "SGW", "MME", "modify bearer response"),
            _msg(27, "MME", "target-eNB", "path switch request acknowledgment"),
            _msg(28, "target-eNB", "serving-eNB", "UE context release"),
            _msg(29, "serving-eNB", "serving-eNB", "release resources", internal=True),
        ))
    if mode == "s1":
        return SequenceTemplate("ho-s1", (
            _msg(14, "UE", "serving-eNB", "measurement report"),
            _msg(15, "serving-eNB", "serving-eNB", "HO decision", internal=True),
            _msg(16, "serving-eNB", "MME", "HO required"),
            _msg(17, "MME", "target-eNB", "HO request"),
            _msg(18, "target-eNB", "target-eNB", "admission control", internal=True),
            _msg(19, "target-eNB", "MME", "HO request acknowledgment"),
            _msg(20, "MME", "serving-eNB", "HO command"),
            _msg(21, "serving-eNB", "UE", "RRC connection reconfiguration"),
            _msg(22, "serving-eNB", "MME", "eNB status transfer"),
            _msg(23, "MME", "target-eNB", "MME status transfer"),
            _msg(24, "UE", "target-eNB", "synchronisation"),
            _msg(25, "target-eNB", "MME", "HO notify"),
            _msg(26, "MME", "SGW", "modify bearer request"),
            _msg(27, "SGW", "MME", "modify bearer response"),
            _msg(28, "MME", "serving-eNB", "UE context release command"),
            _msg(29, "serving-eNB", "MME", "UE context release complete"),
        ))
    raise ValueError(f"unknown handover mode: {mode!r}")


def basic_sequence(kind: str) -> SequenceTemplate:
    """Plain session signaling toward the owning server: one wire message."""
    owner = {"sgw": "SGW", "rism": "RIS-M"}.get(kind)
    if owner is None:
        raise ValueError(f"basic sequence kind must be 'sgw' or 'rism', got {kind!r}")
    return SequenceTemplate(f"basic-{kind}",
                            (_msg(1, "UE", owner, "session request"),))


def export_trace(template: SequenceTemplate) -> str:
    """Render a template as a fixed-format text trace, one line per step."""
    lines = ["step | from -> to | name"]
    for m in template.messages:
        suffix = " [internal]" if m.internal else ""
        lines.append(f"{m.step} | {m.sender.kind} -> {m.receiver.kind} | "
                     f"{m.name}{suffix}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Event-driven load accounting


@dataclass(frozen=True)
class LoadResult:
    """Simulated signaling load over one run.

    entity_rates counts participations per second by entity kind: each wire
    message adds one to its sender and one to its receiver, each internal
    step adds one to the acting entity. sessions counts the sessions drawn
    per server kind, "sgw" and "rism".
    """

    entity_rates: dict[str, float]
    rr_initiations: int
    ho_initiations: int
    sessions: dict[str, int]
    duration: float
    seed: int


def _tally(counter: Counter, template: SequenceTemplate, times: int) -> None:
    if times <= 0:
        return
    for m in template.messages:
        counter[m.sender.kind] += times
        if not m.internal:
            counter[m.receiver.kind] += times


# Expected sessions one server may draw in a load run: at about 2e8
# sessions a second, more would run for hours.
MAX_SESSIONS = 1e12

# Sessions are streamed in chunks of this many, which bounds the memory of a
# long run without changing a draw.
_CHUNK = 1 << 16


def _event_probability(pz: float, density: float, r: float,
                       d_U: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """stochastic.event_probability over arrays of moves d_U and xi."""
    import numpy as np
    p = -np.expm1(-pz * density * math.pi
                  * displaced_distance_sq(r, d_U, xi, np.cos))
    return np.where(d_U > 0.0, p, 0.0)


def _count_events(s: ScenarioUnknown, rng: np.random.Generator, n: int,
                  radius: float, density: float, p_a: float) -> int:
    """How many of n sessions run the procedure: each draws a fresh move and
    does so with probability p_a times its event probability against a
    candidate field of the given exclusion radius and density.

    rng gives, in order, n speeds, n angles and n uniforms (a point-mass law
    gives none). Three copies of the stream, started at each block, read
    them a chunk at a time: the uniforms and their comparison go into one
    buffer each, made once per call, and a spread law's draws are _CHUNK
    long, so memory stays a few chunks whatever n is. rng itself is moved
    past all three blocks.
    """
    import numpy as np
    speed_law, angle_law = s.mobility.speed_law, s.mobility.angle_law
    n_speed = 0 if is_point_mass(speed_law) else n
    n_angle = 0 if is_point_mass(angle_law) else n
    speed_rng = _ahead(rng, 0)
    angle_rng = _ahead(rng, n_speed)
    uniform_rng = _ahead(rng, n_speed + n_angle)
    rng.bit_generator.advance(n_speed + n_angle + n)
    pz = p_not_blocked_Z(s.obstacle_model, s.self_block, s.R_LoS)

    def threshold(m: int) -> np.ndarray:
        speeds = draw_law(speed_rng, speed_law, m)
        angles = draw_law(angle_rng, angle_law, m)
        return p_a * _event_probability(pz, density, radius, speeds, angles)

    # with both laws fixed every session shares one threshold; computing it
    # on a one-element array runs the same numpy loops as the full array
    fixed = threshold(1) if n_speed == n_angle == 0 else None
    u = np.empty(min(_CHUNK, n))
    below = np.empty(u.size, dtype=bool)
    events = 0
    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        q = threshold(m) if fixed is None else fixed
        uniform_rng.random(out=u[:m])
        events += int(np.count_nonzero(np.less(u[:m], q, out=below[:m])))
    return events


def simulate_load(s: ScenarioUnknown, sig: SignalingConfig, duration: float,
                  seed: int = 0, ho_mode: str = "x2") -> LoadResult:
    """Sample sessions per server class over `duration` seconds and tally
    the signaling they trigger.

    Every session sends one basic message to its owning server; with
    probability p_a times the per-session event probability it additionally
    runs the full handover (SGW classes) or reassignment (RIS-M classes)
    procedure under a fresh mobility draw. A server expecting more than
    MAX_SESSIONS sessions is refused before anything is drawn.
    """
    if duration <= 0.0 or not math.isfinite(duration):
        raise ValueError("duration must be positive and finite")
    for rate in sig.sgw_rates + sig.rism_rates:
        if rate * duration > MAX_SESSIONS:
            raise ValueError(
                f"duration {duration:g} s at rate {rate:g}/s expects "
                f"{rate * duration:g} sessions, too many to draw")
    import numpy as np
    rng = np.random.default_rng(seed)
    tallies: Counter = Counter()
    initiations = {}
    sessions = {}
    for kind, template, rates, radius, density in (
            ("sgw", ho_sequence(ho_mode), sig.sgw_rates, s.r_eNB,
             s.lambda_eNB),
            ("rism", rr_sequence(), sig.rism_rates, s.r_RIS, s.lambda_RIS)):
        initiations[kind] = sessions[kind] = 0
        for rate in rates:
            mean = rate * duration
            # an idle server takes no uniform from the stream
            n = int(poisson_counts(rng, mean)) if mean else 0
            sessions[kind] += n
            _tally(tallies, basic_sequence(kind), n)
            if n:
                events = _count_events(s, rng, n, radius, density, sig.p_a)
                initiations[kind] += events
                _tally(tallies, template, events)

    rates = {kind: count / duration for kind, count in sorted(tallies.items())}
    return LoadResult(entity_rates=rates, rr_initiations=initiations["rism"],
                      ho_initiations=initiations["sgw"], sessions=sessions,
                      duration=duration, seed=seed)
