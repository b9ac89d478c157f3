"""Signaling sequence templates and event-driven load accounting.

The templates enumerate every message of the reassignment and handover
procedures with a global step ordinal, so a combined trace (reassignment
steps 1-13, handover steps 14-29) reads as one numbered diagram. Entities
are the kind strings of ENTITY_KINDS. Steps a node performs purely locally
(decisions, admission control) are marked internal and stay off the wire.

The load simulator validates its run and tallies the messages; its sessions
and events are drawn by montecarlo.load_draws, imported (with numpy) when a
run starts, so the templates and traces work without numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .scenarios import ScenarioUnknown, SignalingConfig
from .stochastic import p_not_blocked_Z

ENTITY_KINDS = frozenset({
    "UE", "serving-RIS", "target-RIS", "serving-eNB", "target-eNB",
    "RIS-M", "MME", "SGW", "RIS-controller",
})


@dataclass(frozen=True)
class SignalingMessage:
    """One numbered step. `sender`/`receiver` stand in for the from/to pair
    of a sequence diagram (`from` is reserved in Python), each a kind from
    ENTITY_KINDS; an internal step keeps both equal and stays off the wire."""

    step: int
    sender: str
    receiver: str
    name: str
    internal: bool = False

    def __post_init__(self) -> None:
        for entity in (self.sender, self.receiver):
            if entity not in ENTITY_KINDS:
                raise ValueError(f"unknown entity kind: {entity!r}")
        if self.step < 1:
            raise ValueError("step ordinals start at 1")
        if self.internal and self.sender != self.receiver:
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


_msg = SignalingMessage  # keeps the template tables short


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
        lines.append(f"{m.step} | {m.sender} -> {m.receiver} | "
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
        counter[m.sender] += times
        if not m.internal:
            counter[m.receiver] += times


# Expected sessions one server may draw in a load run: at about 2e8
# sessions a second, more would run for hours.
MAX_SESSIONS = 1e12


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
    from .montecarlo import load_draws
    classes = (("sgw", ho_sequence(ho_mode), sig.sgw_rates, s.r_eNB,
                s.lambda_eNB),
               ("rism", rr_sequence(), sig.rism_rates, s.r_RIS, s.lambda_RIS))
    servers = [(kind, template, rate * duration, radius, density)
               for kind, template, rates, radius, density in classes
               for rate in rates]
    pz = p_not_blocked_Z(s.obstacle_model, s.self_block, s.R_LoS)
    draws = load_draws(s.mobility, [row[2:] for row in servers], pz,
                       sig.p_a, seed)
    tallies: Counter = Counter()
    initiations = {"sgw": 0, "rism": 0}
    sessions = {"sgw": 0, "rism": 0}
    for (kind, template, *_), (n, events) in zip(servers, draws):
        sessions[kind] += n
        initiations[kind] += events
        _tally(tallies, basic_sequence(kind), n)
        _tally(tallies, template, events)

    rates = {kind: count / duration for kind, count in sorted(tallies.items())}
    return LoadResult(entity_rates=rates, rr_initiations=initiations["rism"],
                      ho_initiations=initiations["sgw"], sessions=sessions,
                      duration=duration, seed=seed)
