"""Signaling templates: structure, trace format, load accounting."""

import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from risrates import (
    ENTITY_KINDS,
    Entity,
    SequenceTemplate,
    SignalingMessage,
    basic_sequence,
    export_trace,
    ho_sequence,
    load_packaged,
    marginal_p_ho,
    marginal_p_rr_unknown,
    rr_sequence,
    simulate_load,
)
from risrates import protocol
from risrates.protocol import LoadResult, _event_probability, _tally
from risrates.geometry import displaced_distance_sq
from risrates.scenarios import MobilitySpec, SignalingConfig, Uniform, draw_law
from risrates.stochastic import (event_probability, p_not_blocked_Z,
                                 poisson_counts)


def test_rr_sequence_shape():
    tpl = rr_sequence()
    assert len(tpl.messages) == 13
    assert [m.step for m in tpl.messages] == list(range(1, 14))
    assert {m.step for m in tpl.messages if m.internal} == {6, 8}
    assert tpl.wire_count == 11

    by_step = {m.step: m for m in tpl.messages}
    assert by_step[7].sender.kind == "serving-eNB"
    assert by_step[7].receiver.kind == "RIS-M"
    assert by_step[7].name == "RR request"
    assert by_step[9].sender.kind == "RIS-M"
    assert by_step[9].receiver.kind == "serving-eNB"
    assert by_step[9].name == "RR request acknowledgment"


@pytest.mark.parametrize("mode,internals,wires", [("x2", {15, 17, 29}, 13),
                                                  ("s1", {15, 18}, 14)])
def test_ho_sequence_shape(mode, internals, wires):
    tpl = ho_sequence(mode)
    assert len(tpl.messages) == 16
    assert [m.step for m in tpl.messages] == list(range(14, 30))
    assert {m.step for m in tpl.messages if m.internal} == internals
    assert tpl.wire_count == wires
    kinds = {m.sender.kind for m in tpl.messages}
    kinds |= {m.receiver.kind for m in tpl.messages}
    assert kinds <= ENTITY_KINDS


def test_ho_sequence_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ho_sequence("n2")


def test_basic_sequence():
    sgw = basic_sequence("sgw")
    rism = basic_sequence("rism")
    assert sgw.wire_count == 1
    assert sgw.messages[0].receiver.kind == "SGW"
    assert rism.messages[0].receiver.kind == "RIS-M"
    assert rism.messages[0].sender.kind == "UE"
    with pytest.raises(ValueError):
        basic_sequence("mme")


def test_entity_and_message_validation():
    with pytest.raises(ValueError):
        Entity("satellite")
    with pytest.raises(ValueError):
        SignalingMessage(0, Entity("UE"), Entity("SGW"), "x")
    with pytest.raises(ValueError):
        SignalingMessage(1, Entity("UE"), Entity("SGW"), "x", internal=True)


def test_template_requires_gapless_ordinals():
    msgs = (
        SignalingMessage(1, Entity("UE"), Entity("SGW"), "a"),
        SignalingMessage(3, Entity("SGW"), Entity("UE"), "b"),
    )
    with pytest.raises(ValueError):
        SequenceTemplate("broken", msgs)
    with pytest.raises(ValueError):
        SequenceTemplate("empty", ())


def test_export_trace_format():
    trace = export_trace(rr_sequence())
    lines = trace.splitlines()
    assert lines[0] == "step | from -> to | name"
    assert lines[1] == "1 | serving-RIS -> UE | DL reference signal"
    assert lines[6] == "6 | serving-eNB -> serving-eNB | RR decision [internal]"
    assert lines[7] == "7 | serving-eNB -> RIS-M | RR request"
    assert lines[9] == "9 | RIS-M -> serving-eNB | RR request acknowledgment"
    assert trace.endswith("complete\n")
    assert len(lines) == 14


def test_export_trace_ho_lengths():
    for mode in ("x2", "s1"):
        lines = export_trace(ho_sequence(mode)).splitlines()
        assert len(lines) == 17  # header + 16 steps
        assert lines[1].startswith("14 | UE -> serving-eNB")


# ---------------------------------------------------------------------------
# load simulation


def test_simulate_load_deterministic():
    cfg = load_packaged("table4-unknown")
    a = simulate_load(cfg.scenario, cfg.signaling, duration=50.0, seed=8)
    b = simulate_load(cfg.scenario, cfg.signaling, duration=50.0, seed=8)
    assert a == b
    assert set(a.entity_rates) <= ENTITY_KINDS


def test_simulate_load_rejects_bad_duration():
    cfg = load_packaged("table4-unknown")
    with pytest.raises(ValueError):
        simulate_load(cfg.scenario, cfg.signaling, duration=0.0)
    with pytest.raises(ValueError):
        simulate_load(cfg.scenario, cfg.signaling, duration=math.inf)


@pytest.mark.parametrize("rates", [((1.0,), (5.0, 2e5)), ((2e5, 1.0), (5.0,))])
def test_simulate_load_refuses_a_server_beyond_the_session_limit(monkeypatch,
                                                                 rates):
    # 2e5/s over 1e7 s expects 2e12 sessions; the other servers' 1e7 to 5e7
    # are drawable, and nothing at all is drawn before the refusal
    s = load_packaged("table4-unknown").scenario
    sig = SignalingConfig(sgw_rates=rates[0], rism_rates=rates[1], p_a=0.5)

    def no_draws(*args):
        raise AssertionError("sessions drawn before the refusal")

    monkeypatch.setattr(protocol, "poisson_counts", no_draws)
    with pytest.raises(ValueError, match="^duration 1e[+]07 s at rate "
                                         "200000/s expects 2e[+]12 sessions"):
        simulate_load(s, sig, duration=1e7)
    assert 2e5 * 1e7 > protocol.MAX_SESSIONS >= 5.0 * 1e7


def test_simulate_load_blocked_sessions_only_send_basic():
    cfg = load_packaged("table4-unknown")
    sig = type(cfg.signaling)(sgw_rates=cfg.signaling.sgw_rates,
                              rism_rates=cfg.signaling.rism_rates, p_a=0.0)
    res = simulate_load(cfg.scenario, sig, duration=100.0, seed=1)
    assert res.rr_initiations == 0
    assert res.ho_initiations == 0
    # only the basic session messages remain: UE plus the two server kinds
    assert set(res.entity_rates) == {"UE", "SGW", "RIS-M"}
    total_rate = sum(cfg.signaling.sgw_rates) + sum(cfg.signaling.rism_rates)
    # each basic message counts once at the UE and once at the server
    assert res.entity_rates["UE"] == pytest.approx(
        total_rate, abs=4.5 * math.sqrt(total_rate / 100.0))


def test_simulate_load_initiation_rates_match_analytics():
    cfg = load_packaged("table4-unknown")
    res = simulate_load(cfg.scenario, cfg.signaling, duration=2000.0, seed=5)
    e_rr = sum(cfg.signaling.rism_rates) * marginal_p_rr_unknown(cfg.scenario)
    e_ho = sum(cfg.signaling.sgw_rates) * marginal_p_ho(cfg.scenario)
    p_a = cfg.signaling.p_a
    rr_rate = res.rr_initiations / res.duration
    ho_rate = res.ho_initiations / res.duration
    assert abs(rr_rate - p_a * e_rr) <= 4.0 * math.sqrt(p_a * e_rr / 2000.0)
    assert abs(ho_rate - p_a * e_ho) <= 4.0 * math.sqrt(p_a * e_ho / 2000.0)


def test_simulate_load_pinned_with_idle_and_small_classes():
    # An idle server draws nothing from the stream and a small class goes
    # through Poisson inversion; the result was recorded at seed 3 and pins
    # both draw orders.
    cfg = load_packaged("dimensioning-speed15")
    sig = type(cfg.signaling)(sgw_rates=(0.0, 0.4), rism_rates=(0.5, 0.0),
                              p_a=0.99)
    res = simulate_load(cfg.scenario, sig, duration=100.0, seed=3)
    assert (res.rr_initiations, res.ho_initiations) == (51, 11)
    assert res.entity_rates == {
        "MME": 0.44, "RIS-M": 2.14, "SGW": 0.54, "UE": 5.05,
        "serving-RIS": 2.55, "serving-eNB": 3.94, "target-RIS": 1.53,
        "target-eNB": 1.1}


def test_signaling_config_rejects_non_finite_rates():
    # NaN passes a plain `r < 0` test and would give 0 sessions; inf would
    # fail deep inside the Poisson sampler
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SignalingConfig(sgw_rates=(1.0, bad), rism_rates=(1.0,), p_a=0.5)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SignalingConfig(sgw_rates=(1.0,), rism_rates=(bad,), p_a=0.5)
    SignalingConfig(sgw_rates=(0.0,), rism_rates=(2.5,), p_a=0.5)


@pytest.mark.parametrize("pz,density", [(1.0, 4e-5), (0.37, 0.1), (0.9, 2.0)])
def test_vector_forms_agree_with_the_scalar_closed_forms(pz, density):
    # the closed forms run in math, the Monte Carlo and load kernels in
    # numpy: the distance must match bit for bit, and the event probability
    # within 2 ulp (np.expm1 and math.expm1 may differ in the last bit)
    grid = np.array([(r, d, x) for r in (0.5, 3.0, 25.0, 150.0)
                     for d in (0.0, 1e-3, 0.5, 2.0, 10.0, 49.0, 300.0)
                     for x in np.linspace(0.0, math.pi, 13)])
    assert {0.0, math.pi} <= set(grid[:, 2])
    for r in np.unique(grid[:, 0]):
        d_U, xi = grid[grid[:, 0] == r, 1:].T
        vector = displaced_distance_sq(r, d_U, xi, np.cos)
        scalar = [displaced_distance_sq(r, d, x)
                  for d, x in zip(d_U.tolist(), xi.tolist())]
        assert vector.tobytes() == np.array(scalar).tobytes()
        vector = _event_probability(pz, density, r, d_U, xi)
        for v, d, x in zip(vector.tolist(), d_U.tolist(), xi.tolist()):
            p = event_probability(pz, density, r, d, x)
            assert abs(v - p) <= 2.0 * math.ulp(p), (r, d, x)
            assert d > 0.0 or p == 0.0


# ---------------------------------------------------------------------------
# streamed load simulation against the whole-array reference


def _reference_simulate_load(s, sig, duration, seed=0, ho_mode="x2"):
    """The load simulator with every per-session array built whole: the
    streamed one must match it draw for draw."""
    rng = np.random.default_rng(seed)
    tallies = Counter()
    initiations = {}
    sessions = {}
    for kind, template, rates, radius, density in (
            ("sgw", ho_sequence(ho_mode), sig.sgw_rates, s.r_eNB,
             s.lambda_eNB),
            ("rism", rr_sequence(), sig.rism_rates, s.r_RIS, s.lambda_RIS)):
        initiations[kind] = sessions[kind] = 0
        for rate in rates:
            mean = rate * duration
            n = int(poisson_counts(rng, mean)) if mean else 0
            sessions[kind] += n
            _tally(tallies, basic_sequence(kind), n)
            if n:
                speeds = draw_law(rng, s.mobility.speed_law, n)
                angles = draw_law(rng, s.mobility.angle_law, n)
                pz = p_not_blocked_Z(s.obstacle_model, s.self_block, s.R_LoS)
                p = _event_probability(pz, density, radius, speeds, angles)
                events = int(np.count_nonzero(rng.random(n) < sig.p_a * p))
                initiations[kind] += events
                _tally(tallies, template, events)
    rates = {kind: count / duration for kind, count in sorted(tallies.items())}
    return LoadResult(entity_rates=rates, rr_initiations=initiations["rism"],
                      ho_initiations=initiations["sgw"], sessions=sessions,
                      duration=duration, seed=seed)


UNKNOWN_CONFIGS = ["table4-unknown", "mobility-dip", "obstacle-density",
                   "dimensioning-speed10", "dimensioning-speed15"]


def _load_case(variant):
    """Scenario and signaling of a packaged config, or of table4-unknown with
    spread laws: both (the random-direction mode), the speed alone or the
    angle alone."""
    if variant in UNKNOWN_CONFIGS:
        cfg = load_packaged(variant)
        return cfg.scenario, cfg.signaling
    cfg = load_packaged("table4-unknown")
    fixed = cfg.scenario.mobility
    speed = (Uniform(0.5, 15.0) if variant in ("spread", "speed")
             else fixed.speed_law)
    angle = (Uniform(0.0, math.pi) if variant in ("spread", "angle")
             else fixed.angle_law)
    mobility = MobilitySpec(speed_law=speed, angle_law=angle)
    # two classes per server, one of them small, so the stream runs on
    # across classes
    sig = SignalingConfig(sgw_rates=(100.0, 3.0), rism_rates=(2.0, 100.0),
                          p_a=0.99)
    return dataclasses.replace(cfg.scenario, mobility=mobility), sig


@pytest.mark.parametrize("chunk,duration",
                         [(7, 1.3), (4096, 170.0), (None, 1400.0)])
@pytest.mark.parametrize("variant",
                         UNKNOWN_CONFIGS + ["spread", "angle", "speed"])
def test_streamed_load_matches_whole_array_reference(monkeypatch, variant,
                                                     chunk, duration):
    # about 130 or 17,000 sessions per class of rate 100/s: many chunk
    # boundaries at either chunk size; about 140,000 at the default chunk
    # (None): two full chunks and a partial one through the reused buffers
    s, sig = _load_case(variant)
    if chunk is not None:
        monkeypatch.setattr(protocol, "_CHUNK", chunk)
    for seed in range(3):
        for mode in ("x2", "s1"):
            expected = _reference_simulate_load(s, sig, duration, seed, mode)
            assert expected.rr_initiations + expected.ho_initiations > 0
            assert simulate_load(s, sig, duration, seed, mode) == expected


@pytest.mark.parametrize("variant", ["fixed", "spread"])
def test_streamed_load_memory_is_bounded(variant):
    # about 2·10^6 sessions per server; the bound, 16 float64 arrays of 2^16
    # entries, is a few chunks whatever the session count
    s, sig = _load_case("table4-unknown" if variant == "fixed" else variant)
    tracemalloc.start()
    try:
        simulate_load(s, sig, duration=20_000.0, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * 2**16, peak / 2**20


@pytest.mark.parametrize("variant", ["table4-unknown", "spread", "idle"])
def test_load_sessions_replay_the_seeded_poisson_draws(variant):
    if variant == "idle":
        s = load_packaged("dimensioning-speed15").scenario
        sig = SignalingConfig(sgw_rates=(0.0, 0.4), rism_rates=(0.5, 0.0),
                              p_a=0.99)
    else:
        s, sig = _load_case(variant)
    rng = np.random.default_rng(4)
    expected = {}
    for kind, rates in (("sgw", sig.sgw_rates), ("rism", sig.rism_rates)):
        expected[kind] = 0
        for rate in rates:
            n = int(poisson_counts(rng, rate * 50.0)) if rate else 0
            expected[kind] += n
            # then the class's speeds, angles and uniforms
            draw_law(rng, s.mobility.speed_law, n)
            draw_law(rng, s.mobility.angle_law, n)
            rng.random(n)
    assert min(expected.values()) > 0
    assert simulate_load(s, sig, 50.0, seed=4).sessions == expected

