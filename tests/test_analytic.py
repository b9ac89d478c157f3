"""Closed-form rates, quadrature helpers, and server dimensioning."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from risrates import (
    RateReport,
    SignalingConfig,
    adaptive_simpson,
    blocked_bite_area,
    class_load,
    dimension_servers,
    ho_rate,
    load_packaged,
    marginal_p_ho,
    marginal_p_rr_unknown,
    p_ho,
    p_rr_known,
    p_rr_unknown,
    p_rr_with_areas,
    rr_probability_known,
    rr_rate,
    signaling_rate,
)
from risrates import analytic
from risrates.analytic import _marginal_mean
from risrates.geometry import GeometryDomainError, MoveGeometry
from risrates.scenarios import Deterministic, MobilitySpec, Uniform
from risrates.stochastic import SelfBlockModel


def _table_scene():
    return load_packaged("table4-unknown")


# ---------------------------------------------------------------------------
# quadrature helpers


def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-10) == pytest.approx(
        2.0, abs=1e-9)
    assert adaptive_simpson(lambda x: x * x, 0.0, 1.0) == pytest.approx(1 / 3,
                                                                        rel=1e-9)
    assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0


def _refused_on(lo: float, hi: float, reason: str):
    def point_fn(d: float, x: float) -> float:
        if lo < d < hi:
            raise GeometryDomainError(reason)
        return d * d
    return point_fn


# Simpson is exact on d * d, so on [0, 1] it reads d = 0, 0.5, 1, 0.25 and
# 0.75 only; each case names the first node it refuses
@pytest.mark.parametrize("lo, hi, reason, message", [
    (-1.0, 0.3, "left edge unsupported",
     "d_U = 0 m, angle = 45 deg: left edge unsupported"),
    (0.7, 0.8, "window unsupported",
     "d_U = 0.75 m, angle = 45 deg: window unsupported"),
    (-1.0, 2.0, "nowhere valid", "d_U = 0 m, angle = 45 deg: nowhere valid"),
], ids=["left-edge", "interior-window", "everywhere"])
def test_marginal_mean_refuses_a_refused_node(lo, hi, reason, message):
    mobility = MobilitySpec(speed_law=Uniform(0.0, 1.0),
                            angle_law=Deterministic(math.pi / 4))
    with pytest.raises(GeometryDomainError) as info:
        _marginal_mean(_refused_on(lo, hi, reason), mobility)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# point probabilities


def test_p_rr_known_basic():
    assert p_rr_known(0.0, 0.5) == 0.0
    assert p_rr_known(3.0, 0.2) == pytest.approx(-math.expm1(-0.6), rel=1e-14)
    with pytest.raises(ValueError):
        p_rr_known(-1.0, 0.5)
    with pytest.raises(ValueError):
        p_rr_known(1.0, -0.5)


def test_p_rr_with_areas_validation():
    assert p_rr_with_areas(10.0, 0.0, 0.1) == p_rr_known(10.0, 0.1)
    assert p_rr_with_areas(10.0, 10.0, 0.1) == 0.0
    with pytest.raises(ValueError):
        p_rr_with_areas(10.0, 10.5, 0.1)
    with pytest.raises(ValueError):
        p_rr_with_areas(10.0, -0.1, 0.1)


def test_rate_report_rejects_negative_fields():
    with pytest.raises(ValueError):
        RateReport(p_rr=-0.1, p_ho=0.0, e_rr=0.0, e_ho=0.0, e_sb=0.0,
                   e_so=0.0, e_gamma=0.0, e_gamma_expanded=0.0)


def test_zero_displacement_probabilities_are_exactly_zero():
    s = _table_scene().scenario
    assert p_ho(s, 0.0, 1.0) == 0.0
    assert p_rr_unknown(s, 0.0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# reference scenario (homogeneous model, deterministic mobility)


def test_reference_point_probabilities():
    s = _table_scene().scenario
    assert marginal_p_ho(s) == pytest.approx(0.03623638360487797, rel=1e-12)
    assert marginal_p_rr_unknown(s) == pytest.approx(0.9993775486777247,
                                                     rel=1e-12)


def test_reference_rate_report():
    cfg = _table_scene()
    rep = signaling_rate(cfg.scenario, cfg.signaling)
    assert rep.e_ho == pytest.approx(3.623638360487797, rel=1e-12)
    assert rep.e_rr == pytest.approx(99.93775486777247, rel=1e-12)
    assert rep.e_sb == pytest.approx(200.0, rel=1e-12)
    assert rep.e_so == pytest.approx(rep.e_ho + rep.e_rr, rel=1e-14)
    assert rep.e_gamma == pytest.approx(302.52577929597766, rel=1e-12)
    assert rep.e_gamma_expanded == pytest.approx(604.087172524238, rel=1e-12)
    assert ho_rate(cfg.scenario, cfg.signaling) == pytest.approx(rep.e_ho)
    assert rr_rate(cfg.scenario, cfg.signaling) == pytest.approx(rep.e_rr)


def test_marginal_matches_direct_quadrature():
    base = _table_scene().scenario
    s = dataclasses.replace(
        base, mobility=MobilitySpec(speed_law=Uniform(1.0, 2.5),
                                    angle_law=Deterministic(math.radians(40))))
    val, err = integrate.quad(lambda d: p_ho(s, d, math.radians(40)), 1.0, 2.5,
                              epsabs=1e-12)
    assert marginal_p_ho(s, tol=1e-9) == pytest.approx(val / 1.5, abs=1e-8)


def test_marginal_double_integral_matches_quad():
    base = _table_scene().scenario
    s = dataclasses.replace(
        base, mobility=MobilitySpec(speed_law=Uniform(1.0, 2.5),
                                    angle_law=Uniform(0.0, math.pi)))

    def inner(x: float) -> float:
        v, _ = integrate.quad(lambda d: p_rr_unknown(s, d, x), 1.0, 2.5,
                              epsabs=1e-12)
        return v / 1.5

    outer, _ = integrate.quad(inner, 0.0, math.pi, epsabs=1e-10, limit=200)
    assert marginal_p_rr_unknown(s, tol=1e-8) == pytest.approx(outer / math.pi,
                                                               abs=1e-7)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mobility_refuses_non_finite_bounds(bad):
    # a NaN point mass is not a point (nan != nan), and the marginals would
    # run adaptive Simpson over [nan, nan] without end
    for make in (lambda: Deterministic(bad), lambda: Uniform(0.0, bad),
                 lambda: Uniform(bad, 1.0)):
        with pytest.raises(ValueError):
            MobilitySpec(speed_law=make(), angle_law=Deterministic(0.5))
        with pytest.raises(ValueError):
            MobilitySpec(speed_law=Deterministic(1.0), angle_law=make())


_NAN_FIELDS = (
    [("unknown", f) for f in ("lambda_RIS", "lambda_eNB", "r_RIS", "r_eNB",
                              "R_LoS")]
    + [("known", f) for f in ("lambda_RIS", "serving_ris_distance")]
    + [("obstacles", f) for f in ("lambda_B", "mean_l", "mean_w")]
    + [("move", "d_U")])


@pytest.mark.parametrize("owner,field", _NAN_FIELDS)
def test_constructors_refuse_nan(owner, field):
    # the closed forms would return NaN without a word on such an object
    valid = {"unknown": lambda: _table_scene().scenario,
             "known": lambda: load_packaged("table3-static-obstacle").scenario,
             "obstacles": lambda: _table_scene().scenario.obstacle_model,
             "move": lambda: MoveGeometry(r=2.0, d_U=1.0, xi=0.5)}[owner]()
    with pytest.raises(ValueError):
        dataclasses.replace(valid, **{field: math.nan})


def test_unknown_marginals_evaluate_blockage_once(monkeypatch):
    # the unblocked probability does not depend on the move: one call per
    # marginal, and the same bits as evaluating it at every node
    base = _table_scene().scenario
    s = dataclasses.replace(
        base, mobility=MobilitySpec(speed_law=Uniform(0.5, 15.0),
                                    angle_law=Uniform(0.0, math.pi)))
    per_node = (_marginal_mean(lambda d, x: p_ho(s, d, x), s.mobility),
                _marginal_mean(lambda d, x: p_rr_unknown(s, d, x), s.mobility))
    calls = []
    real = analytic.p_not_blocked_Z

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(analytic, "p_not_blocked_Z", counted)
    assert (marginal_p_ho(s), marginal_p_rr_unknown(s)) == per_node
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# known-room bites


def test_blocked_bite_area_deterministic():
    scene = load_packaged("table3-static-obstacle").scenario
    a = blocked_bite_area(scene, 2.0, math.radians(45))
    assert a == blocked_bite_area(scene, 2.0, math.radians(45))
    assert a == pytest.approx(2.0916177, rel=1e-7)


def test_body_shadow_rule():
    scene = load_packaged("table3-static-selfblock").scenario
    theta = scene.self_block.theta
    assert scene.has_body_shadow and scene.self_block_direction is None
    # centred on each move's heading, for a float or an array of moves
    assert scene.body_shadow_start(1.0) == 1.0 - 0.5 * theta
    headings = np.array([0.0, 1.0, -2.5])
    np.testing.assert_array_equal(scene.body_shadow_start(headings),
                                  headings - 0.5 * theta)
    # or on a fixed bearing whatever the move
    fixed = dataclasses.replace(scene, self_block_direction=0.25)
    assert fixed.body_shadow_start(1.0) == 0.25 - 0.5 * theta
    assert fixed.body_shadow_start(headings) == 0.25 - 0.5 * theta
    xi = math.radians(45)
    assert blocked_bite_area(fixed, 2.0, xi) != blocked_bite_area(
        scene, 2.0, xi)
    # no sector, or one of width 0: nothing to bite in a room with no
    # extra obstacles
    for body in (None, SelfBlockModel(0.0)):
        bare = dataclasses.replace(scene, self_block=body)
        assert not bare.has_body_shadow
        assert blocked_bite_area(bare, 2.0, xi) == 0.0


def test_rr_probability_known_zero_displacement():
    scene = load_packaged("table3-static-noobstacle").scenario
    assert rr_probability_known(scene, 0.0, math.radians(45)) == 0.0


def test_rr_probability_known_monotone_in_density():
    scene = load_packaged("table3-static-noobstacle").scenario
    probs = [p_rr_known(
        10.228142693519818, lam) for lam in (0.05, 0.1, 0.2, 0.4, 0.8)]
    assert probs == sorted(probs)
    assert rr_probability_known(scene, 2.0, math.radians(45)) == pytest.approx(
        p_rr_known(10.228142693519818, scene.lambda_RIS), rel=1e-9)


# ---------------------------------------------------------------------------
# dimensioning


def test_class_load_reference_values():
    c10 = load_packaged("dimensioning-speed10")
    c15 = load_packaged("dimensioning-speed15")
    load10 = class_load(c10.scenario, c10.signaling, "rism")
    load15 = class_load(c15.scenario, c15.signaling, "rism")
    assert load10 == pytest.approx(104.955304, abs=1e-5)
    assert load15 == pytest.approx(183.411541, abs=1e-5)
    assert dimension_servers(load10, 55.0) == 2
    assert dimension_servers(load15, 55.0) == 4


def test_dimension_servers_edge_cases():
    cfg = _table_scene()
    load = class_load(cfg.scenario, cfg.signaling, "sgw")
    with pytest.raises(ValueError):
        dimension_servers(load, 0.0)
    with pytest.raises(ValueError):
        dimension_servers(load, -3.0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="no server count suffices"):
            dimension_servers(bad, 55.0)
    # one spelling per server kind, as the CLI's --kind choices
    for kind in ("RIS-M", "SGW", "mme"):
        with pytest.raises(ValueError, match="unknown server kind"):
            class_load(cfg.scenario, cfg.signaling, kind)
    silent = SignalingConfig(sgw_rates=(0.0,), rism_rates=(0.0,), p_a=1.0)
    silent_load = class_load(cfg.scenario, silent, "sgw")
    assert dimension_servers(silent_load, 55.0) == 1
    # a subnormal capacity overflows the load/capacity ratio
    with pytest.raises(ValueError, match="no server count suffices"):
        dimension_servers(load, 1e-310)
    assert dimension_servers(silent_load, 1e-310) == 1


def test_dimension_servers_exact_multiple_boundary():
    # a load landing exactly on k * capacity needs k servers, not k + 1
    cfg = _table_scene()
    total = class_load(cfg.scenario, cfg.signaling, "sgw")
    k = 3
    assert dimension_servers(total, total / k) == k
