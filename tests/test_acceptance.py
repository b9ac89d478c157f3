"""End-to-end acceptance checks, one test per criterion.

Each test prints exactly one line, "CRITERION n: PASS/FAIL - detail", before
asserting, so a plain `pytest -s tests/test_acceptance.py` reads as a
checklist. Criterion 2 carries a band its own sub-bands contradict (see the
assertion message for the arithmetic); it is expected to stay red.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import integrate

from risrates import (
    BlockageWedge,
    MoveGeometry,
    Point2D,
    RandomObstacleModel,
    SelfBlockModel,
    SignalingConfig,
    blocked_bite_area,
    blocked_candidate_area,
    class_load,
    dimension_servers,
    displaced_distance,
    estimate_rr,
    excess_area,
    ho_rate,
    ho_sequence,
    load_packaged,
    marginal_p_rr_unknown,
    p_not_blocked_Z,
    p_rr_marginal,
    p_rr_with_areas,
    rr_rate,
    rr_sequence,
    signaling_rate,
    simulate_load,
    visible_excess_area_A1,
)
from risrates.geometry import wedge_circle_area
from risrates.scenarios import Deterministic, MobilitySpec

XI45 = math.radians(45.0)
DENSITIES = (0.05, 0.1, 0.2, 0.4, 0.8)
STATIC_CASES = ("noobstacle", "obstacle", "selfblock")


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)


def _closed_static(name: str, lam: float) -> float:
    scene = load_packaged(f"table3-static-{name}").scenario
    g = MoveGeometry(r=scene.serving_ris_distance, d_U=2.0, xi=XI45)
    a1 = visible_excess_area_A1(scene, g)
    bite = (blocked_bite_area(scene, 2.0, XI45)
            if scene.extra_obstacles or scene.has_body_shadow else 0.0)
    return p_rr_with_areas(a1, min(bite, a1), lam)


def test_criterion_01_closed_vs_monte_carlo_parity():
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for name in STATIC_CASES:
        scene = load_packaged(f"table3-static-{name}").scenario
        g = MoveGeometry(r=scene.serving_ris_distance, d_U=2.0, xi=XI45)
        a1 = visible_excess_area_A1(scene, g)
        bite = (blocked_bite_area(scene, 2.0, XI45)
                if scene.extra_obstacles or scene.has_body_shadow else 0.0)
        for lam in DENSITIES:
            closed = p_rr_with_areas(a1, min(bite, a1), lam)
            variant = dataclasses.replace(scene, lambda_RIS=lam)
            est = estimate_rr(variant, scene.mobility, Z=100_000, seed=7)
            diff = abs(est.mean - closed)
            tol = max(0.01, 3.0 * est.stderr)
            worst = max(worst, diff)
            if diff > tol:
                failures.append((name, lam, diff, tol))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(1, ok, f"15/15 cases, worst |MC - closed| = {worst:.5f}, "
                   f"elapsed {elapsed:.1f} s (< 60 s)")
    assert not failures, f"cases beyond tolerance: {failures}"
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_02_static_band_targets():
    p01 = {name: _closed_static(name, 0.1) for name in STATIC_CASES}
    p04 = {name: _closed_static(name, 0.4) for name in STATIC_CASES}

    a_ok = p04["noobstacle"] >= 0.97
    blocked04 = (p04["obstacle"], p04["selfblock"])
    b_ok = all(0.65 <= v <= 0.85 for v in blocked04)
    vals = sorted(p01.values())
    bands = sorted((0.45, 0.50, 0.67))
    c_ok = all(abs(v - b) <= 0.07 for v, b in zip(vals, bands))

    ok = a_ok and b_ok and c_ok
    _report(2, ok,
            f"open case at 0.4: {p04['noobstacle']:.4f} (>= 0.97: {a_ok}); "
            f"blocked cases at 0.4: {blocked04[0]:.4f}, {blocked04[1]:.4f} "
            f"(in [0.65, 0.85]: {b_ok}); values at 0.1: "
            f"{[round(v, 4) for v in vals]} vs bands {bands} +/- 0.07: {c_ok}")
    assert a_ok, f"open-case value at density 0.4 is {p04['noobstacle']:.4f}"
    assert c_ok, f"density-0.1 values {vals} miss bands {bands} by > 0.07"
    assert b_ok, (
        f"blocked-case values at density 0.4 are {blocked04[0]:.4f} and "
        f"{blocked04[1]:.4f}, outside [0.65, 0.85]. This band cannot hold "
        f"together with the density-0.1 bands: the probability has the form "
        f"1 - exp(-lambda * A) in the density lambda, so "
        f"p(0.4) = 1 - (1 - p(0.1))^4, and any p(0.1) >= 0.38 forces "
        f"p(0.4) >= 1 - 0.62^4 = 0.852.")


def test_criterion_03_uniform_speed_bands():
    vals = {}
    for name in STATIC_CASES:
        cfg = load_packaged(f"table3-uniform-{name}")
        vals[name] = p_rr_marginal(cfg.scenario, cfg.scenario.mobility)
    got = sorted(vals.values())
    bands = sorted((0.3, 0.4, 0.5))
    ok = all(abs(v - b) <= 0.07 for v, b in zip(got, bands))
    _report(3, ok, f"marginals {[round(v, 4) for v in got]} vs bands "
                   f"{bands} +/- 0.07")
    assert ok, f"{got} vs {bands}"


def test_criterion_04_cross_density_independence():
    cfg = load_packaged("table4-unknown")
    s, sig = cfg.scenario, cfg.signaling
    e_ho_vals = [ho_rate(dataclasses.replace(s, lambda_RIS=v), sig)
                 for v in (0.05, 0.1, 0.2, 0.4, 0.8)]
    e_rr_vals = [rr_rate(dataclasses.replace(s, lambda_eNB=v), sig)
                 for v in (1e-4, 1e-3, 1e-2, 1e-1)]
    ho_const = len(set(e_ho_vals)) == 1
    rr_const = len(set(e_rr_vals)) == 1
    ok = ho_const and rr_const
    _report(4, ok, f"handover rate bitwise constant over 5 RIS densities: "
                   f"{ho_const}; reassignment rate bitwise constant over 4 "
                   f"base-station densities: {rr_const}")
    assert ho_const, f"e_ho varied: {e_ho_vals}"
    assert rr_const, f"e_rr varied: {e_rr_vals}"


def test_criterion_05_displacement_dip_and_recovery():
    cfg = load_packaged("mobility-dip")
    s, sig = cfg.scenario, cfg.signaling

    def at(d: float):
        return dataclasses.replace(
            s, mobility=MobilitySpec(speed_law=Deterministic(d),
                                     angle_law=s.mobility.angle_law))

    ds = [3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0]
    e = [ho_rate(at(d), sig) for d in ds]
    i_min = int(np.argmin(e))
    decreasing = all(e[i] >= e[i + 1] for i in range(i_min))
    increasing = all(e[i] <= e[i + 1] for i in range(i_min, len(e) - 1))
    min_in_range = 3.0 <= ds[i_min] <= 7.0
    dip_ok = decreasing and increasing and min_in_range

    prr = [marginal_p_rr_unknown(at(d)) for d in (5.0, 6.0, 7.0, 8.0, 9.0, 10.0)]
    far_ok = all(p >= 0.99 for p in prr)

    ok = dip_ok and far_ok
    _report(5, ok, f"handover rate dips to {min(e):.4f} at displacement "
                   f"{ds[i_min]} (decrease-then-increase: {dip_ok}); "
                   f"reassignment probability >= 0.99 beyond 5 m: {far_ok} "
                   f"(min {min(prr):.6f})")
    assert dip_ok, f"rates over {ds}: {e}"
    assert far_ok, f"far-displacement reassignment probabilities: {prr}"
    assert e[ds.index(4.0)] == pytest.approx(0.2698967, rel=1e-5)
    assert e[ds.index(5.0)] == 0.0


def test_criterion_06_obstacle_density_sensitivity():
    cfg = load_packaged("obstacle-density")
    s, sig = cfg.scenario, cfg.signaling
    m = s.obstacle_model

    def at(per_km2: float):
        model = RandomObstacleModel(lambda_B=per_km2 / 1e6, mean_l=m.mean_l,
                                    mean_w=m.mean_w)
        return dataclasses.replace(s, obstacle_model=model)

    gammas = {v: signaling_rate(at(v), sig).e_gamma
              for v in (1e1, 1e2, 1e3, 1e4, 1e5)}
    vals = list(gammas.values())
    monotone = all(a >= b for a, b in zip(vals, vals[1:]))
    drop = 100.0 * (gammas[1e3] - gammas[1e5]) / gammas[1e3]
    ok = monotone and 15.0 <= drop <= 25.0
    _report(6, ok, f"total rate falls {drop:.2f}% from density 1e3 to 1e5 "
                   f"per km^2 (target 20 +/- 5), monotone: {monotone}")
    assert monotone, f"e_gamma not decreasing: {gammas}"
    assert 15.0 <= drop <= 25.0, f"drop {drop:.3f}% outside [15, 25]"


def test_criterion_07_server_dimensioning():
    c10 = load_packaged("dimensioning-speed10")
    c15 = load_packaged("dimensioning-speed15")
    load10 = class_load(c10.scenario, c10.signaling, "rism")
    load15 = class_load(c15.scenario, c15.signaling, "rism")
    n10 = dimension_servers(load10, 55.0)
    n15 = dimension_servers(load15, 55.0)
    ok = n10 == 2 and n15 == 4
    _report(7, ok, f"threshold 55 req/s: {n10} servers at 10 m/s "
                   f"(load {load10:.2f}), {n15} at 15 m/s (load {load15:.2f})")
    assert n10 == 2
    assert n15 == 4


# ---------------------------------------------------------------------------
# criterion 8: randomized geometry against a rejection-sampling oracle


def _try_scene(rng: np.random.Generator):
    width = rng.uniform(0.25, 1.1)
    start = rng.uniform(-np.pi, np.pi)
    r = rng.uniform(0.6, 2.5)
    d = rng.uniform(0.3, 2.8)
    xi = rng.uniform(np.deg2rad(5), np.deg2rad(175))
    R = displaced_distance(MoveGeometry(r=r, d_U=d, xi=xi))
    t1 = rng.uniform(max(3 * r, 1.2 * (R + d)), 12 * r)
    off1 = rng.uniform(0.03, 0.97) * width
    a1 = start + off1
    apex = rng.uniform(-5, 5, 2)
    L1 = apex + t1 * np.array([np.cos(a1), np.sin(a1)])
    mv = rng.uniform(-np.pi, np.pi)
    L2 = L1 + d * np.array([np.cos(mv), np.sin(mv)])
    d1 = float(np.linalg.norm(L1 - apex))
    d2 = float(np.linalg.norm(L2 - apex))
    if d1 <= r * 1.05 or d2 <= R * 1.05:
        return None
    off2 = float((np.arctan2(L2[1] - apex[1], L2[0] - apex[0]) - start)
                 % (2 * np.pi))
    if not 0.01 < off2 < width - 0.01:
        return None
    # every in-wedge part of the pre-move circle must stay inside the
    # displaced coverage disk, otherwise the shadow subtraction is invalid
    tt = np.linspace(0, 2 * np.pi, 1440, endpoint=False)
    c1 = L1 + r * np.stack([np.cos(tt), np.sin(tt)], axis=1)
    ang = (np.arctan2(c1[:, 1] - apex[1], c1[:, 0] - apex[0]) - start) \
        % (2 * np.pi)
    iw = ang <= width
    if iw.any() and np.hypot(c1[iw, 0] - L2[0],
                             c1[iw, 1] - L2[1]).max() > R * 0.999:
        return None
    # keep clear of ray/circle tangency, where the cap formula degenerates
    for rho, dd, near, far in ((r, d1, off1, width - off1),
                               (R, d2, off2, width - off2)):
        for a in (near, far):
            if a < np.pi / 2 and abs(dd * np.sin(a) - rho) < 0.03 * rho:
                return None
    return dict(width=width, start=start, r=r, d=d, xi=xi, R=R, apex=apex,
                L1=L1, L2=L2, d1=d1, d2=d2, off1=off1, off2=off2)


def _mc_region_areas(sc: dict, n_samples: int, seed: int):
    """One uniform batch over the union bounding box, classified into the
    five regions of interest; returns (areas, standard errors)."""
    L1, L2 = sc["L1"], sc["L2"]
    r, R = sc["r"], sc["R"]
    ax, ay = sc["apex"]
    x0 = min(L1[0] - r, L2[0] - R)
    x1 = max(L1[0] + r, L2[0] + R)
    y0 = min(L1[1] - r, L2[1] - R)
    y1 = max(L1[1] + r, L2[1] + R)
    box = (x1 - x0) * (y1 - y0)
    u1 = (math.cos(sc["start"]), math.sin(sc["start"]))
    end = sc["start"] + sc["width"]
    u2 = (math.cos(end), math.sin(end))

    rng = np.random.default_rng(seed)
    counts = np.zeros(5, dtype=np.int64)
    left = n_samples
    while left > 0:
        m = min(left, 2_000_000)
        left -= m
        xs = rng.uniform(x0, x1, m)
        ys = rng.uniform(y0, y1, m)
        in1 = (xs - L1[0]) ** 2 + (ys - L1[1]) ** 2 < r * r
        in2 = (xs - L2[0]) ** 2 + (ys - L2[1]) ** 2 < R * R
        vx = xs - ax
        vy = ys - ay
        # width < pi, so two half-plane tests give wedge membership
        inw = (u1[0] * vy - u1[1] * vx >= 0.0) & \
              (vx * u2[1] - vy * u2[0] >= 0.0)
        excess = in2 & ~in1
        counts[0] += int(np.count_nonzero(excess))
        counts[1] += int(np.count_nonzero(in2 & inw))
        counts[2] += int(np.count_nonzero(in1 & inw))
        counts[3] += int(np.count_nonzero(excess & inw))
        counts[4] += int(np.count_nonzero(excess & ~inw))
    p = counts / n_samples
    areas = p * box
    ses = np.sqrt(p * (1.0 - p) / n_samples) * box
    return areas, ses


def test_criterion_08_area_formulas_vs_rejection_oracle():
    rng = np.random.default_rng(77001)
    scenes = []
    tries = 0
    while len(scenes) < 50 and tries < 20_000:
        tries += 1
        sc = _try_scene(rng)
        if sc:
            scenes.append(sc)
    assert len(scenes) == 50, f"generator yielded {len(scenes)} in {tries}"

    branch_counts = {0: 0, 1: 0, 2: 0}
    worst_z = 0.0
    failures = []
    for i, sc in enumerate(scenes):
        cuts = sum(1 for a in (sc["off2"], sc["width"] - sc["off2"])
                   if a < np.pi / 2 and sc["d2"] * np.sin(a) < sc["R"])
        branch_counts[cuts] += 1

        a_e = excess_area(MoveGeometry(r=sc["r"], d_U=sc["d"], xi=sc["xi"]))
        a_s1 = wedge_circle_area(sc["R"], sc["d2"], sc["off2"],
                                 sc["width"] - sc["off2"])
        a_s2 = wedge_circle_area(sc["r"], sc["d1"], sc["off1"],
                                 sc["width"] - sc["off1"])
        wedge = BlockageWedge(apex=Point2D(*sc["apex"]), alpha1=sc["off1"],
                              alpha3=sc["off2"],
                              alpha4=sc["width"] - sc["off2"],
                              d_BU1=sc["d1"], d_BU2=sc["d2"])
        a_b = blocked_candidate_area(wedge, sc["r"], sc["R"])
        analytic = (a_e, a_s1, a_s2, a_b, a_e - a_b)

        mc, se = _mc_region_areas(sc, 10_000_000, seed=246800 + i)
        for label, want, got, s in zip(("A_E", "A_S1", "A_S2", "A_B", "A1"),
                                       analytic, mc, se):
            z = abs(want - got) / s if s > 0 else 0.0
            worst_z = max(worst_z, z)
            if z > 3.0:
                failures.append((i, label, want, got, z))

    zero_move = excess_area(MoveGeometry(r=1.3, d_U=0.0, xi=1.0))
    zero_ok = abs(zero_move) <= 1e-9
    branches_ok = sum(1 for v in branch_counts.values() if v > 0) >= 2

    ok = not failures and zero_ok and branches_ok
    _report(8, ok, f"50 scenes x 5 areas vs 1e7-point oracle, worst "
                   f"|analytic - MC| = {worst_z:.2f} SE (<= 3); cap-cut "
                   f"branches 0/1/2 rays: {branch_counts[0]}/"
                   f"{branch_counts[1]}/{branch_counts[2]}; zero-move excess "
                   f"area = {zero_move!r}")
    assert not failures, f"areas beyond 3 SE: {failures}"
    assert zero_ok
    assert branches_ok, f"degenerate branch coverage: {branch_counts}"


def test_criterion_09_survival_average_vs_quadrature():
    rng = np.random.default_rng(90210)
    worst = 0.0
    small_branch = 0
    for k in range(100):
        if k < 25:
            # force the short-horizon regime where the series branch runs
            lam_b = rng.uniform(1e-9, 5e-8)
            r_los = rng.uniform(50.0, 400.0)
        else:
            lam_b = rng.uniform(1e-7, 5e-5)
            r_los = rng.uniform(200.0, 20_000.0)
        mean_l = rng.uniform(1.0, 25.0)
        mean_w = rng.uniform(1.0, 25.0)
        theta = rng.uniform(0.0, 2 * np.pi)
        model = RandomObstacleModel(lambda_B=lam_b, mean_l=mean_l,
                                    mean_w=mean_w)
        if model.beta * r_los <= 0.05:
            small_branch += 1
        body = SelfBlockModel(theta=theta)
        closed = p_not_blocked_Z(model, body, r_los)

        def integrand(r: float) -> float:
            return (2.0 * r / (r_los * r_los)) * math.exp(-model.beta * r)

        integral, _ = integrate.quad(integrand, 0.0, r_los,
                                     epsabs=1e-14, epsrel=1e-13)
        ref = (1.0 - theta / (2 * np.pi)) * math.exp(-model.beta0) * integral
        worst = max(worst, abs(closed - ref))
    ok = worst <= 1e-10 and small_branch >= 20
    _report(9, ok, f"100 random draws, worst |closed - quadrature| = "
                   f"{worst:.2e} (<= 1e-10), {small_branch} draws exercised "
                   f"the short-horizon series branch")
    assert worst <= 1e-10
    assert small_branch >= 20


def test_criterion_10_procedure_traces_and_simulated_rates():
    rr = rr_sequence()
    steps_ok = (len(rr.messages) == 13
                and rr.messages[6].sender == "serving-eNB"
                and rr.messages[6].receiver == "RIS-M"
                and rr.messages[6].name == "RR request"
                and rr.messages[8].sender == "RIS-M"
                and rr.messages[8].receiver == "serving-eNB"
                and rr.messages[8].name == "RR request acknowledgment"
                and len(ho_sequence("x2").messages) == 16
                and len(ho_sequence("s1").messages) == 16)

    cfg = load_packaged("table4-unknown")
    sig = SignalingConfig(sgw_rates=cfg.signaling.sgw_rates,
                          rism_rates=cfg.signaling.rism_rates, p_a=1.0)
    duration = 10_000.0
    res = simulate_load(cfg.scenario, sig, duration=duration, seed=0)
    e_rr = rr_rate(cfg.scenario, sig)
    e_ho = ho_rate(cfg.scenario, sig)
    rr_sim = res.rr_initiations / duration
    ho_sim = res.ho_initiations / duration
    rr_tol = 3.0 * math.sqrt(e_rr / duration)
    ho_tol = 3.0 * math.sqrt(e_ho / duration)
    rates_ok = (abs(rr_sim - e_rr) <= rr_tol
                and abs(ho_sim - e_ho) <= ho_tol)

    ok = steps_ok and rates_ok
    _report(10, ok, f"reassignment trace 13 steps with request/ack at 7/9, "
                    f"handover traces 16 steps: {steps_ok}; simulated "
                    f"initiation rates {rr_sim:.3f}/{ho_sim:.4f} vs expected "
                    f"{e_rr:.3f}/{e_ho:.4f} within 3 sigma: {rates_ok}")
    assert steps_ok
    assert abs(rr_sim - e_rr) <= rr_tol, f"{rr_sim} vs {e_rr} +/- {rr_tol}"
    assert abs(ho_sim - e_ho) <= ho_tol, f"{ho_sim} vs {e_ho} +/- {ho_tol}"
