"""The benchmark's own tests. Run from the root of a checkout with

    python3 -m pytest -q perfbench/selftest.py

(the file name keeps it out of the package's default test collection).
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import check
import run
import spans
import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

from risrates import cli  # noqa: E402

GOLDENS = json.loads((Path(__file__).parent / "goldens.json")
                     .read_text(encoding="utf-8"))


def _golden(name: str) -> check.Table:
    return GOLDENS[name]["header"], [list(r) for r in GOLDENS[name]["rows"]]


def _job(workload: str, name: str, tmp: Path) -> workloads.Job:
    jobs = workloads.build(workload, workloads.DEFAULT_SEED, tmp).jobs
    return next(j for j in jobs if j.name == name)


def test_every_job_has_a_golden(tmp_path):
    for name in workloads.NAMES:
        for job in workloads.build(name, 5, tmp_path).jobs:
            assert job.name in GOLDENS, job.name


def test_comparator_flags_a_perturbed_exact_cell(tmp_path):
    job = _job("unknown-rates", "analytic/table4-unknown", tmp_path)
    golden = _golden(job.name)
    header, rows = _golden(job.name)
    assert check.compare(job.cells, golden, (header, rows), False) == []
    rows[6][1] = "302.525778"  # e_gamma, last digit changed
    problems = check.compare(job.cells, golden, (header, rows), False)
    assert len(problems) == 1 and "e_gamma" in problems[0]


def test_comparator_judges_mc_cells_by_standard_error(tmp_path):
    job = _job("unknown-rates", "simulate/table4-unknown", tmp_path)
    golden = _golden(job.name)
    header, rows = _golden(job.name)
    p = float(rows[0][1])
    se = (p * (1 - p) / workloads.HO_TRIALS) ** 0.5
    for shift, ok in ((2 * se, True), (7 * se, False)):
        q = p + shift
        rows[0][1] = format(q, ".9g")
        rows[1][1] = format((q * (1 - q) / workloads.HO_TRIALS) ** 0.5, ".9g")
        problems = check.compare(job.cells, golden, (header, rows), False)
        assert (problems == []) == ok, problems
        # at the default seed the golden must be reproduced exactly
        assert check.compare(job.cells, golden, (header, rows), True) != []
    rows[1][1] = "0.5"  # a stderr that does not fit its mean
    assert check.compare(job.cells, golden, (header, rows), False) != []


def test_comparator_accepts_an_added_column(tmp_path):
    job = _job("unknown-rates", "sweep-lambda_B/obstacle-density", tmp_path)
    golden = _golden(job.name)
    header, rows = _golden(job.name)
    header.append("mc_ho_stderr")
    for row in rows:
        row.append("0.0001")
    assert check.compare(job.cells, golden, (header, rows), True) == []
    assert check.compare(job.cells, golden, (header[1:], [r[1:] for r in rows]),
                         True) != []  # a missing column is not


def test_known_room_p_rr_must_lie_near_the_reference(tmp_path):
    for config, tol in (("table3-uniform-obstacle", check.P_RR_TOL),
                        ("table3-static-obstacle", check.P_RR_TOL_STATIC)):
        job = _job("room-analytic", f"analytic/{config}", tmp_path)
        golden = _golden(job.name)
        ref = workloads.REFERENCE[config]["mean"]
        for p, ok in ((ref + 0.9 * tol, True), (ref - 0.9 * tol, True),
                      (ref + 1.1 * tol, False), (ref + 0.1, False),
                      (ref - 0.1, False), (float("nan"), False),
                      (1.5, False)):
            got = (["quantity", "value"], [["p_rr", format(p, ".9g")]])
            assert (check.compare(job.cells, golden, got, True) == []) == ok, \
                (config, p)


def test_theta_sweep_rows_are_checked_against_their_reference(tmp_path):
    job = _job("room-analytic", workloads.THETA_SWEEP, tmp_path)
    golden = _golden(job.name)
    header, rows = _golden(job.name)
    assert check.compare(job.cells, golden, (header, rows), False) == []
    rows[3][1] = format(float(rows[3][1]) + 0.1, ".9g")
    problems = check.compare(job.cells, golden, (header, rows), False)
    assert len(problems) == 1 and "row 3" in problems[0], problems


def test_a_wide_seed_range_fails_the_pass(tmp_path):
    jobs = {j.name: j for j in workloads.build("room-analytic", 5,
                                               tmp_path).jobs}
    for p_seed2, ok in ((0.5572, True), (0.5595, False)):
        results = [run.JobResult(jobs[name], 1.0,
                                 table=(["quantity", "value"], [["p_rr", p]]))
                   for name, p in zip(run.SEED_JOBS,
                                      ("0.5570", "0.5565", str(p_seed2)))]
        run.check_seed_range(results)
        assert (not any(r.problems for r in results)) == ok
        assert run.rr_seed_range(results) == (
            max(0.5570, 0.5565, p_seed2) - 0.5565)


def _traced(argv: list[str], tmp: Path) -> dict:
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        i = tracer.open("cli.main")
        assert cli.main([*argv, "--out", str(tmp / "out.csv")]) == 0
        tracer.close(i)
    return spans.layer_metrics(tracer.spans)


def test_rr_trial_count(tmp_path):
    config = workloads.CONFIGS / "table3-static-noobstacle.json"
    m = _traced(["simulate", "--config", str(config), "--trials", "10000"],
                tmp_path)
    assert m["montecarlo.rr_trials"] == 10000
    assert m["montecarlo.rr_calls"] == 1
    assert m["montecarlo.shards"] == 3
    assert m["config.load_calls"] == 1
    assert m["cli.jobs"] == 1


def test_point_evals_on_uniform_obstacle(tmp_path):
    config = workloads.CONFIGS / "table3-uniform-obstacle.json"
    m = _traced(["analytic", "--config", str(config)], tmp_path)
    assert m["analytic.point_evals"] == 13
    assert m["analytic.marginal_calls"] == 1
    assert m["geometry.mc_area_calls"] == 13
    assert m["geometry.mc_area_samples"] == 13 * 2_000_000
    assert m["geometry.region_pred_points"] == 13 * 2_000_000
    assert 0.0 < m["geometry.region_accept_ratio"] < 1.0
    assert m["montecarlo.rr_trials"] == 0


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    targets = [(m, a) for m, a, *_ in spans.TARGETS]
    targets.append(spans.REGION_TARGET[:2])
    before = {(m, a): getattr(importlib.import_module(m), a)
              for m, a in targets}
    config = workloads.CONFIGS / "table4-unknown.json"
    _traced(["analytic", "--config", str(config)], tmp_path)
    for (m, a), fn in before.items():
        assert getattr(importlib.import_module(m), a) is fn, f"{m}.{a}"
