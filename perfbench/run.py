"""Benchmark for risrates: one workload, run through `risrates.cli.main`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

The run is a closed loop with one client: jobs run one after another in
this process, and the workload's job list repeats until `--seconds` have
passed. Set-up is measured in fresh interpreters (see probe.py).
Every output cell is checked against goldens.json. With `--trace 1`,
traced and untraced passes alternate and the per-layer metrics come from
the traced ones. Human-readable lines go to stdout; the last line is the
JSON result whose metric names and units come from BENCHMARK.json; the
exit status is 1 if any job failed. A report and the span log are written
to .perfbench_out/, inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 15  # at least this many per run
PROBES_PER_PASS = 2
PROBE_TIMEOUT_S = 60

UNITS = {
    "setup_s": "s", "wall_s": "s", "rr_trials_per_s": "trials/s",
    "ho_trials_per_s": "trials/s", "load_sessions_per_s": "sessions/s",
    "peak_rss_mib": "MiB", "error_rate": "ratio",
    "rr_parity_max_abs": "probability", "rr_seed_range": "probability",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class JobResult:
    job: workloads.Job
    seconds: float
    problems: list[str] = field(default_factory=list)
    table: Optional[check.Table] = None


# ---------------------------------------------------------------------------
# set-up


def setup_probe(configs: tuple[Path, ...]) -> dict:
    """One set-up probe in a fresh interpreter; its record gains the wall
    time from process start to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *map(str, configs)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["wall_s"] = wall
    return record


def import_cli():
    sys.path.insert(0, str(SRC))
    from risrates import cli
    if SRC not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"risrates was imported from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# jobs and passes


def run_job(cli, job: workloads.Job, out: Path, golden: Optional[dict],
            at_default_seed: bool,
            tracer: Optional[spans.Tracer] = None) -> JobResult:
    span = tracer.open("cli.main") if tracer else None
    t0 = time.perf_counter()
    try:
        status = cli.main([*job.argv, "--out", str(out)])
    except SystemExit as exc:  # argparse rejected the argv
        status = f"exit {exc.code}"
    except Exception:  # a job's crash is one failure; the run goes on
        status = traceback.format_exc(limit=-3).strip()
    finally:
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
    result = JobResult(job, seconds)
    if status != 0:
        result.problems.append(f"status {status}")
    elif golden is None:
        result.problems.append("no golden recorded for this job")
    else:
        try:
            result.table = check.read_output(out, job.trace_text)
        except (OSError, ValueError) as exc:
            result.problems.append(f"unreadable output: {exc}")
        else:
            result.problems += check.compare(
                job.cells, (golden["header"], golden["rows"]), result.table,
                at_default_seed)
    output_bytes = 0
    for path in (out, Path(f"{out}.manifest.json")):
        if path.exists():
            output_bytes += path.stat().st_size
            path.unlink()
    if tracer:
        tracer.spans[span].counts["output_bytes"] = output_bytes
    return result


def run_pass(cli, workload: workloads.Workload, tmp: Path, goldens: dict,
             seed: int, tracer: Optional[spans.Tracer] = None
             ) -> list[JobResult]:
    at_default = seed == workloads.DEFAULT_SEED
    results = [run_job(cli, job, tmp / f"job{i}.out", goldens.get(job.name),
                       at_default, tracer)
               for i, job in enumerate(workload.jobs)]
    check_seed_range(results)
    return results


def run_passes(cli, workload: workloads.Workload, tmp: Path, goldens: dict,
               seed: int, seconds: float, trace: bool):
    """Untraced passes, alternating with traced ones when `trace` is set.
    After at least one pass of each kind, no pass starts that would end
    past `seconds`, judged by the length of the pass before it. Set-up
    probes run before each pass, so set-up and job times are sampled over
    the same stretch of time; the list is topped up to SETUP_PROBES."""
    untraced: list[list[JobResult]] = []
    traced: list[tuple[list[JobResult], spans.Tracer]] = []
    setup: list[dict] = []
    start = time.perf_counter()
    while True:
        setup += [setup_probe(workload.configs)
                  for _ in range(PROBES_PER_PASS)]
        t0 = time.perf_counter()
        if trace and len(traced) < len(untraced):
            tracer = spans.Tracer()
            with spans.instrument(tracer):
                traced.append((run_pass(cli, workload, tmp, goldens, seed,
                                        tracer), tracer))
        else:
            untraced.append(run_pass(cli, workload, tmp, goldens, seed))
        now = time.perf_counter()
        if (traced or not trace) and now - start + (now - t0) > seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload.configs))
    return setup, untraced, traced


# ---------------------------------------------------------------------------
# metrics


def job_medians(passes: list[list[JobResult]]) -> dict[str, float]:
    """Median wall time of each job over the passes."""
    return {r.job.name: statistics.median(p[i].seconds for p in passes)
            for i, r in enumerate(passes[0])}


def _per_second(jobs: tuple[workloads.Job, ...], medians: dict[str, float],
                attr: str) -> Optional[float]:
    """Work `attr` summed over the jobs that do it, per second of their
    median wall time; None if no job does it."""
    jobs = [j for j in jobs if getattr(j, attr)]
    if not jobs:
        return None
    return (sum(getattr(j, attr) for j in jobs)
            / sum(medians[j.name] for j in jobs))


def _p_rr(results: list[JobResult], name: str) -> Optional[float]:
    for r in results:
        if r.job.name == name and r.table is not None:
            return float(dict((row[0], row[1]) for row in r.table[1])["p_rr"])
    return None


SEED_JOBS = tuple(f"analytic/table3-static-obstacle{suffix}"
                  for suffix in ("", "/seed+1", "/seed+2"))


def rr_parity(results: list[JobResult]) -> Optional[float]:
    """Largest |analytic p_rr - reference MC| over the table3 configs; None
    where the workload has no such jobs or they failed."""
    analytic = [_p_rr(results, f"analytic/{n}") for n in workloads.TABLE3]
    if None in analytic:
        return None
    return max(abs(p - workloads.REFERENCE[n]["mean"])
               for n, p in zip(workloads.TABLE3, analytic))


def rr_seed_range(results: list[JobResult]) -> Optional[float]:
    """Spread of analytic p_rr on table3-static-obstacle over three seeds;
    None where the workload has no such jobs or they failed."""
    seeds = [_p_rr(results, name) for name in SEED_JOBS]
    return max(seeds) - min(seeds) if None not in seeds else None


def check_seed_range(results: list[JobResult]) -> None:
    """Fail the last seed job of a pass whose seed spread is too wide."""
    spread = rr_seed_range(results)
    if spread is not None and spread > check.SEED_RANGE_MAX:
        last = next(r for r in results if r.job.name == SEED_JOBS[-1])
        last.problems.append(f"rr_seed_range {spread:.3g} > "
                             f"{check.SEED_RANGE_MAX:g}")


def end_to_end(jobs: tuple[workloads.Job, ...], setup: list[dict],
               untraced: list[list[JobResult]], failed: int, attempted: int
               ) -> dict[str, Optional[float]]:
    medians = job_medians(untraced)
    return {
        "setup_s": statistics.median(r["wall_s"] for r in setup),
        "wall_s": sum(medians.values()),
        "rr_trials_per_s": _per_second(jobs, medians, "rr_trials"),
        "ho_trials_per_s": _per_second(jobs, medians, "ho_trials"),
        "load_sessions_per_s": _per_second(jobs, medians, "sessions"),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": failed / attempted,
        "rr_parity_max_abs": rr_parity(untraced[0]),
        "rr_seed_range": rr_seed_range(untraced[0]),
    }


def per_layer(setup: list[dict], untraced: list[list[JobResult]],
              traced: list[tuple[list[JobResult], spans.Tracer]]
              ) -> dict[str, float]:
    m = spans.median_metrics([spans.layer_metrics(t.spans)
                              for _, t in traced])
    m["process.import_s"] = statistics.median(r["import_s"] for r in setup)
    m["trace_overhead_s"] = (sum(job_medians([p for p, _ in traced]).values())
                             - sum(job_medians(untraced).values()))
    return m


# ---------------------------------------------------------------------------
# run facts and output


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    """HEAD of the checkout; None when it is not a git repository (the
    search for one stops at the checkout's root) or git is missing."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_facts() -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "platform": platform.platform(),
    }


def contract_metrics(spec: dict, values: dict, section: str) -> dict:
    """The metrics BENCHMARK.json lists in `section`, with its units."""
    out = {}
    for entry in spec[section]:
        value = values[entry["name"]]
        if value is None:
            raise BenchError(f"{entry['name']} does not apply to this workload")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "risrates" / "__init__.py").is_file():
        print(f"error: no risrates sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
            workload = workloads.build(args.workload, args.seed, Path(tmp))
            cli = import_cli()
            setup, untraced, traced = run_passes(
                cli, workload, Path(tmp), goldens, args.seed, args.seconds,
                bool(args.trace))
        results = [r for p in untraced for r in p]
        results += [r for p, _ in traced for r in p]
        failed = sum(1 for r in results if r.problems)
        e2e = end_to_end(workload.jobs, setup, untraced, failed, len(results))
        layers = per_layer(setup, untraced, traced) if args.trace else {}
        metrics = contract_metrics(spec, layers if args.trace else e2e,
                                   "per_layer" if args.trace else "end_to_end")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    facts = run_facts()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    problems = [f"{r.job.name}: {p}" for r in results for p in r.problems]
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} "
          f"untraced and {len(traced)} traced passes, {len(results)} jobs, "
          f"{failed} failed")
    print(f"facts {json.dumps(facts)}")
    for name, value in e2e.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"metric {name} {shown} {UNITS[name]}")
    if args.trace:
        for name, m in metrics.items():
            print(f"layer {name} {m['value']:.6g} {m['unit']}")

    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    report = {"workload": args.workload, "why": why,
              "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "facts": facts, "end_to_end": e2e,
              "per_layer": layers,
              "setup_probes": setup,
              "job_median_s": job_medians(untraced), "problems": problems}
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n",
                                     encoding="utf-8")
    if traced:
        (OUT / f"{tag}-spans.json").write_text(
            json.dumps([t.as_records() for _, t in traced]) + "\n",
            encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
