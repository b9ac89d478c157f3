"""Record the benchmark's expected outputs. Run once, on a commit whose
outputs are accepted, from the root of a checkout:

    python3 perfbench/record.py goldens    # every job's cells, default seed
    python3 perfbench/record.py reference  # large-Z estimate_rr per table3

goldens.json maps job name to the header and rows of its output at
workloads.DEFAULT_SEED. reference.json holds, per table3 config, an
estimate_rr value with standard error <= 3e-4, with its Z and seed, and
the same for each row of the room-analytic theta sweep. It checks and
scores the analytic known-room p_rr (rr_parity_max_abs) and is never
recomputed during a run.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE_Z = 4_000_000
REFERENCE_SEED = 20240725


def record_goldens() -> dict:
    from risrates import cli
    goldens = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.NAMES:
            workload = workloads.build(name, workloads.DEFAULT_SEED, Path(tmp))
            for job in workload.jobs:
                out = Path(tmp) / "job.out"
                if cli.main([*job.argv, "--out", str(out)]) != 0:
                    raise SystemExit(f"{job.name} failed")
                header, rows = check.read_output(out, job.trace_text)
                goldens[job.name] = {"header": header, "rows": rows}
    return goldens


def _estimate(raw: dict) -> dict:
    from risrates import parse_config
    from risrates.montecarlo import estimate_rr
    scene = parse_config(raw).scenario
    est = estimate_rr(scene, scene.mobility, Z=REFERENCE_Z,
                      seed=REFERENCE_SEED)
    return {"mean": est.mean, "stderr": est.stderr, "trials": est.trials,
            "seed": est.seed}


def record_reference() -> dict:
    def raw(name: str) -> dict:
        path = workloads.CONFIGS / f"{name}.json"
        return json.loads(path.read_text(encoding="utf-8"))

    reference = {name: _estimate(raw(name)) for name in workloads.TABLE3}
    sweep = {}
    for theta in workloads.THETA_VALUES:
        variant = raw(workloads.THETA_CONFIG)
        variant["self_block"]["theta_deg"] = float(theta)
        sweep[theta] = _estimate(variant)
    reference[workloads.THETA_SWEEP] = sweep
    return reference


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(workloads.ROOT / "src"))
    what = argv[0] if argv else ""
    if what == "goldens":
        data = record_goldens()
    elif what == "reference":
        data = record_reference()
    else:
        print(__doc__, file=sys.stderr)
        return 2
    (HERE / f"{what}.json").write_text(json.dumps(data, indent=1) + "\n",
                                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
