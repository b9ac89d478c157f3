"""The benchmark's three workloads, as lists of risrates CLI jobs.

A job is the argv of one `risrates.cli.main` call (without `--out`) plus the
rules that say how each cell of its output is checked against the golden.
Job names do not depend on the seed, so one golden file serves every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import check

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "src" / "risrates" / "configs"
TABLE3 = ("table3-static-noobstacle", "table3-static-obstacle",
          "table3-static-selfblock", "table3-uniform-noobstacle",
          "table3-uniform-obstacle", "table3-uniform-selfblock")
UNKNOWN = ("table4-unknown", "mobility-dip", "obstacle-density",
           "dimensioning-speed10", "dimensioning-speed15")
THETA_CONFIG = "table3-static-selfblock"
THETA_SWEEP = f"sweep-theta/{THETA_CONFIG}"
THETA_VALUES = ("20", "30", "40", "50", "60")
DEFAULT_SEED = 0
# Large-Z estimate_rr per table3 config and per theta-sweep row (record.py)
REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json")
                       .read_text(encoding="utf-8"))

ROOM_MC_TRIALS = 500_000
RR_SWEEP_TRIALS = 200_000
HO_SWEEP_TRIALS = 2_000_000
DIP_TRIALS = 100_000
HO_TRIALS = 4_000_000
LOAD_DURATION = 100_000.0

# Cell rules, keyed by CSV column name or by the `quantity` of a row; a key
# ending in "*" matches every quantity with that prefix. Unlisted cells must
# match the golden exactly.
COUNT = ("count",)  # Poisson count, 4 combined standard errors


def p_rr_known(config: str, means: dict[str, float]) -> tuple:
    """Known-room closed-form p_rr, seed-dependent and, with uniform
    mobility, off by the room defect of ROADMAP item 1: it must lie near the
    reference Monte Carlo mean of its row, keyed by the row's first cell."""
    static = config.startswith("table3-static-")
    return ("p_rr_known", means,
            check.P_RR_TOL_STATIC if static else check.P_RR_TOL)


def mc(trials: int) -> tuple:
    """Monte Carlo probability over `trials` trials."""
    return ("mc", trials)


def mc_stderr(trials: int, mean_row: str) -> tuple:
    """Standard error row; must equal sqrt(p(1-p)/trials) of `mean_row`."""
    return ("mc_stderr", trials, mean_row)


def rate(duration: float) -> tuple:
    """Per-second participation rate of a load simulation over `duration`."""
    return ("rate", duration)


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    cells: dict = field(default_factory=dict)
    trace_text: bool = False  # output is a `protocol` text trace, not CSV
    rr_trials: int = 0
    ho_trials: int = 0
    sessions: float = 0.0     # expected sessions: sum of rates * duration


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    configs: tuple[Path, ...]  # parsed by the set-up probe


def _cfg(name: str) -> Path:
    return CONFIGS / f"{name}.json"


def _known_p_rr(name: str, config: str, seed: int) -> Job:
    return Job(name, ("analytic", "--config", str(_cfg(config)),
                      "--seed", str(seed)),
               cells={"p_rr": p_rr_known(config,
                                         {"p_rr": REFERENCE[config]["mean"]})})


def room_analytic(seed: int) -> Workload:
    jobs = [_known_p_rr(f"analytic/{n}", n, seed) for n in TABLE3]
    jobs += [_known_p_rr(f"analytic/table3-static-obstacle/seed+{k}",
                         "table3-static-obstacle", seed + k)
             for k in (1, 2)]
    means = {v: REFERENCE[THETA_SWEEP][v]["mean"] for v in THETA_VALUES}
    jobs.append(Job(THETA_SWEEP,
                    ("sweep", "--config", str(_cfg(THETA_CONFIG)),
                     "--var", "theta", "--values", ",".join(THETA_VALUES),
                     "--outputs", "p_rr", "--seed", str(seed)),
                    cells={"p_rr": p_rr_known(THETA_CONFIG, means)}))
    return Workload(tuple(jobs),
                    tuple(_cfg(n) for n in TABLE3))


def room_montecarlo(seed: int) -> Workload:
    jobs = [Job(f"simulate/{n}",
                ("simulate", "--config", str(_cfg(n)),
                 "--trials", str(ROOM_MC_TRIALS), "--seed", str(seed)),
                cells={"mc_rr": mc(ROOM_MC_TRIALS),
                       "stderr": mc_stderr(ROOM_MC_TRIALS, "mc_rr")},
                rr_trials=ROOM_MC_TRIALS)
            for n in TABLE3]
    values = "0.05,0.1,0.2,0.4,0.8"
    jobs.append(Job("sweep-lambda_RIS/table3-static-obstacle",
                    ("sweep", "--config", str(_cfg("table3-static-obstacle")),
                     "--var", "lambda_RIS", "--values", values,
                     "--outputs", "mc_rr", "--trials", str(RR_SWEEP_TRIALS),
                     "--seed", str(seed)),
                    cells={"mc_rr": mc(RR_SWEEP_TRIALS)},
                    rr_trials=RR_SWEEP_TRIALS * len(values.split(","))))
    return Workload(tuple(jobs),
                    tuple(_cfg(n) for n in TABLE3))


def generated_config(path: Path) -> Path:
    """Write table4-unknown with speed U(0.5, 15) and angle U(0, 180 deg):
    both laws spread, so the marginals run the nested adaptive Simpson."""
    raw = json.loads(_cfg("table4-unknown").read_text(encoding="utf-8"))
    raw["mobility"] = {
        "speed": {"kind": "uniform", "low": 0.5, "high": 15.0},
        "angle_deg": {"kind": "uniform", "low": 0.0, "high": 180.0},
    }
    path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    return path


def expected_sessions(sgw_rates, rism_rates, duration: float) -> float:
    """Expected sessions of a load simulation: sum of rates * duration."""
    return (sum(sgw_rates) + sum(rism_rates)) * duration


def unknown_rates(seed: int, tmp: Path) -> Workload:
    generated = generated_config(tmp / "generated.json")
    jobs = [Job(f"analytic/{n}", ("analytic", "--config", str(_cfg(n)),
                                  "--seed", str(seed)))
            for n in UNKNOWN]
    jobs += [Job(f"dimension/{n}/{kind}",
                 ("dimension", "--config", str(_cfg(n)), "--threshold", "55",
                  "--kind", kind))
             for n in ("dimensioning-speed10", "dimensioning-speed15")
             for kind in ("rism", "sgw")]
    density = "10,100,1000,10000,100000"  # per-km2, the config's unit
    jobs.append(Job("sweep-lambda_B/obstacle-density",
                    ("sweep", "--config", str(_cfg("obstacle-density")),
                     "--var", "lambda_B", "--values", density,
                     "--outputs", "p_ho,e_gamma,mc_ho",
                     "--trials", str(HO_SWEEP_TRIALS), "--seed", str(seed)),
                    cells={"mc_ho": mc(HO_SWEEP_TRIALS)},
                    ho_trials=HO_SWEEP_TRIALS * len(density.split(","))))
    displacements = ",".join(str(d) for d in range(1, 11))
    jobs.append(Job("sweep-d_U/mobility-dip",
                    ("sweep", "--config", str(_cfg("mobility-dip")),
                     "--var", "d_U", "--values", displacements,
                     "--outputs", "p_ho,mc_ho", "--trials", str(DIP_TRIALS),
                     "--seed", str(seed)),
                    cells={"mc_ho": mc(DIP_TRIALS)},
                    ho_trials=DIP_TRIALS * 10))
    jobs.append(Job("simulate/table4-unknown",
                    ("simulate", "--config", str(_cfg("table4-unknown")),
                     "--trials", str(HO_TRIALS), "--seed", str(seed)),
                    cells={"mc_ho": mc(HO_TRIALS),
                           "stderr": mc_stderr(HO_TRIALS, "mc_ho")},
                    ho_trials=HO_TRIALS))
    sig = json.loads(_cfg("table4-unknown").read_text(encoding="utf-8"))[
        "signaling"]
    sessions = expected_sessions(sig["sgw_rates"], sig["rism_rates"],
                                 LOAD_DURATION)
    for mode in ("x2", "s1"):
        jobs.append(Job(f"simulate-load/table4-unknown/{mode}",
                        ("simulate", "--config", str(_cfg("table4-unknown")),
                         "--duration", f"{LOAD_DURATION:g}", "--mode", mode,
                         "--seed", str(seed)),
                        cells={"rr_initiations": COUNT,
                               "ho_initiations": COUNT,
                               "rate_*": rate(LOAD_DURATION)},
                        sessions=sessions))
    jobs.append(Job("protocol/rr", ("protocol", "--kind", "rr"),
                    trace_text=True))
    jobs.append(Job("protocol/ho-s1", ("protocol", "--kind", "ho",
                                       "--mode", "s1"), trace_text=True))
    jobs.append(Job("analytic/generated", ("analytic", "--config",
                                           str(generated), "--seed", str(seed))))
    return Workload(tuple(jobs),
                    tuple(_cfg(n) for n in UNKNOWN) + (generated,))


NAMES = ("room-analytic", "room-montecarlo", "unknown-rates")


def build(name: str, seed: int, tmp: Path) -> Workload:
    """The named workload at seed `seed`; generated inputs go into `tmp`."""
    if name == "room-analytic":
        return room_analytic(seed)
    if name == "room-montecarlo":
        return room_montecarlo(seed)
    if name == "unknown-rates":
        return unknown_rates(seed, tmp)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
