"""Golden CLI outputs: the data-file bytes of every subcommand on the packaged
configs, and on two of them with both mobility laws spread, compared exactly
against tests/goldens/cli.json.

This is the gate for refactors: a change that is meant to leave every value
and every draw alone must keep these bytes. Re-record the goldens (only for
a change that is meant to move values, and say so in CHANGES.md) with

    PYTHONPATH=src python3 tests/test_goldens.py
"""

import json
import sys
import tempfile
from pathlib import Path

from risrates.cli import main
from risrates.config import packaged_config_path

GOLDENS = Path(__file__).with_name("goldens") / "cli.json"

KNOWN = ["table3-static-noobstacle", "table3-static-obstacle",
         "table3-static-selfblock", "table3-uniform-noobstacle",
         "table3-uniform-obstacle", "table3-uniform-selfblock"]
SIGNALING = ["table4-unknown", "mobility-dip", "obstacle-density",
             "dimensioning-speed10", "dimensioning-speed15"]
# No packaged config spreads both laws, so these variants cover per-trial
# law draws and Poisson means, and the nested marginal quadrature.
SPREAD = {
    "spread-unknown": ("table4-unknown", (0.5, 15.0), (0.0, 180.0)),
    "spread-room": ("table3-uniform-obstacle", (1.0, 2.5), (20.0, 70.0)),
}


def _cases() -> dict[str, list[str]]:
    """Case name -> argv without --out; a config name is given in place of
    its path and resolved at run time."""
    cases = {}
    for name in KNOWN + SIGNALING:
        cases[f"analytic/{name}"] = ["analytic", "--config", name]
        cases[f"simulate/{name}"] = ["simulate", "--config", name,
                                     "--trials", "20000", "--seed", "0"]
    for name in SIGNALING:
        for mode in ("x2", "s1"):
            cases[f"load-{mode}/{name}"] = [
                "simulate", "--config", name, "--duration", "100",
                "--seed", "0", "--mode", mode]
        for kind in ("rism", "sgw"):
            cases[f"dimension-{kind}/{name}"] = [
                "dimension", "--config", name, "--threshold", "50",
                "--kind", kind]
    for name in SPREAD:
        cases[f"simulate/{name}"] = ["simulate", "--config", name,
                                     "--trials", "20000", "--seed", "0"]
    cases["analytic/spread-unknown"] = ["analytic", "--config",
                                        "spread-unknown"]
    cases["load-x2/spread-unknown"] = ["simulate", "--config",
                                       "spread-unknown", "--duration", "100",
                                       "--seed", "0"]
    cases["protocol/rr"] = ["protocol", "--kind", "rr"]
    for mode in ("x2", "s1"):
        cases[f"protocol/ho-{mode}"] = ["protocol", "--kind", "ho",
                                        "--mode", mode]
    sweeps = {
        # mc_rr across the mean-60 branch of the Poisson sampler
        "sweep/lambda_RIS": ("table3-static-obstacle", "lambda_RIS",
                             "0.05,0.8", "p_rr,mc_rr"),
        # every unknown-environment output, mc_ho included
        "sweep/lambda_eNB": ("table4-unknown", "lambda_eNB",
                             "0.0005,0.03,2",
                             "p_rr,p_ho,e_rr,e_ho,e_gamma,mc_ho"),
        "sweep/lambda_B": ("obstacle-density", "lambda_B", "100,2000",
                           "p_ho,mc_ho"),
        "sweep/theta": ("table3-uniform-selfblock", "theta", "45,120",
                        "p_rr,mc_rr"),
        "sweep/N_SGW": ("table4-unknown", "N_SGW", "1,3", "e_ho,e_gamma"),
        # d_U = 5 leaves the wall shadow: a nan row
        "sweep/d_U": ("table3-static-noobstacle", "d_U", "1,2,3,4,5",
                      "p_rr,mc_rr"),
    }
    for case, (name, var, values, outputs) in sweeps.items():
        cases[case] = ["sweep", "--config", name, "--var", var,
                       "--values", values, "--outputs", outputs,
                       "--trials", "5000", "--seed", "0"]
    return cases


def _config_path(name: str, tmp: Path) -> str:
    if name not in SPREAD:
        return str(packaged_config_path(name))
    base, speed, angle = SPREAD[name]
    raw = json.loads(packaged_config_path(base).read_text(encoding="utf-8"))
    raw["mobility"] = {
        "speed": {"kind": "uniform", "low": speed[0], "high": speed[1]},
        "angle_deg": {"kind": "uniform", "low": angle[0], "high": angle[1]},
    }
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def _run(argv: list[str], tmp: Path) -> str:
    argv = [_config_path(a, tmp) if prev == "--config" else a
            for prev, a in zip([""] + argv, argv)]
    out = tmp / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0, argv
    return out.read_bytes().decode("utf-8")


def _record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        goldens = {case: _run(argv, Path(tmp))
                   for case, argv in _cases().items()}
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


def test_cli_outputs_match_goldens(tmp_path):
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    cases = _cases()
    assert sorted(cases) == sorted(goldens)
    mismatched = [case for case, argv in cases.items()
                  if _run(argv, tmp_path) != goldens[case]]
    assert not mismatched, mismatched


if __name__ == "__main__":
    _record()
    sys.exit(0)
