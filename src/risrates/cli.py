"""Command-line front end.

Subcommands:
  analytic   closed-form probabilities and rates for one config
  simulate   Monte Carlo estimate (or event-driven load run with --duration)
  sweep      one variable over a value list, selected outputs as CSV columns
  dimension  minimal server count for a load threshold
  protocol   export a signaling sequence as a text trace

Data files are CSV: comma separator, one header line, LF endings, UTF-8,
numbers at 9 significant digits. Run metadata (config digest, seed, version,
timestamp; for Monte Carlo runs the threads and shards used) goes to a
sidecar <out>.manifest.json, never into the data file, so reruns with the
same seed are byte-identical. Exit codes: 0 on success, 1 when the reader
of stdout stops early, 2 on config or argument errors, 3 on geometry
failures. A sweep cell whose value lies outside its formula's domain reads
nan and is listed under "failed" in the manifest; the sweep exits 3 only
when no cell has a value.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import __version__
from .analytic import (class_load, dimension_servers, ho_rate,
                       marginal_p_ho, marginal_p_rr_unknown, p_rr_marginal,
                       rr_rate, signaling_rate)
from .config import ConfigError, LoadedConfig, load_config, parse_config
from .geometry import GeometryDomainError
from .montecarlo import Estimate, estimate_ho, estimate_rr, run_record
from .protocol import export_trace, ho_sequence, rr_sequence, simulate_load
from .scenarios import ScenarioKnown, ScenarioUnknown

SWEEP_VARS = ("lambda_RIS", "lambda_eNB", "lambda_B", "d_U", "theta",
              "N_RISM", "N_SGW")
SWEEP_OUTPUTS = ("p_rr", "p_ho", "e_rr", "e_ho", "e_gamma", "mc_rr", "mc_ho")
MC_OUTPUTS = ("mc_rr", "mc_ho")  # each followed by an <output>_stderr column


def fmt9(x: float) -> str:
    """Canonical number rendering for data files: 9 significant digits."""
    return format(float(x), ".9g")


def write_csv(path: Path, header: Sequence[str],
              rows: Sequence[Sequence[str]]) -> None:
    path.write_bytes(render_csv(header, rows).encode("utf-8"))


def render_csv(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Inverse of write_csv: re-rendering the result is byte-identical."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    return rows[0], rows[1:]


def _manifest(cfg: Optional[LoadedConfig], seed: Optional[int]) -> dict:
    return {
        "tool": "risrates",
        "version": __version__,
        "config": cfg.name if cfg else None,
        "config_sha256": cfg.digest if cfg else None,
        "seed": seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }


def _deliver(text: str, out: Optional[str], manifest: dict) -> int:
    """Write the data file plus manifest sidecar, or print both. A failure
    while writing removes whatever was partially produced."""
    if out is None:
        sys.stdout.write(text)
        sys.stdout.write("--- manifest ---\n")
        sys.stdout.write(json.dumps(manifest, indent=2) + "\n")
        return 0
    path = Path(out)
    sidecar = Path(str(out) + ".manifest.json")
    try:
        path.write_bytes(text.encode("utf-8"))
        sidecar.write_bytes((json.dumps(manifest, indent=2) + "\n")
                            .encode("utf-8"))
    except BaseException:
        sidecar.unlink(missing_ok=True)
        path.unlink(missing_ok=True)
        raise
    return 0


# ---------------------------------------------------------------------------
# analytic


def _analytic_rows(cfg: LoadedConfig) -> list[tuple[str, float]]:
    if isinstance(cfg.scenario, ScenarioKnown):
        scene = cfg.scenario
        return [("p_rr", p_rr_marginal(scene, scene.mobility))]
    s = cfg.scenario
    rows = [("p_rr", marginal_p_rr_unknown(s)), ("p_ho", marginal_p_ho(s))]
    if cfg.signaling is not None:
        report = signaling_rate(s, cfg.signaling)
        rows += [("e_rr", report.e_rr), ("e_ho", report.e_ho),
                 ("e_sb", report.e_sb), ("e_so", report.e_so),
                 ("e_gamma", report.e_gamma),
                 ("e_gamma_expanded", report.e_gamma_expanded)]
    return rows


def cmd_analytic(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    rows = _analytic_rows(cfg)
    text = render_csv(("quantity", "value"),
                      [(k, fmt9(v)) for k, v in rows])
    return _deliver(text, args.out, _manifest(cfg, args.seed))


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.duration is not None:
        if not isinstance(cfg.scenario, ScenarioUnknown):
            raise ConfigError("load simulation needs an 'unknown' config")
        if cfg.signaling is None:
            raise ConfigError("load simulation needs a 'signaling' section")
        result = simulate_load(cfg.scenario, cfg.signaling, args.duration,
                               seed=args.seed, ho_mode=args.mode)
        rows = [("duration", fmt9(result.duration)),
                ("rr_initiations", str(result.rr_initiations)),
                ("ho_initiations", str(result.ho_initiations))]
        rows += [(f"rate_{kind}", fmt9(rate))
                 for kind, rate in result.entity_rates.items()]
        text = render_csv(("quantity", "value"), rows)
        return _deliver(text, args.out, _manifest(cfg, args.seed))

    kind = args.kind
    if isinstance(cfg.scenario, ScenarioKnown):
        if kind not in (None, "rr"):
            raise ConfigError("a 'known' config only supports --kind rr")
        est = estimate_rr(cfg.scenario, cfg.scenario.mobility,
                          Z=args.trials, seed=args.seed)
        label = "rr"
    else:
        if kind not in (None, "ho"):
            raise ConfigError("an 'unknown' config only supports --kind ho")
        est = estimate_ho(cfg.scenario, cfg.scenario.mobility,
                          Z=args.trials, seed=args.seed)
        label = "ho"
    text = render_csv(("quantity", "value"),
                      [(f"mc_{label}", fmt9(est.mean)),
                       ("stderr", fmt9(est.stderr)),
                       ("trials", str(est.trials))])
    manifest = _manifest(cfg, args.seed)
    manifest.update(run_record(label, args.trials))
    return _deliver(text, args.out, manifest)


# ---------------------------------------------------------------------------
# sweep


def _parse_values(spec: str) -> list[float]:
    try:
        values = [float(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"--values: not a number list: {spec!r}") from None
    if len(values) < 2:
        raise ConfigError("--values: need at least two values")
    diffs = [b - a for a, b in zip(values, values[1:])]
    if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise ConfigError("--values: must be strictly monotone")
    return values


def _apply_sweep_var(cfg: LoadedConfig, var: str, value: float) -> LoadedConfig:
    """Return the config with one variable replaced, by editing the raw dict
    and re-parsing so every validation reruns. Densities take the unit the
    config file declares; theta is in degrees; d_U replaces the speed law."""
    raw = json.loads(json.dumps(cfg.raw))
    if var in ("lambda_RIS", "lambda_eNB"):
        if var not in raw:
            raise ConfigError(f"config has no {var} to sweep")
        raw[var]["value"] = value
    elif var == "lambda_B":
        if cfg.kind != "unknown":
            raise ConfigError("lambda_B only applies to 'unknown' configs")
        raw["obstacles"]["lambda_B"]["value"] = value
    elif var == "d_U":
        raw["mobility"]["speed"] = {"kind": "deterministic", "value": value}
    elif var == "theta":
        if raw.get("self_block") is None:
            raise ConfigError("config has no self_block to sweep theta over")
        raw["self_block"]["theta_deg"] = value
    elif var in ("N_RISM", "N_SGW"):
        if raw.get("signaling") is None:
            raise ConfigError("config has no signaling section to sweep")
        n = int(value)
        if n < 1 or n != value:
            raise ConfigError(f"{var} values must be positive integers")
        key = "rism_rates" if var == "N_RISM" else "sgw_rates"
        total = sum(raw["signaling"][key])
        raw["signaling"][key] = [total / n] * n
    else:
        raise ConfigError(f"unknown sweep variable {var!r}")
    return parse_config(raw, name=cfg.name)


def _sweep_output_fn(cfg: LoadedConfig, output: str, trials: int,
                     ) -> Callable[[LoadedConfig, int], float | Estimate]:
    known = cfg.kind == "known"

    def need_unknown() -> None:
        if known:
            raise ConfigError(f"output {output!r} needs an 'unknown' config")

    def need_signaling(c: LoadedConfig) -> None:
        if c.signaling is None:
            raise ConfigError(f"output {output!r} needs a 'signaling' section")

    if output == "p_rr":
        if known:
            return lambda c, seed: p_rr_marginal(c.scenario,
                                                 c.scenario.mobility)
        return lambda c, seed: marginal_p_rr_unknown(c.scenario)
    if output == "p_ho":
        need_unknown()
        return lambda c, seed: marginal_p_ho(c.scenario)
    if output == "e_rr":
        need_unknown()
        need_signaling(cfg)
        return lambda c, seed: rr_rate(c.scenario, c.signaling)
    if output == "e_ho":
        need_unknown()
        need_signaling(cfg)
        return lambda c, seed: ho_rate(c.scenario, c.signaling)
    if output == "e_gamma":
        need_unknown()
        need_signaling(cfg)
        return lambda c, seed: signaling_rate(c.scenario, c.signaling).e_gamma
    if output == "mc_rr":
        if not known:
            raise ConfigError("output 'mc_rr' needs a 'known' config")
        return lambda c, seed: estimate_rr(c.scenario, c.scenario.mobility,
                                           Z=trials, seed=seed)
    if output == "mc_ho":
        need_unknown()
        return lambda c, seed: estimate_ho(c.scenario, c.scenario.mobility,
                                           Z=trials, seed=seed)
    raise ConfigError(f"unknown output {output!r}; choose from "
                      f"{', '.join(SWEEP_OUTPUTS)}")


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    values = _parse_values(args.values)
    outputs = [tok.strip() for tok in args.outputs.split(",") if tok.strip()]
    if not outputs:
        raise ConfigError("--outputs: need at least one output")
    fns = [_sweep_output_fn(cfg, out, args.trials) for out in outputs]
    header = [args.var]
    for out in outputs:
        header += [out, f"{out}_stderr"] if out in MC_OUTPUTS else [out]
    rows = []
    failed = []
    estimates = 0
    for i, v in enumerate(values):
        variant = _apply_sweep_var(cfg, args.var, v)
        row = [fmt9(v)]
        for out, fn in zip(outputs, fns):
            try:
                result = fn(variant, args.seed + i)
            except GeometryDomainError as exc:
                # out of the formula's domain at this value: the cell reads
                # nan, the manifest says why, and the other rows still run
                error = exc
                failed.append({"value": v, "output": out, "reason": str(exc)})
                row += ["nan"] * (2 if out in MC_OUTPUTS else 1)
                continue
            if isinstance(result, Estimate):
                estimates += 1
                row += [fmt9(result.mean), fmt9(result.stderr)]
            else:
                row.append(fmt9(result))
        rows.append(row)
    if len(failed) == len(values) * len(outputs):
        raise error  # not one cell has a value
    manifest = _manifest(cfg, args.seed)
    manifest["failed"] = failed
    mc = [out for out in outputs if out in MC_OUTPUTS]
    if mc:  # one kind only: mc_rr needs a known config, mc_ho an unknown
        manifest.update(run_record(mc[0].removeprefix("mc_"), args.trials,
                                   estimates))
    return _deliver(render_csv(header, rows), args.out, manifest)


# ---------------------------------------------------------------------------
# dimension


def cmd_dimension(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if not isinstance(cfg.scenario, ScenarioUnknown):
        raise ConfigError("dimensioning needs an 'unknown' config")
    if cfg.signaling is None:
        raise ConfigError("dimensioning needs a 'signaling' section")
    load = class_load(cfg.scenario, cfg.signaling, args.kind)
    n = dimension_servers(args.threshold, cfg.scenario, cfg.signaling,
                          args.kind)
    text = render_csv(("quantity", "value"),
                      [("class_load", fmt9(load)),
                       ("threshold", fmt9(args.threshold)),
                       ("servers", str(n)),
                       ("per_server_load", fmt9(load / n))])
    return _deliver(text, args.out, _manifest(cfg, None))


# ---------------------------------------------------------------------------
# protocol


def cmd_protocol(args: argparse.Namespace) -> int:
    template = rr_sequence() if args.kind == "rr" else ho_sequence(args.mode)
    text = export_trace(template)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    path = Path(args.out)
    try:
        path.write_bytes(text.encode("utf-8"))
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risrates",
        description="Signaling-rate analysis for RIS-assisted networks.")
    parser.add_argument("--version", action="version",
                        version=f"risrates {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form probabilities and rates")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the manifest; the closed forms do not "
                        "depend on it")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="Monte Carlo estimate or load run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--kind", choices=("rr", "ho"), default=None,
                   help="defaults to rr for known rooms, ho otherwise")
    p.add_argument("--duration", type=float, default=None,
                   help="run the event-driven load simulation instead")
    p.add_argument("--mode", choices=("x2", "s1"), default="x2",
                   help="handover variant for the load simulation")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="sweep one variable, CSV output")
    p.add_argument("--config", required=True)
    p.add_argument("--var", required=True, choices=SWEEP_VARS)
    p.add_argument("--values", required=True,
                   help="comma-separated, strictly monotone")
    p.add_argument("--outputs", required=True,
                   help=f"comma-separated from: {', '.join(SWEEP_OUTPUTS)}")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100_000)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dimension", help="server count for a load threshold")
    p.add_argument("--config", required=True)
    p.add_argument("--threshold", type=float, required=True,
                   help="per-server capacity in requests per second")
    p.add_argument("--kind", choices=("rism", "sgw"), default="rism")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("protocol", help="export a signaling sequence trace")
    p.add_argument("--kind", choices=("rr", "ho"), required=True)
    p.add_argument("--mode", choices=("x2", "s1"), default="x2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_protocol)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # a reader that stopped early (`| head`) shows up here at the latest
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout once more at exit: send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryDomainError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
