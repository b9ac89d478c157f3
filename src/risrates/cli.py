"""Command-line front end.

Subcommands:
  analytic   closed-form probabilities and rates for one config
  simulate   Monte Carlo estimate (or event-driven load run with --duration)
  sweep      one variable over a value list, selected outputs as CSV columns
  dimension  minimal server count for a load threshold
  protocol   export a signaling sequence as a text trace

`python -m risrates` runs the same command line. Every call is parsed by
one argparse tree from `build_parser`, built on a process's first call and
kept for the rest. `--trials` must be at least 1 and `--seed` a
non-negative integer; both are checked before any work starts.

numpy is imported only when draws start, by `simulate` and the `mc_rr` and
`mc_ho` sweep outputs: the other commands and outputs run in plain floats
and a shell call of one does not pay numpy's import. Nor do they import
`logging` or `datetime`: `geometry` imports `logging` only to make a
record, and the manifest's time stamp is read from `time`. Nor do they
load OpenSSL: the config digest is CPython's built-in SHA-256 (see
`config`). A Monte Carlo command loads it all the same, because
`numpy.random` imports `secrets`, which imports `hmac` and with it
`hashlib`'s `_hashlib`. `protocol` is
imported with this module; deferring it saved no measurable start-up and
raised the peak memory of a process that runs many commands.

Data files are CSV: comma separator, one header line, LF endings, UTF-8,
numbers at 9 significant digits. Run metadata (config digest, seed, version,
timestamp; for Monte Carlo runs the threads and shards used, for load runs
the sessions drawn per server kind and the threads that counted them) goes
to a sidecar <out>.manifest.json, never into the data file, so reruns with
the same seed are byte-identical.
`protocol` writes its trace alone. All files go through `_deliver`: when a
write fails, it removes what it wrote.

Exit codes: 0 on success, 1 when the reader of stdout stops early, 2 on
config or argument errors (an --out that cannot be written is one), 3 on
geometry failures. What a command or sweep output needs of a config (its
kind, then a signaling section) is checked by `_require` before any work
starts. A sweep cell whose value lies outside its formula's domain reads
nan and is listed under "failed" in the manifest; the sweep exits 3 only
when no cell has a value.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__
from .analytic import (class_load, dimension_servers, ho_rate,
                       marginal_p_ho, marginal_p_rr_unknown, p_rr_marginal,
                       rr_rate, signaling_rate)
from .config import ConfigError, LoadedConfig, load_config, parse_config
from .geometry import GeometryDomainError
from .protocol import export_trace, ho_sequence, rr_sequence, simulate_load

if TYPE_CHECKING:
    from .montecarlo import Estimate

SWEEP_VARS = ("lambda_RIS", "lambda_eNB", "lambda_B", "d_U", "theta",
              "N_RISM", "N_SGW")
MC_OUTPUTS = ("mc_rr", "mc_ho")  # each followed by an <output>_stderr column


def fmt9(x: float) -> str:
    """Canonical number rendering for data files: 9 significant digits."""
    return format(float(x), ".9g")


def render_csv(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _utc_now() -> str:
    """The time as `datetime.now(timezone.utc).isoformat()` writes it, read
    from `time` so that no command imports datetime for one stamp."""
    seconds, us = divmod(time.time_ns() // 1000, 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{us:06d}+00:00" if us else f"{stamp}+00:00"


def _manifest(cfg: Optional[LoadedConfig], seed: Optional[int]) -> dict:
    return {
        "tool": "risrates",
        "version": __version__,
        "config": cfg.name if cfg else None,
        "config_sha256": cfg.digest if cfg else None,
        "seed": seed,
        "created_utc": _utc_now(),
    }


def _deliver(text: str, out: Optional[str],
             manifest: Optional[dict] = None) -> int:
    """Write the data file plus its manifest sidecar, if any, or print both.
    A failure while writing removes whatever was partially produced; an
    OSError then becomes a ConfigError naming --out."""
    meta = None if manifest is None else json.dumps(manifest, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text if meta is None
                         else f"{text}--- manifest ---\n{meta}")
        return 0
    files = [(Path(out), text)]
    if meta is not None:
        files.append((Path(out + ".manifest.json"), meta))
    opened: list[Path] = []  # what a failure removes: never a file not ours
    try:
        for path, content in files:
            with path.open("wb") as fh:
                opened.append(path)
                fh.write(content.encode("utf-8"))
    except BaseException as exc:
        for path in reversed(opened):
            path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"--out: {exc}") from exc
        raise
    return 0


def _config_of(kind: str) -> str:
    return f"{'an' if kind == 'unknown' else 'a'} '{kind}' config"


def _require(cfg: LoadedConfig, what: str, kind: Optional[str] = None,
             signaling: bool = False) -> None:
    """Refuse a config that `what` cannot run on: first one of the wrong
    kind, then one without a signaling section when `what` needs it."""
    if kind is not None and cfg.kind != kind:
        raise ConfigError(f"{what} needs {_config_of(kind)}")
    if signaling and cfg.signaling is None:
        raise ConfigError(f"{what} needs a 'signaling' section")


def _p_rr(cfg: LoadedConfig) -> float:
    if cfg.kind == "known":
        return p_rr_marginal(cfg.scenario, cfg.scenario.mobility)
    return marginal_p_rr_unknown(cfg.scenario)


# montecarlo's estimators, imported with numpy on the first call. Trials
# run through these names, which perfbench/spans.py wraps in this module.
def estimate_rr(*args, **kwargs) -> Estimate:
    from .montecarlo import estimate_rr
    return estimate_rr(*args, **kwargs)


def estimate_ho(*args, **kwargs) -> Estimate:
    from .montecarlo import estimate_ho
    return estimate_ho(*args, **kwargs)


def _mc(cfg: LoadedConfig, seed: int, trials: int) -> Estimate:
    """RR trials in a known room, HO trials in an unknown environment."""
    estimate = estimate_rr if cfg.kind == "known" else estimate_ho
    return estimate(cfg.scenario, cfg.scenario.mobility, Z=trials, seed=seed)


# ---------------------------------------------------------------------------
# analytic


def cmd_analytic(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    s = cfg.scenario
    if cfg.kind == "known":
        rows = [("p_rr", _p_rr(cfg))]
    elif cfg.signaling is None:
        rows = [("p_rr", marginal_p_rr_unknown(s)), ("p_ho", marginal_p_ho(s))]
    else:  # the report's fields, p_rr and p_ho first, are the rows in order
        rows = list(asdict(signaling_rate(s, cfg.signaling)).items())
    text = render_csv(("quantity", "value"),
                      [(k, fmt9(v)) for k, v in rows])
    return _deliver(text, args.out, _manifest(cfg, args.seed))


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    load = args.duration is not None
    for flag, value, applies in (("--trials", args.trials, not load),
                                 ("--kind", args.kind, not load),
                                 ("--mode", args.mode, load)):
        if value is not None and not applies:
            verb = "does not apply" if load else "only applies"
            raise ConfigError(f"{flag} {verb} with --duration")
    cfg = load_config(args.config)
    if load:
        _require(cfg, "load simulation", kind="unknown", signaling=True)
        result = simulate_load(cfg.scenario, cfg.signaling, args.duration,
                               seed=args.seed, ho_mode=args.mode or "x2")
        rows = [("duration", fmt9(result.duration)),
                ("rr_initiations", str(result.rr_initiations)),
                ("ho_initiations", str(result.ho_initiations))]
        rows += [(f"rate_{kind}", fmt9(rate))
                 for kind, rate in result.entity_rates.items()]
        text = render_csv(("quantity", "value"), rows)
        manifest = _manifest(cfg, args.seed)
        manifest.update(load_sessions=result.sessions,
                        load_threads=result.threads)
        return _deliver(text, args.out, manifest)

    label = "rr" if cfg.kind == "known" else "ho"
    if args.kind not in (None, label):
        raise ConfigError(f"{_config_of(cfg.kind)} only supports "
                          f"--kind {label}")
    trials = 100_000 if args.trials is None else args.trials
    est = _mc(cfg, args.seed, trials)
    text = render_csv(("quantity", "value"),
                      [(f"mc_{label}", fmt9(est.mean)),
                       ("stderr", fmt9(est.stderr)),
                       ("trials", str(est.trials))])
    manifest = _manifest(cfg, args.seed)
    manifest.update(mc_workers=est.threads, mc_shards=est.shards)
    return _deliver(text, args.out, manifest)


# ---------------------------------------------------------------------------
# sweep


def _parse_values(spec: str) -> list[float]:
    tokens = [tok.strip() for tok in spec.split(",") if tok.strip() != ""]
    try:
        values = [float(tok) for tok in tokens]
    except ValueError:
        raise ConfigError(f"--values: not a number list: {spec!r}") from None
    for tok, value in zip(tokens, values):
        if not math.isfinite(value):
            raise ConfigError(f"--values: not a finite number: {tok!r}")
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


# output -> (config kind it needs, None for either; whether it needs a
# signaling section; its value on one swept config, seed and trial count).
# The functions look up what they call when they run, not at import, so a
# wrapper set on a name of this module sees every call.
_SWEEP: dict[str, tuple] = {
    "p_rr": (None, False, lambda c, seed, trials: _p_rr(c)),
    "p_ho": ("unknown", False,
             lambda c, seed, trials: marginal_p_ho(c.scenario)),
    "e_rr": ("unknown", True,
             lambda c, seed, trials: rr_rate(c.scenario, c.signaling)),
    "e_ho": ("unknown", True,
             lambda c, seed, trials: ho_rate(c.scenario, c.signaling)),
    "e_gamma": ("unknown", True,
                lambda c, seed, trials: signaling_rate(c.scenario,
                                                       c.signaling).e_gamma),
    "mc_rr": ("known", False, _mc),
    "mc_ho": ("unknown", False, _mc),
}
SWEEP_OUTPUTS = tuple(_SWEEP)


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    values = _parse_values(args.values)
    outputs = [tok.strip() for tok in args.outputs.split(",") if tok.strip()]
    if not outputs:
        raise ConfigError("--outputs: need at least one output")
    for i, out in enumerate(outputs):
        if out not in _SWEEP:
            raise ConfigError(f"unknown output {out!r}; choose from "
                              f"{', '.join(SWEEP_OUTPUTS)}")
        if out in outputs[:i]:  # a reader keyed by column would keep one
            raise ConfigError(f"--outputs: {out!r} listed twice")
        kind, signaling, _ = _SWEEP[out]
        _require(cfg, f"output {out!r}", kind=kind, signaling=signaling)
    header = [args.var]
    for out in outputs:
        header += [out, f"{out}_stderr"] if out in MC_OUTPUTS else [out]
    rows = []
    failed = []
    ran = []  # the Monte Carlo estimates, for the manifest
    for i, v in enumerate(values):
        variant = _apply_sweep_var(cfg, args.var, v)
        row = [fmt9(v)]
        for out in outputs:
            try:
                result = _SWEEP[out][2](variant, args.seed + i, args.trials)
            except GeometryDomainError as exc:
                # out of the formula's domain at this value: the cell reads
                # nan, the manifest says why, and the other rows still run
                error = exc
                failed.append({"value": v, "output": out, "reason": str(exc)})
                row += ["nan"] * (2 if out in MC_OUTPUTS else 1)
                continue
            if out in MC_OUTPUTS:
                ran.append(result)
                row += [fmt9(result.mean), fmt9(result.stderr)]
            else:
                row.append(fmt9(result))
        rows.append(row)
    if len(failed) == len(values) * len(outputs):
        raise error  # not one cell has a value
    manifest = _manifest(cfg, args.seed)
    manifest["failed"] = failed
    if any(out in MC_OUTPUTS for out in outputs):
        # the threads one estimate ran on and the shards of them all
        manifest["mc_workers"] = max((e.threads for e in ran), default=0)
        manifest["mc_shards"] = sum(e.shards for e in ran)
    return _deliver(render_csv(header, rows), args.out, manifest)


# ---------------------------------------------------------------------------
# dimension


def cmd_dimension(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    _require(cfg, "dimensioning", kind="unknown", signaling=True)
    load = class_load(cfg.scenario, cfg.signaling, args.kind)
    n = dimension_servers(load, args.threshold)
    text = render_csv(("quantity", "value"),
                      [("class_load", fmt9(load)),
                       ("threshold", fmt9(args.threshold)),
                       ("servers", str(n)),
                       ("per_server_load", fmt9(load / n))])
    return _deliver(text, args.out, _manifest(cfg, None))


# ---------------------------------------------------------------------------
# protocol


def cmd_protocol(args: argparse.Namespace) -> int:
    if args.kind == "rr" and args.mode is not None:
        raise ConfigError("--mode does not apply with --kind rr")
    template = (rr_sequence() if args.kind == "rr"
                else ho_sequence(args.mode or "x2"))
    return _deliver(export_trace(template), args.out)


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's one parser tree, built on the first call and
    shared by every later one."""
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

    p = sub.add_parser("simulate", help="Monte Carlo estimate or load run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None,
                   help="Monte Carlo trials (default 100000)")
    p.add_argument("--kind", choices=("rr", "ho"), default=None,
                   help="defaults to rr for known rooms, ho otherwise")
    p.add_argument("--duration", type=float, default=None,
                   help="run the event-driven load simulation instead")
    p.add_argument("--mode", choices=("x2", "s1"), default=None,
                   help="handover variant for the load simulation "
                        "(default x2)")

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

    p = sub.add_parser("dimension", help="server count for a load threshold")
    p.add_argument("--config", required=True)
    p.add_argument("--threshold", type=float, required=True,
                   help="per-server capacity in requests per second")
    p.add_argument("--kind", choices=("rism", "sgw"), default="rism")
    p.add_argument("--out", default=None)

    p = sub.add_parser("protocol", help="export a signaling sequence trace")
    p.add_argument("--kind", choices=("rr", "ho"), required=True)
    p.add_argument("--mode", choices=("x2", "s1"), default=None)
    p.add_argument("--out", default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "trials", None) is not None and args.trials < 1:
            # before any work: a sweep would run its closed forms first
            raise ConfigError(f"--trials: must be at least 1, "
                              f"got {args.trials}")
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed: expected non-negative integer, "
                              f"got {args.seed}")
        # named when the call runs, not when the cached tree was built
        command = {"analytic": cmd_analytic, "simulate": cmd_simulate,
                   "sweep": cmd_sweep, "dimension": cmd_dimension,
                   "protocol": cmd_protocol}[args.command]
        code = command(args)
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
