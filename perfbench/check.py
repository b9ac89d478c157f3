"""Output check: compare a job's output cells with the recorded golden.

Cells are matched by (row, column name); columns the golden lacks are
accepted, so an added column (say, a Monte Carlo stderr) does not fail.
At the default seed every cell must match exactly except the known-room
`p_rr` cells, which must lie near the reference Monte Carlo mean of their
row. At another seed the closed-form and trace cells must
still match exactly and Monte Carlo cells must lie within 4 standard errors
of the difference from the golden.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

Table = tuple[list[str], list[list[str]]]

Z_LIMIT = 4.0
# Known-room p_rr, largest accepted distance from the reference: today's
# worst (the room defect of ROADMAP item 1, about 0.0214) plus a margin, so
# a fix passes and a loss of accuracy fails. With static mobility the room
# boundary plays no part and only the bite sampling noise (about 3e-4) moves
# p_rr, so the tolerance there is tighter.
P_RR_TOL = 0.03
P_RR_TOL_STATIC = 3e-3
# Largest accepted spread of analytic p_rr over three seeds (at most 1.5e-3
# over 200 seeds with the default bite sampling).
SEED_RANGE_MAX = 2.5e-3
# Upper bound on how often one entity kind takes part in one session:
# the basic message plus every step of the longest procedure.
MAX_PARTICIPATIONS = 17


def read_output(path: Path, trace_text: bool) -> Table:
    """Header and rows of a CSV data file or a `step | from -> to | name`
    protocol trace."""
    text = path.read_text(encoding="utf-8")
    if trace_text:
        rows = [line.split(" | ") for line in text.splitlines()]
    else:
        rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise ValueError(f"{path.name}: empty output")
    return rows[0], rows[1:]


def _rule(cells: dict, column: str, quantity: str) -> tuple:
    if column in cells:
        return cells[column]
    if column == "value":  # a quantity,value table: the row names the rule
        if quantity in cells:
            return cells[quantity]
        for key, rule in cells.items():
            if key.endswith("*") and quantity.startswith(key[:-1]):
                return rule
    return ("exact",)


def _mc_stderr(p: float, trials: int) -> float:
    # The 1/trials floor keeps a tolerance where a cell reads exactly 0 or 1.
    return math.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials)


def _check_cell(rule: tuple, golden: str, got: str, exact: bool,
                values: dict[str, str], quantity: str) -> str | None:
    """None if `got` passes, else the reason it does not."""
    kind = rule[0]
    if kind == "p_rr_known":
        _, means, tol = rule
        v, want = float(got), means[quantity]
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            return "not a probability"
        return None if abs(v - want) <= tol else \
            f"off the reference {want:.6g} by {abs(v - want):.3g} > {tol:g}"
    if exact or kind == "exact":
        return None if got == golden else "differs"
    if kind == "mc_stderr":
        _, trials, mean_row = rule
        p = float(values[mean_row])
        want = math.sqrt(p * (1.0 - p) / trials)
        return None if math.isclose(float(got), want, rel_tol=1e-8,
                                    abs_tol=1e-15) else \
            f"not sqrt(p(1-p)/Z) = {want:.9g}"
    g, v = float(golden), float(got)
    if kind == "mc":
        trials = rule[1]
        tol = Z_LIMIT * math.hypot(_mc_stderr(g, trials), _mc_stderr(v, trials))
    elif kind == "count":
        tol = Z_LIMIT * math.sqrt(max(g + v, 1.0))
    elif kind == "rate":
        duration = rule[1]
        tol = Z_LIMIT * math.sqrt(MAX_PARTICIPATIONS
                                  * max((g + v) * duration, 1.0)) / duration
    else:
        raise ValueError(f"unknown cell rule {rule!r}")
    return None if abs(v - g) <= tol else f"off by {abs(v - g):.3g} > {tol:.3g}"


def compare(cells: dict, golden: Table, got: Table,
            at_default_seed: bool) -> list[str]:
    """Every mismatch between `got` and `golden`, as readable strings."""
    g_header, g_rows = golden
    header, rows = got
    missing = [c for c in g_header if c not in header]
    if missing:
        return [f"missing column(s) {missing}"]
    if len(rows) != len(g_rows):
        return [f"{len(rows)} rows, golden has {len(g_rows)}"]
    vi = header.index("value") if "value" in header else -1
    values = {row[0]: row[vi] for row in rows if len(row) == len(header)}
    problems = []
    for i, (g_row, row) in enumerate(zip(g_rows, rows)):
        if len(row) != len(header):
            problems.append(f"row {i}: {len(row)} cells for {len(header)} "
                            "columns")
            continue
        cell = dict(zip(header, row))
        quantity = g_row[0]
        for column, golden_cell in zip(g_header, g_row):
            rule = _rule(cells, column, quantity)
            try:
                why = _check_cell(rule, golden_cell, cell[column],
                                  at_default_seed, values, quantity)
            except (ValueError, KeyError) as exc:
                why = f"unreadable ({exc})"
            if why is not None:
                problems.append(f"row {i} ({quantity}), column {column}: "
                                f"{cell[column]!r} vs golden {golden_cell!r}: "
                                f"{why}")
    return problems
