"""Correctness checks on the program's outputs.

Each check returns a list of problems, empty when the output is correct, so
the workload can count failures against the operations it attempted.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

# Gate 5: measured enhancement within 7% of the closed form.
SCR_REL_DEV_LIMIT = 0.07
# Gate 8: linear step response within 2% RMS of the nonlinear one.
STEP_RMS_LIMIT = 0.02
SCR_CASES = ("weak", "normal", "strong")


def sweep_classification(reports: Iterable) -> list[tuple]:
    """(scenario_key, solved, stable, null_modes_filtered), sorted by key."""
    return sorted(
        (r.scenario_key, bool(r.solved), bool(r.stable), int(r.null_modes_filtered))
        for r in reports
    )


def sweep_digest(reports: Iterable) -> str:
    text = "\n".join(repr(row) for row in sweep_classification(reports))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def unsolved(reports: Iterable) -> list[str]:
    return [f"{r.scenario_key}: {r.failure or 'unsolved'}" for r in reports if not r.solved]


def parallel_mismatch(serial: Sequence, parallel: Sequence) -> list[str]:
    """Keys whose classification differs between the serial and the pooled
    sweep, plus keys present in only one of them."""
    a = {row[0]: row for row in sweep_classification(serial)}
    b = {row[0]: row for row in sweep_classification(parallel)}
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def scr_row_problems(rows: Sequence[Mapping[str, str]]) -> list[str]:
    """Rows of scr.csv: one per grid case, the condenser must raise the ratio
    and the fault measurement must agree with the closed form (gate 5)."""
    problems = []
    cases = tuple(row.get("case") for row in rows)
    if cases != SCR_CASES:
        problems.append(f"cases {cases} != {SCR_CASES}")
    for row in rows:
        try:
            scr_o = float(row["scr_o"])
            theory = float(row["scr_sc_theory"])
            rel_dev = float(row["rel_dev"])
        except (KeyError, ValueError) as exc:
            problems.append(f"{row.get('case')}: unreadable row ({exc})")
            continue
        if not all(math.isfinite(v) for v in (scr_o, theory, rel_dev)):
            problems.append(f"{row['case']}: non-finite value")
        elif not theory > scr_o:
            problems.append(f"{row['case']}: scr_sc_theory {theory} <= scr_o {scr_o}")
        elif not abs(rel_dev) < SCR_REL_DEV_LIMIT:
            problems.append(f"{row['case']}: |rel_dev| {abs(rel_dev):.4f} >= {SCR_REL_DEV_LIMIT}")
    return problems


def rms_gap(y_lin: np.ndarray, y_nl: np.ndarray) -> float:
    """RMS of the linear/nonlinear difference relative to the nonlinear RMS."""
    y_lin = np.asarray(y_lin, dtype=float)
    y_nl = np.asarray(y_nl, dtype=float)
    if y_lin.shape != y_nl.shape:
        return math.inf
    ref = float(np.sqrt(np.mean(y_nl**2)))
    if ref == 0.0:
        return math.inf
    return float(np.sqrt(np.mean((y_lin - y_nl) ** 2))) / ref


def series_problems(label: str, ts) -> list[str]:
    if ts.diverged or ts.aborted:
        return [f"{label}: {ts.note or 'diverged'}"]
    return []


def step_problems(lin, nl, p_eq: float) -> list[str]:
    """Gate 8 on one scenario: the linear p_pc deviation tracks the nonlinear
    one within 2% RMS."""
    problems = series_problems("linear step", lin) + series_problems("nonlinear step", nl)
    if problems:
        return problems
    gap = rms_gap(lin.columns["p_pc"], nl.columns["p_pc"] - p_eq)
    if not gap <= STEP_RMS_LIMIT:
        problems.append(f"linear/nonlinear p_pc RMS gap {gap:.4f} > {STEP_RMS_LIMIT}")
    return problems
