"""Modal analysis and operating-point sweeps.

Eigenvalues come from the dense nonsymmetric solver, left eigenvectors from
the inverse of the right ones, so every mode carries participation factors;
conjugate pairs are folded to the upper half plane. Stability reports
collect the classification used by the sweep CSVs and the acceptance checks.
analyze_group solves, linearizes and decomposes the scenarios of one model
as one batch; sweep calls it per grid case, control and condenser state.
Once the batch stages return, the group is decomposed and reported from
its stacked arrays: one eig of the stack, one pick of the kept modes and
one pass over each record column for the whole group, and per member only
the records and the report it returns.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .config import (
    GRID_CASES,
    OperatingPoint,
    Scenario,
    build_model,
    refs_for,
    scenario_key,
    standard_operating_points,
)
# linearize and solve_equilibrium stay importable here for perfbench's tracer
from .linearize import LinearizationError, StateSpaceModel, linearize, linearize_batch  # noqa: F401
from .netbase import GridCase
from .powerflow import EquilibriumPoint, solve_equilibria, solve_equilibrium  # noqa: F401
from .sim import TimeSeries, march, zoh_step

log = logging.getLogger(__name__)

NULL_MODE_TOL = 1e-8
STABILITY_TOL = 1e-6
NEAR_SYNC_BAND_HZ = (40.0, 60.0)
NEAR_SYNC_DAMPING = 0.20


@dataclass(frozen=True)
class EigenRecord:
    re: float
    im: float
    damping: float
    freq_hz: float
    dominant_states: tuple[str, ...]
    conjugate_pair: bool = False


@dataclass(frozen=True)
class StabilityReport:
    scenario_key: str
    grid_case: str
    control: str
    with_sc: bool
    op: Optional[OperatingPoint]
    stable: bool
    max_re: float
    min_damping_below_100hz: Optional[float]
    eigen: tuple[EigenRecord, ...]
    poorly_damped_near_sync: tuple[EigenRecord, ...] = ()
    null_modes_filtered: int = 0
    solved: bool = True
    failure: str = ""
    newton_iterations: int = 0
    residual_norm: float = math.nan


def eigenvalues(ss: StateSpaceModel) -> list[EigenRecord]:
    """All modes of ss.a as records, conjugate pairs reported once (im >= 0).

    Null modes (|lam| < 1e-8) are excluded and logged; the dominant states
    of a mode have the largest participation |left * right|. One-member
    spectra.
    """
    (records,) = spectra([ss])
    if isinstance(records, LinearizationError):
        raise records
    return records


def spectra(models: Sequence[StateSpaceModel]) -> list:
    """eigenvalues of each model, from one eig of the stack of the same-size
    state matrices: member j is its records, or the LinearizationError that
    rejects its matrix alone. The kept modes of the whole stack are picked
    and sorted at once, each record column and the dominant-state labels are
    taken in one pass, and the flat record list is split by each member's
    count of kept modes. A member whose matrix the eigensolver rejects (one
    with a non-finite entry, say) is found by retrying one matrix at a
    time."""
    if not models:
        return []
    stack = np.stack([ss.a for ss in models])
    try:
        w, vr = np.linalg.eig(stack)
        vl = np.linalg.inv(vr)  # row k is the left eigenvector of mode k
    except np.linalg.LinAlgError as exc:
        if len(models) > 1:  # retry one matrix at a time
            return [spectra([ss])[0] for ss in models]
        dump = np.array2string(models[0].a, max_line_width=200, precision=6)
        return [LinearizationError(f"eigensolver failed: {exc}\nA =\n{dump}")]
    m, n = w.shape
    part = np.abs(np.multiply(vl.transpose(0, 2, 1), vr, out=vr))  # [member, state, mode], in the dead vr
    top = np.argsort(-part, axis=1, kind="stable")[:, :3].transpose(0, 2, 1)
    re, im = w.real, w.imag
    mag = np.hypot(re, im)  # abs of each mode, to the bit
    keep = (im >= 0.0) & (mag >= NULL_MODE_TOL)
    damp = np.divide(-re, mag, out=np.zeros_like(re), where=keep)
    order = np.lexsort((im, -re, ~keep))  # per member: the kept modes first, by (-re, im)
    row = np.arange(m)[:, None]
    kept = (order + n * row)[keep[row, order]]  # flat indices, member by member
    cols = [v.ravel()[kept].tolist() for v in (re, im, damp, np.abs(im) / (2.0 * math.pi))]
    names = np.array([lab for ss in models for lab in ss.state_labels], dtype=object)
    # each kept mode's dominant states, as one tuple of labels
    labels = zip(*names[top.reshape(m * n, -1)[kept] + n * (kept // n)[:, None]].T.tolist())
    records = [EigenRecord(r, i, d, f, t, i > 0.0) for r, i, d, f, t in zip(*cols, labels)]
    ends = list(itertools.accumulate(keep.sum(axis=1).tolist()))
    null = np.count_nonzero(mag < NULL_MODE_TOL, axis=1)
    for dropped in null[null > 0].tolist():
        log.info("filtered %d null mode(s) with |lambda| < %g", dropped, NULL_MODE_TOL)
    return [records[start:end] for start, end in zip([0, *ends], ends)]


def classify(records: Sequence[EigenRecord], *, null_modes: int = 0) -> StabilityReport:
    """Stable iff every record has re < STABILITY_TOL; flags lightly damped modes
    in the 40..60 Hz band. The scenario fields are left blank."""
    return _report(records, scenario_key="", grid_case="", control="", with_sc=False, op=None,
                   null_modes_filtered=null_modes)


def _report(records: Sequence[EigenRecord], **fields) -> StabilityReport:
    """classify's report of the records, with fields naming the scenario and
    the solve (every field classify does not derive)."""
    max_re = max((r.re for r in records), default=float("-inf"))
    low = [r for r in records if r.im > 0.0 and r.freq_hz < 100.0]
    min_damp = min((r.damping for r in low), default=None)
    flagged = tuple(
        r
        for r in records
        if r.damping < NEAR_SYNC_DAMPING
        and NEAR_SYNC_BAND_HZ[0] <= r.freq_hz <= NEAR_SYNC_BAND_HZ[1]
    )
    return StabilityReport(
        stable=max_re < STABILITY_TOL,
        max_re=max_re,
        min_damping_below_100hz=min_damp,
        eigen=tuple(records),
        poorly_damped_near_sync=flagged,
        **fields,
    )


def analyze_scenario(scenario: Scenario) -> StabilityReport:
    """Solve, linearize and classify one scenario (one-member analyze_group).
    A scenario without a usable equilibrium or linearization comes back as a
    report with solved=False; any other error propagates."""
    return analyze_group([scenario])[0]


def analyze_group(scenarios: Sequence[Scenario]) -> list[StabilityReport]:
    """analyze_scenario for scenarios that differ only in their operating
    point, and so share one model, as one batch; each report is the one its
    scenario gives alone."""
    if not scenarios:
        return []
    first = scenarios[0]
    if any({**vars(s), "op": first.op} != vars(first) for s in scenarios[1:]):
        raise ValueError("the scenarios of a group may differ only in their operating point")
    model = build_model(first)
    eqs = solve_equilibria(model, [refs_for(s) for s in scenarios])
    systems = _advance(  # the solve accepts below linearize.RESIDUAL_ACCEPT, the bound it would check
        eqs, lambda e: linearize_batch(model, [p.state for p in e], [p.refs for p in e],
                                       check_equilibrium=False))
    reports = []
    for s, eq, ss, records in zip(scenarios, eqs, systems, _advance(systems, spectra)):
        residual = eq.residual_norm if isinstance(eq, EquilibriumPoint) else eq.final_residual
        fields = dict(scenario_key=scenario_key(s), grid_case=s.name, control=s.control, with_sc=s.with_sc,
                      op=s.op, newton_iterations=eq.iterations, residual_norm=residual)
        if isinstance(records, Exception):
            reports.append(StabilityReport(stable=False, max_re=math.nan, min_damping_below_100hz=None,
                                           eigen=(), solved=False,
                                           failure=f"{type(records).__name__}: {records}", **fields))
        else:
            null_count = ss.a.shape[0] - sum(2 if r.conjugate_pair else 1 for r in records)
            reports.append(_report(records, null_modes_filtered=null_count, **fields))
    return reports


def _advance(results: list, stage) -> list:
    """results with the members that have not failed replaced by what one
    call of the batch stage gives them."""
    live = [j for j, r in enumerate(results) if not isinstance(r, Exception)]
    out = list(results)
    for j, r in zip(live, stage([results[j] for j in live]) if live else ()):
        out[j] = r
    return out


def sweep(
    grid_cases: Optional[Mapping[str, GridCase]] = None,
    ops: Optional[Sequence[OperatingPoint]] = None,
    controls: Sequence[str] = ("gfl", "gfm"),
    sc_states: Sequence[bool] = (False, True),
    base: Optional[Scenario] = None,
    jobs: Optional[int] = None,
) -> list[StabilityReport]:
    """Grid cases x operating points x controls x SC on/off, one report per
    cell, from one analyze_group call per grid case, control and SC state,
    spread over min(jobs, groups) worker processes when that is > 1. A cell
    whose solve or linearization fails is reported unsolved and never aborts
    the batch; the result is sorted by scenario key, whatever the worker
    timing."""
    cases = dict(GRID_CASES) if grid_cases is None else dict(grid_cases)
    points = standard_operating_points() if ops is None else list(ops)
    template = base if base is not None else Scenario()
    groups = [  # the operating points of one grid case, control and condenser state
        [replace(template, name=name, grid=cases[name], control=control, with_sc=with_sc, op=op)
         for op in points]
        for name in sorted(cases)
        for control, with_sc in itertools.product(controls, sc_states)
    ]
    workers = min(jobs or 1, len(groups))  # a pool starts every worker, busy or not
    if workers > 1:
        # imported here so that wppsc starts without the process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = [r for part in pool.map(analyze_group, groups) for r in part]
    else:
        reports = [r for g in groups for r in analyze_group(g)]
    reports.sort(key=lambda r: r.scenario_key)
    return reports


# the references a linear step on each channel may drive, first present wins
CHANNELS = {"power": ("p_star",), "voltage": ("v_turb_star", "q_star")}


def step_input(channel: str, input_labels: Sequence[str]) -> str:
    """The input among input_labels that a step on channel drives: the
    channel itself when it names one of them, else the first of its
    CHANNELS references present."""
    if channel in input_labels:
        return channel
    if channel not in CHANNELS:
        raise ValueError(f"channel must be one of {sorted(CHANNELS)}, got {channel!r}")
    hits = [name for name in CHANNELS[channel] if name in input_labels]
    if not hits:
        raise ValueError(
            f"channel {channel!r} needs one of {CHANNELS[channel]} in input labels {input_labels}"
        )
    return hits[0]


def step_response(
    ss: StateSpaceModel,
    channel: str,
    magnitude: float,
    t_end: float,
    dt: float,
) -> TimeSeries:
    """Linear response of the outputs to a step of the given magnitude at
    t=0 on the input that channel drives (step_input), from a zero initial
    deviation, stepped exactly by zero-order hold at dt: sim.zoh_step gives
    the map (Phi, gamma) and sim.march fills the series by repeated squaring
    of it.

    Output columns are deviations from the linearization point.
    """
    name = step_input(channel, ss.input_labels)
    if not (math.isfinite(magnitude) and math.isfinite(t_end) and t_end > 0.0):
        raise ValueError("step magnitude and t_end must be finite, t_end > 0")
    if not (math.isfinite(dt) and 0.0 < dt <= t_end):
        raise ValueError(f"dt must satisfy 0 < dt <= t_end, got {dt}")
    j = ss.input_labels.index(name)

    n_steps = max(int(round(t_end / dt)), 1)
    x0 = np.zeros(ss.a.shape[0])
    run = march(x0, n_steps, dt, [(0, zoh_step(ss.a, ss.b[:, j] * magnitude, dt))])
    ys = run.states @ ss.c.T
    columns = {name: ys[:, i].copy() for i, name in enumerate(ss.output_labels)}
    return TimeSeries(
        t=np.arange(len(ys)) * dt,
        columns=columns,
        dt=dt,
        meta=f"step_response channel={channel} input={name} magnitude={magnitude!r}",
        diverged=run.diverged,
        aborted=run.aborted,
        note=run.note,
    )
