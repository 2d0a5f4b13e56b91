"""Modal analysis and operating-point sweeps.

Eigenvalues come from the dense nonsymmetric solver with left eigenvectors
so every mode carries participation factors; conjugate pairs are folded to
the upper half plane. Stability reports collect the classification used by
the sweep CSVs and the acceptance checks.
"""

from __future__ import annotations

import itertools
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np
import scipy.linalg

from .config import (
    GRID_CASES,
    OperatingPoint,
    Scenario,
    build_model,
    refs_for,
    scenario_key,
    standard_operating_points,
)
from .linearize import LinearizationError, StateSpaceModel, linearize
from .netbase import GridCase
from .powerflow import InfeasibleError, NonConvergenceError, solve_equilibrium
from .sim import TimeSeries, march, zoh_step

log = logging.getLogger(__name__)

NULL_MODE_TOL = 1e-8
STABILITY_TOL = 1e-6
NEAR_SYNC_BAND_HZ = (40.0, 60.0)
NEAR_SYNC_DAMPING = 0.20


def damping(lam: complex) -> Optional[float]:
    """zeta = -re/|lam|; None marks the undefined case of a null mode."""
    mag = abs(lam)
    if mag == 0.0:
        return None
    return -lam.real / mag


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


def eigenvalues(ss: StateSpaceModel) -> list[EigenRecord]:
    """All modes of ss.a as records, conjugate pairs reported once (im >= 0).

    Null modes (|lam| < 1e-8) are excluded and logged; participation is
    |left * right| per state, normalized per mode.
    """
    a = np.asarray(ss.a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise LinearizationError("state matrix contains non-finite entries")
    try:
        w, vl, vr = scipy.linalg.eig(a, left=True, right=True)
    except scipy.linalg.LinAlgError as exc:
        dump = np.array2string(a, max_line_width=200, precision=6)
        raise RuntimeError(f"eigensolver failed: {exc}\nA =\n{dump}") from exc

    records: list[EigenRecord] = []
    dropped = 0
    for k in range(len(w)):
        lam = w[k]
        if abs(lam) < NULL_MODE_TOL:
            dropped += 1
            continue
        if lam.imag < 0.0:
            continue
        part = np.abs(vl[:, k] * vr[:, k])
        peak = part.max()
        if peak > 0.0:
            part = part / peak
        top = np.argsort(-part, kind="stable")[:3]
        records.append(
            EigenRecord(
                re=float(lam.real),
                im=float(lam.imag),
                damping=float(damping(lam)),
                freq_hz=abs(float(lam.imag)) / (2.0 * math.pi),
                dominant_states=tuple(ss.state_labels[i] for i in top),
                conjugate_pair=lam.imag > 0.0,
            )
        )
    if dropped:
        log.info("filtered %d null mode(s) with |lambda| < %g", dropped, NULL_MODE_TOL)
    records.sort(key=lambda r: (-r.re, r.im))
    return records


def classify(
    records: Sequence[EigenRecord],
    tol: float = STABILITY_TOL,
    *,
    key: str = "",
    grid_case: str = "",
    control: str = "",
    with_sc: bool = False,
    op: Optional[OperatingPoint] = None,
    null_modes: int = 0,
) -> StabilityReport:
    """Stable iff every record has re < tol; flags lightly damped modes
    in the 40..60 Hz band."""
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
        scenario_key=key,
        grid_case=grid_case,
        control=control,
        with_sc=with_sc,
        op=op,
        stable=max_re < tol,
        max_re=max_re,
        min_damping_below_100hz=min_damp,
        eigen=tuple(records),
        poorly_damped_near_sync=flagged,
        null_modes_filtered=null_modes,
    )


def analyze_scenario(scenario: Scenario) -> StabilityReport:
    """Solve, linearize and classify one scenario. A scenario without a
    usable equilibrium or linearization comes back as a report with
    solved=False; any other error propagates."""
    kkey = scenario_key(scenario)
    meta = dict(
        key=kkey,
        grid_case=scenario.name,
        control=scenario.control,
        with_sc=scenario.with_sc,
        op=scenario.op,
    )
    try:
        model = build_model(scenario)
        refs = refs_for(scenario)
        eq = solve_equilibrium(model, refs)
        ss = linearize(model, eq.state, eq.refs)
        records = eigenvalues(ss)
    except (NonConvergenceError, InfeasibleError, LinearizationError) as exc:
        return StabilityReport(
            scenario_key=kkey,
            grid_case=scenario.name,
            control=scenario.control,
            with_sc=scenario.with_sc,
            op=scenario.op,
            stable=False,
            max_re=float("nan"),
            min_damping_below_100hz=None,
            eigen=(),
            solved=False,
            failure=f"{type(exc).__name__}: {exc}",
        )
    null_count = ss.a.shape[0] - sum(2 if r.conjugate_pair else 1 for r in records)
    return classify(records, null_modes=null_count, **meta)


def _sweep_scenarios(
    grid_cases: Mapping[str, GridCase],
    ops: Sequence[OperatingPoint],
    controls: Sequence[str],
    sc_states: Sequence[bool],
    base: Scenario,
) -> list[Scenario]:
    out = []
    for name in sorted(grid_cases):
        for control, with_sc, op in itertools.product(controls, sc_states, ops):
            out.append(
                replace(base, name=name, grid=grid_cases[name], control=control,
                        with_sc=with_sc, op=op)
            )
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
    cell. A cell whose solve or linearization fails is reported unsolved and
    never aborts the batch; the result is sorted by scenario key so output
    is order-stable regardless of worker timing."""
    cases = dict(GRID_CASES) if grid_cases is None else dict(grid_cases)
    points = standard_operating_points() if ops is None else list(ops)
    template = base if base is not None else Scenario()
    scenarios = _sweep_scenarios(cases, points, controls, sc_states, template)
    if jobs is not None and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(analyze_scenario, scenarios, chunksize=8))
    else:
        reports = [analyze_scenario(s) for s in scenarios]
    reports.sort(key=lambda r: r.scenario_key)
    return reports


_CHANNELS = {
    "power": (("p_star",), "p_pc"),
    "voltage": (("v_turb_star", "q_star"), "v_c_mag"),
}


def step_response(
    ss: StateSpaceModel,
    channel: str,
    magnitude: float,
    t_end: float,
    dt: float,
) -> TimeSeries:
    """Linear response of the channel's output to a reference step of the
    given magnitude at t=0, from a zero initial deviation, stepped exactly
    by zero-order hold (sim.zoh_step) at dt.

    Output columns are deviations from the linearization point.
    """
    if channel not in _CHANNELS:
        raise ValueError(f"channel must be one of {sorted(_CHANNELS)}, got {channel!r}")
    if not (math.isfinite(magnitude) and math.isfinite(t_end) and t_end > 0.0):
        raise ValueError("step magnitude and t_end must be finite, t_end > 0")
    if not (math.isfinite(dt) and 0.0 < dt <= t_end):
        raise ValueError(f"dt must satisfy 0 < dt <= t_end, got {dt}")
    input_names, _ = _CHANNELS[channel]
    hits = [name for name in input_names if name in ss.input_labels]
    if not hits:
        raise ValueError(
            f"channel {channel!r} needs one of {input_names} in input labels {ss.input_labels}"
        )
    j = ss.input_labels.index(hits[0])

    n_steps = max(int(round(t_end / dt)), 1)
    x0 = np.zeros(ss.a.shape[0])
    run = march(x0, n_steps, dt, [(0, zoh_step(ss.a, ss.b[:, j] * magnitude, dt))])
    ys = run.states @ ss.c.T
    columns = {name: ys[:, i].copy() for i, name in enumerate(ss.output_labels)}
    return TimeSeries(
        t=np.arange(len(ys)) * dt,
        columns=columns,
        dt=dt,
        meta=f"step_response channel={channel} input={hits[0]} magnitude={magnitude!r}",
        diverged=run.diverged,
        aborted=run.aborted,
        note=run.note,
    )
