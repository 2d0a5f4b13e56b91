"""Fixed-step time marching of the plant and of linear models.

One march owns event segments, the divergence and non-finite checks and
truncation. Within a segment a step rule advances the state by dt: classic
RK4 for the converter plant, one Python step at a time, on the plant
x' = a x + b + E g(C x) read off the model once per event segment, with
the linear part of its four stages folded into maps then, so that a
step runs only the bound controller g between two matvecs: each stage is
one slice of the flat stage inputs, its few couplings to earlier outputs
added on floats, and one g call; or, for affine
dynamics x' = A x + b, the exact zero-order hold x+ = Phi x + gamma with
Phi and gamma from one expm of [[A, b], [0, 0]] dt (Van Loan, IEEE TAC
1978), held as data and filled by doubling: rows h..2h-1 of a segment are
rows 0..h-1 mapped by the h-th power of the hold, which is then squared.
The hold is exact at any stiffness: integrate uses it for the passive
plant, where a fault of any resistance is a plain shunt conductance, and
analysis.step_response for the linear model.

Events snap to the nearest step boundary and take effect at the start of
that step. Row 0 of the captured series is the initial condition before any
t=0 event. A trajectory that leaves |x| <= 1e6 pu (every entry) is truncated
and flagged diverged (an expected outcome for unstable scenarios, not a
solver error); a non-finite state truncates at the last valid sample and
flags the run aborted. A stepped row whose sum of squares is inside the
limit's square passes without the entrywise test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .components import FAULT_BUSES, FaultSpec, RefInputs, SystemModel
from .linearize import input_labels

DIVERGENCE_LIMIT = 1e6

STEP_CHANNELS = ("p_star", "v_turb_star", "q_star", "v_g_ref")

DERIVED_SIGNALS = ("p_pc", "q_pc", "p_g", "q_g", "p_sc", "q_sc", "v_c_mag", "v_pcc_mag")


@dataclass(frozen=True)
class Event:
    """A timed change: shunt fault on/off at a bus, or a reference step."""

    t: float
    kind: str
    bus: Optional[str] = None
    r_fault: Optional[float] = None
    channel: Optional[str] = None
    delta: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError(f"event time must be >= 0, got {self.t}")
        if self.kind not in ("fault_on", "fault_off", "step_ref"):
            raise ValueError(f"unknown event kind {self.kind!r}")

    @classmethod
    def fault_on(cls, t: float, bus: str, r_fault: float) -> "Event":
        FaultSpec(bus, r_fault)  # validates bus name and resistance
        return cls(t=t, kind="fault_on", bus=bus, r_fault=r_fault)

    @classmethod
    def fault_off(cls, t: float, bus: str) -> "Event":
        if bus not in FAULT_BUSES:
            raise ValueError(f"fault bus must be one of {FAULT_BUSES}, got {bus!r}")
        return cls(t=t, kind="fault_off", bus=bus)

    @classmethod
    def step_ref(cls, t: float, channel: str, delta: float) -> "Event":
        if channel not in STEP_CHANNELS:
            raise ValueError(f"step channel must be one of {STEP_CHANNELS}, got {channel!r}")
        if not math.isfinite(delta):
            raise ValueError(f"step delta must be finite, got {delta}")
        return cls(t=t, kind="step_ref", channel=channel, delta=delta)


@dataclass
class TimeSeries:
    """Uniformly sampled named signals."""

    t: np.ndarray
    columns: dict[str, np.ndarray]
    dt: float
    meta: str = ""
    diverged: bool = False
    aborted: bool = False
    note: str = ""

    def __post_init__(self) -> None:
        n = self.t.size
        for name, col in self.columns.items():
            if col.size != n:
                raise ValueError(f"column {name!r} length {col.size} != t length {n}")
        if n > 1:
            gaps = np.diff(self.t)
            if float(np.max(np.abs(gaps - self.dt))) >= 1e-12:
                raise ValueError("time vector is not uniformly spaced at dt")

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


Step = Callable[[np.ndarray], np.ndarray]


class Affine(NamedTuple):
    """The step x -> phi @ x + gamma, as data so that march can square it."""

    phi: np.ndarray
    gamma: np.ndarray


class Run(NamedTuple):
    """States of a marched trajectory, truncated at its last valid sample."""

    states: np.ndarray
    diverged: bool
    aborted: bool
    note: str


def march(x0: np.ndarray, n_steps: int, dt: float,
          segments: Sequence[tuple[int, Union[Step, Affine]]]) -> Run:
    """Step x0 through n_steps steps of dt. segments lists (first step,
    step rule) in increasing order, the first starting at step 0; each rule
    holds until the next segment begins. A Step is called once per step.
    An Affine segment is filled by doubling and runs on through a next one
    with a bit-identical map, so that a no-op event keeps the rounding."""
    states = np.empty((n_steps + 1, x0.size))
    states[0] = x0
    kept = list(segments[:1])
    for seg in segments[1:]:
        if not (isinstance(seg[1], Affine) and isinstance(kept[-1][1], Affine)
                and all(map(np.array_equal, kept[-1][1], seg[1]))):
            kept.append(seg)
    ends = [k for k, _ in kept[1:]] + [n_steps]
    for (start, rule), end in zip(kept, ends):
        if isinstance(rule, Affine):
            bad = _fill_affine(states, start, end, rule)
        else:
            bad, limit2 = None, DIVERGENCE_LIMIT**2
            with np.errstate(over="ignore"):  # a squared norm past float range reads inf
                for k in range(start, end):
                    x = states[k + 1] = rule(states[k])
                    # a sum of squares inside limit2 has every entry inside the limit
                    if not x.dot(x) <= limit2 and not float(np.abs(x).max()) <= DIVERGENCE_LIMIT:
                        bad = k + 1
                        break
        if bad is not None:
            at = f"at t={bad * dt:.6g} s"
            if not np.isfinite(states[bad]).all():  # dropped, and the run aborts
                return Run(states[:bad], False, True, f"non-finite state {at}; series truncated")
            return Run(states[: bad + 1], True, False,
                       f"state magnitude exceeded {DIVERGENCE_LIMIT:g} {at}")
    return Run(states, False, False, "")


def _fill_affine(states: np.ndarray, start: int, end: int, rule: Affine) -> Optional[int]:
    """Fill rows start+1..end, each block the h rows before it mapped by the
    h-th power of the step; return the first bad row, or None. The power is
    squared only while finite: an undriven unstable mode must not meet inf*0."""
    (phi, gamma), h, k = rule, 1, start  # rows to k are filled
    while k < end:
        rows = states[k + 1 : min(k + 1 + h, end + 1)]
        np.matmul(states[k + 1 - h : k + 1 - h + len(rows)], phi.T, out=rows)
        rows += gamma
        bad = np.flatnonzero(~(np.abs(rows).max(axis=1) <= DIVERGENCE_LIMIT))
        if bad.size:
            return k + 1 + int(bad[0])
        k += len(rows)
        if k == end:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            square = Affine(phi @ phi, phi @ gamma + gamma)
        if all(np.isfinite(v).all() for v in square):
            (phi, gamma), h = square, 2 * h
    return None


def zoh_step(a: np.ndarray, b: np.ndarray, dt: float) -> Affine:
    """Exact step of x' = a x + b over dt with b held constant."""
    import scipy.linalg  # imported here so that wppsc starts without scipy

    n = a.shape[0]
    e = scipy.linalg.expm(np.block([[a, b[:, None]], [np.zeros((1, n + 1))]]) * dt)
    return Affine(e[:n, :n], e[:n, n])


def _rk4_step(model: SystemModel, refs: RefInputs, fault: Optional[FaultSpec],
              dt: float) -> Step:
    """Classic RK4 step of the plant x' = a x + b + E g(C x) (see
    components), its linear part folded once for the segment. Every stage
    state, so every stage input C y_i and the step's result, is affine in
    z = [x; 1; g_1; ...; g_4], g_j the controller output at stage j, and
    stage i reads g_j only for j < i. A step is one matvec for the four
    stage inputs, the controller on Python floats at each stage with the few
    terms in earlier outputs added on floats, and one matvec for the result,
    which ends with the pinned-bus write (if any)."""
    a, pinned = model.treatment(fault, dt)
    b, g = model.source_map @ model.emfs(refs), model.controller(refs)
    reads, writes = model.reads, model.writes
    n, k_in, l_out = model.n, len(reads), len(writes)
    settle = np.eye(n)  # the pinned-bus write, which the controller reads through
    if pinned is not None:
        k, pin = pinned
        settle[k : k + 2] = pin
    c, e = settle[reads], np.eye(n)[:, writes]
    inputs = []

    def stage(y: np.ndarray, j: int) -> np.ndarray:  # the stage derivative as a map of z
        inputs.append(c @ y)
        k = a @ y
        k[:, n] += b
        k[:, n + 1 + j * l_out : n + 1 + (j + 1) * l_out] += e
        return k

    x = np.eye(n, n + 1 + 4 * l_out)
    k1 = stage(x, 0)
    k2 = stage(x + 0.5 * dt * k1, 1)
    k3 = stage(x + 0.5 * dt * k2, 2)
    k4 = stage(x + dt * k3, 3)
    x_new = settle @ (x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    # contiguous copies for the per-step matvecs: the parts in x and in 1 of
    # the four stage inputs and the result, and the result's part in g_1..g_4
    maps = np.vstack([*inputs, x_new])
    lin_x, lin_1, x_g = maps[:, :n].copy(), maps[:, n].copy(), x_new[:, n + 1 :].copy()
    # per stage: its slice of the flat inputs, and its couplings to earlier
    # outputs as (index into the flat inputs, output index, weight)
    stages = [(slice(i * k_in, (i + 1) * k_in),
               [(i * k_in + r, j, float(w[r, j])) for r, j in zip(*np.nonzero(w))])
              for i, w in enumerate(u[:, n + 1 :] for u in inputs)]
    n_in = 4 * k_in

    def step(x: np.ndarray) -> np.ndarray:
        v = lin_x @ x + lin_1
        u = v[:n_in].tolist()
        out = []
        for cols, terms in stages:
            for r, j, w in terms:
                u[r] += w * out[j]
            out += g(u[cols])
        return v[n_in:] + np.dot(x_g, out)  # np.dot converts a list faster than @

    return step


def _affine_step(model: SystemModel, refs: RefInputs, fault: Optional[FaultSpec],
                 dt: float) -> Affine:
    """Exact step of an affine plant x' = a x + b; without dt a fault is an
    ordinary shunt conductance."""
    return zoh_step(model.treatment(fault)[0], model.source_map @ model.emfs(refs), dt)


class ScheduleError(ValueError):
    """An event schedule the plant cannot run: unpaired faults, or a step of
    a reference the plant does not read."""


def _segments(model: SystemModel, events: Sequence[Event], refs: RefInputs, dt: float,
              n_steps: int) -> list[tuple[int, RefInputs, Optional[FaultSpec]]]:
    """(first step, refs, active fault) from step 0 on, one entry per step
    at which an event lands; events past the horizon are dropped."""
    segments = {0: (refs, None)}
    fault = None
    for ev in sorted(events, key=lambda e: e.t):
        k = int(round(ev.t / dt))
        if k >= n_steps:
            continue
        if ev.kind == "step_ref":
            read = input_labels(model)
            if ev.channel not in read:
                raise ScheduleError(f"step_ref at t={ev.t} on {ev.channel!r}, a reference "
                                    f"the plant does not read (it reads {', '.join(read)})")
            refs = replace(refs, **{ev.channel: getattr(refs, ev.channel) + ev.delta})
        elif ev.kind == "fault_on":
            if fault is not None:
                raise ScheduleError(f"fault_on at t={ev.t} while a fault is already active")
            fault = FaultSpec(ev.bus, ev.r_fault)
        else:
            if fault is None or fault.bus != ev.bus:
                raise ScheduleError(f"fault_off at t={ev.t} without a matching fault_on")
            fault = None
        segments[k] = (refs, fault)
    return [(k, r, f) for k, (r, f) in segments.items()]


def integrate(
    model: SystemModel,
    x0: np.ndarray,
    refs: RefInputs,
    t_end: float,
    dt: float = 5e-5,
    events: Sequence[Event] = (),
) -> TimeSeries:
    """Integrate the plant ODE from x0 with the given event schedule: exact
    zero-order hold when the plant is affine, RK4 otherwise.

    Captures every state plus interface powers and bus voltage magnitudes at
    every step, the derived signals in one measure call per event segment.
    """
    if not 1e-6 <= dt <= 1e-3:
        raise ValueError(f"dt must be in [1e-6, 1e-3] s, got {dt}")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be > 0, got {t_end}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n,) or not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be a finite state vector of the model's dimension")

    n_steps = int(round(t_end / dt))
    segments = _segments(model, events, refs, dt, n_steps)
    rule = _affine_step if model.affine else _rk4_step
    run = march(x0, n_steps, dt, [(k, rule(model, r, f, dt)) for k, r, f in segments])

    states = run.states
    columns = {lab: states[:, i].copy() for i, lab in enumerate(model.labels)}
    columns.update((name, np.empty(len(states))) for name in DERIVED_SIGNALS)
    # row 0 reads the refs before any t=0 event, row k+1 those of step k
    ends = [k for k, _, _ in segments[1:]] + [n_steps]
    spans = [(slice(0, 1), refs)] + [
        (slice(k + 1, end + 1), r) for (k, r, _), end in zip(segments, ends)
    ]
    for rows, r in spans:
        m = model.measure(states[rows].T, r)
        for name in DERIVED_SIGNALS:
            columns[name][rows] = m[name]
    return TimeSeries(
        t=np.arange(len(states)) * dt, columns=columns, dt=dt,
        diverged=run.diverged, aborted=run.aborted, note=run.note,
    )
