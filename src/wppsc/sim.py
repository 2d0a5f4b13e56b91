"""Fixed-step time marching of the plant and of linear models.

One march loop owns event segments, the divergence and non-finite checks
and truncation. Within a segment a step rule advances the state by dt:
classic RK4 for the converter plant, on the plant derivative bound once per
event segment (SystemModel.derivative), or, for affine dynamics x' = A x + b,
the exact zero-order hold x+ = Phi x + gamma with Phi and gamma from one
expm of [[A, b], [0, 0]] dt (Van Loan, IEEE TAC 1978). The hold is exact at
any stiffness: integrate uses it for the passive plant, where a fault of any
resistance is a plain shunt conductance, and analysis.step_response for the
linear model.

Events snap to the nearest step boundary and take effect at the start of
that step. Row 0 of the captured series is the initial condition before any
t=0 event. A trajectory that leaves |x| <= 1e6 pu is truncated and flagged
diverged (an expected outcome for unstable scenarios, not a solver error);
a non-finite state truncates at the last valid sample and flags the run
aborted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
import scipy.linalg

from .components import FAULT_BUSES, FaultSpec, RefInputs, SystemModel

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

    def to_dict(self) -> dict:
        d = {"t": self.t, "kind": self.kind}
        if self.kind == "fault_on":
            d.update(bus=self.bus, r_fault=self.r_fault)
        elif self.kind == "fault_off":
            d.update(bus=self.bus)
        else:
            d.update(channel=self.channel, delta=self.delta)
        return d


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


class Run(NamedTuple):
    """States of a marched trajectory, truncated at its last valid sample."""

    states: np.ndarray
    diverged: bool
    aborted: bool
    note: str


def march(x0: np.ndarray, n_steps: int, dt: float,
          segments: Sequence[tuple[int, Step]]) -> Run:
    """Step x0 through n_steps steps of dt. segments lists (first step,
    step rule) in increasing order, the first starting at step 0; each rule
    holds until the next segment begins."""
    states = np.empty((n_steps + 1, x0.size))
    states[0] = x0
    ends = [k for k, _ in segments[1:]] + [n_steps]
    for (start, step), end in zip(segments, ends):
        for k in range(start, end):
            x_new = step(states[k])
            peak = float(np.abs(x_new).max())
            if not math.isfinite(peak):
                note = f"non-finite state at t={(k + 1) * dt:.6g} s; series truncated"
                return Run(states[: k + 1], False, True, note)
            states[k + 1] = x_new
            if peak > DIVERGENCE_LIMIT:
                note = f"state magnitude exceeded {DIVERGENCE_LIMIT:g} at t={(k + 1) * dt:.6g} s"
                return Run(states[: k + 2], True, False, note)
    return Run(states, False, False, "")


def zoh_step(a: np.ndarray, b: np.ndarray, dt: float) -> Step:
    """Exact step of x' = a x + b over dt with b held constant."""
    n = a.shape[0]
    e = scipy.linalg.expm(np.block([[a, b[:, None]], [np.zeros((1, n + 1))]]) * dt)
    phi, gamma = e[:n, :n], e[:n, n]
    return lambda x: phi @ x + gamma


def _rk4_step(model: SystemModel, refs: RefInputs, fault: Optional[FaultSpec],
              dt: float) -> Step:
    """Classic RK4 step of the plant, its derivative bound once for the
    segment. A bus the fault pins is written with its node-law value after
    every step, so the state carries it."""
    f = model.derivative(refs, fault, dt)
    pinned = model.pinned_bus(fault, dt) if fault is not None else None

    def step(x: np.ndarray) -> np.ndarray:
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if pinned is not None:
            k, pin = pinned
            x_new[k : k + 2] = pin @ x_new
        return x_new

    return step


def _affine_step(model: SystemModel, refs: RefInputs, fault: Optional[FaultSpec],
                 dt: float) -> Step:
    """Exact step of an affine plant: A and b from one rhs call on the
    columns [0 | I]; without dt a fault is an ordinary shunt conductance."""
    cols = model.rhs(np.eye(model.n, model.n + 1, 1), refs, fault)
    b = cols[:, 0]
    return zoh_step(cols[:, 1:] - b[:, None], b, dt)


def _segments(events: Sequence[Event], refs: RefInputs, dt: float,
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
            refs = replace(refs, **{ev.channel: getattr(refs, ev.channel) + ev.delta})
        elif ev.kind == "fault_on":
            if fault is not None:
                raise ValueError(f"fault_on at t={ev.t} while a fault is already active")
            fault = FaultSpec(ev.bus, ev.r_fault)
        else:
            if fault is None or fault.bus != ev.bus:
                raise ValueError(f"fault_off at t={ev.t} without a matching fault_on")
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
    meta: str = "",
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
    segments = _segments(events, refs, dt, n_steps)
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
        t=np.arange(len(states)) * dt, columns=columns, dt=dt, meta=meta,
        diverged=run.diverged, aborted=run.aborted, note=run.note,
    )
