"""Fixed-step time marching of the plant and of linear models.

One march owns event segments, the divergence and non-finite checks and
truncation. Within a segment one step rule advances the state by dt:
ETDRK4, exponential RK4 (Cox & Matthews, J. Comput. Phys. 176, 2002), for
the plant x' = L x + b + E g(C x), with L the segment's faulted network
matrix, integrated exactly, so that a fault of any resistance is a plain
shunt conductance in it. The rule is the segment folded into data once:
one fused map from [x; 1; o], o the step's controller outputs, to the next
state and its flat stage inputs, the couplings of each stage input to
earlier controller outputs as a pattern of (flat slot, output) pairs with
their weights, and the control law (components.ControlLaw) with the values
it binds. march runs it through a straight-line loop generated once per
pattern and law: the stage inputs are locals, each coupling is one line,
the law's text is written inline at each of the four stages, and the step
ends in the one matvec and the checks. Without a controller the rule is the
exact zero-order hold x+ = Phi x + gamma, with Phi and gamma from one expm
of [[A, b], [0, 0]] dt (Van Loan, IEEE TAC 1978), held as data and filled
by doubling: rows h..2h-1 of a segment are rows 0..h-1 mapped by the h-th
power of the hold, which is then squared, and the filled segment is checked
by one test over all its rows, which are searched for the first bad one
only when that test fails. analysis.step_response steps the linear model by
the same hold.

trajectory runs the plant under an event schedule and returns the marched
states (a Run); integrate is trajectory plus the capture, a TimeSeries of
every state and the derived signals. Events snap to the nearest step
boundary and take effect at the start of that step. Row 0 of either is the
initial condition before any t=0 event. A trajectory that leaves
|x| <= 1e6 pu (every entry) is truncated and flagged diverged (an expected
outcome for unstable scenarios, not a solver error); a non-finite state
truncates at the last valid sample and flags the run aborted. A stepped
row whose sum of squares is inside the limit's square passes without the
entrywise test.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .components import FAULT_BUSES, ControlLaw, FaultSpec, RefInputs, SystemModel

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


class Affine(NamedTuple):
    """The step x -> phi @ x + gamma, as data so that march can square it."""

    phi: np.ndarray
    gamma: np.ndarray


class Rk4(NamedTuple):
    """One segment's ETDRK4 step as data (see _step_rule): with k_in
    controller inputs and l_out outputs, first @ [x; 1] holds a segment's
    first 4 k_in flat stage inputs; stage i adds to its inputs the couplings
    of pattern[i], each (flat slot, output) times its weight, in order, then
    runs law, bound to values; with o the step's 4 l_out outputs,
    step @ [x; 1; o] holds the next state and then its stage inputs."""

    first: np.ndarray
    step: np.ndarray
    law: ControlLaw
    values: tuple
    weights: tuple[float, ...]
    pattern: tuple[tuple[tuple[int, int], ...], ...]


class Run(NamedTuple):
    """States of a marched trajectory, truncated at its last valid sample."""

    states: np.ndarray
    diverged: bool
    aborted: bool
    note: str


def march(x0: np.ndarray, n_steps: int, dt: float,
          segments: Sequence[tuple[int, Union[Rk4, Affine]]]) -> Run:
    """Step x0 through n_steps steps of dt. segments lists (first step,
    step rule) in increasing order, the first starting at step 0; each rule
    holds until the next segment begins. An Rk4 segment runs through its
    pattern's and law's compiled loop, an Affine one is filled by doubling."""
    states = np.empty((n_steps + 1, x0.size))
    states[0] = x0
    ends = [k for k, _ in segments[1:]] + [n_steps]
    for (start, rule), end in zip(segments, ends):
        if isinstance(rule, Affine):
            bad = _fill_affine(states, start, end, rule)
        else:
            with np.errstate(over="ignore"):  # a squared norm past float range reads inf
                bad = _segment_loop(rule.pattern, rule.law)(*rule)(states, start, end)
        if bad is not None:
            at = f"at t={bad * dt:.6g} s"
            if not np.isfinite(states[bad]).all():  # dropped, and the run aborts
                return Run(states[:bad], False, True, f"non-finite state {at}; series truncated")
            return Run(states[: bad + 1], True, False,
                       f"state magnitude exceeded {DIVERGENCE_LIMIT:g} {at}")
    return Run(states, False, False, "")


def _fill_affine(states: np.ndarray, start: int, end: int, rule: Affine) -> Optional[int]:
    """Fill rows start+1..end, each block the h rows before it mapped by the
    h-th power of the step, then return the first bad row, or None. A row
    depends only on the rows before it, so one test over the whole filled
    segment fails exactly when a check after every step would, and only
    then are its rows searched for the first bad one; the rows past it may
    overflow unseen, and march drops them. The power is squared only while
    every entry of the square is finite: an undriven unstable mode must not
    meet inf*0."""
    (phi, gamma), h, k = rule, 1, start  # rows to k are filled
    with np.errstate(over="ignore", invalid="ignore"):
        while k < end:
            rows = states[k + 1 : min(k + 1 + h, end + 1)]
            np.matmul(states[k + 1 - h : k + 1 - h + len(rows)], phi.T, out=rows)
            rows += gamma
            k += len(rows)
            if k == end:
                break
            phi2, gamma2 = phi @ phi, phi @ gamma + gamma
            if np.isfinite(phi2).all() and np.isfinite(gamma2).all():
                phi, gamma, h = phi2, gamma2, 2 * h
    mag = np.abs(states[start + 1 : end + 1])
    if not mag.size or mag.max() <= DIVERGENCE_LIMIT:  # a NaN fails the test
        return None
    return start + 1 + int(np.flatnonzero(~(mag.max(axis=1) <= DIVERGENCE_LIMIT))[0])


@functools.lru_cache(maxsize=None)
def _segment_loop(pattern: tuple, law: ControlLaw) -> Callable[..., Callable]:
    """bind(*rule) -> run(states, start, end): the loop of an Rk4 rule with
    this pattern and law, which fills rows start+1..end and returns the
    first bad row (not finite, or an entry beyond the limit), or None."""
    # The loop is generated because walking the couplings as generic tuples,
    # and calling the law, once per step, cost more in interpreter dispatch
    # than the arithmetic. The source holds indices and the law's text only
    # (its names become locals of run, beside z, r, zx, x, buffer and k);
    # bind takes the maps, the law's values and the weights once per segment.
    k_in, l_out = len(law.inputs), len(law.outputs)
    u, o = [f"u{r}" for r in range(4 * k_in)], [f"o{j}" for j in range(4 * l_out)]
    lines, t = [], 0
    for i, couplings in enumerate(pattern):
        for r, j in couplings:
            lines.append(f"u{r} += w{t} * o{j}")
            t += 1
        names = dict(zip(law.inputs, u[i * k_in : (i + 1) * k_in]))
        names.update(zip(law.outputs, o[i * l_out : (i + 1) * l_out]))
        lines += law.inline(names).splitlines()
    body = "\n            ".join(lines)
    source = f"""
def bind(first, step, law, values, weights, pattern):
    [{', '.join(f'w{s}' for s in range(t))}] = weights
    [{', '.join(law.bound)}] = values
    n, matvec = len(step) - len(first), step.dot
    o_at, u_at = 8 * (n + 1), 8 * n  # byte offsets of o in z and of the stage inputs in r
    def run(states, start, end):
        z, r = ones(n + 1 + {len(o)}), empty(len(step))  # z = [x; 1; o], r = step @ z
        zx, x, buffer = z[:n], r[:n], memoryview(z)
        zx[:] = states[start]
        [{', '.join(u)}] = first.dot(z[: n + 1]).tolist()
        for k in range(start, end):
            {body}
            put(buffer, o_at, {', '.join(o)})
            matvec(z, r)
            states[k + 1] = x
            # a sum of squares inside limit2 has every entry inside the limit
            if not x.dot(x) <= limit2 and not abs(x).max() <= limit:
                return k + 1
            zx[:] = x
            [{', '.join(u)}] = take(r, u_at)
        return None
    return run
"""
    # struct moves the floats into z and out of r in one C call each, with no list to convert
    namespace = {"ones": np.ones, "empty": np.empty, "cos": math.cos, "sin": math.sin,
                 "hypot": math.hypot, "limit": DIVERGENCE_LIMIT, "limit2": DIVERGENCE_LIMIT**2,
                 "put": struct.Struct(f"{len(o)}d").pack_into,
                 "take": struct.Struct(f"{len(u)}d").unpack_from}
    exec(compile(source, f"<rk4 loop {k_in}x{l_out}>", "exec"), namespace)
    return namespace["bind"]


def zoh_step(a: np.ndarray, b: np.ndarray, dt: float) -> Affine:
    """Exact step of x' = a x + b over dt with b held constant."""
    import scipy.linalg  # imported here so that wppsc starts without scipy

    n = a.shape[0]
    m = np.zeros((n + 1, n + 1))
    m[:n, :n], m[:n, n] = a * dt, b * dt
    e = scipy.linalg.expm(m)
    return Affine(e[:n, :n], e[:n, n])


def _step_rule(model: SystemModel, refs: RefInputs, fault: Optional[FaultSpec],
               dt: float) -> Union[Rk4, Affine]:
    """ETDRK4 step of the plant x' = L x + N(x), L = a under the fault and
    N(x) = b + E g(C x) (see components), folded once for the segment into
    the data of an Rk4 rule. With h = dt, P = (h/2) phi1(hL/2) and
    N_i = b + E g_i, the stages are x, y2 = e^{hL/2} x + P N_1,
    y3 = e^{hL/2} x + P N_2 and y4 = e^{hL/2} y2 + P (2 N_3 - N_1), and the
    step is e^{hL} x + h (f1 N_1 + 2 f2 (N_2 + N_3) + f3 N_4), with
    f1 = phi1 - 3 phi2 + 4 phi3, f2 = phi2 - 2 phi3 and f3 = 4 phi3 - phi2
    at hL. Every stage state, so every stage input C y_i and the step's
    result x+ = [T, t0, R] z, is affine in z = [x; 1; g_1; ...; g_4], g_j
    the controller output at stage j, and stage i reads g_j only for j < i.
    The stage inputs' parts in x and 1 are [U, u0] @ [x; 1], so the next
    step's, U x+ + u0, are affine in z too, and one matvec with [T, t0, R]
    over [U T, U t0 + u0, U R] gives both x+ and them. A step is the control
    law, written inline, at each stage on Python floats, with its few
    nonzero couplings to earlier outputs added on floats, and that one
    matvec. Without a controller N is b, f1 + 4 f2 + f3 = phi1 makes the
    step the exact hold, and the rule is zoh_step's."""
    a, b = model.treatment(fault), model.source_map @ model.emfs(refs)
    if not model.writes:
        return zoh_step(a, b, dt)
    import scipy.linalg  # imported here so that wppsc starts without scipy

    reads, (law, values) = model.reads, model.law(refs)
    n, k_in, l_out = model.n, len(reads), len(model.writes)
    # the first block row of expm([[A, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I], 0])
    # is e^A, phi1(A), phi2(A), phi3(A); at A = hL/2 the doubling rule
    # phi_k(2A) = 2^-k [e^A phi_k(A) + sum_{j=1..k} phi_j(A) / (k-j)!] gives hL
    block = np.eye(4 * n, k=n)
    block[:n, :n] = 0.5 * dt * a
    e_half, h1, h2, h3 = np.hsplit(scipy.linalg.expm(block)[:n], 4)
    phi1 = (e_half @ h1 + h1) / 2.0
    phi2 = (e_half @ h2 + h1 + h2) / 4.0
    phi3 = (e_half @ h3 + 0.5 * h1 + h2 + h3) / 8.0
    half = 0.5 * dt * h1

    x = np.eye(n, n + 1 + 4 * l_out)  # the state as a map of z
    forces = np.zeros((4, *x.shape))  # N_1, ..., N_4 as maps of z
    forces[:, :, n] = b
    for j, f in enumerate(forces):
        f[:, n + 1 + j * l_out : n + 1 + (j + 1) * l_out] = np.eye(n)[:, model.writes]
    n1, n2, n3, n4 = forces
    y2 = e_half @ x + half @ n1
    y3 = e_half @ x + half @ n2
    y4 = e_half @ y2 + half @ (2.0 * n3 - n1)
    x_new = e_half @ e_half @ x + dt * ((phi1 - 3.0 * phi2 + 4.0 * phi3) @ n1
                                        + 2.0 * (phi2 - 2.0 * phi3) @ (n2 + n3)
                                        + (4.0 * phi3 - phi2) @ n4)
    inputs = np.vstack([y[reads] for y in (x, y2, y3, y4)])
    # the next step's stage inputs are inputs' parts in x and 1 applied to
    # x_new; each stage's couplings to earlier outputs as (flat slot, output)
    step = np.vstack([x_new, inputs[:, :n] @ x_new])
    step[n:, n] += inputs[:, n]
    pattern, weights = [], []
    for i, w in enumerate(np.split(inputs[:, n + 1 :], 4)):
        rows, cols = np.nonzero(w)
        pattern.append(tuple(zip((i * k_in + rows).tolist(), cols.tolist())))
        weights += w[rows, cols].tolist()
    return Rk4(inputs[:, : n + 1].copy(), step, law, values, tuple(weights), tuple(pattern))


class ScheduleError(ValueError):
    """An event schedule the plant cannot run: unpaired faults, or a step of
    a reference the plant does not read."""


def _segments(model: SystemModel, events: Sequence[Event], refs: RefInputs, dt: float,
              n_steps: int) -> list[tuple[int, RefInputs, Optional[FaultSpec]]]:
    """(first step, refs, applied fault) from step 0 on, one entry per step
    at which an event lands and changes the refs or the fault its treatment
    applies (none for an open circuit), so that each entry's rule differs
    from the one before it. The whole schedule is checked, on the faults as
    stated; events past the horizon are then dropped."""
    segments = [(0, refs, None)]
    fault = None
    for ev in sorted(events, key=lambda e: e.t):
        if ev.kind == "step_ref":
            if ev.channel not in model.inputs:
                raise ScheduleError(f"step_ref at t={ev.t} on {ev.channel!r}, a reference "
                                    f"the plant does not read (it reads {', '.join(model.inputs)})")
            refs = replace(refs, **{ev.channel: getattr(refs, ev.channel) + ev.delta})
        elif ev.kind == "fault_on":
            if fault is not None:
                raise ScheduleError(f"fault_on at t={ev.t} while a fault is already active")
            fault = FaultSpec(ev.bus, ev.r_fault)
        else:
            if fault is None or fault.bus != ev.bus:
                raise ScheduleError(f"fault_off at t={ev.t} without a matching fault_on")
            fault = None
        k = int(round(ev.t / dt))
        if k < n_steps:  # the last event at a step wins
            applied = fault if model.treatment(fault) is not model.a else None
            if segments[-1][0] == k:
                del segments[-1]
            if not segments or segments[-1][1:] != (refs, applied):
                segments.append((k, refs, applied))
    return segments


def trajectory(model: SystemModel, x0: np.ndarray, refs: RefInputs, t_end: float, dt: float,
               events: Sequence[Event]) -> Run:
    """The states of the plant ODE run from x0 with the given event schedule,
    one ETDRK4 rule per event segment (the exact zero-order hold when the
    plant has no controller): row k at t = k dt, row 0 before any t=0 event,
    truncated at the last valid sample with march's flags and note."""
    return _trajectory(model, x0, refs, t_end, dt, events)[0]


def _trajectory(model: SystemModel, x0: np.ndarray, refs: RefInputs, t_end: float, dt: float,
                events: Sequence[Event]) -> tuple[Run, list[tuple[int, RefInputs, Optional[FaultSpec]]]]:
    """trajectory's run and the schedule it ran (see _segments)."""
    if not 1e-6 <= dt <= 1e-3:
        raise ValueError(f"dt must be in [1e-6, 1e-3] s, got {dt}")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be > 0, got {t_end}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n,) or not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be a finite state vector of the model's dimension")

    n_steps = int(round(t_end / dt))
    segments = _segments(model, events, refs, dt, n_steps)
    rules = {key: _step_rule(model, *key, dt) for key in dict.fromkeys((r, f) for _, r, f in segments)}
    return march(x0, n_steps, dt, [(k, rules[r, f]) for k, r, f in segments]), segments


def integrate(
    model: SystemModel,
    x0: np.ndarray,
    refs: RefInputs,
    t_end: float,
    dt: float = 5e-5,
    events: Sequence[Event] = (),
) -> TimeSeries:
    """trajectory's run as a TimeSeries: every state plus interface powers
    and bus voltage magnitudes at every sample, the derived signals in one
    measure call per event segment.
    """
    run, segments = _trajectory(model, x0, refs, t_end, dt, events)
    states = run.states
    columns = {lab: states[:, i].copy() for i, lab in enumerate(model.labels)}
    columns.update((name, np.empty(len(states))) for name in DERIVED_SIGNALS)
    # row 0 reads the refs before any t=0 event, row k+1 those of step k
    ends = [k for k, _, _ in segments[1:]] + [len(states) - 1]
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
