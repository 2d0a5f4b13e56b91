"""Nonlinear dq-frame component models and the assembled plant ODE.

Everything is per-unit on the single plant MVA base, angles in radians,
time in seconds. A dq pair composes as d + jq and all branch equations
carry the +jX rotation term of the common synchronous frame, so a branch
at rest satisfies (R - jX) i = v_send - v_recv. Active power is
p = v_d i_d + v_q i_q and reactive power q = v_q i_d - v_d i_q, which makes
a purely capacitive injection carry negative q.

Network layout: converter -> RL filter -> shunt filter capacitor (the
turbine terminal bus) -> lumped array-cable plus plant-transformer branch ->
PCC bus -> grid Thevenin branch, with the synchronous condenser branch also
tied to the PCC. The PCC carries a small shunt capacitance so the node law
is an ODE rather than an algebraic constraint.

Each parameter set is one record, in the units a scenario states it in,
that checks its own ranges: ScParams, GflParams, GfmParams and NetworkSpec
here, and the grid's Thevenin branch as a netbase.Impedance. Reactances are
pu at 50 Hz; SystemModel's netlist is the one place they become
inductances and capacitances.

Every branch and node law is linear in the state. SystemModel states the
network once, as an ordered netlist of branches (state, L, R, X, start,
end) and nodes (state, C, bus), each connection once, at its branch; a
fault bus is a node, by name (FAULT_BUSES). assemble_network turns it into
the state labels, the network matrix a, the source map S and the per-row s
(SystemModel.lc, Newton's row scale: each branch L or node C). Around the
network sits a small nonlinear controller: for given references and fault
the plant is x' = a x + b + E g(C x), each part read off the model: a from
SystemModel.treatment(fault), where a fault of any resistance is a shunt
conductance in its bus's node law, b = S emfs(refs), nonzero on the rows
`sources` alone (those of the branches a source starts), and g =
controller(refs), the control law bound to its gains and refs (law(refs)
gives the law and those values). Each law (GFL_LAWS, one per q mode, and
GFM_LAW) is a ControlLaw, stated once as straight-line text over named
values: the state labels it reads and writes, its gains, lf, b_cf and xf
and its refs. SystemModel takes its controller states, the rows `reads`
and `writes` and the values it binds from those names; so C is the rows
`reads` and E the columns `writes` of the identity, and g maps the one to
the other on Python floats or row vectors alike. Its callable g is built
from the text once per law, and sim's step loop writes the same text
inline. The passive plant has no controller, and both lists are empty.
The Jacobians difference b and g alone (linearize.split_jacobian).

SystemModel also states the plant's interface once: `inputs`, the
references the plant reads, in the order of the linear model's B columns,
and `unknowns`, the references the equilibrium solve closes (the condenser
EMF angle, then a reactive-mode GFL plant's q_star). SystemModel.rhs is the
fault-free plant a x + b + E g(x[reads]), on one state of shape (n,), whose
controller runs on Python floats, or on a batch of states as the columns of
an (n, m) array, whose controller runs on row vectors, through the same
code. A fault is stated only by treatment and the integrator's step rule
(sim), which folds the linear part of its ETDRK4 stages from the same parts.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .netbase import Impedance

TWO_PI = 2.0 * math.pi
OMEGA0 = TWO_PI * 50.0  # rad/s at 50 Hz

GFL = "gfl"
GFM = "gfm"
NO_CONVERTER = "none"
CONTROLS = (GFL, GFM, NO_CONVERTER)

Q_MODE_REACTIVE = "reactive"
Q_MODE_VOLTAGE = "voltage"
Q_MODES = (Q_MODE_REACTIVE, Q_MODE_VOLTAGE)

# Fault shunts at least this large are treated as an open circuit.
FAULT_OPEN_THRESHOLD = 1e8
FAULT_BUSES = ("pcc", "wt_mv")  # the bus names of SystemModel's node entries


def power_pair(v: np.ndarray, i: np.ndarray) -> tuple[float, float]:
    """Active/reactive power of a (voltage, current) pair."""
    return (v[0] * i[0] + v[1] * i[1], v[1] * i[0] - v[0] * i[1])


# ---------------------------------------------------------------------------
# parameter sets


def check_lc(name: str, value: float, kind: str, s: float) -> None:
    """Rejects the value of the named field when the L or C s it gives, or
    1 / s, is not finite and > 0 (a subnormal s has an infinite reciprocal)."""
    if not (0.0 < s < math.inf and 1.0 / s < math.inf):
        raise ValueError(f"{name} must be in the range where its {kind} and 1 / {kind} are finite, got {value}")


@dataclass(frozen=True)
class ScParams:
    """Synchronous condenser: constant EMF of magnitude e_mag behind the
    subtransient reactance, connected through its unit transformer
    r_tr + j x_tr. e_mag is 1 pu in normal studies; 0 shorts the source for
    passivity checks.

    r_tr lumps the stator, damper-circuit, and transformer losses; the
    default keeps the machine branch mode at roughly 20% damping so that
    adding the condenser never degrades the least-damped low-frequency
    mode of an otherwise stable plant."""

    x_sub: float = 0.17
    r_tr: float = 0.08
    x_tr: float = 0.1
    e_mag: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_sub) and self.x_sub > 0.0):
            raise ValueError(f"sc x_sub must be > 0, got {self.x_sub}")
        check_lc("sc x_sub", self.x_sub, "L", self.x_sub / OMEGA0)  # SystemModel's l_sub
        if not (math.isfinite(self.r_tr) and self.r_tr >= 0.0):
            raise ValueError(f"sc r_tr must be >= 0, got {self.r_tr}")
        if not (math.isfinite(self.x_tr) and self.x_tr >= 0.0):
            raise ValueError(f"sc x_tr must be >= 0, got {self.x_tr}")
        if not (math.isfinite(self.e_mag) and self.e_mag >= 0.0):
            raise ValueError(f"sc e_mag must be >= 0, got {self.e_mag}")


@dataclass(frozen=True)
class GflParams:
    """Grid-following control gains: PLL, outer power PI, inner current PI.

    The outer loop is deliberately integral-dominant: proportional power
    feedback acts at all frequencies and excites the lightly damped filter
    and cable resonances, while a slow integrator keeps full steady-state
    tracking. The PLL bandwidth sits near the power-loop crossover, which
    reproduces the classic synchronization instability on a very weak grid
    while every stronger case stays comfortably damped."""

    kp_pll: float = 6.0
    ki_pll: float = 1600.0
    kp_pc: float = 0.005
    ki_pc: float = 100.0
    kp_cc: float = 0.2
    ki_cc: float = 20.0

    def __post_init__(self) -> None:
        for name, v in vars(self).items():
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"gfl gain {name} must be > 0, got {v}")


@dataclass(frozen=True)
class GfmParams:
    """Grid-forming (virtual synchronous machine) gains: swing inertia and
    damping, outer voltage PI, inner current PI."""

    j_vsm: float = 0.2
    d_p: float = 50.0
    kp_v: float = 2.0
    ki_v: float = 100.0
    kp_c: float = 0.5
    ki_c: float = 20.0

    def __post_init__(self) -> None:
        for name, v in vars(self).items():
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"gfm gain {name} must be > 0, got {v}")


@dataclass(frozen=True)
class NetworkSpec:
    """Converter filter rf + j xf with its shunt capacitor of reactance x_cf,
    lumped array-cable (ra + j xa) and plant-transformer (rtf + j xtf)
    branch, and the PCC shunt capacitance c_pcc. Reactances are pu at the
    nominal frequency; SystemModel turns them into L and C once."""

    rf: float = 0.005
    xf: float = 0.08
    x_cf: float = 15.0
    ra: float = 0.006
    xa: float = 0.03
    rtf: float = 0.005
    xtf: float = 0.06
    c_pcc: float = 1e-4

    def __post_init__(self) -> None:
        for name, v in vars(self).items():
            op, ok = (">", v > 0.0) if name in ("xf", "x_cf", "c_pcc") else (">=", v >= 0.0)
            if not (math.isfinite(v) and ok):
                raise ValueError(f"network {name} must be {op} 0, got {v}")
        if not self.xa + self.xtf > 0.0:
            raise ValueError(f"network xa + xtf must be > 0, got {self.xa + self.xtf}")
        # SystemModel's lf, cf, la + ltf and c_pcc
        check_lc("network xf", self.xf, "L", self.xf / OMEGA0)
        check_lc("network x_cf", self.x_cf, "C", 1.0 / (OMEGA0 * self.x_cf))
        check_lc("network xa + xtf", self.xa + self.xtf, "L", self.xa / OMEGA0 + self.xtf / OMEGA0)
        check_lc("network c_pcc", self.c_pcc, "C", self.c_pcc)


@dataclass(frozen=True)
class RefInputs:
    """Reference and source inputs held constant during one RHS evaluation.

    phi_sc is the condenser EMF angle; it is an outcome of the equilibrium
    solve and then a fixed input for linearization and simulation.
    """

    p_star: float = 0.0
    v_turb_star: float = 1.0
    q_star: float = 0.0
    v_g_ref: float = 1.0
    v_g_angle: float = 0.0
    phi_sc: float = 0.0

    @classmethod
    def stack(cls, members: Sequence["RefInputs"]) -> "RefInputs":
        """Inputs of a batch: a field the members share stays one value, any
        other is the m-vector of their values."""
        fields = zip(*(vars(r).values() for r in members))
        return cls(*(v[0] if v.count(v[0]) == len(v) else np.array(v, dtype=float) for v in fields))

    def take(self, cols) -> "RefInputs":
        """The members cols (index, index array or mask) of a stacked batch."""
        values = vars(self).values()
        if not any(isinstance(v, np.ndarray) for v in values):  # shared by every member
            return self
        return RefInputs(*(v[cols] if isinstance(v, np.ndarray) else v for v in values))


@dataclass(frozen=True)
class FaultSpec:
    """Shunt fault resistance applied at a named bus ('pcc' or 'wt_mv')."""

    bus: str
    r_fault: float

    def __post_init__(self) -> None:
        if self.bus not in FAULT_BUSES:
            raise ValueError(f"fault bus must be one of {FAULT_BUSES}, got {self.bus!r}")
        if not (math.isfinite(self.r_fault) and self.r_fault > 0.0):
            raise ValueError(f"fault resistance must be > 0, got {self.r_fault}")


# ---------------------------------------------------------------------------
# converter controls


class ControlLaw:
    """A controller stated once, as straight-line text over named values.
    Its inputs are the labels of the plant states it reads (the entries of
    u, in order), and output k is a rate term of the state writes[k]; an
    input the network does not hold is one of the law's own states, which
    SystemModel places after the network's. The values it binds are its
    constants (gains, and the filter's lf, b_cf = omega0 cf and
    xf = omega0 lf), then the refs it reads, each by its RefInputs name.
    bind(values) -> g(u), compiled once per law, runs the text on Python
    floats (math) or on row vectors (numpy), one value per column of a batch
    of states, alike; sim's segment loop writes the same text inline,
    renamed (inline), at each ETDRK4 stage."""

    def __init__(self, inputs: str, writes: str, constants: str, refs: str, outputs: str, text: str) -> None:
        self.inputs, self.writes, self.outputs = inputs.split(), writes.split(), outputs.split()
        self.constants, self.refs = constants.split(), refs.split()
        self.bound = self.constants + self.refs
        lines = [line.strip() for line in text.strip().splitlines()]  # straight-line: one level
        self.text, body = "\n".join(lines), "\n        ".join(lines)
        source = f"""
def bind(values):
    [{', '.join(self.bound)}] = values
    def g(u):
        [{', '.join(self.inputs)}] = u
        cos, sin, hypot = FLOATS if isinstance({self.inputs[0]}, float) else ROWS
        {body}
        return ({', '.join(self.outputs)},)
    return g
"""
        namespace = {"FLOATS": (math.cos, math.sin, math.hypot), "ROWS": (np.cos, np.sin, np.hypot)}
        exec(compile(source, f"<control law {self.outputs}>", "exec"), namespace)
        self.bind: Callable[[Sequence], Callable[[Sequence], tuple]] = namespace["bind"]

    def inline(self, names: dict[str, str]) -> str:
        """The text with each name that `names` holds renamed."""
        return re.sub(r"\w+", lambda m: names.get(m[0], m[0]), self.text)


# Grid-following control (PLL, outer power PI, inner current PI). theta_pll
# is stored relative to the synchronous frame, so its rate is zero at an
# equilibrium (the absolute rate is omega0 + its rate). Measurements are the
# filter-capacitor voltage and converter current rotated into the PLL
# frame; the inverter voltage reference is rotated back into the common
# frame. The q channel follows q_star (reactive) or |v_c| = v_turb_star
# (voltage).
_GFL_TEXT = """
    c, s = cos(theta_pll), sin(theta_pll)
    # measurements in the PLL frame: rotation by -theta_pll
    v_md, v_mq = c * v_c_d + s * v_c_q, c * v_c_q - s * v_c_d
    i_md, i_mq = c * i_f_d + s * i_f_q, c * i_f_q - s * i_f_d
    e_p = p_star - (v_c_d * i_a_d + v_c_q * i_a_q)
    i_star_d = kp_pc * e_p + ki_pc * gamma_d
    {q_channel}
    d_od, d_oq = i_star_d - i_md, i_star_q - i_mq
    v_sd = v_md + kp_cc * d_od + ki_cc * o_d
    v_sq = v_mq + kp_cc * d_oq + ki_cc * o_q
    inv_d, inv_q = (c * v_sd - s * v_sq) / lf, (s * v_sd + c * v_sq) / lf
    d_delta = kp_pll * v_mq + ki_pll * s_pll
"""
_Q_CHANNELS = {
    Q_MODE_REACTIVE: """e_q = q_star - (v_c_q * i_a_d - v_c_d * i_a_q)
    # raising i_q lowers q, hence the inverted PI output
    i_star_q = -(kp_pc * e_q + ki_pc * gamma_q)""",
    Q_MODE_VOLTAGE: """e_q = v_turb_star - hypot(v_c_d, v_c_q)
    i_star_q = kp_pc * e_q + ki_pc * gamma_q""",
}
GFL_LAWS = {mode: ControlLaw(
    "v_c_d v_c_q i_f_d i_f_q i_a_d i_a_q theta_pll s_pll gamma_d gamma_q o_d o_q",
    "i_f_d i_f_q theta_pll s_pll gamma_d gamma_q o_d o_q",
    " ".join(vars(GflParams())) + " lf", "p_star q_star v_turb_star",
    "inv_d inv_q d_delta v_mq e_p e_q d_od d_oq", _GFL_TEXT.format(q_channel=q_channel))
    for mode, q_channel in _Q_CHANNELS.items()}

# Grid-forming (virtual synchronous machine) control: swing synchronization,
# outer voltage PI with capacitor-current feedforward (b_cf = 1 / x_cf),
# inner current PI with inductor feedforward (xf). theta_pc is relative to
# the synchronous frame (absolute rate omega0 + omega_pc). The swing
# advances the applied EMF angle when power falls short of its reference:
# J domega/dt = p* - p_pc - D_p omega, dtheta/dt = omega.
GFM_LAW = ControlLaw(
    "v_c_d v_c_q i_f_d i_f_q i_a_d i_a_q theta_pc omega_pc m_d m_q o_d o_q",
    "i_f_d i_f_q theta_pc omega_pc m_d m_q o_d o_q",
    " ".join(vars(GfmParams())) + " b_cf xf lf", "p_star v_turb_star",
    "inv_d inv_q d_delta d_omega e_vd e_vq e_id e_iq", """
    c, s = cos(theta_pc), sin(theta_pc)
    # measurements and feedforward in the controller frame: rotation by theta_pc
    v_md, v_mq = c * v_c_d - s * v_c_q, s * v_c_d + c * v_c_q
    i_md, i_mq = c * i_f_d - s * i_f_q, s * i_f_d + c * i_f_q
    i_ffd, i_ffq = c * i_a_d - s * i_a_q, s * i_a_d + c * i_a_q
    d_delta, d_omega = omega_pc, (p_star - (v_c_d * i_a_d + v_c_q * i_a_q) - d_p * omega_pc) / j_vsm
    e_vd, e_vq = v_turb_star - v_md, -v_mq
    i_star_d = i_ffd + kp_v * e_vd + ki_v * m_d - v_mq * b_cf
    i_star_q = i_ffq + kp_v * e_vq + ki_v * m_q + v_md * b_cf
    e_id, e_iq = i_star_d - i_md, i_star_q - i_mq
    v_sd = v_md + kp_c * e_id + ki_c * o_d - xf * i_mq
    v_sq = v_mq + kp_c * e_iq + ki_c * o_q + xf * i_md
    inv_d, inv_q = (c * v_sd + s * v_sq) / lf, (c * v_sq - s * v_sd) / lf
    """)


# ---------------------------------------------------------------------------
# assembled system


def assemble_network(netlist: Sequence[tuple], inputs: Sequence[str] = ()) -> tuple:
    """(labels, lc, a, source_map) of an ordered netlist of dq pairs: branches
    (state, L, R, X, start, end), from start (a node, a source e_g or e_sc,
    or None) to their end node, and nodes (state, C, bus). Each law reads
    s dx/dt = sum of z x_column, s its L or C: a branch's z is complex(-R, X)
    on itself, +1 at its start and -1 at its end, a node's 1j omega0 C on
    itself and -1 or +1 on each branch that starts or ends there. The inputs
    the netlist does not hold (a controller's own states) follow its labels."""
    s = {entry[0]: entry[1] for entry in netlist}
    labels = tuple(dict.fromkeys([state + dq for state in s for dq in ("_d", "_q")] + list(inputs)))
    n = len(labels)
    cols = {**{state: k for k, state in enumerate(s)}, "e_g": n // 2, "e_sc": n // 2 + 1}
    z = np.zeros((n // 2, n // 2 + 2), complex)  # over dq pairs; law k is the pair k
    for state, c, *branch in netlist:
        k = cols[state]
        z[k, k] += (complex(-branch[0], branch[1]) if len(branch) == 4 else 1j * OMEGA0 * c) / c
        for col, sign in zip(branch[2:], (1.0, -1.0)):  # a branch's start and end
            if col is not None:
                z[k, cols[col]] += complex(sign) / c
            if col in s:
                z[cols[col], k] += complex(-sign) / s[col]
    law = np.empty((n, n + 4))  # each z as [[re, -im], [im, re]], with no -0.0 entries
    law[::2, ::2], law[::2, 1::2], law[1::2, ::2], law[1::2, 1::2] = z.real, 0.0 - z.imag, z.imag, z.real
    return labels, tuple([c for c in s.values() for _ in "dq"]), law[:, :n].copy(), law[:, n:].copy()


class SystemModel:
    """One scenario's assembled ODE: x_dot = rhs(x, refs).

    State layout (dq pairs contiguous), the netlist's, then own_states:
        i_g, [i_sc], [i_f], v_c, i_a, v_pcc, [6 controller states]
    i_sc appears only when sc is given, i_f and the controller's own
    states only when a converter is present. Dimensions: converter without
    condenser 16, with condenser 18; the passive (converter-open) network is
    8 or 10.
    """

    def __init__(
        self,
        grid: Impedance,
        network: NetworkSpec,
        control: str = GFL,
        gfl: Optional[GflParams] = None,
        gfm: Optional[GfmParams] = None,
        sc: Optional[ScParams] = None,
        q_mode: str = Q_MODE_REACTIVE,
    ) -> None:
        if control not in CONTROLS:
            raise ValueError(f"control must be one of gfl/gfm/none, got {control!r}")
        if q_mode not in Q_MODES:
            raise ValueError(f"q_mode must be reactive or voltage, got {q_mode!r}")
        self.grid = grid
        self.network = network
        self.control = control
        self.gfl = gfl if gfl is not None else (GflParams() if control == GFL else None)
        self.gfm = gfm if gfm is not None else (GfmParams() if control == GFM else None)
        self.sc, self.has_sc = sc, sc is not None
        self.q_mode = q_mode
        # the converter's control law, which names the states it reads and writes, and its gains
        self._law, gains = {GFL: (GFL_LAWS[q_mode], self.gfl),
                            GFM: (GFM_LAW, self.gfm)}.get(control, (None, None))
        # the references the plant reads, in B's column order, and those the
        # equilibrium solve closes: the condenser EMF angle, then q_star
        # where the plant reads it
        q_ref = "q_star" if control == GFL and q_mode == Q_MODE_REACTIVE else "v_turb_star"
        self.inputs: tuple[str, ...] = (
            ("v_g_ref",) if control == NO_CONVERTER else ("p_star", "v_g_ref", q_ref))
        self.unknowns: tuple[str, ...] = (
            ("phi_sc",) * (sc is not None) + ("q_star",) * ("q_star" in self.inputs))

        # the network's netlist, the only place a reactance becomes an L or a C; the
        # condenser's rotation term is x_sub + x_tr over L = x_sub / omega0 (README)
        net = network
        lf, cf = net.xf / OMEGA0, 1.0 / (OMEGA0 * net.x_cf)
        l_at = net.xa / OMEGA0 + net.xtf / OMEGA0
        netlist = [("i_g", grid.x / OMEGA0, grid.r, grid.x, "e_g", "v_pcc")]
        if sc is not None:
            netlist.append(("i_sc", sc.x_sub / OMEGA0, sc.r_tr, sc.x_sub + sc.x_tr, "e_sc", "v_pcc"))
        if control != NO_CONVERTER:
            netlist.append(("i_f", lf, net.rf, OMEGA0 * lf, None, "v_c"))
        netlist += [("v_c", cf, "wt_mv"), ("i_a", l_at, net.ra + net.rtf, OMEGA0 * l_at, "v_c", "v_pcc"),
                    ("v_pcc", net.c_pcc, "pcc")]
        # the control law's inputs: those the netlist does not hold are its own states
        inputs, writes = (self._law.inputs, self._law.writes) if self._law is not None else ((), ())
        self.labels, self.lc, self.a, self.source_map = assemble_network(netlist, inputs)
        self.own_states: tuple[str, ...] = self.labels[len(self.lc) :]
        self.n = len(self.labels)
        self._idx = {name: k for k, name in enumerate(self.labels)}
        self._nodes = {entry[2]: entry[0] + "_d" for entry in netlist if len(entry) == 3}  # by bus
        self.e_mag = sc.e_mag if sc is not None else 0.0  # the condenser EMF magnitude, 0 without one
        # the state rows the controller reads and those its outputs add to, then those b adds to
        self.reads: list[int] = [self._idx[s] for s in inputs]
        self.writes: list[int] = [self._idx[s] for s in writes]
        self.sources: list[int] = np.flatnonzero(self.source_map.any(axis=1)).tolist()
        if self._law is not None:  # the values the law binds, by name; all but the refs once, here
            known = {**vars(gains), "lf": lf, "b_cf": OMEGA0 * cf, "xf": OMEGA0 * lf}
            self._constants, self._refs = (operator.itemgetter(*self._law.constants)(known),
                                           operator.attrgetter(*self._law.refs))

    def index(self, label: str) -> int:
        return self._idx[label]

    def pair(self, x: np.ndarray, label_d: str) -> np.ndarray:
        k = self._idx[label_d]
        return x[k : k + 2]

    # -- linear network ------------------------------------------------------

    def treatment(self, fault: Optional[FaultSpec]) -> np.ndarray:
        """State matrix with the fault (if given, it is active) applied: a
        shunt conductance 1/r in its bus's node law, of any stiffness. A
        fault that changes the matrix gives a new one; a itself is never
        written. Very large resistances are an open circuit."""
        if fault is None or fault.r_fault >= FAULT_OPEN_THRESHOLD:
            return self.a
        k = self._idx[self._nodes[fault.bus]]
        a = self.a.copy()
        a[k : k + 2, k : k + 2] -= np.eye(2) / (fault.r_fault * self.lc[k])
        return a

    # -- right-hand side -----------------------------------------------------

    def emfs(self, refs: RefInputs) -> np.ndarray:
        """The source phasors (d, q) of refs, the grid source's and then the
        condenser EMF's (zero without the condenser), as the rows of a (4,)
        array, or of a (4, m) array for m-vector fields: b = source_map @ emfs."""
        v_g, angle, phi, e = refs.v_g_ref, refs.v_g_angle, refs.phi_sc, self.e_mag
        if isinstance(v_g, float) and isinstance(angle, float) and isinstance(phi, float):
            # one state's refs: math is several times cheaper than numpy on a float
            return np.array((v_g * math.cos(angle), v_g * math.sin(angle),
                             e * math.cos(phi), e * math.sin(phi)))
        out = np.empty((4, *np.broadcast(v_g, angle, phi).shape))
        out[0], out[1] = v_g * np.cos(angle), v_g * np.sin(angle)
        out[2], out[3] = e * np.cos(phi), e * np.sin(phi)
        return out

    def law(self, refs: RefInputs) -> tuple[ControlLaw, tuple]:
        """The converter's control law and the values it binds under refs."""
        return self._law, (*self._constants, *self._refs(refs))

    def controller(self, refs: RefInputs) -> Callable[[Sequence], Sequence]:
        """g: the controller with its gains and refs bound, over the rows
        `reads` to the rows `writes`."""
        if self._law is None:
            return lambda u: ()
        law, values = self.law(refs)
        return law.bind(values)

    def rhs(self, x: np.ndarray, refs: RefInputs) -> np.ndarray:
        """State derivative a x + b + E g(C x) of the fault-free plant with
        refs; a fault is applied by treatment and sim's step rule alone.

        x is one state of shape (n,) or a batch of states as the columns of
        an (n, m) array; with a batch, any field of refs may also be an
        m-vector, one value per column. Column j of a batch result agrees
        with the single-state result for column j to roundoff. A single
        state, or a batch of one column, runs the controller on Python
        floats, a batch on row vectors.
        """
        column = x.ndim == 2 and x.shape[1] == 1
        if column:
            x, refs = x[:, 0], refs.take(0)
        single = x.ndim == 1
        dx = self.a @ x
        b = self.source_map @ self.emfs(refs)
        dx += b if single else b.reshape(self.n, -1)
        rows = x.tolist() if single else x
        for r, out in zip(self.writes, self.controller(refs)([rows[i] for i in self.reads])):
            dx[r] += out
        return dx[:, None] if column else dx

    # -- measurements ---------------------------------------------------------

    def measure(self, x: np.ndarray, refs: RefInputs) -> dict:
        """Interface powers (converter output: turbine bus into the array
        branch; grid source; condenser EMF), then the turbine and PCC voltage
        magnitudes. x may be a batch of columns."""
        out = {}
        out["p_pc"], out["q_pc"] = power_pair(self.pair(x, "v_c_d"), self.pair(x, "i_a_d"))
        e = self.emfs(refs)
        out["p_g"], out["q_g"] = power_pair(e[:2], self.pair(x, "i_g_d"))
        out["p_sc"], out["q_sc"] = power_pair(e[2:], self.pair(x, "i_sc_d")) if self.has_sc else (0.0, 0.0)
        for node in ("v_c", "v_pcc"):
            out[node + "_mag"] = np.hypot(*self.pair(x, node + "_d"))
        return out
