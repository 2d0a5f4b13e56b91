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
pu at 50 Hz; SystemModel's law table is the one place they become
inductances and capacitances.

Every branch and node law is linear in the state. SystemModel states each
once, in one table of (state, s, {column: z}) entries that read
s dx/dt = sum of z x_column, with s the branch inductance or the node
capacitance; a column is a state or a source (e_g, e_sc). The state labels,
the dense network matrix a (the state columns), the source map S (the source
columns), the per-row s (SystemModel.lc, Newton's row scale) and the faulted
node's capacitance all come from that table. Around the network sits a small
nonlinear controller: for given inputs and fault the plant is
x' = a x + b + E g(C x), each part read off the model: a and the bus it pins
from SystemModel.treatment(fault, dt), b = S emfs(refs), and g =
controller(refs), the controller with its gains and refs bound
(gfl_controller, gfm_controller). g maps the values of the state rows
`reads`, read after the pinned-bus write, to outputs that add to the rows
`writes`, as Python floats or as row vectors alike; so C is the rows `reads`
of the pinned-bus write and E the columns `writes` of the identity. For the
converter plant the 12 inputs are v_c, i_f, i_a and the six controller
states, and the 8 outputs v_inv / lf (into the i_f rows) and the six
controller rates, with the converter power inlined; the passive plant has no
controller, and both lists are empty. The Jacobians difference b and g alone
(linearize.split_jacobian). SystemModel.rhs evaluates the plant on one state
of shape (n,), whose controller runs on Python floats, or on a batch of
states as the columns of an (n, m) array, whose controller runs on row
vectors, through the same code. The integrator folds the linear part of its
RK4 stages from the same parts.
"""

from __future__ import annotations

import math
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
_FAULT_NODES = {"pcc": "v_pcc", "wt_mv": "v_c"}  # the node state of each fault bus
FAULT_BUSES = tuple(_FAULT_NODES)

_CONTROLLER_STATES = {
    GFL: ("theta_pll", "s_pll", "gamma_d", "gamma_q", "o_d", "o_q"),
    GFM: ("theta_pc", "omega_pc", "m_d", "m_q", "o_d", "o_q"),
}


def power_pair(v: np.ndarray, i: np.ndarray) -> tuple[float, float]:
    """Active/reactive power of a (voltage, current) pair."""
    return (v[0] * i[0] + v[1] * i[1], v[1] * i[0] - v[0] * i[1])


def _block(z: complex) -> np.ndarray:
    """Real 2x2 matrix that multiplies a dq pair by the complex number z."""
    return np.array([[z.real, -z.imag], [z.imag, z.real]])


# ---------------------------------------------------------------------------
# parameter sets


def _check_lc(name: str, value: float, kind: str, s: float) -> None:
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
        _check_lc("sc x_sub", self.x_sub, "L", self.x_sub / OMEGA0)  # SystemModel's l_sub
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
        _check_lc("network xf", self.xf, "L", self.xf / OMEGA0)
        _check_lc("network x_cf", self.x_cf, "C", 1.0 / (OMEGA0 * self.x_cf))
        _check_lc("network xa + xtf", self.xa + self.xtf, "L", self.xa / OMEGA0 + self.xtf / OMEGA0)
        _check_lc("network c_pcc", self.c_pcc, "C", self.c_pcc)


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


def gfl_controller(
    p: GflParams, refs: RefInputs, q_mode: str, lf: float
) -> Callable[[Sequence], tuple]:
    """Grid-following control (PLL, outer power PI, inner current PI) with
    its gains and refs bound: g(u) -> the eight controller outputs.

    u = [v_c (2), i_f (2), i_a (2), theta_pll, s_pll, gamma_d, gamma_q, o_d,
    o_q], where theta_pll is stored relative to the synchronous frame so its
    rate is zero at an equilibrium (the absolute rate is omega0 + its rate).
    Measurements are the filter-capacitor voltage and converter current
    rotated into the PLL frame; the inverter voltage reference is rotated
    back into the common frame. The outputs are v_inv / lf (d, q), the
    inverter's term in the filter-current rate, then the six controller
    rates.

    Every entry of u is a float for one state, or an m-vector (one value per
    column of a batch of states); the outputs then carry the same columns.
    """
    voltage = q_mode == Q_MODE_VOLTAGE
    kp_pll, ki_pll, kp_pc, ki_pc, kp_cc, ki_cc = (
        p.kp_pll, p.ki_pll, p.kp_pc, p.ki_pc, p.kp_cc, p.ki_cc)
    p_star, q_star, v_star = refs.p_star, refs.q_star, refs.v_turb_star

    def g(u: Sequence) -> tuple:
        v_cd, v_cq, i_fd, i_fq, i_ad, i_aq, delta, s_pll, gamma_d, gamma_q, o_d, o_q = u
        fn = math if isinstance(delta, float) else np
        c, s = fn.cos(delta), fn.sin(delta)
        # measurements in the PLL frame: rotation by -delta
        v_md, v_mq = c * v_cd + s * v_cq, c * v_cq - s * v_cd
        i_md, i_mq = c * i_fd + s * i_fq, c * i_fq - s * i_fd
        e_p = p_star - (v_cd * i_ad + v_cq * i_aq)
        i_star_d = kp_pc * e_p + ki_pc * gamma_d
        if voltage:
            e_q = v_star - fn.hypot(v_cd, v_cq)
            i_star_q = kp_pc * e_q + ki_pc * gamma_q
        else:
            e_q = q_star - (v_cq * i_ad - v_cd * i_aq)
            # raising i_q lowers q, hence the inverted PI output
            i_star_q = -(kp_pc * e_q + ki_pc * gamma_q)
        d_od, d_oq = i_star_d - i_md, i_star_q - i_mq
        v_sd = v_md + kp_cc * d_od + ki_cc * o_d
        v_sq = v_mq + kp_cc * d_oq + ki_cc * o_q
        return ((c * v_sd - s * v_sq) / lf, (s * v_sd + c * v_sq) / lf,
                kp_pll * v_mq + ki_pll * s_pll, v_mq, e_p, e_q, d_od, d_oq)

    return g


def gfm_controller(
    p: GfmParams, refs: RefInputs, lf: float, cf: float
) -> Callable[[Sequence], tuple]:
    """Grid-forming control (swing synchronization, outer voltage PI with
    capacitor-current feedforward, inner current PI with inductor
    feedforward) with its gains and refs bound: g(u) -> the eight
    controller outputs.

    u = [v_c (2), i_f (2), i_a (2), theta_pc, omega_pc, m_d, m_q, o_d, o_q],
    theta_pc relative to the synchronous frame (absolute rate is omega0 +
    omega_pc). The swing advances the applied EMF angle when power falls
    short of its reference:

        J domega/dt = p* - p_pc - D_p omega,   dtheta/dt = omega

    The outputs are v_inv / lf (d, q) and the six controller rates; entries
    may be floats or m-vectors, as for gfl_controller.
    """
    j_vsm, d_p, kp_v, ki_v, kp_c, ki_c = p.j_vsm, p.d_p, p.kp_v, p.ki_v, p.kp_c, p.ki_c
    p_star, v_star = refs.p_star, refs.v_turb_star
    b_cf = OMEGA0 * cf  # capacitor susceptance 1 / x_cf
    xf = OMEGA0 * lf

    def g(u: Sequence) -> tuple:
        v_cd, v_cq, i_fd, i_fq, i_ad, i_aq, delta, omega_pc, m_d, m_q, o_d, o_q = u
        fn = math if isinstance(delta, float) else np
        c, s = fn.cos(delta), fn.sin(delta)
        # measurements and feedforward in the controller frame: rotation by delta
        v_md, v_mq = c * v_cd - s * v_cq, s * v_cd + c * v_cq
        i_md, i_mq = c * i_fd - s * i_fq, s * i_fd + c * i_fq
        i_ffd, i_ffq = c * i_ad - s * i_aq, s * i_ad + c * i_aq
        d_omega = (p_star - (v_cd * i_ad + v_cq * i_aq) - d_p * omega_pc) / j_vsm
        e_vd, e_vq = v_star - v_md, -v_mq
        i_star_d = i_ffd + kp_v * e_vd + ki_v * m_d - v_mq * b_cf
        i_star_q = i_ffq + kp_v * e_vq + ki_v * m_q + v_md * b_cf
        e_id, e_iq = i_star_d - i_md, i_star_q - i_mq
        v_sd = v_md + kp_c * e_id + ki_c * o_d - xf * i_mq
        v_sq = v_mq + kp_c * e_iq + ki_c * o_q + xf * i_md
        return ((c * v_sd + s * v_sq) / lf, (c * v_sq - s * v_sd) / lf,
                omega_pc, d_omega, e_vd, e_vq, e_id, e_iq)

    return g


# ---------------------------------------------------------------------------
# assembled system


class SystemModel:
    """One scenario's assembled ODE: x_dot = rhs(x, refs).

    State layout (dq pairs contiguous):
        i_g, [i_sc], [i_f], v_c, i_a, v_pcc, [6 controller states]
    i_sc appears only when sc is given, i_f and the controller
    block only when a converter is present. Dimensions: converter without
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
        self.sc = sc
        self.q_mode = q_mode

        # each network law as (state, s, {column: z}): s dx/dt = sum of z x_column
        # over dq pairs, s the branch inductance or the node capacitance, a column
        # a state or a source (b = S emfs(refs)); the controller adds
        # the inverter voltage. The only place a reactance becomes an L or a C.
        net = network
        lf, cf = net.xf / OMEGA0, 1.0 / (OMEGA0 * net.x_cf)
        l_at = net.xa / OMEGA0 + net.xtf / OMEGA0
        self._lf, self._cf = lf, cf  # bound into the controller
        laws = [("i_g", grid.x / OMEGA0, {"i_g": complex(-grid.r, grid.x), "v_pcc": -1.0, "e_g": 1.0})]
        if sc is not None:
            laws.append(("i_sc", sc.x_sub / OMEGA0,
                         {"i_sc": complex(-sc.r_tr, sc.x_sub + sc.x_tr), "v_pcc": -1.0, "e_sc": 1.0}))
        if control != NO_CONVERTER:
            laws.append(("i_f", lf, {"i_f": complex(-net.rf, OMEGA0 * lf), "v_c": -1.0}))
        laws += [
            ("v_c", cf, {"i_f": 1.0, "v_c": 1j * OMEGA0 * cf, "i_a": -1.0}),
            ("i_a", l_at, {"v_c": 1.0, "i_a": complex(-(net.ra + net.rtf), OMEGA0 * l_at), "v_pcc": -1.0}),
            ("v_pcc", net.c_pcc, {"i_g": 1.0, "i_sc": 1.0, "i_a": 1.0, "v_pcc": 1j * OMEGA0 * net.c_pcc}),
        ]
        labels, lc = [], []
        for state, s, _ in laws:
            labels += (state + "_d", state + "_q")
            lc += (s, s)
        self.labels: tuple[str, ...] = (*labels, *_CONTROLLER_STATES.get(control, ()))
        # the s of each network row: the only place a row's L or C is kept
        self.lc: tuple[float, ...] = tuple(lc)
        self.n = len(self.labels)
        self._idx = {name: k for k, name in enumerate(self.labels)}
        # each law's coefficients over its s, as 2x2 blocks: on the state columns
        # the fault-free state matrix a, on the source columns S, the map from
        # emfs to b
        cols = {state: k for k, (state, _, _) in enumerate(laws)}
        cols.update(e_g=self.n // 2, e_sc=self.n // 2 + 1)
        z = np.zeros((self.n // 2, self.n // 2 + 2), complex)  # over dq pairs; law k is the pair k
        for k, (_, s, terms) in enumerate(laws):
            for col, v in terms.items():
                if col in cols:  # i_sc and i_f only where present
                    z[k, cols[col]] += complex(v) / s
        law = np.empty((self.n, self.n + 4))  # each z as [[re, -im], [im, re]], with no -0.0 entries
        law[::2, ::2], law[::2, 1::2], law[1::2, ::2], law[1::2, 1::2] = z.real, 0.0 - z.imag, z.imag, z.real
        self.a, self.source_map = law[:, : self.n].copy(), law[:, self.n :].copy()
        self._e_mag = sc.e_mag if sc is not None else 0.0
        # the state rows the controller reads and those its outputs add to
        self.reads: list[int] = []
        self.writes: list[int] = []
        if control != NO_CONVERTER:
            kv, kf, ka = self._idx["v_c_d"], self._idx["i_f_d"], self._idx["i_a_d"]
            ctrl = list(range(self.n - 6, self.n))
            self.reads = [kv, kv + 1, kf, kf + 1, ka, ka + 1, *ctrl]
            self.writes = [kf, kf + 1, *ctrl]

    def index(self, label: str) -> int:
        return self._idx[label]

    def pair(self, x: np.ndarray, label_d: str) -> np.ndarray:
        k = self._idx[label_d]
        return x[k : k + 2]

    @property
    def has_sc(self) -> bool:
        return self.sc is not None

    @property
    def affine(self) -> bool:
        """rhs is affine in the state: the plant has no converter control."""
        return self.control == NO_CONVERTER

    # -- linear network ------------------------------------------------------

    def treatment(
        self, fault: Optional[FaultSpec], dt: Optional[float] = None
    ) -> tuple[np.ndarray, Optional[tuple[int, np.ndarray]]]:
        """State matrix with the fault (if given, it is active) applied, and
        the bus it pins (None when it pins none): the row of its node state
        and the (2, n) map from the state to its voltage. A fault that
        changes the matrix gives a new one; a itself is never written.

        Very large resistances are an open circuit. A shunt whose R*C time
        constant is at most 2 dt is handled quasi-statically: the bus is
        algebraic, pinned to its node-law value v = z i_net with
        z = 1 / (1/r - j w0 C), i_net the node's own law times C with its
        own block zeroed. The branches and the controller read that value;
        the node's rows are zero and the integrator writes the pinned value
        into the node state after every step. Without dt, or with a longer
        time constant, the shunt joins the node ODE as a conductance.
        """
        if fault is None or fault.r_fault >= FAULT_OPEN_THRESHOLD:
            return self.a, None
        k = self._idx[_FAULT_NODES[fault.bus] + "_d"]
        r_fault, c_bus = fault.r_fault, self.lc[k]
        a = self.a.copy()
        if dt is None or r_fault * c_bus > 2.0 * dt:
            a[k : k + 2, k : k + 2] -= np.eye(2) / (r_fault * c_bus)
            return a, None
        i_net = c_bus * a[k : k + 2]
        i_net[:, k : k + 2] = 0.0
        pin = _block(1.0 / complex(1.0 / r_fault, -OMEGA0 * c_bus)) @ i_net
        a += a[:, k : k + 2] @ (pin - np.eye(2, self.n, k))  # every law reads the pinned voltage
        a[k : k + 2] = 0.0
        return a, (k, pin)

    # -- right-hand side -----------------------------------------------------

    def emfs(self, refs: RefInputs) -> np.ndarray:
        """The source phasors (d, q) of refs, the grid source's and then the
        condenser EMF's (zero without the condenser), as the rows of a (4,)
        array, or of a (4, m) array for m-vector fields: b = source_map @ emfs."""
        v_g, angle, phi, e = refs.v_g_ref, refs.v_g_angle, refs.phi_sc, self._e_mag
        if isinstance(v_g, float) and isinstance(angle, float) and isinstance(phi, float):
            # one state's refs: math is several times cheaper than numpy on a float
            return np.array((v_g * math.cos(angle), v_g * math.sin(angle),
                             e * math.cos(phi), e * math.sin(phi)))
        out = np.empty((4, *np.broadcast(v_g, angle, phi).shape))
        out[0], out[1] = v_g * np.cos(angle), v_g * np.sin(angle)
        out[2], out[3] = e * np.cos(phi), e * np.sin(phi)
        return out

    def controller(self, refs: RefInputs) -> Callable[[Sequence], Sequence]:
        """g: the controller with its gains and refs bound, over the rows
        `reads` to the rows `writes`."""
        if self.control == GFL:
            return gfl_controller(self.gfl, refs, self.q_mode, self._lf)
        if self.control == GFM:
            return gfm_controller(self.gfm, refs, self._lf, self._cf)
        return lambda u: ()

    def rhs(
        self,
        x: np.ndarray,
        refs: RefInputs,
        fault: Optional[FaultSpec] = None,
        dt: Optional[float] = None,
    ) -> np.ndarray:
        """State derivative a x + b + E g(C x) of the plant with refs and
        the fault (if given, it is active; see treatment).

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
        a, pinned = self.treatment(fault, dt)
        single = x.ndim == 1
        dx = a @ x
        b = self.source_map @ self.emfs(refs)
        dx += b if single else b.reshape(self.n, -1)
        if pinned is not None and self.reads:  # the controller reads the pinned bus
            k, pin = pinned
            x = x.copy()
            x[k : k + 2] = pin @ x
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
        v_c = self.pair(x, "v_c_d")
        v_pcc = self.pair(x, "v_pcc_d")
        out["v_c_mag"] = np.hypot(v_c[0], v_c[1])
        out["v_pcc_mag"] = np.hypot(v_pcc[0], v_pcc[1])
        return out
