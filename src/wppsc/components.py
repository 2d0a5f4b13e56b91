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

Every branch and node law is linear in the state, so SystemModel assembles
the network once as a dense state matrix (one matrix per fault treatment,
built on first use) around a small nonlinear controller. SystemModel.split
says that once: for given inputs and fault the plant is
x' = a x + b + E g(C x), with a the treatment matrix, b the sources, C the
linear map to the controller inputs, g the controller and E the rows its
outputs add to (Split). SystemModel.derivative binds it as x -> dx, and rhs
is one bound call. It accepts one state of shape (n,), whose controller
runs on Python floats, or a batch of states as the columns of an (n, m)
array, whose controller runs on row vectors, through the same code. The
integrator folds the linear part of its RK4 stages from the same split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi
OMEGA0 = TWO_PI * 50.0  # rad/s at 50 Hz

GFL = "gfl"
GFM = "gfm"
NO_CONVERTER = "none"

Q_MODE_REACTIVE = "reactive"
Q_MODE_VOLTAGE = "voltage"

# Fault shunts at least this large are treated as an open circuit.
FAULT_OPEN_THRESHOLD = 1e8
FAULT_BUSES = ("pcc", "wt_mv")


def power_pair(v: np.ndarray, i: np.ndarray) -> tuple[float, float]:
    """Active/reactive power of a (voltage, current) pair."""
    return (v[0] * i[0] + v[1] * i[1], v[1] * i[0] - v[0] * i[1])


def _block(z: complex) -> np.ndarray:
    """Real 2x2 matrix that multiplies a dq pair by the complex number z."""
    return np.array([[z.real, -z.imag], [z.imag, z.real]])


# ---------------------------------------------------------------------------
# parameter sets


@dataclass(frozen=True)
class GridParams:
    """Thevenin grid branch rg + j xg behind the v_g_ref source (RefInputs)."""

    rg: float
    xg: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.xg) and self.xg > 0.0):
            raise ValueError(f"grid xg must be > 0, got {self.xg}")
        if not (math.isfinite(self.rg) and self.rg >= 0.0):
            raise ValueError(f"grid rg must be >= 0, got {self.rg}")


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
    enabled: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_sub) and self.x_sub > 0.0):
            raise ValueError(f"sc x_sub must be > 0, got {self.x_sub}")
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
        for name in ("kp_pll", "ki_pll", "kp_pc", "ki_pc", "kp_cc", "ki_cc"):
            v = getattr(self, name)
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
        for name in ("j_vsm", "d_p", "kp_v", "ki_v", "kp_c", "ki_c"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"gfm gain {name} must be > 0, got {v}")


@dataclass(frozen=True)
class FilterCableParams:
    """Converter filter, lumped array-cable/plant-transformer branch and PCC
    shunt. Inductances and capacitances are pu (reactance = omega0 * l,
    capacitive reactance = 1 / (omega0 * c))."""

    rf: float
    lf: float
    cf: float
    ra: float
    la: float
    rtf: float
    ltf: float
    c_pcc: float = 1e-4

    def __post_init__(self) -> None:
        if not self.lf > 0.0:
            raise ValueError(f"filter lf must be > 0, got {self.lf}")
        if not self.cf > 0.0:
            raise ValueError(f"filter cf must be > 0, got {self.cf}")
        if not self.la + self.ltf > 0.0:
            raise ValueError(f"array+transformer inductance must be > 0, got {self.la + self.ltf}")
        if not self.c_pcc > 0.0:
            raise ValueError(f"c_pcc must be > 0, got {self.c_pcc}")
        for name in ("rf", "ra", "rtf"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.la < 0.0 or self.ltf < 0.0:
            raise ValueError("la and ltf must be >= 0")

    @classmethod
    def from_reactances(
        cls,
        rf: float = 0.005,
        xf: float = 0.08,
        x_cf: float = 15.0,
        ra: float = 0.006,
        xa: float = 0.03,
        rtf: float = 0.005,
        xtf: float = 0.06,
        c_pcc: float = 1e-4,
        omega0: float = OMEGA0,
    ) -> "FilterCableParams":
        """Build from engineering reactances at the nominal frequency."""
        return cls(
            rf=rf,
            lf=xf / omega0,
            cf=1.0 / (omega0 * x_cf),
            ra=ra,
            la=xa / omega0,
            rtf=rtf,
            ltf=xtf / omega0,
            c_pcc=c_pcc,
        )


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


def gfl_rhs(
    ctrl: Sequence,
    v_c: Sequence,
    i_f: Sequence,
    p_pc: float,
    q_pc: float,
    p: GflParams,
    refs: RefInputs,
    q_mode: str = Q_MODE_REACTIVE,
) -> tuple[tuple, tuple]:
    """Grid-following control: PLL, outer power PI, inner current PI.

    ctrl = [theta_pll, s_pll, gamma_d, gamma_q, o_d, o_q] where theta_pll is
    stored relative to the synchronous frame so its rate is zero at an
    equilibrium (the absolute rate is omega0 + dctrl[0]). Measurements are
    the filter-capacitor voltage and converter current rotated into the PLL
    frame; the inverter voltage reference is rotated back into the common
    frame. Returns (dctrl, v_inv) as tuples.

    Every argument row is a float for one state, or an m-vector (one value
    per column of a batch of states); the results then carry the same
    columns.
    """
    delta, s_pll, gamma_d, gamma_q, o_d, o_q = ctrl
    fn = math if isinstance(delta, float) else np
    c, s = fn.cos(delta), fn.sin(delta)

    # measurements in the PLL frame: rotation by -delta
    v_md, v_mq = c * v_c[0] + s * v_c[1], c * v_c[1] - s * v_c[0]
    i_md, i_mq = c * i_f[0] + s * i_f[1], c * i_f[1] - s * i_f[0]

    d_delta = p.kp_pll * v_mq + p.ki_pll * s_pll

    e_p = refs.p_star - p_pc
    i_star_d = p.kp_pc * e_p + p.ki_pc * gamma_d

    if q_mode == Q_MODE_REACTIVE:
        e_q = refs.q_star - q_pc
        # raising i_q lowers q, hence the inverted PI output
        i_star_q = -(p.kp_pc * e_q + p.ki_pc * gamma_q)
        d_gamma_q = e_q
    elif q_mode == Q_MODE_VOLTAGE:
        e_v = refs.v_turb_star - fn.hypot(v_c[0], v_c[1])
        i_star_q = p.kp_pc * e_v + p.ki_pc * gamma_q
        d_gamma_q = e_v
    else:
        raise ValueError(f"unknown q-channel mode {q_mode!r}")

    d_od, d_oq = i_star_d - i_md, i_star_q - i_mq
    v_sd = v_md + p.kp_cc * d_od + p.ki_cc * o_d
    v_sq = v_mq + p.kp_cc * d_oq + p.ki_cc * o_q
    v_inv = (c * v_sd - s * v_sq, s * v_sd + c * v_sq)
    return (d_delta, v_mq, e_p, d_gamma_q, d_od, d_oq), v_inv


def gfm_rhs(
    ctrl: Sequence,
    v_c: Sequence,
    i_f: Sequence,
    i_a: Sequence,
    p_pc: float,
    p: GfmParams,
    refs: RefInputs,
    flt: FilterCableParams,
    omega0: float = OMEGA0,
) -> tuple[tuple, tuple]:
    """Grid-forming control: swing synchronization, outer voltage PI with
    capacitor-current feedforward, inner current PI with inductor
    feedforward.

    ctrl = [theta_pc, omega_pc, m_d, m_q, o_d, o_q], theta_pc relative to the
    synchronous frame (absolute rate is omega0 + omega_pc). The swing advances
    the applied EMF angle when power falls short of its reference:

        J domega/dt = p* - p_pc - D_p omega,   dtheta/dt = omega

    Returns (dctrl, v_inv) as tuples; rows may be floats or m-vectors, as
    for gfl_rhs.
    """
    delta, omega_pc, m_d, m_q, o_d, o_q = ctrl
    fn = math if isinstance(delta, float) else np
    c, s = fn.cos(delta), fn.sin(delta)

    # measurements and feedforward in the controller frame: rotation by delta
    v_md, v_mq = c * v_c[0] - s * v_c[1], s * v_c[0] + c * v_c[1]
    i_md, i_mq = c * i_f[0] - s * i_f[1], s * i_f[0] + c * i_f[1]
    i_ffd, i_ffq = c * i_a[0] - s * i_a[1], s * i_a[0] + c * i_a[1]

    d_omega = (refs.p_star - p_pc - p.d_p * omega_pc) / p.j_vsm

    e_vd, e_vq = refs.v_turb_star - v_md, -v_mq
    b_cf = omega0 * flt.cf  # capacitor susceptance 1 / x_cf
    i_star_d = i_ffd + p.kp_v * e_vd + p.ki_v * m_d - v_mq * b_cf
    i_star_q = i_ffq + p.kp_v * e_vq + p.ki_v * m_q + v_md * b_cf

    e_id, e_iq = i_star_d - i_md, i_star_q - i_mq
    xf = omega0 * flt.lf
    v_sd = v_md + p.kp_c * e_id + p.ki_c * o_d - xf * i_mq
    v_sq = v_mq + p.kp_c * e_iq + p.ki_c * o_q + xf * i_md
    v_inv = (c * v_sd + s * v_sq, c * v_sq - s * v_sd)
    return (omega_pc, d_omega, e_vd, e_vq, e_id, e_iq), v_inv


# ---------------------------------------------------------------------------
# assembled system


class Split(NamedTuple):
    """The plant over one event segment as x' = a x + b + E g(C x), and the
    bus it pins. a is the state matrix under the fault treatment and b the
    source vector. g is the controller: it maps the state rows `reads`,
    read after the pinned-bus write, to outputs that add to the state rows
    `writes`, as Python floats or as row vectors alike. So C is the rows
    `reads` of the pinned-bus write (the identity with the pinned node's
    rows replaced by its voltage map, see SystemModel._treatment), and E the
    columns `writes` of the identity. For the converter plant the inputs are
    v_c, i_f, i_a and the six controller states, and the outputs v_inv / lf
    (into the i_f rows) and the six controller rates; the passive plant has
    no controller, and both lists are empty."""

    a: np.ndarray
    b: np.ndarray
    reads: list[int]
    writes: list[int]
    g: Callable[[Sequence], Sequence]
    pinned: Optional[tuple[int, np.ndarray]]


class SystemModel:
    """One scenario's assembled ODE: x_dot = rhs(x, refs).

    State layout (dq pairs contiguous):
        i_g, [i_sc], [i_f], v_c, i_a, v_pcc, [6 controller states]
    i_sc appears only with the condenser enabled, i_f and the controller
    block only when a converter is present. Dimensions: converter without
    condenser 16, with condenser 18; the passive (converter-open) network is
    8 or 10.
    """

    def __init__(
        self,
        grid: GridParams,
        network: FilterCableParams,
        control: str = GFL,
        gfl: Optional[GflParams] = None,
        gfm: Optional[GfmParams] = None,
        sc: Optional[ScParams] = None,
        q_mode: str = Q_MODE_REACTIVE,
        omega0: float = OMEGA0,
    ) -> None:
        if control not in (GFL, GFM, NO_CONVERTER):
            raise ValueError(f"control must be one of gfl/gfm/none, got {control!r}")
        if q_mode not in (Q_MODE_REACTIVE, Q_MODE_VOLTAGE):
            raise ValueError(f"q_mode must be reactive or voltage, got {q_mode!r}")
        self.grid = grid
        self.network = network
        self.control = control
        self.gfl = gfl if gfl is not None else (GflParams() if control == GFL else None)
        self.gfm = gfm if gfm is not None else (GfmParams() if control == GFM else None)
        self.sc = sc if (sc is not None and sc.enabled) else None
        self.q_mode = q_mode
        self.omega0 = omega0

        labels = ["i_g_d", "i_g_q"]
        if self.sc is not None:
            labels += ["i_sc_d", "i_sc_q"]
        if control != NO_CONVERTER:
            labels += ["i_f_d", "i_f_q"]
        labels += ["v_c_d", "v_c_q", "i_a_d", "i_a_q", "v_pcc_d", "v_pcc_q"]
        if control == GFL:
            labels += ["theta_pll", "s_pll", "gamma_d", "gamma_q", "o_d", "o_q"]
        elif control == GFM:
            labels += ["theta_pc", "omega_pc", "m_d", "m_q", "o_d", "o_q"]
        self.labels: tuple[str, ...] = tuple(labels)
        self.n = len(labels)
        self._idx = {name: k for k, name in enumerate(labels)}
        self._treatments: dict = {}
        # the state rows the controller reads and those its outputs add to (Split)
        self._reads: list[int] = []
        self._writes: list[int] = []
        if control != NO_CONVERTER:
            kv, kf, ka = self._idx["v_c_d"], self._idx["i_f_d"], self._idx["i_a_d"]
            ctrl = list(range(self.n - 6, self.n))
            self._reads = [kv, kv + 1, kf, kf + 1, ka, ka + 1, *ctrl]
            self._writes = [kf, kf + 1, *ctrl]

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

    def _network_matrix(self) -> np.ndarray:
        """State matrix of the fault-free network: each branch and node law
        contributes 2x2 blocks of its complex coefficients. The sources, the
        inverter voltage and the controller rows are added by rhs."""
        net, w0, g = self.network, self.omega0, self.grid
        a = [[0.0] * self.n for _ in range(self.n)]  # filled as floats, one array at the end

        def put(row: str, col: str, z: complex) -> None:
            r, c, z = self._idx[row], self._idx[col], complex(z)
            for i, j, v in ((0, 0, z.real), (0, 1, -z.imag), (1, 0, z.imag), (1, 1, z.real)):
                a[r + i][c + j] += v

        # L_g di_g/dt = -R_g i_g + j X_g i_g + v_g - v_pcc
        l_g = g.xg / w0
        put("i_g_d", "i_g_d", complex(-g.rg, g.xg) / l_g)
        put("i_g_d", "v_pcc_d", -1.0 / l_g)
        if self.sc is not None:
            # (X''/w0) di_sc/dt = -R_tr i_sc + j(X'' + X_tr) i_sc + v_sc - v_pcc
            l_sub = self.sc.x_sub / w0
            put("i_sc_d", "i_sc_d", complex(-self.sc.r_tr, self.sc.x_sub + self.sc.x_tr) / l_sub)
            put("i_sc_d", "v_pcc_d", -1.0 / l_sub)
            put("v_pcc_d", "i_sc_d", 1.0 / net.c_pcc)
        if self.control != NO_CONVERTER:
            # L_f di_f/dt = -R_f i_f + j X_f i_f - v_c + v_inv
            put("i_f_d", "i_f_d", complex(-net.rf, w0 * net.lf) / net.lf)
            put("i_f_d", "v_c_d", -1.0 / net.lf)
            put("v_c_d", "i_f_d", 1.0 / net.cf)
        # C_f dv_c/dt = i_f - i_a + j w0 C_f v_c
        put("v_c_d", "v_c_d", 1j * w0)
        put("v_c_d", "i_a_d", -1.0 / net.cf)
        # L_at di_a/dt = v_c - R_at i_a + j X_at i_a - v_pcc
        l_at = net.la + net.ltf
        put("i_a_d", "v_c_d", 1.0 / l_at)
        put("i_a_d", "i_a_d", complex(-(net.ra + net.rtf), w0 * l_at) / l_at)
        put("i_a_d", "v_pcc_d", -1.0 / l_at)
        # C_pcc dv_pcc/dt = i_g + i_sc + i_a + j w0 C_pcc v_pcc
        put("v_pcc_d", "i_g_d", 1.0 / net.c_pcc)
        put("v_pcc_d", "i_a_d", 1.0 / net.c_pcc)
        put("v_pcc_d", "v_pcc_d", 1j * w0)
        return np.array(a)

    def _treatment(
        self, fault: Optional[FaultSpec], dt: Optional[float]
    ) -> tuple[np.ndarray, Optional[tuple[int, np.ndarray]]]:
        """State matrix with the active fault applied, and the bus the fault
        pins (None when it pins none): the row of its node state and the
        (2, n) map from the state to its voltage. Built on first use and
        cached per treatment.

        Very large resistances are an open circuit (no-op). A shunt whose
        R*C time constant is short relative to the integration step dt is
        handled quasi-statically: the bus is algebraic, pinned to its
        node-law value v = i_net / (1/r - j w0 C). The branches and the
        controller read that value and nothing reads the node state; its
        rows are zero and the integrator writes the pinned value into it
        after every step. Without dt, or with a longer time constant, the
        shunt joins the node ODE as an ordinary conductance.
        """
        key = None
        if fault is not None and fault.r_fault < FAULT_OPEN_THRESHOLD:
            c_bus = self.network.c_pcc if fault.bus == "pcc" else self.network.cf
            key = (fault.bus, fault.r_fault, dt is not None and fault.r_fault * c_bus <= 2.0 * dt)
        if key not in self._treatments:
            self._treatments[key] = (
                self._fault_matrices(*key) if key else (self._network_matrix(), None)
            )
        return self._treatments[key]

    def _fault_matrices(
        self, bus: str, r_fault: float, algebraic: bool
    ) -> tuple[np.ndarray, Optional[tuple[int, np.ndarray]]]:
        a = self._network_matrix()
        if bus == "pcc":
            node, c_bus = "v_pcc_d", self.network.c_pcc
            feeds = (("i_g_d", 1.0), ("i_sc_d", 1.0), ("i_a_d", 1.0))
        else:
            node, c_bus = "v_c_d", self.network.cf
            feeds = (("i_f_d", 1.0), ("i_a_d", -1.0))
        k = self._idx[node]
        if not algebraic:
            a[k : k + 2, k : k + 2] -= np.eye(2) / (r_fault * c_bus)
            return a, None
        z_node = 1.0 / complex(1.0 / r_fault, -self.omega0 * c_bus)
        pin = np.zeros((2, self.n))
        for lab, sign in feeds:
            if lab in self._idx:
                j = self._idx[lab]
                pin[:, j : j + 2] = _block(sign * z_node)
        own = np.zeros((2, self.n))
        own[:, k : k + 2] = np.eye(2)
        a += a[:, k : k + 2] @ (pin - own)  # every law reads the pinned voltage
        a[k : k + 2] = 0.0
        return a, (k, pin)

    # -- right-hand side -----------------------------------------------------

    def split(
        self,
        refs: RefInputs,
        fault: Optional[FaultSpec] = None,
        dt: Optional[float] = None,
    ) -> Split:
        """The plant with refs and the fault (if given, it is active) bound,
        as x' = a x + b + E g(C x) (see Split)."""
        a, pinned = self._treatment(fault, dt)
        w0 = self.omega0
        e_g = refs.v_g_ref * w0 / self.grid.xg
        b = np.zeros((self.n, *np.broadcast(refs.v_g_ref, refs.v_g_angle, refs.phi_sc).shape))
        b[0], b[1] = e_g * np.cos(refs.v_g_angle), e_g * np.sin(refs.v_g_angle)
        if self.sc is not None:
            k = self._idx["i_sc_d"]
            e_sc = self.sc.e_mag * w0 / self.sc.x_sub
            b[k], b[k + 1] = e_sc * np.cos(refs.phi_sc), e_sc * np.sin(refs.phi_sc)
        if self.control == NO_CONVERTER:
            return Split(a, b, [], [], lambda u: (), pinned)

        lf, gfl, gfm, q_mode, net = self.network.lf, self.gfl, self.gfm, self.q_mode, self.network
        is_gfl = self.control == GFL

        def g(u):
            v_c, i_f, i_a = u[0:2], u[2:4], u[4:6]
            p_pc, q_pc = power_pair(v_c, i_a)
            if is_gfl:
                dctrl, v_inv = gfl_rhs(u[6:12], v_c, i_f, p_pc, q_pc, gfl, refs, q_mode)
            else:
                dctrl, v_inv = gfm_rhs(u[6:12], v_c, i_f, i_a, p_pc, gfm, refs, net, w0)
            return (v_inv[0] / lf, v_inv[1] / lf, *dctrl)

        return Split(a, b, self._reads, self._writes, g, pinned)

    def derivative(
        self,
        refs: RefInputs,
        fault: Optional[FaultSpec] = None,
        dt: Optional[float] = None,
    ) -> Callable[[np.ndarray], np.ndarray]:
        """State derivative x -> a x + b + E g(C x) of the plant split with
        refs and the fault bound once (see split).

        x is one state of shape (n,) or a batch of states as the columns of
        an (n, m) array; with a batch, any field of refs may also be an
        m-vector, one value per column. Column j of a batch result agrees
        with the single-state result for column j to roundoff. A single
        state runs the controller on Python floats, a batch on row vectors.
        """
        a, b, reads, writes, g, pinned = self.split(refs, fault, dt)
        b_cols = b.reshape(self.n, -1)

        def f(x: np.ndarray) -> np.ndarray:
            dx = a @ x
            single = x.ndim == 1
            dx += b if single else b_cols
            if pinned is not None and reads:  # the controller reads the pinned bus
                k, pin = pinned
                x = x.copy()
                x[k : k + 2] = pin @ x
            rows = x.tolist() if single else x
            for r, out in zip(writes, g([rows[i] for i in reads])):
                dx[r] += out
            return dx

        return f

    def rhs(
        self,
        x: np.ndarray,
        refs: RefInputs,
        fault: Optional[FaultSpec] = None,
        dt: Optional[float] = None,
    ) -> np.ndarray:
        """Assembled state derivative of one state or a batch of states; see
        derivative, which binds refs and the fault for repeated calls. A
        batch of one column is evaluated as one state."""
        if x.ndim == 2 and x.shape[1] == 1:
            return self.derivative(refs.take(0), fault, dt)(x[:, 0])[:, None]
        return self.derivative(refs, fault, dt)(x)

    # -- measurements ---------------------------------------------------------

    def measure_powers(self, x: np.ndarray, refs: RefInputs) -> dict:
        """Interface powers: converter output (turbine bus into the array
        branch), grid source, condenser EMF. x may be a batch of columns."""
        out = {}
        out["p_pc"], out["q_pc"] = power_pair(self.pair(x, "v_c_d"), self.pair(x, "i_a_d"))
        v_g = (refs.v_g_ref * np.cos(refs.v_g_angle), refs.v_g_ref * np.sin(refs.v_g_angle))
        out["p_g"], out["q_g"] = power_pair(v_g, self.pair(x, "i_g_d"))
        if self.sc is not None:
            v_sc = (self.sc.e_mag * np.cos(refs.phi_sc), self.sc.e_mag * np.sin(refs.phi_sc))
            out["p_sc"], out["q_sc"] = power_pair(v_sc, self.pair(x, "i_sc_d"))
        else:
            out["p_sc"], out["q_sc"] = 0.0, 0.0
        return out

    def measure(self, x: np.ndarray, refs: RefInputs) -> dict:
        out = self.measure_powers(x, refs)
        v_c = self.pair(x, "v_c_d")
        v_pcc = self.pair(x, "v_pcc_d")
        out["v_c_mag"] = np.hypot(v_c[0], v_c[1])
        out["v_pcc_mag"] = np.hypot(v_pcc[0], v_pcc[1])
        return out
