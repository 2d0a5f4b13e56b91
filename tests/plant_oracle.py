"""Per-component network right-hand sides and the plant composed from them.

These are the branch and node equations written one component at a time,
from the scenario's own records (the grid Impedance, NetworkSpec, ScParams):
each converts its reactances to inductances and capacitances itself.
The library evaluates the same network as one assembled state matrix
(``SystemModel.rhs``, fault-free; a fault through ``SystemModel.treatment``
and the integrator's step rule); the tests keep the component form, faults
included, as the reference it must reproduce. The frame-rotation helpers at
the end move a state and its source angles to a rotated common frame, for
the invariance checks.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from wppsc.components import (
    FAULT_OPEN_THRESHOLD,
    GFL,
    GFL_LAWS,
    GFM,
    GFM_LAW,
    NO_CONVERTER,
    OMEGA0,
    FaultSpec,
    NetworkSpec,
    RefInputs,
    ScParams,
    SystemModel,
)
from wppsc.netbase import Impedance


def jrot(v: np.ndarray) -> np.ndarray:
    """Multiply a dq pair by j: (d, q) -> (-q, d)."""
    return np.array([-v[1], v[0]])


def filter_lc(p: NetworkSpec, omega0: float = OMEGA0) -> tuple[float, float]:
    """Filter inductance and capacitor capacitance from their reactances:
    L_f = X_f / omega0, C_f = 1 / (omega0 X_cf)."""
    return p.xf / omega0, 1.0 / (omega0 * p.x_cf)


def law_values(law, gains, refs: RefInputs, p: NetworkSpec) -> tuple:
    """The values a control law binds, taken by name: its gains, its refs,
    and the filter's lf, b_cf = omega0 C_f and xf = omega0 L_f."""
    lf, cf = filter_lc(p)
    known = {**vars(gains), **vars(refs), "lf": lf, "b_cf": OMEGA0 * cf, "xf": OMEGA0 * lf}
    return tuple(known[name] for name in law.bound)


def grid_rhs(
    i_g: np.ndarray,
    v_pcc: np.ndarray,
    p: Impedance,
    omega0: float = OMEGA0,
    v_g: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Grid branch: L_g di/dt = -R_g i + j X_g i + v_g - v_pcc."""
    if v_g is None:  # a 1 pu source at zero angle
        v_g = np.array([1.0, 0.0])
    l_g = p.x / omega0
    return (-p.r * i_g + p.x * jrot(i_g) + v_g - v_pcc) / l_g


def sc_rhs(
    i_sc: np.ndarray,
    v_pcc: np.ndarray,
    p: ScParams,
    phi_sc: float,
    omega0: float = OMEGA0,
) -> np.ndarray:
    """Condenser branch with the subtransient inductance on the left side:

        (X''/omega0) di/dt = -R_tr i + j(X'' + X_tr) i + v_sc - v_pcc

    v_sc is the EMF phasor at angle phi_sc. The transformer resistance enters
    dissipatively (-R_tr i).
    """
    v_sc = p.e_mag * np.array([math.cos(phi_sc), math.sin(phi_sc)])
    l_sub = p.x_sub / omega0
    x_tot = p.x_sub + p.x_tr
    return (-p.r_tr * i_sc + x_tot * jrot(i_sc) + v_sc - v_pcc) / l_sub


def filter_cable_rhs(
    i_f: np.ndarray,
    v_c: np.ndarray,
    i_a: np.ndarray,
    v_pcc: np.ndarray,
    v_inv: np.ndarray,
    p: NetworkSpec,
    omega0: float = OMEGA0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Converter filter branch, shunt capacitor node and lumped array branch.

        L_f  di_f/dt = -R_f i_f + j X_f i_f - v_c + v_inv
        C_f  dv_c/dt = i_f - i_a + j omega0 C_f v_c
        L_at di_a/dt = v_c - R_at i_a + j X_at i_a - v_pcc

    with L = X / omega0 for each branch and C_f from X_cf (filter_lc).
    """
    lf, cf = filter_lc(p, omega0)
    di_f = (-p.rf * i_f + p.xf * jrot(i_f) - v_c + v_inv) / lf

    dv_c = (i_f - i_a) / cf + omega0 * jrot(v_c)

    r_at = p.ra + p.rtf
    x_at = p.xa + p.xtf
    di_a = (v_c - r_at * i_a + x_at * jrot(i_a) - v_pcc) / (x_at / omega0)
    return di_f, dv_c, di_a


def pcc_node_rhs(
    v_pcc: np.ndarray,
    i_net: np.ndarray,
    p: NetworkSpec,
    omega0: float = OMEGA0,
) -> np.ndarray:
    """PCC shunt node: C_pcc dv/dt = sum of branch currents into the bus
    + j omega0 C_pcc v."""
    return i_net / p.c_pcc + omega0 * jrot(v_pcc)



# ---------------------------------------------------------------------------
# the plant composed component by component


def _shunt(fault: Optional[FaultSpec], bus: str) -> float:
    """The conductance 1/r the fault puts at the named bus: 0 without a
    fault, at another bus, or at r >= FAULT_OPEN_THRESHOLD (an open
    circuit)."""
    if fault is None or fault.bus != bus or fault.r_fault >= FAULT_OPEN_THRESHOLD:
        return 0.0
    return 1.0 / fault.r_fault


def network_rhs(
    model: SystemModel,
    x: np.ndarray,
    refs: RefInputs,
    fault: Optional[FaultSpec],
    v_inv: np.ndarray,
) -> np.ndarray:
    """Derivative of the network laws at one plant state, component by
    component, driven by the sources of refs and the inverter voltage v_inv
    (zero in the controller rows). The fault (if given, it is active) is
    treated as the library's treatment treats it: a shunt conductance in
    its bus's node law, of any stiffness, and nothing at
    r >= FAULT_OPEN_THRESHOLD."""
    net = model.network
    w0 = OMEGA0
    cf = filter_lc(net, w0)[1]

    i_g = model.pair(x, "i_g_d")
    i_sc = model.pair(x, "i_sc_d") if model.sc is not None else None
    has_conv = model.control != NO_CONVERTER
    i_f = model.pair(x, "i_f_d") if has_conv else np.zeros(2)
    v_c = model.pair(x, "v_c_d")
    i_a = model.pair(x, "i_a_d")
    v_pcc = model.pair(x, "v_pcc_d")
    dx = np.zeros(model.n)

    v_g = refs.v_g_ref * np.array([math.cos(refs.v_g_angle), math.sin(refs.v_g_angle)])
    dx[0:2] = grid_rhs(i_g, v_pcc, model.grid, w0, v_g=v_g)

    k = 2
    if i_sc is not None:
        dx[k : k + 2] = sc_rhs(i_sc, v_pcc, model.sc, refs.phi_sc, w0)
        k += 2

    di_f, dv_c, di_a = filter_cable_rhs(i_f, v_c, i_a, v_pcc, v_inv, net, w0)
    if has_conv:
        dx[k : k + 2] = di_f
        k += 2

    dx[k : k + 2] = dv_c - _shunt(fault, "wt_mv") * v_c / cf
    k += 2

    dx[k : k + 2] = di_a
    k += 2

    i_into_pcc = i_a + i_g + (i_sc if i_sc is not None else 0.0)
    dx[k : k + 2] = pcc_node_rhs(v_pcc, i_into_pcc, net, w0) - _shunt(fault, "pcc") * v_pcc / net.c_pcc
    return dx


def composed_rhs(
    model: SystemModel,
    x: np.ndarray,
    refs: RefInputs,
    fault: Optional[FaultSpec] = None,
) -> np.ndarray:
    """State derivative of one plant state, component by component: the
    network laws (network_rhs) driven by the controller's inverter voltage,
    and the controller rates."""
    if model.control == NO_CONVERTER:
        return network_rhs(model, x, refs, fault, np.zeros(2))
    lf = filter_lc(model.network)[0]
    u = [float(v) for v in (*model.pair(x, "v_c_d"), *model.pair(x, "i_f_d"),
                            *model.pair(x, "i_a_d"), *x[-6:])]
    law, gains = (GFL_LAWS[model.q_mode], model.gfl) if model.control == GFL else (GFM_LAW, model.gfm)
    out = law.bind(law_values(law, gains, refs, model.network))(u)
    dx = network_rhs(model, x, refs, fault, lf * np.array(out[:2]))
    dx[-6:] = out[2:]
    return dx


def faulted_matrix(model: SystemModel, fault: Optional[FaultSpec]) -> np.ndarray:
    """The network laws under the fault as a state matrix L: column j is
    network_rhs at the unit state e_j less network_rhs at zero, undriven
    but for the condenser EMF, which the difference removes."""
    refs, v_inv = RefInputs(v_g_ref=0.0), np.zeros(2)
    zero = network_rhs(model, np.zeros(model.n), refs, fault, v_inv)
    return np.column_stack([network_rhs(model, e, refs, fault, v_inv) - zero for e in np.eye(model.n)])


# ---------------------------------------------------------------------------
# frame rotation


def rotate(v: np.ndarray, angle) -> np.ndarray:
    """Rotate a dq pair counterclockwise by angle."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def rotated_state(model: SystemModel, x: np.ndarray, alpha: float) -> np.ndarray:
    """State rotated by a common frame angle alpha.

    dq pairs rotate by alpha; the GFL PLL angle shifts by +alpha and the
    GFM swing angle by -alpha (their measurement transforms are mutually
    inverse). Integrator states are frame-local and unchanged. Callers
    rotate source angles (v_g_angle, phi_sc) with rotated_refs.
    """
    y = np.array(x, dtype=float)
    for lab in ("i_g_d", "i_sc_d", "i_f_d", "v_c_d", "i_a_d", "v_pcc_d"):
        if lab in model.labels:
            k = model.index(lab)
            y[k : k + 2] = rotate(x[k : k + 2], alpha)
    if model.control == GFL:
        y[model.index("theta_pll")] += alpha
    elif model.control == GFM:
        y[model.index("theta_pc")] -= alpha
    return y


def rotated_refs(refs: RefInputs, alpha: float) -> RefInputs:
    """Source angles advanced by a common frame angle."""
    return replace(refs, v_g_angle=refs.v_g_angle + alpha, phi_sc=refs.phi_sc + alpha)
