"""Per-component network right-hand sides and the plant composed from them.

These are the branch and node equations written one component at a time,
from the scenario's own records (the grid Impedance, NetworkSpec, ScParams):
each converts its reactances to inductances and capacitances itself.
The library evaluates the same network as one assembled state matrix
(``SystemModel.rhs``); the tests keep the component form as the reference it
must reproduce. The frame-rotation helpers at the end move a state and its
source angles to a rotated common frame, for the invariance checks.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from wppsc.components import (
    FAULT_OPEN_THRESHOLD,
    GFL,
    GFM,
    NO_CONVERTER,
    OMEGA0,
    FaultSpec,
    NetworkSpec,
    RefInputs,
    ScParams,
    SystemModel,
    gfl_controller,
    gfm_controller,
)
from wppsc.netbase import Impedance


def jrot(v: np.ndarray) -> np.ndarray:
    """Multiply a dq pair by j: (d, q) -> (-q, d)."""
    return np.array([-v[1], v[0]])


def filter_lc(p: NetworkSpec, omega0: float = OMEGA0) -> tuple[float, float]:
    """Filter inductance and capacitor capacitance from their reactances:
    L_f = X_f / omega0, C_f = 1 / (omega0 X_cf)."""
    return p.xf / omega0, 1.0 / (omega0 * p.x_cf)


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


def _fault_mode(fault: Optional[FaultSpec], c_bus: float, dt: Optional[float]) -> str:
    if fault is None or fault.r_fault >= FAULT_OPEN_THRESHOLD:
        return "off"
    if dt is not None and fault.r_fault * c_bus <= 2.0 * dt:
        return "algebraic"
    return "shunt"


def composed_rhs(
    model: SystemModel,
    x: np.ndarray,
    refs: RefInputs,
    fault: Optional[FaultSpec] = None,
    dt: Optional[float] = None,
) -> np.ndarray:
    """State derivative of one plant state, component by component, with the
    same fault treatments as ``SystemModel.rhs``."""
    net = model.network
    w0 = OMEGA0
    lf, cf = filter_lc(net, w0)

    i_g = model.pair(x, "i_g_d")
    i_sc = model.pair(x, "i_sc_d") if model.sc is not None else None
    has_conv = model.control != NO_CONVERTER
    i_f = model.pair(x, "i_f_d") if has_conv else np.zeros(2)
    v_c = model.pair(x, "v_c_d")
    i_a = model.pair(x, "i_a_d")
    v_pcc = model.pair(x, "v_pcc_d")

    fault_bus = fault.bus if (fault is not None and fault.r_fault < FAULT_OPEN_THRESHOLD) else None
    mode_vc = _fault_mode(fault, cf, dt) if fault_bus == "wt_mv" else "off"
    mode_pcc = _fault_mode(fault, net.c_pcc, dt) if fault_bus == "pcc" else "off"

    # an algebraic fault pins the bus to its quasi-steady value
    # v = i_net / (1/r - j w C)
    dx = np.empty(model.n)
    if mode_pcc == "algebraic":
        i_into_pcc = i_a + i_g + (i_sc if i_sc is not None else 0.0)
        zi = complex(i_into_pcc[0], i_into_pcc[1])
        zv = zi / complex(1.0 / fault.r_fault, -w0 * net.c_pcc)
        v_pcc = np.array([zv.real, zv.imag])
    if mode_vc == "algebraic":
        i_net_c = i_f - i_a
        zi = complex(i_net_c[0], i_net_c[1])
        zv = zi / complex(1.0 / fault.r_fault, -w0 * cf)
        v_c = np.array([zv.real, zv.imag])

    if has_conv:  # the controller outputs v_inv / lf and the six controller rates
        u = [float(v) for v in (*v_c, *i_f, *i_a, *x[-6:])]
        if model.control == GFL:
            out = gfl_controller(model.gfl, refs, model.q_mode, lf)(u)
        else:
            out = gfm_controller(model.gfm, refs, lf, cf)(u)
        v_inv, dctrl = lf * np.array(out[:2]), out[2:]

    v_g = refs.v_g_ref * np.array([math.cos(refs.v_g_angle), math.sin(refs.v_g_angle)])
    dx[0:2] = grid_rhs(i_g, v_pcc, model.grid, w0, v_g=v_g)

    k = 2
    if i_sc is not None:
        dx[k : k + 2] = sc_rhs(i_sc, v_pcc, model.sc, refs.phi_sc, w0)
        k += 2

    if has_conv:
        di_f, dv_c, di_a = filter_cable_rhs(i_f, v_c, i_a, v_pcc, np.array(v_inv), net, w0)
        dx[k : k + 2] = di_f
        k += 2
    else:
        _, dv_c, di_a = filter_cable_rhs(np.zeros(2), v_c, i_a, v_pcc, np.zeros(2), net, w0)

    if mode_vc == "algebraic":
        dx[k : k + 2] = 0.0  # the integrator writes the pinned bus into the state
    elif mode_vc == "shunt":
        dx[k : k + 2] = dv_c - v_c / (fault.r_fault * cf)
    else:
        dx[k : k + 2] = dv_c
    k += 2

    dx[k : k + 2] = di_a
    k += 2

    i_into_pcc = i_a + i_g + (i_sc if i_sc is not None else 0.0)
    if mode_pcc == "algebraic":
        dx[k : k + 2] = 0.0
    elif mode_pcc == "shunt":
        dx[k : k + 2] = (
            pcc_node_rhs(v_pcc, i_into_pcc, net, w0) - v_pcc / (fault.r_fault * net.c_pcc)
        )
    else:
        dx[k : k + 2] = pcc_node_rhs(v_pcc, i_into_pcc, net, w0)
    k += 2

    if has_conv:
        dx[k : k + 6] = dctrl
    return dx


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
