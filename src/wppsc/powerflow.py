"""Equilibrium solver: damped Newton on the assembled RHS plus closure
equations.

Free unknowns beyond the state vector: the condenser EMF angle (closed by
zero condenser active power at the EMF) and, for the grid-following
converter in reactive-power mode, the reactive reference that places the
turbine terminal voltage on its target. The grid source angle is fixed at
zero, which removes the rotational null space from the Newton system.

Newton iterates on a row-scaled residual (each branch/node row multiplied by
its inductance/capacitance) so the Jacobian is well conditioned; convergence
is judged after a step on the true unscaled RHS, with target 1e-10 and
acceptance 1e-8 in the ∞-norm. A cold start that stalls is retried along a
source/power ramp (continuation) before the case is declared non-convergent
(residual stuck between 1e-8 and 1e-3) or infeasible (stuck above 1e-3, e.g.
power beyond the loadability limit).

Newton starts at the plant's power flow (initial_guess): every control
settles with p_pc = p_star and |v_c| = v_turb_star at the turbine bus (a PV
bus) and no active power at the condenser EMF, and the network is linear, so
a small Newton on i_a and phi_sc (_power_flow) gives the whole state. Newton's
first step certifies that start: a step whose true residual lands below
target is taken whole, so a start at the solution takes one step, unhalved.

solve_equilibria solves the operating points of one model as one Newton on
the columns of z: one Jacobian stack and one stacked solve per iteration,
while each column searches its own step and stops on its own. A column that
fails is solved again alone, where a cold start that stalls takes the
continuation, so that its error is the one it has alone.

The Jacobian is linearize.split_jacobian over the unknowns: the network
matrix exactly, plus one central difference of the controller, the
condenser's source rows of b and the closure rows over the controller's
inputs, i_sc and the closure unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .components import GFL, GFM, Q_MODE_REACTIVE, RefInputs, SystemModel, power_pair
# numjac stays importable here for perfbench's tracer
from .linearize import numjac, split_jacobian  # noqa: F401

RESIDUAL_TARGET = 1e-10
RESIDUAL_ACCEPT = 1e-8
INFEASIBLE_FLOOR = 1e-3
MAX_ITERATIONS = 50
MAX_HALVINGS = 8
VOLTAGE_BAND = (0.5, 1.5)


class NonConvergenceError(RuntimeError):
    """Newton stalled with a small-but-not-converged residual."""

    def __init__(self, iterations: int, final_residual: float, detail: str = ""):
        msg = f"no convergence after {iterations} iterations, residual {final_residual:.3e}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.iterations = iterations
        self.final_residual = final_residual


class InfeasibleError(RuntimeError):
    """Residual stagnated far from zero: no equilibrium at this operating
    point (e.g. requested power beyond the network's loadability)."""

    def __init__(self, iterations: int, final_residual: float, detail: str = ""):
        msg = f"no equilibrium found, residual stuck at {final_residual:.3e}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.iterations = iterations
        self.final_residual = final_residual


@dataclass(frozen=True)
class EquilibriumPoint:
    """A solved operating point: state, resolved reference inputs, and
    solver diagnostics."""

    state: np.ndarray
    refs: RefInputs
    phi_sc: float
    q_star: float | None
    residual_norm: float
    iterations: int


def _unknowns(model: SystemModel) -> list[str]:
    """The refs fields Newton solves for, in the order they follow the state."""
    solves_q = model.control == GFL and model.q_mode == Q_MODE_REACTIVE
    return ["phi_sc"] * model.has_sc + ["q_star"] * solves_q


def _refs_from_z(model: SystemModel, z: np.ndarray, refs: RefInputs) -> RefInputs:
    """refs with the solved-for inputs read from z; rows of z are m-vectors
    when z holds a batch of points as columns."""
    names = _unknowns(model)
    return replace(refs, **dict(zip(names, z[model.n :]))) if names else refs


def _residual(model: SystemModel, z: np.ndarray, refs: RefInputs) -> np.ndarray:
    """Plant RHS plus closure rows at z, of shape (size,) or (size, m)."""
    if z.ndim == 2 and z.shape[1] == 1:  # one column: as one state
        return _residual(model, z[:, 0], refs.take(0))[:, None]
    x, r = z[: model.n], _refs_from_z(model, z, refs)
    out = np.empty(z.shape)
    out[: model.n] = model.rhs(x, r)
    for k, row in enumerate(_closures(model, x, r), model.n):
        out[k] = row
    return out


def _closures(model: SystemModel, x, r: RefInputs) -> list:
    """The closure rows at the states x (an array, or a list of state rows):
    zero active power at the condenser EMF, then |v_c| on its target, each
    where its unknown is solved for."""
    unknowns, out = _unknowns(model), []
    if "phi_sc" in unknowns:
        i_sc = model.pair(x, "i_sc_d")
        out.append(model.sc.e_mag * (np.cos(r.phi_sc) * i_sc[0] + np.sin(r.phi_sc) * i_sc[1]))
    if "q_star" in unknowns:
        v_c = model.pair(x, "v_c_d")
        out.append(np.hypot(v_c[0], v_c[1]) - r.v_turb_star)
    return out


def _jacobian(model: SystemModel, scale: np.ndarray):
    """Newton's Jacobian of the row-scaled residual, bound for the model as
    jac(z, refs) (split_jacobian over the closure unknowns): its nonlinear
    part adds the condenser's source rows of b and the closure rows, which
    read v_c among the controller's reads."""
    n = model.n
    fields = _unknowns(model)
    k_sc = [model.index("i_sc_d") + i for i in (0, 1)] if model.has_sc else []

    def extra(xs: list, r: RefInputs) -> list:
        src = model.sources(r) if k_sc else {}
        return [*(src[k] for k in k_sc), *_closures(model, xs, r)]

    jac = split_jacobian(model, fields, k_sc, extra, [*k_sc, *range(n, n + len(fields))])
    return lambda z, refs: scale[:, None] * jac(z, refs, 1e-7)


def _row_scale(model: SystemModel) -> np.ndarray:
    """Multipliers that undo the stiff 1/L, 1/C factors row by row: each
    network row's L or C (SystemModel.lc), and 1 on every other row."""
    out = np.ones(model.n + len(_unknowns(model)))
    out[: len(model.lc)] = model.lc
    return out


@np.errstate(over="ignore", invalid="ignore")  # a non-finite trial is never taken
def _newton(
    model: SystemModel,
    z0: np.ndarray,
    refs: RefInputs,
    scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on each column of z0 (size, m), refs stacked likewise.
    Each column takes at least one step, a step that lowers its merit or
    lands its true residual below target, and leaves once below target or
    when no step length lowers its merit; only the others are evaluated.
    Returns (z, iterations, true residual norms, converged), per column."""
    z = np.array(z0, dtype=float)
    f = _residual(model, z, refs)
    iters = np.full(z.shape[1], MAX_ITERATIONS)
    col_scale, jacobian = scale[:, None], _jacobian(model, scale)
    live = np.arange(z.shape[1])
    z_l, f_l, r_l = z, f, refs  # the columns still iterating
    done = np.zeros(z.shape[1], dtype=bool)
    for it in range(1, MAX_ITERATIONS + 1):
        if np.count_nonzero(done):  # columns leave: converged or stalled
            z[:, live], f[:, live] = z_l, f_l
            iters[live[done]] = it - 1
            live, z_l, f_l, r_l = live[~done], z_l[:, ~done], f_l[:, ~done], r_l.take(~done)
            if not live.size:
                break
        f_s = col_scale * f_l
        jac = jacobian(z_l, r_l)
        step = _solve(jac, -f_s)
        merit = np.linalg.norm(f_s, axis=0)
        lam, stalled = 1.0, np.ones(live.size, dtype=bool)  # until a step lowers the merit
        for _ in range(MAX_HALVINGS + 1):
            z_try = z_l + lam * step
            f_try = _residual(model, z_try, r_l)
            better = stalled & ((np.linalg.norm(col_scale * f_try, axis=0) < merit)
                                | (np.abs(f_try).max(axis=0) < RESIDUAL_TARGET))
            if better.all():  # every column takes this step
                z_l, f_l, stalled = z_try, f_try, ~better
                break
            z_l, f_l = np.where(better, z_try, z_l), np.where(better, f_try, f_l)
            stalled &= ~better
            if not np.count_nonzero(stalled):
                break
            lam *= 0.5
        done = stalled | (np.abs(f_l).max(axis=0) < RESIDUAL_TARGET)
    z[:, live], f[:, live] = z_l, f_l
    norm = np.abs(f).max(axis=0)
    return z, iters, norm, norm < RESIDUAL_ACCEPT


def _solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Columns s_j of the stacked systems jac[j] s_j = rhs[:, j]; a singular
    member alone falls back to least squares."""
    try:
        return np.linalg.solve(jac, rhs.T[..., None])[..., 0].T
    except np.linalg.LinAlgError:
        if len(jac) == 1:
            return np.linalg.lstsq(jac[0], rhs, rcond=None)[0]
        return np.hstack([_solve(jac[j : j + 1], rhs[:, j : j + 1]) for j in range(len(jac))])


def initial_guess(model: SystemModel, refs: Sequence[RefInputs], scale: np.ndarray) -> np.ndarray:
    """Newton's start for each member of refs, as the columns of z: the
    plant's power flow. scale is Newton's row scale (_row_scale), which
    keeps the linear solve well conditioned at any grid strength.

    One linear solve of the fault-free network, with the rows the controller
    writes holding i_a and the controller states, gives the state per grid
    source, per unit i_a and per unit condenser EMF (d, q); the state is their
    superposition at the i_a and phi_sc of _power_flow. The controller angle
    is that of v_c (negated for the grid-forming frame), and the four
    integrators minimise Newton's row-scaled residual on the rows the
    controller writes: g is affine in them, so its value with each set to
    one gives their columns."""
    n, m, stacked, unknowns = model.n, len(refs), RefInputs.stack(refs), _unknowns(model)
    a, b, reads, writes, _, _ = model.split(replace(stacked, phi_sc=0.0))
    kv, ka = model.index("v_c_d"), model.index("i_a_d")
    b = b.reshape(n, -1)  # one grid source column, or one per member
    k, eye, scale, ks = b.shape[1], np.eye(n), scale[:n, None], kv  # ks: i_sc's row, if any
    lhs, rhs = scale * a, np.hstack((-scale * b, np.zeros((n, 4))))  # then unit i_a, unit EMF
    if writes:  # the i_f rows hold i_a, the controller rows hold their states
        lhs[writes] = eye[[ka, ka + 1, *writes[2:]]]
        rhs[writes[:2], [k, k + 1]] = 1.0
    if model.has_sc:  # the EMF at angle 0 (d) and pi/2 (q), apart from the grid source
        ks = model.index("i_sc_d")
        rhs[[ks, ks + 1], [k + 2, k + 3]] = rhs[ks, 0]
        rhs[ks : ks + 2, :k] = 0.0
    x = np.linalg.solve(lhs, rhs)
    u = _power_flow(model, x[kv] + 1j * x[kv + 1], x[ks] + 1j * x[ks + 1], k, stacked, m)
    z = np.zeros((n + len(unknowns), m))  # the closure unknowns last, phi_sc first
    z[:n] = x[:, :k] + x[:, k:] @ np.array([u[0], u[1], np.cos(u[2]), np.sin(u[2])])
    z[n : n + model.has_sc] = u[2]
    if not writes:  # the passive plant: the network is the whole plant
        return z
    if "q_star" in unknowns:
        z[-1] = power_pair(z[kv : kv + 2], z[ka : ka + 2])[1]
    z[n - 6] = np.arctan2(z[kv + 1], z[kv]) * (-1.0 if model.control == GFM else 1.0)
    # the writes rows at five probes per member: the integrators at zero, then each at one
    g, probes = model.controller(_refs_from_z(model, z, stacked)), np.eye(5, 4, -1).T[..., None]
    f = np.repeat((a[writes] @ z[:n])[:, None], 5, axis=1)
    for row, out in zip(f, g([*z[reads[:-4]], *probes])):
        row += out
    f *= scale[writes, :, None]
    jt = (f[:, 1:] - f[:, :1]).transpose(2, 1, 0)  # per member, the integrators' columns as rows
    z[n - 4 : n] = -_solve(jt @ jt.transpose(0, 2, 1), (jt @ f[:, 0].T[..., None])[..., 0].T)
    return z


def _power_flow(model: SystemModel, v, i_sc, k: int, refs: RefInputs, m: int) -> np.ndarray:
    """The plant's power flow of m members, as the columns of u: i_a (d, q)
    and phi_sc with p_pc = p_star and |v_c| = v_turb_star at the turbine bus
    and no active power at the condenser EMF, on the equations whose
    unknowns the plant has; v and i_sc are the v_c and i_sc phasors of the
    columns of initial_guess's network solve. A damped Newton in which each
    member steps, halves and stops on its own, at its best finite iterate,
    from i_a at p_star / vt in phase with v_c at zero i_a and, with the
    condenser, the EMF angle without power at that i_a."""
    (v0, va, vs), (s0, sa, ss) = ((c[:k], c[k], c[k + 2]) for c in (v, i_sc))
    p, vt, e_mag = refs.p_star, refs.v_turb_star, model.sc.e_mag if model.has_sc else 0.0
    rows = np.flatnonzero([bool(model.writes)] * 2 + [model.has_sc])
    sel, d_i, d_e = np.ix_(rows, rows), np.array([[1.0], [1j], [0.0]]), np.array([[0.0], [0.0], [1j]])
    dv_i, dsc_i, d_ic = va * d_i, sa * d_i, d_i.conj()  # over (i_a d, i_a q, phi_sc)
    u, i = np.zeros((3, m)), p / vt * np.exp(1j * np.angle(v0 + vs))
    u[0], u[1] = i.real, i.imag
    if e_mag:  # Re(e conj(g)) = -Re(ss) on the EMF e, g the i_sc with the EMF shorted
        g = s0 + sa * i
        u[2] = np.angle(g) + np.arccos(np.clip(-ss.real / np.abs(g), -1.0, 1.0))

    def flow(u: np.ndarray) -> tuple:  # the residual rows, and their Jacobian per member
        i, e = u[0] + 1j * u[1], np.exp(1j * u[2])
        vc, isc, de = v0 + va * i + vs * e, s0 + sa * i + ss * e, d_e * e
        ic, vcc, iscc, dv = i.conj(), vc.conj(), isc.conj(), dv_i + vs * de
        f = np.array([vc * ic - p, vc * vcc - vt**2, e_mag * e * iscc]).real
        jac = np.array([dv * ic + vc * d_ic, 2.0 * vcc * dv, e_mag * (de * iscc + e * (dsc_i + ss * de).conj())])
        return f[rows], jac.real[sel].transpose(2, 0, 1)

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite trial is never taken
        f, jac = flow(u)
        merit, lam, step = (f * f).sum(axis=0), np.ones(m), np.zeros_like(u)
        for _ in range(MAX_ITERATIONS * (MAX_HALVINGS + 1)):  # a step, or a halving of it
            live = (merit >= RESIDUAL_TARGET**2) & (lam >= 0.5**MAX_HALVINGS)
            if not live.any():
                break
            step[rows] = np.where(lam == 1.0, _solve(jac, -f), step[rows])
            f_try, jac_try = flow(u + lam * step)
            m_try = (f_try * f_try).sum(axis=0)
            better = live & (m_try < merit)
            u, f, merit = (np.where(better, new, old)
                           for new, old in ((u + lam * step, u), (f_try, f), (m_try, merit)))
            jac, lam = np.where(better[:, None, None], jac_try, jac), np.where(better, 1.0, 0.5 * lam)
    return u


def _ramped_refs(refs: RefInputs, lam: float) -> RefInputs:
    p0 = min(0.1, refs.p_star)
    return replace(
        refs,
        v_g_ref=1.0 + (refs.v_g_ref - 1.0) * lam,
        v_turb_star=1.0 + (refs.v_turb_star - 1.0) * lam,
        p_star=p0 + (refs.p_star - p0) * lam,
    )


def solve_equilibrium(model: SystemModel, refs: RefInputs) -> EquilibriumPoint:
    """Find the equilibrium for the given reference inputs (one-member
    solve_equilibria).

    Raises NonConvergenceError or InfeasibleError when no acceptable solution
    is found; a converged solution outside the (0.5, 1.5) pu voltage sanity
    band is also reported infeasible.
    """
    (eq,) = solve_equilibria(model, [refs])
    if isinstance(eq, Exception):
        raise eq
    return eq


def solve_equilibria(model: SystemModel, refs: Sequence[RefInputs]) -> list:
    """Equilibria of one model for each member of refs, solved as one batch.
    Member j is its EquilibriumPoint, or the NonConvergenceError or
    InfeasibleError that solve_equilibrium would raise for it alone."""
    if not refs:
        return []
    scale = _row_scale(model)
    z0 = initial_guess(model, refs, scale)
    z, iters, norms, oks = _newton(model, z0, RefInputs.stack(refs), scale)
    if len(refs) == 1 and not oks[0]:
        # continuation: walk the sources/power from an easy point to the target
        (r,), warm = refs, None
        for lam in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0):
            r_lam = _ramped_refs(r, lam)
            z_s = warm if warm is not None else initial_guess(model, [r_lam], scale)
            z_s, it_s, _, ok_s = _newton(model, z_s, RefInputs.stack([r_lam]), scale)
            iters = iters + it_s
            if not ok_s[0]:
                break
            warm = z_s
        if warm is not None:
            z, it_w, norms, oks = _newton(model, warm, RefInputs.stack([r]), scale)
            iters = iters + it_w
    kv, kp = model.index("v_c_d"), model.index("v_pcc_d")
    with np.errstate(over="ignore"):  # a member that failed may lie past float range
        mags = np.hypot(z[[kv, kp]], z[[kv + 1, kp + 1]]).T.tolist()  # |v_c|, |v_pcc| per member
    out = [_equilibrium(model, *member)
           for member in zip(z.T.tolist(), mags, refs, iters.tolist(), norms.tolist(), oks.tolist())]
    if len(refs) > 1:  # a member that fails is solved alone, without the batch's rounding
        out = [solve_equilibria(model, [r])[0] if isinstance(eq, Exception) else eq
               for eq, r in zip(out, refs)]
    return out


def _equilibrium(model: SystemModel, z: list, mags: list, refs: RefInputs, iterations, true_norm, ok):
    """The EquilibriumPoint of a Newton result z, or the error that rejects
    it; mags are its |v_c| and |v_pcc|."""
    if not ok:
        if true_norm > INFEASIBLE_FLOOR:
            return InfeasibleError(iterations, true_norm)
        return NonConvergenceError(iterations, true_norm)
    for lab, mag in zip(("v_c", "v_pcc"), mags):
        if not VOLTAGE_BAND[0] < mag < VOLTAGE_BAND[1]:
            return InfeasibleError(
                iterations,
                true_norm,
                detail=f"|{lab}| = {mag:.3f} pu outside the sanity band {VOLTAGE_BAND}",
            )
    refs_out = _refs_from_z(model, z, refs)  # plain floats in the result
    return EquilibriumPoint(
        state=np.array(z[: model.n]),
        refs=refs_out,
        phi_sc=refs_out.phi_sc,
        q_star=refs_out.q_star if "q_star" in _unknowns(model) else None,
        residual_norm=true_norm,
        iterations=iterations,
    )
