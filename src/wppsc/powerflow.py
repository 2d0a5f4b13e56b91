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
One call pays for one network solve, four to six power-flow passes of a few
stacked products each, one controller call over five probes and the
certifying step; a member adds only its columns to that arithmetic. On a
2-vCPU x86-64 machine (numpy 2.4) one weak-grid member costs about 0.4 ms to
start and 0.2 ms to certify, and each further member of a group about 10 µs.

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


class SolveError(RuntimeError):
    """The equilibrium solve failed after `iterations` Newton iterations at
    the true residual ∞-norm `final_residual`, as the subclass's `message`
    says; detail, if any, says why."""

    def __init__(self, iterations: int, final_residual: float, detail: str = ""):
        msg = self.message.format(iterations=iterations, final_residual=final_residual)
        super().__init__(f"{msg} ({detail})" if detail else msg)
        self.iterations = iterations
        self.final_residual = final_residual
        self.detail = detail


class NonConvergenceError(SolveError):
    """Newton stalled with a small-but-not-converged residual."""

    message = "no convergence after {iterations} iterations, residual {final_residual:.3e}"


class InfeasibleError(SolveError):
    """Residual stagnated far from zero: no equilibrium at this operating
    point (e.g. requested power beyond the network's loadability)."""

    message = "no equilibrium found, residual stuck at {final_residual:.3e}"


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
        e, i_sc = model.emfs(r), model.pair(x, "i_sc_d")
        out.append(e[2] * i_sc[0] + e[3] * i_sc[1])
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
    s_sc = model.source_map[k_sc]

    def extra(xs: list, r: RefInputs) -> list:
        return [*(s_sc @ model.emfs(r)), *_closures(model, xs, r)]

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
    live, z_l, f_l, r_l = np.arange(z.shape[1]), z, f, refs  # the columns still iterating
    for it in range(1, MAX_ITERATIONS + 1):
        f_s = col_scale * f_l
        step = _solve(jacobian(z_l, r_l), -f_s)
        merit = np.sqrt((f_s**2).sum(axis=0))
        lam, stalled = 1.0, np.ones(live.size, dtype=bool)  # until a step lowers the merit
        for _ in range(MAX_HALVINGS + 1):
            z_try = z_l + lam * step
            f_try = _residual(model, z_try, r_l)
            better = stalled & ((np.sqrt(((col_scale * f_try)**2).sum(axis=0)) < merit)
                                | (np.abs(f_try).max(axis=0) < RESIDUAL_TARGET))
            if better.all():  # every column takes this step
                z_l, f_l, stalled = z_try, f_try, ~better
                break
            z_l, f_l = np.where(better, z_try, z_l), np.where(better, f_try, f_l)
            stalled &= ~better
            if not np.count_nonzero(stalled):
                break
            lam *= 0.5
        norm = np.abs(f_l).max(axis=0)
        done = stalled | (norm < RESIDUAL_TARGET)
        if done.all() and live.size == z.shape[1]:  # every column leaves at once
            return z_l, np.full(live.size, it), norm, norm < RESIDUAL_ACCEPT
        if done.any():  # columns leave: converged or stalled
            z[:, live], f[:, live], iters[live[done]] = z_l, f_l, it
            live, z_l, f_l, r_l = live[~done], z_l[:, ~done], f_l[:, ~done], r_l.take(~done)
            if not live.size:
                break
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
    source, per unit i_a and per condenser EMF at angle 0 and pi/2 (each
    right-hand side from SystemModel.source_map); the state is their
    superposition at the i_a and phi_sc of _power_flow. The controller angle
    is that of v_c (negated for the grid-forming frame), and the four
    integrators minimise Newton's row-scaled residual on the rows the
    controller writes: g is affine in them, so its value with each set to
    one gives their columns."""
    n, m, stacked, unknowns = model.n, len(refs), RefInputs.stack(refs), _unknowns(model)
    a, s, reads, writes = model.a, model.source_map, model.reads, model.writes
    kv, ka = model.index("v_c_d"), model.index("i_a_d")
    v_g = model.emfs(stacked)[:2].reshape(2, -1)  # the grid source: shared, or one per member
    k, scale, e_mag = v_g.shape[1], scale[:n, None], model.sc.e_mag if model.has_sc else 0.0
    # the grid source, unit i_a (d, q), then the EMF at angle 0 (d) and pi/2 (q)
    lhs, rhs = scale * a, np.hstack((-scale * (s[:, :2] @ v_g), np.zeros((n, 2)), -e_mag * scale * s[:, 2:]))
    if writes:  # the i_f rows hold i_a, the controller rows hold their states
        lhs[writes], lhs[writes, [ka, ka + 1, *writes[2:]]] = 0.0, 1.0
        rhs[writes[:2], [k, k + 1]] = 1.0
    ks = model.index("i_sc_d") if model.has_sc else kv  # i_sc's row, if any
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
    condenser, the EMF angle without power at that i_a.

    v_c and i_sc are affine in w = (1, i_a d, i_a q, cos phi_sc, sin phi_sc),
    so each equation is a quadratic form w^T h w, built once per call, and
    its gradient over w is (h + h^T) w: one pass is a few stacked products."""
    (v0, va, vs), (s0, sa, ss) = ((c[:k], c[k], c[k + 2]) for c in (v, i_sc))
    p, vt, e_mag = refs.p_star, refs.v_turb_star, model.sc.e_mag if model.has_sc else 0.0
    rows = slice(0 if model.writes else 2, 2 + model.has_sc)  # the equations, and their unknowns
    vi, lin = np.array([v.real, v.imag, i_sc.real, i_sc.imag]), np.empty((k, 4, 5))
    lin[..., 0], lin[..., 1:] = vi[:, :k].T, vi[:, k:]  # (v_c d, q, i_sc d, q) over w, per member
    vc, h = lin[:, :2], np.zeros((m, 3, 5, 5))  # v_c . i_a - p, |v_c|^2 - vt^2, e_mag (cos, sin) . i_sc
    h[:, 0, 1:3], h[:, 1], h[:, 2, 3:] = vc, vc.transpose(0, 2, 1) @ vc, e_mag * lin[:, 2:]
    h[:, 0, 0, 0], h[:, 1, 0, 0] = -p, h[:, 1, 0, 0] - vt**2
    h = (h[:, rows] + h[:, rows].transpose(0, 1, 3, 2)).reshape(m, -1, 5)
    w, dw = np.ones((m, 5)), np.zeros((m, 5, 3))  # w and dw/du, filled at each u
    dw[:, 1, 0] = dw[:, 2, 1] = 1.0
    u, i = np.zeros((m, 3)), p / vt * np.exp(1j * np.angle(v0 + vs))
    u[:, 0], u[:, 1] = i.real, i.imag
    if e_mag:  # Re(e conj(g)) = -Re(ss) on the EMF e, g the i_sc with the EMF shorted
        g = s0 + sa * i
        u[:, 2] = np.angle(g) + np.arccos(np.clip(-ss.real / np.abs(g), -1.0, 1.0))

    def flow(u: np.ndarray) -> tuple:  # the residual rows, and their Jacobian, per member
        w[:, 1:3], w[:, 3], w[:, 4] = u[:, :2], np.cos(u[:, 2]), np.sin(u[:, 2])
        dw[:, 3, 2], dw[:, 4, 2] = -w[:, 4], w[:, 3]
        hw = (h @ w[..., None]).reshape(m, -1, 5)
        return 0.5 * (hw @ w[..., None])[..., 0], hw @ dw[..., rows]

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite trial is never taken
        f, jac = flow(u)
        merit, lam, step = (f * f).sum(axis=1), np.ones(m), np.zeros_like(u)
        for _ in range(MAX_ITERATIONS * (MAX_HALVINGS + 1)):  # a step, or a halving of it
            live = (merit >= RESIDUAL_TARGET**2) & (lam >= 0.5**MAX_HALVINGS)
            if not live.any():
                break
            # a member that halves has the jac and f it had: solving again gives its step
            step[:, rows] = _solve(jac, -f.T).T
            u_try = u + lam[:, None] * step
            f_try, jac_try = flow(u_try)
            m_try = (f_try * f_try).sum(axis=1)
            better = live & (m_try < merit)
            if not better.all():  # a member that halves or stops keeps its iterate
                u_try, f_try = np.where(better[:, None], u_try, u), np.where(better[:, None], f_try, f)
                jac_try, m_try = np.where(better[:, None, None], jac_try, jac), np.where(better, m_try, merit)
            u, f, jac, merit, lam = u_try, f_try, jac_try, m_try, np.where(better, 1.0, 0.5 * lam)
    return u.T


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
