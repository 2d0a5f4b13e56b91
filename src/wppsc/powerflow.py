"""Equilibrium solver: damped Newton on the assembled RHS plus closure
equations.

Free unknowns beyond the state vector: the condenser EMF angle (closed by
zero condenser active power at the EMF) and, for the grid-following
converter in reactive-power mode, the reactive reference that places the
turbine terminal voltage on its target. The grid source angle is fixed at
zero, which removes the rotational null space from the Newton system.

Newton iterates on a row-scaled residual (each branch/node row multiplied by
its inductance/capacitance, controller rows normalized by their gain sums)
so the Jacobian is well conditioned; convergence is judged on the true
unscaled RHS with target 1e-10 and acceptance 1e-8 in the ∞-norm. A cold
start that stalls is retried along a source/power ramp (continuation) before
the case is declared non-convergent (residual stuck between 1e-8 and 1e-3)
or infeasible (stuck above 1e-3, e.g. power beyond the loadability limit).

Newton starts from the assembled network matrix itself (initial_guess): one
linear solve per batch with the converter current held, a constant-P fixed
point on that current per member, and the controller integrators from one
batched least-squares solve of the rows g writes, in which g is affine. With
the shunt capacitors in the solve, the start lies on the normal, small-angle
side of the power-flow nose curve even at weak-grid edges, where a second,
large-angle solution exists.

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
    network row's L or C (SystemModel.lc), the swing row's inertia and the
    PLL row's gain sum, and 1 on every other row."""
    out = np.ones(model.n + len(_unknowns(model)))
    out[: len(model.lc)] = model.lc
    if model.control == GFL:
        out[model.index("theta_pll")] = 1.0 / (1.0 + model.gfl.kp_pll + model.gfl.ki_pll)
    elif model.control == GFM:
        out[model.index("omega_pc")] = model.gfm.j_vsm
    return out


def _newton(
    model: SystemModel,
    z0: np.ndarray,
    refs: RefInputs,
    scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on each column of z0 (size, m), refs stacked likewise.
    A column leaves once its residual is below target or no step length
    lowers its merit; only the others are evaluated. Returns (z, iterations,
    true residual norms, converged), per column."""
    z = np.array(z0, dtype=float)
    f = _residual(model, z, refs)
    iters = np.full(z.shape[1], MAX_ITERATIONS)
    col_scale, jacobian = scale[:, None], _jacobian(model, scale)
    live = np.arange(z.shape[1])
    z_l, f_l, r_l = z, f, refs  # the columns still iterating
    done = np.abs(f).max(axis=0) < RESIDUAL_TARGET
    for it in range(1, MAX_ITERATIONS + 1):
        if it == 1 or np.count_nonzero(done):  # columns leave: converged or stalled
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
            better = stalled & (np.linalg.norm(col_scale * f_try, axis=0) < merit)
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
    """Newton's start for each member of refs, as the columns of z; scale is
    Newton's row scale (_row_scale), which keeps the solve well conditioned at
    any grid strength.

    One linear solve of the assembled fault-free network gives the state
    driven by the members' sources and the state per unit converter current
    i_a: the rows the controller writes hold the controller states at zero
    and i_a at its value, and every other state law is at rest. Per member,
    i_a then follows a constant-P fixed point on the turbine bus voltage, and
    the state is the superposition of the two. The controller angle is that
    of v_c (negated for the grid-forming frame), and the four integrators
    minimise Newton's row-scaled residual on the rows the controller writes:
    g is affine in them, so its value with each set to one gives their
    columns."""
    n, stacked, unknowns = model.n, RefInputs.stack(refs), _unknowns(model)
    a, b, reads, writes, _, _ = model.split(stacked)
    kv, ka = model.index("v_c_d"), model.index("i_a_d")
    b = b.reshape(n, -1)  # one source column, or one per member
    scale = scale[:n, None]
    k, eye, lhs = b.shape[1], np.eye(n), scale * a
    if writes:  # the i_f rows hold i_a, the controller rows hold their states
        lhs[writes] = eye[[ka, ka + 1, *writes[2:]]]
    # i_a is zero in the source columns and one unit (d, q) in the last two
    x = np.linalg.solve(lhs, np.concatenate((-scale * b, eye[:, writes[:2]]), axis=1))
    z = np.zeros((n + len(unknowns), len(refs)))  # the closure unknowns last
    if not writes:  # the passive plant: the network is the whole plant
        z[:n] = x
        return z

    v_c_cols = [complex(*v) for v in x[kv : kv + 2].T.tolist()]  # v_c of each column of x
    v_src, v_d, v_q = v_c_cols[:k], v_c_cols[k], v_c_cols[k + 1]
    i_a = []
    for j, r in enumerate(refs):
        v_c = complex(1.0, 0.0)
        for _ in range(3):
            i = (r.p_star / v_c).conjugate() if r.p_star != 0.0 else 0j
            v_c = v_src[j % k] + v_d * i.real + v_q * i.imag
        i_a.append(i)
    z[:n] = x[:, :k] + x[:, k:] @ np.array([[i.real for i in i_a], [i.imag for i in i_a]])
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
    z[n - 4 : n] = -np.linalg.solve(jt @ jt.transpose(0, 2, 1), jt @ f[:, 0].T[..., None])[..., 0].T
    return z


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
    scale = _row_scale(model)
    z0 = initial_guess(model, refs, scale)
    z, iters, norms, oks = _newton(model, z0, RefInputs.stack(refs), scale)
    if len(refs) > 1:  # a member that fails is solved alone, without the batch's rounding
        out = [_equilibrium(model, z[:, j], r, int(iters[j]), float(norms[j]), oks[j])
               for j, r in enumerate(refs)]
        return [solve_equilibria(model, [r])[0] if isinstance(eq, Exception) else eq
                for eq, r in zip(out, refs)]
    (r,) = refs
    zj, total_iters, true_norm, ok = z[:, 0], int(iters[0]), float(norms[0]), oks[0]
    if not ok:
        # continuation: walk the sources/power from an easy point to the target
        warm: np.ndarray | None = None
        for lam in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0):
            r_lam = _ramped_refs(r, lam)
            z_s = warm if warm is not None else initial_guess(model, [r_lam], scale)[:, 0]
            z_s, it_s, _, ok_s = _newton(model, z_s[:, None], RefInputs.stack([r_lam]), scale)
            total_iters += int(it_s[0])
            if not ok_s[0]:
                break
            warm = z_s[:, 0]
        if warm is not None:
            z_w, it_w, norm_w, ok_w = _newton(model, warm[:, None], RefInputs.stack([r]), scale)
            zj, true_norm, ok = z_w[:, 0], float(norm_w[0]), ok_w[0]
            total_iters += int(it_w[0])
    return [_equilibrium(model, zj, r, total_iters, true_norm, ok)]


def _equilibrium(model: SystemModel, z: np.ndarray, refs: RefInputs, iterations, true_norm, ok):
    """The EquilibriumPoint of a Newton result z, or the error that rejects it."""
    if not ok:
        if true_norm > INFEASIBLE_FLOOR:
            return InfeasibleError(iterations, true_norm)
        return NonConvergenceError(iterations, true_norm)
    x = z[: model.n].copy()
    refs_out = _refs_from_z(model, z.tolist(), refs)  # plain floats in the result
    for lab in ("v_c_d", "v_pcc_d"):
        mag = float(np.hypot(*model.pair(x, lab)))
        if not VOLTAGE_BAND[0] < mag < VOLTAGE_BAND[1]:
            return InfeasibleError(
                iterations,
                true_norm,
                detail=f"|{lab[:-2]}| = {mag:.3f} pu outside the sanity band {VOLTAGE_BAND}",
            )
    return EquilibriumPoint(
        state=x,
        refs=refs_out,
        phi_sc=refs_out.phi_sc,
        q_star=refs_out.q_star if "q_star" in _unknowns(model) else None,
        residual_norm=true_norm,
        iterations=iterations,
    )
